//! `O(n log n)` skyline for two attributes.

use rrm_core::rank::descending_bits;
use rrm_core::Dataset;

/// Indices of the skyline tuples of a 2D dataset, ascending by index.
///
/// Exact duplicates are all kept (dominance requires strictness), matching
/// [`crate::dominance::dominates`].
///
/// # Panics
/// Panics when `data.dim() != 2`.
pub fn skyline_2d(data: &Dataset) -> Vec<u32> {
    assert_eq!(data.dim(), 2, "skyline_2d requires d = 2");
    let n = data.n();
    // Sort indices by A1 descending, A2 descending, index ascending.
    let mut keyed: Vec<(u64, u64, u32)> = data
        .rows()
        .enumerate()
        .map(|(i, r)| (descending_bits(r[0]), descending_bits(r[1]), i as u32))
        .collect();
    keyed.sort_unstable();
    let idx: Vec<u32> = keyed.into_iter().map(|(_, _, i)| i).collect();

    let mut out = Vec::new();
    // Max A2 among tuples with strictly larger A1 than the current group.
    let mut prev_max_a2 = f64::NEG_INFINITY;
    let mut i = 0;
    while i < n {
        // Group of equal A1.
        let a1 = data.row(idx[i] as usize)[0];
        let mut j = i;
        let mut group_max_a2 = f64::NEG_INFINITY;
        while j < n && data.row(idx[j] as usize)[0] == a1 {
            group_max_a2 = group_max_a2.max(data.row(idx[j] as usize)[1]);
            j += 1;
        }
        // A tuple survives iff it has the group's best A2 (otherwise a
        // same-A1, higher-A2 member dominates it) and beats every tuple
        // with strictly larger A1 on A2.
        for &id in &idx[i..j] {
            let a2 = data.row(id as usize)[1];
            if a2 == group_max_a2 && a2 > prev_max_a2 {
                out.push(id);
            }
        }
        prev_max_a2 = prev_max_a2.max(group_max_a2);
        i = j;
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::dominates;

    fn brute_force(data: &Dataset) -> Vec<u32> {
        (0..data.n() as u32)
            .filter(|&i| {
                !(0..data.n() as u32)
                    .any(|j| j != i && dominates(data.row(j as usize), data.row(i as usize)))
            })
            .collect()
    }

    #[test]
    fn table_one_skyline() {
        // Table I: skyline = {t1, t2, t3, t4, t7} (Figure 4's skyline lines
        // l1, l2, l3, l4, l7).
        let d = Dataset::from_rows(&[
            [0.0, 1.0],
            [0.4, 0.95],
            [0.57, 0.75],
            [0.79, 0.6],
            [0.2, 0.5],
            [0.35, 0.3],
            [1.0, 0.0],
        ])
        .unwrap();
        assert_eq!(skyline_2d(&d), vec![0, 1, 2, 3, 6]);
    }

    #[test]
    fn duplicates_are_kept() {
        let d = Dataset::from_rows(&[[0.5, 0.5], [0.5, 0.5], [0.2, 0.2]]).unwrap();
        assert_eq!(skyline_2d(&d), vec![0, 1]);
    }

    #[test]
    fn equal_a1_groups() {
        // Same A1: only the max-A2 member survives; it also shadows later
        // groups.
        let d = Dataset::from_rows(&[[0.5, 0.3], [0.5, 0.8], [0.4, 0.7], [0.4, 0.9]]).unwrap();
        assert_eq!(skyline_2d(&d), vec![1, 3]);
    }

    #[test]
    fn single_tuple() {
        let d = Dataset::from_rows(&[[0.1, 0.2]]).unwrap();
        assert_eq!(skyline_2d(&d), vec![0]);
    }

    #[test]
    fn totally_ordered_chain() {
        let d = Dataset::from_rows(&[[0.1, 0.1], [0.2, 0.2], [0.3, 0.3]]).unwrap();
        assert_eq!(skyline_2d(&d), vec![2]);
    }

    #[test]
    fn anti_chain_keeps_everything() {
        let d = Dataset::from_rows(&[[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]]).unwrap();
        assert_eq!(skyline_2d(&d), vec![0, 1, 2]);
    }

    #[test]
    fn matches_brute_force_on_random_data() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..50 {
            let n = rng.random_range(1..60);
            // Quantized values make ties common.
            let rows: Vec<[f64; 2]> = (0..n)
                .map(|_| {
                    [
                        (rng.random_range(0..10) as f64) / 10.0,
                        (rng.random_range(0..10) as f64) / 10.0,
                    ]
                })
                .collect();
            let d = Dataset::from_rows(&rows).unwrap();
            assert_eq!(skyline_2d(&d), brute_force(&d), "trial {trial}: {rows:?}");
        }
    }
}
