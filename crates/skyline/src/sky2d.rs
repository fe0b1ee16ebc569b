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
    // Sort indices by A1 descending, index ascending.
    let mut keyed: Vec<(u64, u32)> =
        data.rows().enumerate().map(|(i, r)| (descending_bits(r[0]), i as u32)).collect();
    keyed.sort_unstable();
    skyline_2d_sorted(keyed.into_iter().map(|(_, i)| {
        let r = data.row(i as usize);
        (i, [r[0], r[1]])
    }))
}

/// The skyline of 2D points given as `(id, point)` by descending first
/// coordinate (in any order among equal ones): their ids, ascending.
///
/// One max scan: a point survives iff it has its group's best second
/// coordinate (otherwise a member of its group of equal first coordinate
/// dominates it) and beats every point with a strictly larger first one
/// on the second.
pub fn skyline_2d_sorted(points: impl IntoIterator<Item = (u32, [f64; 2])>) -> Vec<u32> {
    let mut out = Vec::new();
    // The best second coordinate among the groups scanned before this one.
    let mut ahead = f64::NEG_INFINITY;
    // The current group's first coordinate and best second coordinate,
    // and the members that reach it.
    let (mut first, mut best) = (f64::NAN, f64::NEG_INFINITY);
    let mut leaders: Vec<u32> = Vec::new();
    for (id, [a, b]) in points {
        if a != first {
            if best > ahead {
                out.append(&mut leaders);
                ahead = best;
            }
            leaders.clear();
            (first, best) = (a, f64::NEG_INFINITY);
        }
        if b > best {
            best = b;
            leaders.clear();
        }
        if b == best {
            leaders.push(id);
        }
    }
    if best > ahead {
        out.append(&mut leaders);
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
