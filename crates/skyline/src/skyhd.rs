//! Sort-filter skyline (SFS) for arbitrary dimensionality.
//!
//! Tuples are scanned in descending attribute-sum order. A dominating
//! tuple (≥ everywhere, > somewhere) never has a smaller sum, since f64
//! addition is monotone, but rounding can make the two sums equal (a
//! difference below one ulp, or both `+inf`). Tuples of equal sum are
//! therefore scanned lexicographically descending, where a dominator comes
//! first too, so comparing each tuple only against already-accepted
//! skyline members is sound. Worst case `O(n·s·d)` with `s` the skyline
//! size — the standard practical choice for the moderate dimensionalities
//! of the paper (`d ≤ 6`).
//!
//! One scan serves [`skyline`] and [`crate::IncrementalSkyline::build`].
//! Its window of accepted members holds fixed-size rows for `d = 2..=8`,
//! dispatched as the scoring kernel is. A tuple is tested against the
//! first 16 members one by one, where most dominated tuples meet their
//! dominator, then against blocks of 8 members with no branch per
//! member.

use rrm_core::rank::descending_bits;
use rrm_core::Dataset;

use crate::dominance::dominates;
use crate::sky2d::skyline_2d;

/// Sentinel in [`sfs`]'s dominator buffer for skyline members.
pub(crate) const NO_DOM: u32 = u32::MAX;

/// Window members a tuple is tested against one by one, with an exit at
/// the first dominator.
const WINDOW_HEAD: usize = 16;
/// Members per branch-free block past the head.
const WINDOW_BLOCK: usize = 8;

/// Indices of the skyline tuples, ascending by index. Dispatches to the
/// specialized 2D sweep when `d = 2`.
pub fn skyline(data: &Dataset) -> Vec<u32> {
    if data.dim() == 2 {
        return skyline_2d(data);
    }
    let mut sky = sfs(data).0;
    sky.sort_unstable();
    sky
}

/// One SFS pass: tuples in descending attribute-sum order, equal sums
/// lexicographically descending, then index ascending, each kept when no
/// member accepted before it dominates it. Returns the members in
/// acceptance order, and per tuple the first member in that order that
/// dominates it ([`NO_DOM`] for members).
pub(crate) fn sfs(data: &Dataset) -> (Vec<u32>, Vec<u32>) {
    let mut order: Vec<(u64, u32)> =
        data.rows().enumerate().map(|(i, r)| (descending_bits(r.iter().sum()), i as u32)).collect();
    order.sort_unstable();
    let lexicographic = |i: u32| data.row(i as usize).iter().map(|&v| descending_bits(v));
    for run in order.chunk_by_mut(|a, b| a.0 == b.0).filter(|run| run.len() > 1) {
        run.sort_unstable_by(|a, b| lexicographic(a.1).cmp(lexicographic(b.1)).then(a.1.cmp(&b.1)));
    }
    let order: Vec<u32> = order.into_iter().map(|(_, i)| i).collect();
    let mut dom_of = vec![NO_DOM; data.n()];
    let sky = match data.dim() {
        2 => scan_fixed::<2>(data, &order, &mut dom_of),
        3 => scan_fixed::<3>(data, &order, &mut dom_of),
        4 => scan_fixed::<4>(data, &order, &mut dom_of),
        5 => scan_fixed::<5>(data, &order, &mut dom_of),
        6 => scan_fixed::<6>(data, &order, &mut dom_of),
        7 => scan_fixed::<7>(data, &order, &mut dom_of),
        8 => scan_fixed::<8>(data, &order, &mut dom_of),
        _ => scan_generic(data, &order, &mut dom_of),
    };
    (sky, dom_of)
}

/// [`sfs`]'s scan for a compile-time dimension: the window keeps each
/// member's row as a `[f64; D]` beside its index.
fn scan_fixed<const D: usize>(data: &Dataset, order: &[u32], dom_of: &mut [u32]) -> Vec<u32> {
    let mut ids: Vec<u32> = Vec::new();
    let mut rows: Vec<[f64; D]> = Vec::new();
    for &i in order {
        let t: [f64; D] = data.row(i as usize).try_into().expect("rows have d attributes");
        match first_dominator(&rows, &t) {
            Some(w) => dom_of[i as usize] = ids[w],
            None => {
                ids.push(i);
                rows.push(t);
            }
        }
    }
    ids
}

/// Position of the first row of `window` that dominates `t`.
#[inline]
fn first_dominator<const D: usize>(window: &[[f64; D]], t: &[f64; D]) -> Option<usize> {
    let head = window.len().min(WINDOW_HEAD);
    if let Some(w) = window[..head].iter().position(|a| dominates_fixed(a, t)) {
        return Some(w);
    }
    for (b, block) in window[head..].chunks(WINDOW_BLOCK).enumerate() {
        let mut hits = 0u32;
        for (m, a) in block.iter().enumerate() {
            hits |= (dominates_fixed(a, t) as u32) << m;
        }
        if hits != 0 {
            return Some(head + b * WINDOW_BLOCK + hits.trailing_zeros() as usize);
        }
    }
    None
}

/// [`dominates`] on fixed-size finite rows, with no branch: `a ≥ b`
/// everywhere and `a > b` somewhere.
#[inline(always)]
fn dominates_fixed<const D: usize>(a: &[f64; D], b: &[f64; D]) -> bool {
    let (mut ge, mut gt) = (true, false);
    for j in 0..D {
        ge &= a[j] >= b[j];
        gt |= a[j] > b[j];
    }
    ge & gt
}

/// [`sfs`]'s scan for dimensions outside `2..=8`, on row slices.
fn scan_generic(data: &Dataset, order: &[u32], dom_of: &mut [u32]) -> Vec<u32> {
    let mut sky: Vec<u32> = Vec::new();
    for &i in order {
        let row = data.row(i as usize);
        match sky.iter().find(|&&s| dominates(data.row(s as usize), row)) {
            Some(&s) => dom_of[i as usize] = s,
            None => sky.push(i),
        }
    }
    sky
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn brute_force(data: &Dataset) -> Vec<u32> {
        (0..data.n() as u32)
            .filter(|&i| {
                !(0..data.n() as u32)
                    .any(|j| j != i && dominates(data.row(j as usize), data.row(i as usize)))
            })
            .collect()
    }

    #[test]
    fn three_dims_hand_case() {
        let d = Dataset::from_rows(&[
            [0.9, 0.1, 0.1],
            [0.1, 0.9, 0.1],
            [0.1, 0.1, 0.9],
            [0.5, 0.5, 0.5],
            [0.4, 0.4, 0.4], // dominated by the previous tuple
        ])
        .unwrap();
        assert_eq!(skyline(&d), vec![0, 1, 2, 3]);
    }

    #[test]
    fn dispatches_to_2d() {
        let d = Dataset::from_rows(&[[0.1, 0.9], [0.9, 0.1], [0.05, 0.05]]).unwrap();
        assert_eq!(skyline(&d), skyline_2d(&d));
    }

    #[test]
    fn matches_brute_force_random() {
        let mut rng = StdRng::seed_from_u64(123);
        for trial in 0..40 {
            let n = rng.random_range(1..50);
            let d_attrs = rng.random_range(3..=5);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d_attrs).map(|_| (rng.random_range(0..8) as f64) / 8.0).collect())
                .collect();
            let d = Dataset::from_rows(&rows).unwrap();
            assert_eq!(skyline(&d), brute_force(&d), "trial {trial}");
        }
    }

    #[test]
    fn a_dominator_of_equal_sum_is_scanned_first() {
        // Row 1 dominates row 0, though their sums round alike: 1 + 1e-20
        // is 1, and both overflowing rows sum to +inf.
        let tiny = Dataset::from_rows(&[[1.0, 0.0, 0.0], [1.0, 1e-20, 0.0], [0.2, 0.2, 0.2]]);
        let huge = Dataset::from_rows(&[
            [1.7e308, 1.7e308, 0.0],
            [1.7e308, 1.7e308, 1.0],
            [0.5, 0.5, 0.5],
        ]);
        for (data, want) in [(tiny.unwrap(), &[1, 2][..]), (huge.unwrap(), &[1])] {
            assert_eq!(skyline(&data), want);
            assert_eq!(brute_force(&data), want);
        }
    }

    #[test]
    fn duplicates_survive_in_hd() {
        let d = Dataset::from_rows(&[[0.5, 0.5, 0.5], [0.5, 0.5, 0.5], [0.1, 0.1, 0.1]]).unwrap();
        assert_eq!(skyline(&d), vec![0, 1]);
    }

    #[test]
    fn window_matches_brute_force_past_its_head() {
        // Rows near the simplex give windows of many blocks, so tuples
        // meet their first dominator deep in the blocked part.
        let mut rng = StdRng::seed_from_u64(321);
        for d in 1..=10usize {
            let rows: Vec<Vec<f64>> = (0..400)
                .map(|_| {
                    let v: Vec<f64> = (0..d).map(|_| rng.random_range(0..64) as f64).collect();
                    let sum: f64 = v.iter().sum::<f64>() + 1.0;
                    v.iter().map(|x| (x / sum * 16.0).round() / 16.0).collect()
                })
                .collect();
            let data = Dataset::from_rows(&rows).unwrap();
            let (members, dom_of) = sfs(&data);
            assert!(d < 3 || members.len() > 4 * WINDOW_HEAD, "d={d}: {} members", members.len());
            let mut sorted = members.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, brute_force(&data), "d={d}");
            if d != 2 {
                assert_eq!(skyline(&data), sorted, "d={d}");
            }
            // Each pruned tuple records the first member, in acceptance
            // order, that dominates it.
            for (i, &dom) in dom_of.iter().enumerate() {
                let first =
                    members.iter().copied().find(|&s| dominates(data.row(s as usize), data.row(i)));
                if dom == NO_DOM {
                    assert!(members.contains(&(i as u32)), "d={d} tuple {i}");
                } else {
                    assert_eq!(Some(dom), first, "d={d} tuple {i}");
                }
            }
        }
    }

    #[test]
    fn correlated_data_small_skyline() {
        // On a strictly increasing chain only the top tuple survives.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|i| {
                let v = i as f64 / 20.0;
                vec![v, v + 0.01, v + 0.02]
            })
            .collect();
        let d = Dataset::from_rows(&rows).unwrap();
        assert_eq!(skyline(&d), vec![19]);
    }
}
