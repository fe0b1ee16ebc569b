//! The 2D dual transform (paper Section IV-A, Figure 4).
//!
//! With utility vectors normalized to `u = (c, 1-c)`, the utility of a tuple
//! `t` as a function of `c` is the line `y(c) = t[1]·c + t[2]·(1-c)`, i.e.
//! intercept `t[2]` and slope `t[1] - t[2]`. Higher line at `x = c` means
//! higher rank (closer to 1) under `u = (c, 1-c)`.

use rrm_core::rank::descending_bits;
use rrm_core::Dataset;

use crate::counting::{Buckets, Histogram};

/// A tuple's line in dual space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DualLine {
    /// `t[1] - t[2]` — utility gain as weight moves toward attribute 1.
    pub slope: f64,
    /// `t[2]` — the utility at `x = 0`, i.e. under `u = (0, 1)`.
    pub intercept: f64,
}

impl DualLine {
    /// Dual line of a 2D tuple.
    pub fn from_tuple(t: &[f64]) -> Self {
        debug_assert_eq!(t.len(), 2, "the dual transform is 2D-only");
        Self { slope: t[0] - t[1], intercept: t[1] }
    }

    /// Dual lines of every tuple of a 2D dataset, in index order.
    pub fn from_dataset(data: &Dataset) -> Vec<DualLine> {
        assert_eq!(data.dim(), 2, "the dual transform is 2D-only");
        data.rows().map(DualLine::from_tuple).collect()
    }

    /// Height of the line at `x` — the tuple's utility under `(x, 1-x)`.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// x-coordinate where `self` and `other` cross, or `None` for parallel
    /// lines (tuples with the same `t[1] - t[2]`).
    pub fn intersection_x(&self, other: &DualLine) -> Option<f64> {
        let ds = self.slope - other.slope;
        if ds == 0.0 {
            return None;
        }
        Some((other.intercept - self.intercept) / ds)
    }
}

/// The first of the lines' slopes and intercepts, in that order, whose
/// span is not finite, as `(what, lowest, highest)`. Crossings and
/// heights are differences of slopes and of intercepts, so where such a
/// span exists they can overflow f64 (an infinite slope included).
pub fn overflowing_span(lines: &[DualLine]) -> Option<(&'static str, f64, f64)> {
    // One pass of plain compares: a NaN is skipped, as `f64::min` would.
    let (mut lo, mut hi) = ([f64::INFINITY; 2], [f64::NEG_INFINITY; 2]);
    for line in lines {
        for (e, v) in [line.slope, line.intercept].into_iter().enumerate() {
            if v < lo[e] {
                lo[e] = v;
            }
            if v > hi[e] {
                hi[e] = v;
            }
        }
    }
    ["slopes", "intercepts"]
        .into_iter()
        .zip(lo.into_iter().zip(hi))
        .find(|(_, (lo, hi))| !(hi - lo).is_finite())
        .map(|(what, (lo, hi))| (what, lo, hi))
}

/// [`order_at`]'s sort key of line `i` at `x`: ascending keys are top first.
#[inline]
fn key_at(lines: &[DualLine], i: u32, x: f64) -> (u64, u64, u32) {
    let l = &lines[i as usize];
    (descending_bits(l.eval(x)), descending_bits(l.slope), i)
}

/// [`order_at`] sorts fewer lines than this in one bucket.
const BUCKETED_FROM: usize = 64;

/// Sort order of line ids at `x+` (top line first): height descending,
/// ties by slope descending, final ties by id ascending.
///
/// A counting sort (`crate::counting`): the ids are bucketed by height
/// at `x`, one bucket per line over the heights' span, and each bucket is
/// sorted by the full key. A zero or non-finite span, or fewer than 64
/// lines, make one bucket: a comparison sort of them all.
pub fn order_at(lines: &[DualLine], ids: &mut [u32], x: f64) {
    // Buckets ascend with `-height`, so the top line's comes first.
    let depth = |i: u32| -lines[i as usize].eval(x);
    let buckets = if ids.len() < BUCKETED_FROM {
        Buckets::new(0.0, 0.0, 1)
    } else {
        // Plain compares: a NaN is skipped, as `f64::min` would, but
        // without its extra work in the loop-carried chain.
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &i in ids.iter() {
            let v = depth(i);
            if v < lo {
                lo = v;
            }
            if v > hi {
                hi = v;
            }
        }
        Buckets::new(lo, hi, ids.len())
    };
    let mut hist = Histogram::new(buckets);
    ids.iter().for_each(|&i| hist.add(depth(i)));
    let mut slots = hist.slots(hist.all(), Vec::new(), 0);
    ids.iter().for_each(|&i| slots.put(depth(i), i));
    ids.copy_from_slice(&slots.sorted_by_key(|&i| key_at(lines, i, x)));
}

/// Map a 2D polyhedral cone (`rows · u ≥ 0`, `u ≥ 0`) to its interval of
/// normalized weights: `{c ∈ [0, 1] : (c, 1-c) ∈ U}` — the "render the
/// scene" step of Section IV-C. Returns `None` when the cone misses the
/// normalized segment entirely.
pub fn normalized_interval_2d(rows: &[Vec<f64>]) -> Option<(f64, f64)> {
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    for row in rows {
        assert_eq!(row.len(), 2, "2D cone rows expected");
        // row[0]·c + row[1]·(1-c) >= 0  <=>  (row[0]-row[1])·c >= -row[1]
        let a = row[0] - row[1];
        let b = -row[1];
        if a > 0.0 {
            lo = lo.max(b / a);
        } else if a < 0.0 {
            hi = hi.min(b / a);
        } else if b > 0.0 {
            return None; // 0 >= b > 0 impossible
        }
    }
    (lo <= hi).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table I of the paper as a dataset.
    pub(crate) fn table1() -> Dataset {
        Dataset::from_rows(&[
            [0.0, 1.0],
            [0.4, 0.95],
            [0.57, 0.75],
            [0.79, 0.6],
            [0.2, 0.5],
            [0.35, 0.3],
            [1.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn transform_matches_figure_4() {
        let lines = DualLine::from_dataset(&table1());
        // l1 runs from (0,1) to (1,0): intercept 1, slope -1.
        assert_eq!(lines[0], DualLine { slope: -1.0, intercept: 1.0 });
        // l7 runs from (0,0) to (1,1): intercept 0, slope 1.
        assert_eq!(lines[6], DualLine { slope: 1.0, intercept: 0.0 });
        // Utilities: eval(x) equals w((x, 1-x), t).
        let x = 0.25;
        for (line, row) in lines.iter().zip(table1().rows()) {
            let w = x * row[0] + (1.0 - x) * row[1];
            assert!((line.eval(x) - w).abs() < 1e-12);
        }
    }

    #[test]
    fn figure_4_rank_read() {
        // "the number of lines above l1 for x = 0.25 is 1": only l2.
        let lines = DualLine::from_dataset(&table1());
        let above: Vec<usize> =
            (0..7).filter(|&i| i != 0 && lines[i].eval(0.25) > lines[0].eval(0.25)).collect();
        assert_eq!(above, vec![1]);
    }

    #[test]
    fn intersections() {
        let l1 = DualLine { slope: -1.0, intercept: 1.0 };
        let l2 = DualLine { slope: -0.55, intercept: 0.95 };
        // Worked in the paper: l1 and l2 cross at x = 1/9.
        let x = l1.intersection_x(&l2).unwrap();
        assert!((x - 1.0 / 9.0).abs() < 1e-12);
        assert_eq!(l2.intersection_x(&l1).unwrap(), x);
        // Parallel lines never cross.
        let l3 = DualLine { slope: -1.0, intercept: 0.4 };
        assert!(l1.intersection_x(&l3).is_none());
    }

    #[test]
    fn order_at_zero_matches_a2_sort() {
        let d = table1();
        let lines = DualLine::from_dataset(&d);
        let mut ids: Vec<u32> = (0..7).collect();
        order_at(&lines, &mut ids, 0.0);
        // Sorted by A2 descending: t1, t2, t3, t4, t5, t6, t7.
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6]);
        // At x = 0.25, l2 has overtaken l1 (their crossing is at x = 1/9).
        // Note: the paper's Figure 5 prints the order at 0.25 as
        // l2,l1,l3,l4,l5,l7,l6, but Table I's values put the l6×l7 crossing
        // at x = 0.3/0.95 ≈ 0.316 (so l6 is still above l7 at 0.25) — the
        // figure order is not realizable at any x; we assert the
        // mathematically correct one.
        order_at(&lines, &mut ids, 0.25);
        assert_eq!(ids, vec![1, 0, 2, 3, 4, 5, 6]);
        // Past the l1×l3, l6×l7 and l1×l4 crossings:
        order_at(&lines, &mut ids, 0.35);
        assert_eq!(ids, vec![1, 2, 3, 0, 4, 6, 5]);
    }

    /// [`order_at`]'s order by one comparison sort of every key: the
    /// reference its counting sort must equal.
    fn order_by_comparison(lines: &[DualLine], ids: &mut [u32], x: f64) {
        let mut keyed: Vec<(u64, u64, u32)> = ids.iter().map(|&i| key_at(lines, i, x)).collect();
        keyed.sort_unstable();
        for (slot, (_, _, i)) in ids.iter_mut().zip(keyed) {
            *slot = i;
        }
    }

    /// Lines of `n` tuples whose attributes take `levels` values in
    /// `[0, 1]`: runs of equal heights and slopes, and identical lines.
    fn quantized(n: u32, levels: u32) -> Vec<DualLine> {
        let level = |v: u32| (v % levels) as f64 / (levels - 1) as f64;
        (0..n).map(|i| DualLine::from_tuple(&[level(i * 7), level(i * 3 + i / 5)])).collect()
    }

    #[test]
    fn order_at_equals_a_comparison_sort() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        let random = |n: usize, rng: &mut rand::rngs::StdRng| -> Vec<DualLine> {
            use rand::Rng;
            (0..n).map(|_| DualLine::from_tuple(&[rng.random(), rng.random()])).collect()
        };
        // Heights of -0.0 and 0.0 at every x, and at x = 0 alone,
        // beside others.
        let signed_zeros: Vec<DualLine> = (0..300)
            .map(|i| match i % 5 {
                0 => DualLine { slope: -0.0, intercept: -0.0 },
                1 => DualLine { slope: 0.0, intercept: 0.0 },
                2 => DualLine { slope: -1.0, intercept: -0.0 },
                3 => DualLine { slope: 1.0, intercept: 0.0 },
                _ => DualLine { slope: i as f64 / 300.0, intercept: 0.5 - i as f64 / 300.0 },
            })
            .collect();
        for x in [0.0, 1.0] {
            let zeros = signed_zeros.iter().map(|l| l.eval(x)).filter(|&h| h == 0.0);
            let negative = zeros.clone().filter(|h| h.is_sign_negative()).count();
            assert!(negative > 0 && negative < zeros.count(), "x={x}");
        }
        // A height span that overflows f64, and one of zero at x = 0.
        let overflowing: Vec<DualLine> = (0..200)
            .map(|i| DualLine { slope: (i % 7) as f64, intercept: [1.7e308, -1.7e308, 1.0][i % 3] })
            .collect();
        let level: Vec<DualLine> =
            (0..200).map(|i| DualLine { slope: (i % 9) as f64 - 4.0, intercept: 0.25 }).collect();
        // Finite rows whose slopes overflow: at x = 0 their heights are
        // `inf · 0`, NaN, and at x = 1 infinite.
        let non_finite: Vec<DualLine> = (0..200)
            .map(|i| match i % 4 {
                0 => DualLine::from_tuple(&[1.7e308, -1.7e308]),
                1 => DualLine::from_tuple(&[-1.7e308, 1.7e308]),
                _ => DualLine::from_tuple(&[i as f64 / 200.0, 1.0 - i as f64 / 300.0]),
            })
            .collect();
        assert!(non_finite[0].eval(0.0).is_nan() && non_finite[1].eval(1.0).is_infinite());
        let sets = [
            ("random", random(1_000, &mut rng)),
            ("below the bucketing threshold", random(BUCKETED_FROM - 1, &mut rng)),
            ("quantized", quantized(2_000, 5)),
            ("signed zeros", signed_zeros),
            ("overflowing span", overflowing),
            ("zero span", level),
            ("non-finite heights", non_finite),
        ];
        for (name, lines) in &sets {
            let n = lines.len() as u32;
            // Every id ascending, and a subset in arbitrary order.
            let all: Vec<u32> = (0..n).collect();
            let subset: Vec<u32> = (0..n).map(|i| (i * 7_919) % n).filter(|i| i % 3 != 1).collect();
            // Both ends of the full space and of a cone's interval.
            for x in [0.0, 0.4, 0.45, 1.0] {
                for ids in [&all, &subset] {
                    let (mut want, mut got) = (ids.clone(), ids.clone());
                    order_by_comparison(lines, &mut want, x);
                    order_at(lines, &mut got, x);
                    assert_eq!(got, want, "{name} at x={x}, {} ids", ids.len());
                }
            }
        }
    }

    #[test]
    fn interval_of_full_space_is_unit() {
        assert_eq!(normalized_interval_2d(&[]), Some((0.0, 1.0)));
    }

    #[test]
    fn interval_of_weak_ranking() {
        // u1 >= u2 -> c >= 1 - c -> c in [0.5, 1].
        let rows = vec![vec![1.0, -1.0]];
        let (lo, hi) = normalized_interval_2d(&rows).unwrap();
        assert!((lo - 0.5).abs() < 1e-12 && (hi - 1.0).abs() < 1e-12);
        // u2 >= 3 u1 -> 1 - c >= 3c -> c <= 0.25.
        let rows = vec![vec![-3.0, 1.0]];
        let (lo, hi) = normalized_interval_2d(&rows).unwrap();
        assert!(lo.abs() < 1e-12 && (hi - 0.25).abs() < 1e-12);
    }

    #[test]
    fn interval_of_empty_cone() {
        // u1 >= 2(u1+u2) is impossible for non-zero orthant vectors:
        // -u1 - 2u2 >= 0.
        let rows = vec![vec![-1.0, -2.0]];
        assert_eq!(normalized_interval_2d(&rows), None);
        // Contradictory pair: c >= 0.8 and c <= 0.2.
        let rows = vec![vec![1.0, -4.0], vec![-4.0, 1.0]];
        assert_eq!(normalized_interval_2d(&rows), None);
    }
}
