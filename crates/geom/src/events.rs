//! Crossing-event generation for the 2D algorithms.
//!
//! The ranks the 2D dynamic program reads are those of *skyline* lines, and
//! the rank of a line changes exactly at its crossings with other lines.
//! Instead of sweeping the full `O(n²)` arrangement with a heap (the
//! paper's formulation, implemented faithfully in [`crate::sweep`] and
//! cross-validated in tests), we enumerate the crossings that involve at
//! least one *tracked* (skyline) line, put them in `x` order, and replay
//! them. Both routes visit the same rank changes for tracked lines, so the
//! algorithms stay exact; this one just skips the events between two
//! non-skyline lines, which Algorithm 1 ignores anyway (its case 3).
//!
//! Every enumerator here is one counting sort (`crate::counting`): a
//! first pass counts the crossings per `x`-bucket, a second writes each
//! crossing straight into its slot of one exact-size buffer, and each
//! bucket is then sorted by `(x, down, up)`. A stream too long to hold
//! runs the second pass once per strip of buckets instead.
//!
//! The routines take whatever lines they are given. The 2D solvers pass the
//! rows that can reach the ranks they read (a K-band, compacted in
//! ascending row id), which makes a stream `O(s·|band|)` instead of
//! `O(s·n)`; ties are broken by line index, so a compacted stream orders
//! its crossings exactly as the all-rows stream does.

use rrm_core::rank::descending_bits;
use rrm_par::Parallelism;

use crate::counting::{Buckets, Histogram};
use crate::dual::DualLine;

/// A crossing where the rank of at least one tracked line changes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Crossing {
    /// x-coordinate of the crossing (normalized weight on attribute 1).
    pub x: f64,
    /// Line above before `x`, below after — its rank *increases* by one.
    /// Always the line with the smaller slope.
    pub down: u32,
    /// Line below before `x`, above after — its rank *decreases* by one.
    pub up: u32,
}

/// Enumerate crossings within the *open* interval `(x_lo, x_hi)` between
/// tracked lines and all lines (tracked–tracked pairs appear once). Sorted
/// by `x`, ties broken by `(down, up)` for determinism.
///
/// Open-interval semantics make every consumer agree on what happens at
/// the boundary: the rank order at `x_lo` and `x_hi` is the tie-broken
/// order *at* those weights, and crossings exactly on a boundary (score
/// ties under the boundary direction) never leak neighbouring-interval
/// state in. Under the paper's general-position assumption the choice is
/// invisible; with ties it is the difference between a certificate for
/// `[c0, c1]` and garbage.
pub fn crossings_with_tracked(
    lines: &[DualLine],
    tracked: &[u32],
    x_lo: f64,
    x_hi: f64,
) -> Vec<Crossing> {
    crossings_with_tracked_capped(lines, tracked, x_lo, x_hi, usize::MAX)
        .expect("no stream holds more than usize::MAX crossings")
}

/// Stream the crossings of [`crossings_with_tracked`] in globally sorted
/// order while materializing at most roughly `chunk_target` of them at a
/// time.
///
/// For anti-correlated data the tracked (skyline) set can reach thousands
/// of lines, making `s·n` crossings too large to hold at once (tens of GB
/// at the paper's n = 100K scale). The counting pass's buckets are grouped
/// into strips of at most `chunk_target` crossings (a bucket over it is a
/// strip of its own), and each strip is enumerated again into one reused
/// buffer, sorted bucket by bucket and replayed through `visit` in order.
///
/// `visit` receives exactly the same crossings, in exactly the same order,
/// as iterating the output of [`crossings_with_tracked`].
pub fn stream_crossings<F: FnMut(&Crossing)>(
    lines: &[DualLine],
    tracked: &[u32],
    x_lo: f64,
    x_hi: f64,
    chunk_target: usize,
    mut visit: F,
) {
    assert!(chunk_target > 0);
    let crossings = Crossings::new(lines, tracked, x_lo, x_hi);
    let mut hist = crossings.histogram();
    let mut buf = Vec::new();
    for strip in hist.strips(chunk_target) {
        buf = crossings.sorted(&mut hist, strip, buf);
        buf.iter().for_each(&mut visit);
    }
}

/// [`crossings_with_tracked`] with an abandon cap: `None` when the stream
/// holds more than `cap` crossings (callers fall back to
/// [`stream_crossings`], which bounds memory). The counting pass decides
/// before any crossing is stored.
pub fn crossings_with_tracked_capped(
    lines: &[DualLine],
    tracked: &[u32],
    x_lo: f64,
    x_hi: f64,
    cap: usize,
) -> Option<Vec<Crossing>> {
    let crossings = Crossings::new(lines, tracked, x_lo, x_hi);
    let mut hist = crossings.histogram();
    if hist.total() > cap {
        return None;
    }
    let all = hist.all();
    Some(crossings.sorted(&mut hist, all, Vec::new()))
}

/// Parallel form of [`crossings_with_tracked_capped`]: the per-tracked-line
/// crossing classification (`O(s·n)` intersection tests — the expensive
/// pass on anti-correlated data, where the skyline is large) is chunked
/// over `pol`'s worker threads, in chunks of tracked lines that
/// [`rrm_par::adaptive_chunk`] sizes from the line count; a band too small
/// to fill two chunks runs on the calling thread.
///
/// Determinism: each chunk's crossings are enumerated into its own buffer,
/// and the buffers are then counting-sorted as the sequential routine's
/// two passes are, into the same `(x, down, up)` total order, so the
/// returned stream is **bit-identical** to [`crossings_with_tracked_capped`]
/// at any thread count, and the `None`-on-overflow decision is a pure
/// function of the input.
///
/// Memory: the cap is enforced by a shared tally during the single
/// enumeration pass, after each tracked line; peak transient usage can
/// overshoot the sequential version's `cap` by up to one chunk's
/// crossings per worker before overflow is detected. Size `cap`
/// accordingly when the bound matters. The sort adds one exact-size buffer
/// and frees each chunk's buffer once it is placed.
pub fn crossings_with_tracked_capped_par(
    lines: &[DualLine],
    tracked: &[u32],
    x_lo: f64,
    x_hi: f64,
    cap: usize,
    pol: Parallelism,
) -> Option<Vec<Crossing>> {
    if pol.is_sequential() {
        return crossings_with_tracked_capped(lines, tracked, x_lo, x_hi, cap);
    }
    let crossings = Crossings::new(lines, tracked, x_lo, x_hi);
    // One enumeration pass: per chunk of tracked lines into its own
    // buffer, with a shared atomic tally enforcing the cap after each
    // line. The overflow *decision* is a pure function of the input — the
    // true crossing count either exceeds `cap` (then some tally update
    // must observe it, whatever the ordering) or it does not (then none
    // can) — so Some/None never depends on the thread count. Buffers of
    // chunks enumerated after overflow is flagged are dropped mid-pass,
    // bounding memory at roughly `cap` plus one in-flight chunk per worker.
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    let tally = AtomicUsize::new(0);
    let overflow = AtomicBool::new(false);
    let chunk = rrm_par::adaptive_chunk(tracked.len(), lines.len());
    let per_chunk = rrm_par::par_chunks(tracked, chunk, pol, |_, chunk| {
        let mut out = Vec::new();
        for &t in chunk {
            let before = out.len();
            crossings.of_line(t, |x, down, up| {
                if !overflow.load(Ordering::Relaxed) {
                    out.push(Crossing { x, down, up });
                }
            });
            let added = out.len() - before;
            if tally.fetch_add(added, Ordering::Relaxed) + added > cap {
                overflow.store(true, Ordering::Relaxed);
                return Vec::new(); // release mid-pass, as the sequential cap does
            }
        }
        out
    });
    if overflow.load(Ordering::Relaxed) {
        return None;
    }
    let mut hist = Histogram::new(crossings.buckets());
    per_chunk.iter().flatten().for_each(|c| hist.add(c.x));
    let mut slots = hist.slots(hist.all(), Vec::new(), NO_CROSSING);
    per_chunk.into_iter().flatten().for_each(|c| slots.put(c.x, c));
    Some(slots.sorted_by_key(crossing_key))
}

/// Crossings per x-bucket if every pair of lines a tracked line meets
/// crossed inside the interval.
const PER_BUCKET: usize = 2;

/// The most x-buckets a count pass keeps: 512 KiB of counts.
const MAX_BUCKETS: usize = 1 << 16;

/// The fill of a buffer's slots before the crossings are written.
const NO_CROSSING: Crossing = Crossing { x: 0.0, down: 0, up: 0 };

/// The one order every stream uses: `x` ascending (`-0.0` and `0.0`
/// equal, as under `partial_cmp`), ties by `(down, up)`.
fn crossing_key(c: &Crossing) -> (u64, u32, u32) {
    (!descending_bits(c.x), c.down, c.up)
}

/// The crossings in `(x_lo, x_hi)` of the tracked lines with every line,
/// enumerated in no particular order: the one core of every enumerator
/// above.
struct Crossings<'a> {
    lines: &'a [DualLine],
    tracked: &'a [u32],
    /// Per line id, whether it is tracked: a tracked pair is met once.
    tracked_mask: Vec<bool>,
    x_lo: f64,
    x_hi: f64,
}

impl<'a> Crossings<'a> {
    fn new(lines: &'a [DualLine], tracked: &'a [u32], x_lo: f64, x_hi: f64) -> Self {
        let mut tracked_mask = vec![false; lines.len()];
        for &t in tracked {
            tracked_mask[t as usize] = true;
        }
        Self { lines, tracked, tracked_mask, x_lo, x_hi }
    }

    /// Equal-width x-buckets over the interval, sized from the number of
    /// pairs a tracked line meets.
    fn buckets(&self) -> Buckets {
        let pairs = self.tracked.len().saturating_mul(self.lines.len());
        Buckets::new(self.x_lo, self.x_hi, (pairs / PER_BUCKET).min(MAX_BUCKETS))
    }

    /// The first pass: the crossings counted per x-bucket.
    fn histogram(&self) -> Histogram {
        let mut hist = Histogram::new(self.buckets());
        for &t in self.tracked {
            self.of_line(t, |x, _, _| hist.add(x));
        }
        hist
    }

    /// The second pass over buckets `range` of `hist`: their crossings in
    /// `(x, down, up)` order, in `buf`'s allocation.
    fn sorted(
        &self,
        hist: &mut Histogram,
        range: std::ops::Range<usize>,
        buf: Vec<Crossing>,
    ) -> Vec<Crossing> {
        let mut slots = hist.slots(range, buf, NO_CROSSING);
        for &t in self.tracked {
            self.of_line(t, |x, down, up| slots.put(x, Crossing { x, down, up }));
        }
        slots.sorted_by_key(crossing_key)
    }

    /// Calls `f(x, down, up)` for every crossing of tracked line `t` in
    /// `(x_lo, x_hi)`: the unit of work
    /// [`crossings_with_tracked_capped_par`] schedules across threads.
    fn of_line(&self, t: u32, mut f: impl FnMut(f64, u32, u32)) {
        let lt = &self.lines[t as usize];
        for (o, lo_line) in self.lines.iter().enumerate() {
            let o = o as u32;
            if o == t || (self.tracked_mask[o as usize] && o < t) {
                continue;
            }
            let Some(x) = lt.intersection_x(lo_line) else {
                continue;
            };
            // Negated, so a NaN crossing (lines whose slopes or intercepts
            // overflow) falls outside too.
            if !(x > self.x_lo && x < self.x_hi) {
                continue;
            }
            let (down, up) = if lt.slope < lo_line.slope { (t, o) } else { (o, t) };
            f(x, down, up);
        }
    }
}

/// Initial 1-based ranks of every line at `x_lo+` (height descending, ties
/// by slope descending then id), returned as a vector indexed by line id.
pub fn initial_ranks(lines: &[DualLine], x_lo: f64) -> Vec<usize> {
    let mut ids: Vec<u32> = (0..lines.len() as u32).collect();
    crate::dual::order_at(lines, &mut ids, x_lo);
    let mut rank = vec![0usize; lines.len()];
    for (pos, &id) in ids.iter().enumerate() {
        rank[id as usize] = pos + 1;
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::Dataset;

    fn lines3() -> Vec<DualLine> {
        // t1, t2, t3 of Table I.
        let d = Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75]]).unwrap();
        DualLine::from_dataset(&d)
    }

    #[test]
    fn all_pairs_of_skyline_lines_cross_inside() {
        // All three tuples are skyline tuples, so all 3 pairwise crossings
        // are in (0, 1): 1/9, 0.25/0.82, 0.2/0.37.
        let lines = lines3();
        let cr = crossings_with_tracked(&lines, &[0, 1, 2], 0.0, 1.0);
        assert_eq!(cr.len(), 3);
        assert!((cr[0].x - 1.0 / 9.0).abs() < 1e-12);
        assert!((cr[1].x - 0.25 / 0.82).abs() < 1e-12);
        assert!((cr[2].x - 0.2 / 0.37).abs() < 1e-12);
        // l1 has the smallest slope: it goes down at both its crossings.
        assert_eq!(cr[0], Crossing { x: cr[0].x, down: 0, up: 1 });
        assert_eq!(cr[1].down, 0);
        assert_eq!(cr[1].up, 2);
        assert_eq!(cr[2].down, 1);
        assert_eq!(cr[2].up, 2);
    }

    #[test]
    fn tracked_subset_drops_untracked_pairs() {
        let lines = lines3();
        // Track only line 0: crossings (0,1) and (0,2); (1,2) dropped.
        let cr = crossings_with_tracked(&lines, &[0], 0.0, 1.0);
        assert_eq!(cr.len(), 2);
        assert!(cr.iter().all(|c| c.down == 0 || c.up == 0));
    }

    #[test]
    fn range_filtering_is_open() {
        let lines = lines3();
        // Use the exact float the generator produces, not 1.0/9.0, so the
        // boundary comparison is bit-identical.
        let first_x = lines[0].intersection_x(&lines[1]).unwrap();
        // Crossings exactly on either boundary are excluded: the boundary
        // order is defined by the tie-broken sort at that weight.
        let cr = crossings_with_tracked(&lines, &[0, 1, 2], first_x, 1.0);
        assert_eq!(cr.len(), 2);
        let cr = crossings_with_tracked(&lines, &[0, 1, 2], 0.0, first_x);
        assert_eq!(cr.len(), 0);
        let second_x = lines[0].intersection_x(&lines[2]).unwrap();
        let cr = crossings_with_tracked(&lines, &[0, 1, 2], 0.0, second_x);
        assert_eq!(cr.len(), 1);
    }

    #[test]
    fn parallel_lines_never_cross() {
        let lines =
            vec![DualLine { slope: 1.0, intercept: 0.0 }, DualLine { slope: 1.0, intercept: 0.5 }];
        assert!(crossings_with_tracked(&lines, &[0, 1], 0.0, 1.0).is_empty());
    }

    #[test]
    fn initial_ranks_at_zero() {
        let lines = lines3();
        // At x=0 heights are 1.0, 0.95, 0.75.
        assert_eq!(initial_ranks(&lines, 0.0), vec![1, 2, 3]);
        // Just after the first crossing l2 overtakes l1.
        assert_eq!(initial_ranks(&lines, 0.2), vec![2, 1, 3]);
    }

    /// The crossing stream by one comparison sort of every crossing: the
    /// reference the counting enumeration must equal.
    fn crossings_by_comparison(
        lines: &[DualLine],
        tracked: &[u32],
        x_lo: f64,
        x_hi: f64,
    ) -> Vec<Crossing> {
        let crossings = Crossings::new(lines, tracked, x_lo, x_hi);
        let mut out = Vec::new();
        for &t in tracked {
            crossings.of_line(t, |x, down, up| out.push(Crossing { x, down, up }));
        }
        out.sort_unstable_by_key(crossing_key);
        out
    }

    /// Lines of `n` tuples on a `levels`-step grid in `[0, 1]²`: many
    /// lines meet at one point, so crossings share their `x`.
    fn grid_lines(n: u32, levels: u32) -> Vec<DualLine> {
        let level = |v: u32| (v % levels) as f64 / (levels - 1) as f64;
        (0..n).map(|i| DualLine::from_tuple(&[level(i * 7), level(i * 3 + i / 5)])).collect()
    }

    /// Crossings as bit patterns, so NaN crossings compare equal to
    /// themselves.
    fn bits(crossings: &[Crossing]) -> Vec<(u64, u32, u32)> {
        crossings.iter().map(|c| (c.x.to_bits(), c.down, c.up)).collect()
    }

    #[test]
    fn counting_enumeration_equals_a_comparison_sort() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        // Chunk target 1 makes a pass per bucket: small sets keep it quick.
        let random: Vec<DualLine> = (0..70)
            .map(|_| DualLine::from_tuple(&[rng.random::<f64>(), rng.random::<f64>()]))
            .collect();
        let grid = grid_lines(90, 6);
        // Finite rows whose slopes overflow: some of their crossings are
        // at a NaN x, which the interval test rejects.
        let mut non_finite = random.clone();
        non_finite[3] = DualLine::from_tuple(&[1.7e308, -1.7e308]);
        non_finite[4] = DualLine::from_tuple(&[-1.7e308, 1.7e308]);
        non_finite[5] = DualLine::from_tuple(&[1.7e308, -1.7e308]);
        let sets = [
            ("random", &random),
            ("grid", &grid),
            ("table 1", &lines3()),
            ("non-finite", &non_finite),
        ];
        for (name, lines) in sets {
            let n = lines.len() as u32;
            for tracked in [(0..n).step_by(3).collect::<Vec<u32>>(), (0..n).collect()] {
                for (x_lo, x_hi) in [(0.0, 1.0), (0.4, 0.45)] {
                    let ctx = format!("{name}, {} tracked, ({x_lo}, {x_hi})", tracked.len());
                    let want = bits(&crossings_by_comparison(lines, &tracked, x_lo, x_hi));
                    let got = crossings_with_tracked(lines, &tracked, x_lo, x_hi);
                    assert_eq!(bits(&got), want, "{ctx}");
                    for chunk in [1, 7, usize::MAX] {
                        let mut streamed = Vec::new();
                        stream_crossings(lines, &tracked, x_lo, x_hi, chunk, |c| streamed.push(*c));
                        assert_eq!(bits(&streamed), want, "{ctx}: chunk target {chunk}");
                    }
                    for cap in [want.len().saturating_sub(1), want.len(), usize::MAX] {
                        let fits = (cap >= want.len()).then(|| want.clone());
                        let capped =
                            crossings_with_tracked_capped(lines, &tracked, x_lo, x_hi, cap);
                        assert_eq!(capped.as_deref().map(bits), fits, "{ctx}: cap {cap}");
                        for pol in
                            [Parallelism::Sequential, Parallelism::Fixed(2), Parallelism::Fixed(7)]
                        {
                            let par = crossings_with_tracked_capped_par(
                                lines, &tracked, x_lo, x_hi, cap, pol,
                            );
                            assert_eq!(par.as_deref().map(bits), fits, "{ctx}: cap {cap} {pol:?}");
                        }
                    }
                }
            }
        }
        let nan = crossings_with_tracked(&non_finite, &[3, 4, 9], 0.0, 1.0);
        assert!(!nan.is_empty() && nan.iter().all(|c| c.x > 0.0 && c.x < 1.0));
        // The grid's crossings share their x in runs.
        let all: Vec<u32> = (0..90).collect();
        let stream = crossings_with_tracked(&grid, &all, 0.0, 1.0);
        assert!(stream.windows(2).filter(|w| w[0].x == w[1].x).count() > stream.len() / 2);
    }

    #[test]
    fn stream_matches_materialized_order() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..10 {
            let n = rng.random_range(5..40);
            let lines: Vec<DualLine> = (0..n)
                .map(|_| DualLine::from_tuple(&[rng.random::<f64>(), rng.random::<f64>()]))
                .collect();
            let tracked: Vec<u32> = (0..n as u32).step_by(2).collect();
            let all = crossings_with_tracked(&lines, &tracked, 0.0, 1.0);
            assert_eq!(all, crossings_by_comparison(&lines, &tracked, 0.0, 1.0), "trial {trial}");
            // Tiny chunk target forces many strips.
            let mut streamed = Vec::new();
            super::stream_crossings(&lines, &tracked, 0.0, 1.0, 7, |c| streamed.push(*c));
            assert_eq!(streamed, all, "trial {trial}");
        }
    }

    #[test]
    fn stream_empty_range() {
        let lines = lines3();
        let mut count = 0;
        super::stream_crossings(&lines, &[0, 1, 2], 0.5, 0.5, 10, |_| count += 1);
        assert_eq!(count, 0);
    }

    #[test]
    fn parallel_capped_enumeration_is_bit_identical() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(91);
        let lines: Vec<DualLine> = (0..60)
            .map(|_| DualLine::from_tuple(&[rng.random::<f64>(), rng.random::<f64>()]))
            .collect();
        let tracked: Vec<u32> = (0..60u32).step_by(3).collect();
        let sequential = crossings_with_tracked_capped(&lines, &tracked, 0.0, 1.0, usize::MAX);
        for pol in [Parallelism::Sequential, Parallelism::Fixed(2), Parallelism::Fixed(7)] {
            let par =
                crossings_with_tracked_capped_par(&lines, &tracked, 0.0, 1.0, usize::MAX, pol);
            assert_eq!(par, sequential, "{pol:?}");
        }
        // The cap abandons before materializing, exactly like sequential.
        assert_eq!(
            crossings_with_tracked_capped_par(&lines, &tracked, 0.0, 1.0, 3, Parallelism::Fixed(4)),
            None
        );
        assert_eq!(crossings_with_tracked_capped(&lines, &tracked, 0.0, 1.0, 3), None);
        // Bands wide enough to split their tracked lines into several
        // chunks, under and over the cap; the grid's crossings share
        // their x across chunks.
        let random: Vec<DualLine> = (0..12_000)
            .map(|_| DualLine::from_tuple(&[rng.random::<f64>(), rng.random::<f64>()]))
            .collect();
        for lines in [random, grid_lines(12_000, 6)] {
            let tracked: Vec<u32> = (0..12_000u32).step_by(120).collect();
            assert!(rrm_par::adaptive_chunk(tracked.len(), lines.len()) < tracked.len());
            let all = crossings_by_comparison(&lines, &tracked, 0.0, 1.0);
            for cap in [usize::MAX, all.len() - 1] {
                let want = (cap >= all.len()).then(|| all.clone());
                for pol in [Parallelism::Sequential, Parallelism::Fixed(2), Parallelism::Fixed(7)] {
                    let par =
                        crossings_with_tracked_capped_par(&lines, &tracked, 0.0, 1.0, cap, pol);
                    assert_eq!(par, want, "cap {cap} {pol:?}");
                }
            }
        }
    }

    #[test]
    fn rank_replay_matches_brute_force() {
        // Replaying crossings from the initial ranks must reproduce the
        // brute-force rank of a tracked line at any x.
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
        let lines = DualLine::from_dataset(&d);
        let tracked: Vec<u32> = (0..7).collect();
        let cr = crossings_with_tracked(&lines, &tracked, 0.0, 1.0);
        let mut rank = initial_ranks(&lines, 0.0);
        let mut prev_x = 0.0;
        for c in &cr {
            // Midpoint of the previous gap: compare with brute force.
            let mid = 0.5 * (prev_x + c.x);
            for i in 0..7usize {
                let brute = 1
                    + (0..7).filter(|&j| j != i && lines[j].eval(mid) > lines[i].eval(mid)).count();
                assert_eq!(rank[i], brute, "line {i} at x={mid}");
            }
            rank[c.down as usize] += 1;
            rank[c.up as usize] -= 1;
            prev_x = c.x;
        }
    }
}
