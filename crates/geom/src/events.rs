//! Crossing-event generation for the 2D algorithms.
//!
//! The ranks the 2D dynamic program reads are those of *skyline* lines, and
//! the rank of a line changes exactly at its crossings with other lines.
//! Instead of sweeping the full `O(n²)` arrangement with a heap (the
//! paper's formulation, implemented faithfully in [`crate::sweep`] and
//! cross-validated in tests), we enumerate the crossings that involve at
//! least one *tracked* (skyline) line, sort them once by `x`, and replay
//! them. Both routes visit the same rank changes for tracked lines, so the
//! algorithms stay exact; this one just skips the events between two
//! non-skyline lines, which Algorithm 1 ignores anyway (its case 3).
//!
//! The routines take whatever lines they are given. The 2D solvers pass the
//! rows that can reach the ranks they read (a K-band, compacted in
//! ascending row id), which makes a stream `O(s·|band|)` instead of
//! `O(s·n)`; ties are broken by line index, so a compacted stream orders
//! its crossings exactly as the all-rows stream does.

use rrm_core::rank::descending_bits;
use rrm_par::Parallelism;

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
///
/// `tracked_mask[i]` marks tracked line ids; `tracked` lists them.
pub fn crossings_with_tracked(
    lines: &[DualLine],
    tracked: &[u32],
    x_lo: f64,
    x_hi: f64,
) -> Vec<Crossing> {
    let mut mask = vec![false; lines.len()];
    for &t in tracked {
        mask[t as usize] = true;
    }
    let mut out = Vec::new();
    for_each_raw_crossing(lines, tracked, &mask, x_lo, x_hi, |x, down, up| {
        out.push(Crossing { x, down, up });
    });
    sort_crossings(&mut out);
    out
}

/// Stream the crossings of [`crossings_with_tracked`] in globally sorted
/// order while materializing at most roughly `chunk_target` of them at a
/// time.
///
/// For anti-correlated data the tracked (skyline) set can reach thousands
/// of lines, making `s·n` crossings too large to hold at once (tens of GB
/// at the paper's n = 100K scale). This routine makes two cheap passes:
/// a counting pass histograms crossings into fine x-buckets, buckets are
/// grouped into strips of at most `chunk_target` crossings, and each strip
/// is generated, sorted and replayed through `visit` in order.
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
    const BUCKETS: usize = 1024;
    let span = x_hi - x_lo;
    if span <= 0.0 {
        for c in crossings_with_tracked(lines, tracked, x_lo, x_hi) {
            visit(&c);
        }
        return;
    }
    let mut mask = vec![false; lines.len()];
    for &t in tracked {
        mask[t as usize] = true;
    }
    let bucket_of = |x: f64| (((x - x_lo) / span * BUCKETS as f64) as usize).min(BUCKETS - 1);
    // Pass 1: histogram.
    let mut hist = vec![0usize; BUCKETS];
    for_each_raw_crossing(lines, tracked, &mask, x_lo, x_hi, |x, _, _| {
        hist[bucket_of(x)] += 1;
    });
    // Group buckets into strips of at most chunk_target crossings (single
    // over-full buckets become their own strip).
    let mut strips: Vec<(usize, usize)> = Vec::new(); // [start, end) bucket range
    let mut start = 0usize;
    let mut acc = 0usize;
    for (b, &h) in hist.iter().enumerate() {
        if acc > 0 && acc + h > chunk_target {
            strips.push((start, b));
            start = b;
            acc = 0;
        }
        acc += h;
    }
    strips.push((start, BUCKETS));
    // Pass 2: per strip, materialize + sort + visit.
    let mut buf: Vec<Crossing> = Vec::new();
    for (b0, b1) in strips {
        buf.clear();
        for_each_raw_crossing(lines, tracked, &mask, x_lo, x_hi, |x, down, up| {
            let b = bucket_of(x);
            if b >= b0 && b < b1 {
                buf.push(Crossing { x, down, up });
            }
        });
        sort_crossings(&mut buf);
        for c in &buf {
            visit(c);
        }
    }
}

/// [`crossings_with_tracked`] with an abandon cap: materialize the sorted
/// crossing stream unless it would exceed `cap` events, in which case the
/// buffer is dropped mid-pass and `None` is returned (callers fall back to
/// [`stream_crossings`], which bounds memory). One enumeration pass either
/// way; the sort only happens on success.
pub fn crossings_with_tracked_capped(
    lines: &[DualLine],
    tracked: &[u32],
    x_lo: f64,
    x_hi: f64,
    cap: usize,
) -> Option<Vec<Crossing>> {
    let mut mask = vec![false; lines.len()];
    for &t in tracked {
        mask[t as usize] = true;
    }
    let mut out: Vec<Crossing> = Vec::new();
    let mut overflow = false;
    for_each_raw_crossing(lines, tracked, &mask, x_lo, x_hi, |x, down, up| {
        if overflow {
            return;
        }
        if out.len() >= cap {
            overflow = true;
            out = Vec::new(); // release the buffer mid-pass
            return;
        }
        out.push(Crossing { x, down, up });
    });
    if overflow {
        return None;
    }
    sort_crossings(&mut out);
    Some(out)
}

/// Parallel form of [`crossings_with_tracked_capped`]: the per-tracked-line
/// crossing classification (`O(s·n)` intersection tests — the expensive
/// pass on anti-correlated data, where the skyline is large) is chunked
/// over `pol`'s worker threads, in chunks of tracked lines that
/// [`rrm_par::adaptive_chunk`] sizes from the line count; a band too small
/// to fill two chunks runs on the calling thread.
///
/// Determinism: each tracked line's crossings are computed independently
/// and the merged set is sorted by the same `(x, down, up)` total order as
/// the sequential routine, so the returned stream is **bit-identical** to
/// [`crossings_with_tracked_capped`] at any thread count, and the
/// `None`-on-overflow decision is a pure function of the input.
///
/// Memory: the cap is enforced by a shared tally during the single
/// enumeration pass, after each tracked line; peak transient usage can
/// overshoot the sequential version's `cap` by up to one chunk's
/// crossings per worker before overflow is detected. Size `cap`
/// accordingly when the bound matters.
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
    let mut mask = vec![false; lines.len()];
    for &t in tracked {
        mask[t as usize] = true;
    }
    // One enumeration pass (like the sequential routine): per chunk of
    // tracked lines into its own buffer, with a shared atomic tally
    // enforcing the cap after each line. The overflow *decision* is a pure function of the input — the
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
            for_each_raw_crossing_of(lines, t, &mask, x_lo, x_hi, |x, down, up| {
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
    let mut out: Vec<Crossing> = per_chunk.into_iter().flatten().collect();
    sort_crossings(&mut out);
    Some(out)
}

/// Shared enumeration core of [`crossings_with_tracked`] and
/// [`stream_crossings`]: calls `f(x, down, up)` for every tracked crossing
/// in `(x_lo, x_hi]`, in arbitrary order.
fn for_each_raw_crossing<F: FnMut(f64, u32, u32)>(
    lines: &[DualLine],
    tracked: &[u32],
    tracked_mask: &[bool],
    x_lo: f64,
    x_hi: f64,
    mut f: F,
) {
    for &t in tracked {
        for_each_raw_crossing_of(lines, t, tracked_mask, x_lo, x_hi, &mut f);
    }
}

/// One tracked line's slice of [`for_each_raw_crossing`] — the unit of
/// work [`crossings_with_tracked_capped_par`] schedules across threads.
fn for_each_raw_crossing_of<F: FnMut(f64, u32, u32)>(
    lines: &[DualLine],
    t: u32,
    tracked_mask: &[bool],
    x_lo: f64,
    x_hi: f64,
    mut f: F,
) {
    let lt = &lines[t as usize];
    for (o, lo_line) in lines.iter().enumerate() {
        let o = o as u32;
        if o == t || (tracked_mask[o as usize] && o < t) {
            continue;
        }
        let Some(x) = lt.intersection_x(lo_line) else {
            continue;
        };
        if x <= x_lo || x >= x_hi {
            continue;
        }
        let (down, up) = if lt.slope < lo_line.slope { (t, o) } else { (o, t) };
        f(x, down, up);
    }
}

/// Sort crossings by `x` ascending (`-0.0` and `0.0` equal, as under
/// `partial_cmp`), ties by `(down, up)`: the one order every stream uses.
fn sort_crossings(crossings: &mut [Crossing]) {
    crossings.sort_unstable_by_key(|c| (!descending_bits(c.x), c.down, c.up));
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
        // A band wide enough to split its tracked lines into several
        // chunks, under and over the cap.
        let lines: Vec<DualLine> = (0..12_000)
            .map(|_| DualLine::from_tuple(&[rng.random::<f64>(), rng.random::<f64>()]))
            .collect();
        let tracked: Vec<u32> = (0..12_000u32).step_by(120).collect();
        assert!(rrm_par::adaptive_chunk(tracked.len(), lines.len()) < tracked.len());
        let sequential = crossings_with_tracked_capped(&lines, &tracked, 0.0, 1.0, usize::MAX);
        let count = sequential.as_ref().map_or(0, Vec::len);
        for cap in [usize::MAX, count - 1] {
            let want = crossings_with_tracked_capped(&lines, &tracked, 0.0, 1.0, cap);
            for pol in [Parallelism::Fixed(2), Parallelism::Fixed(3)] {
                let par = crossings_with_tracked_capped_par(&lines, &tracked, 0.0, 1.0, cap, pol);
                assert_eq!(par, want, "cap {cap} {pol:?}");
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
