//! Paper-faithful full arrangement sweep (Algorithm 1's event machinery).
//!
//! Maintains the sorted list `L` of all lines and a min-heap `H` of
//! intersections between *adjacent* lines, exactly as Section IV-B
//! describes: a vertical line moves from `x_lo` to `x_hi`, stopping at each
//! intersection, swapping the two lines and discovering up to two new
//! adjacent intersections.
//!
//! The optimized event generator in [`crate::events`] produces the same
//! rank changes for tracked lines; this module exists (a) as the reference
//! implementation the tests validate against, and (b) for `repro
//! ablation`'s "2DRRM sweep" section comparing the two designs.
//!
//! Degeneracies (three or more lines through one point) are handled with
//! the standard skip-and-rediscover technique: an event popped for a pair
//! that is no longer adjacent in the expected orientation is discarded —
//! whenever a pair becomes adjacent *and converging* its crossing is
//! (re-)pushed, so every swap is eventually performed.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::dual::{order_at, DualLine};

/// Heap entry: crossing at `x` where `upper` (currently above) meets
/// `lower`. Ordered as a min-heap on `x`.
#[derive(Debug, PartialEq)]
struct Event {
    x: f64,
    upper: u32,
    lower: u32,
}

impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse on x for a min-heap; deterministic tie-break.
        other
            .x
            .partial_cmp(&self.x)
            .expect("finite event x")
            .then(other.upper.cmp(&self.upper))
            .then(other.lower.cmp(&self.lower))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Full arrangement sweep over the open interval `x ∈ (x_lo, x_hi)`.
///
/// `on_swap(x, down, up, down_new_pos)` fires after each swap: `down` was
/// directly above `up` and they exchanged places at `x`; `down_new_pos` is
/// the 0-based position of `down` after the swap (so its new 1-based rank
/// is `down_new_pos + 1`).
///
/// Returns the number of swaps performed.
pub fn arrangement_sweep<F>(lines: &[DualLine], x_lo: f64, x_hi: f64, mut on_swap: F) -> usize
where
    F: FnMut(f64, u32, u32, usize),
{
    let n = lines.len();
    if n < 2 {
        return 0;
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order_at(lines, &mut order, x_lo);
    let mut pos = vec![0usize; n];
    for (p, &id) in order.iter().enumerate() {
        pos[id as usize] = p;
    }

    let mut heap: BinaryHeap<Event> = BinaryHeap::new();
    // A pair (upper, lower) is *converging* when the upper line grows
    // slower: their crossing lies ahead of any x where that orientation
    // holds.
    let push_if_converging = |heap: &mut BinaryHeap<Event>, upper: u32, lower: u32| {
        let (lu, ll) = (&lines[upper as usize], &lines[lower as usize]);
        if lu.slope < ll.slope {
            if let Some(x) = lu.intersection_x(ll) {
                if x > x_lo && x < x_hi {
                    heap.push(Event { x, upper, lower });
                }
            }
        }
    };
    for w in order.windows(2) {
        push_if_converging(&mut heap, w[0], w[1]);
    }

    let mut swaps = 0usize;
    while let Some(ev) = heap.pop() {
        let (pu, pl) = (pos[ev.upper as usize], pos[ev.lower as usize]);
        // Stale events: the pair separated or already swapped.
        if pl != pu + 1 {
            continue;
        }
        order.swap(pu, pl);
        pos[ev.upper as usize] = pl;
        pos[ev.lower as usize] = pu;
        swaps += 1;
        on_swap(ev.x, ev.upper, ev.lower, pl);
        // New adjacencies: (line above the risen lower, lower) and
        // (upper, line below the sunk upper).
        if pu > 0 {
            push_if_converging(&mut heap, order[pu - 1], ev.lower);
        }
        if pl + 1 < n {
            push_if_converging(&mut heap, ev.upper, order[pl + 1]);
        }
    }
    swaps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{crossings_with_tracked, initial_ranks};

    fn lines_from(rows: &[[f64; 2]]) -> Vec<DualLine> {
        rows.iter().map(|r| DualLine::from_tuple(r)).collect()
    }

    /// Ranks of every line at `x_hi` computed by sweeping from `x_lo`: a
    /// whole-sweep correctness check against a direct sort.
    fn final_ranks(lines: &[DualLine], x_lo: f64, x_hi: f64) -> Vec<usize> {
        let mut rank = initial_ranks(lines, x_lo);
        arrangement_sweep(lines, x_lo, x_hi, |_, down, up, _| {
            rank[down as usize] += 1;
            rank[up as usize] -= 1;
        });
        rank
    }

    #[test]
    fn sweep_visits_every_inversion() {
        let lines = lines_from(&[
            [0.0, 1.0],
            [0.4, 0.95],
            [0.57, 0.75],
            [0.79, 0.6],
            [0.2, 0.5],
            [0.35, 0.3],
            [1.0, 0.0],
        ]);
        // Number of swaps = number of order inversions between x=0 and x=1.
        let mut at0: Vec<u32> = (0..7).collect();
        let mut at1: Vec<u32> = (0..7).collect();
        order_at(&lines, &mut at0, 0.0);
        order_at(&lines, &mut at1, 1.0);
        let pos1: Vec<usize> = {
            let mut p = vec![0; 7];
            for (i, &id) in at1.iter().enumerate() {
                p[id as usize] = i;
            }
            p
        };
        let mut inversions = 0;
        for i in 0..7 {
            for j in i + 1..7 {
                if pos1[at0[i] as usize] > pos1[at0[j] as usize] {
                    inversions += 1;
                }
            }
        }
        let swaps = arrangement_sweep(&lines, 0.0, 1.0, |_, _, _, _| {});
        assert_eq!(swaps, inversions);
    }

    #[test]
    fn final_order_matches_direct_sort() {
        let lines = lines_from(&[[0.1, 0.8], [0.6, 0.6], [0.9, 0.2], [0.3, 0.5], [0.7, 0.1]]);
        let ranks = final_ranks(&lines, 0.0, 1.0);
        let direct = initial_ranks(&lines, 1.0);
        assert_eq!(ranks, direct);
    }

    #[test]
    fn concurrent_crossings_are_handled() {
        // Three lines through the common point (0.5, 0.5):
        // y = x, y = 0.5, y = 1 - x, plus a fourth line whose crossings all
        // fall strictly inside (0, 1) (open-interval semantics exclude
        // boundary crossings).
        let lines = vec![
            DualLine { slope: 1.0, intercept: 0.0 },
            DualLine { slope: 0.0, intercept: 0.5 },
            DualLine { slope: -1.0, intercept: 1.0 },
            DualLine { slope: 0.2, intercept: 0.35 },
        ];
        let ranks = final_ranks(&lines, 0.0, 1.0);
        let direct = initial_ranks(&lines, 1.0);
        assert_eq!(ranks, direct);
    }

    #[test]
    fn sweep_and_event_list_agree_on_tracked_ranks() {
        // Replay both machineries over random lines and compare the rank
        // trajectory of every line.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let n = 12;
            let rows: Vec<[f64; 2]> =
                (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
            let lines = lines_from(&rows);
            let tracked: Vec<u32> = (0..n as u32).collect();

            let mut rank_a = initial_ranks(&lines, 0.0);
            let mut log_a: Vec<(u32, usize)> = Vec::new();
            for c in crossings_with_tracked(&lines, &tracked, 0.0, 1.0) {
                rank_a[c.down as usize] += 1;
                rank_a[c.up as usize] -= 1;
                log_a.push((c.down, rank_a[c.down as usize]));
            }

            let mut rank_b = initial_ranks(&lines, 0.0);
            let mut log_b: Vec<(u32, usize)> = Vec::new();
            arrangement_sweep(&lines, 0.0, 1.0, |_, down, up, down_pos| {
                rank_b[down as usize] += 1;
                rank_b[up as usize] -= 1;
                assert_eq!(rank_b[down as usize], down_pos + 1);
                log_b.push((down, rank_b[down as usize]));
            });

            assert_eq!(rank_a, rank_b);
            assert_eq!(log_a, log_b);
        }
    }

    #[test]
    fn restricted_range_sweep() {
        let lines = lines_from(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75]]);
        // Only the crossing at x = 1/9 lies in (0, 0.2].
        let swaps = arrangement_sweep(&lines, 0.0, 0.2, |x, down, up, _| {
            assert!((x - 1.0 / 9.0).abs() < 1e-12);
            assert_eq!((down, up), (0, 1));
        });
        assert_eq!(swaps, 1);
    }

    #[test]
    fn single_line_no_events() {
        let lines = lines_from(&[[0.3, 0.4]]);
        assert_eq!(arrangement_sweep(&lines, 0.0, 1.0, |_, _, _, _| panic!()), 0);
    }
}
