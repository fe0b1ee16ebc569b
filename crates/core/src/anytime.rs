//! Anytime bound-and-prune machinery shared by the hard HD solvers.
//!
//! The hard solvers (HDRRM, MDRRR, MDRRRr, MDRC) are restructured as
//! *anytime* searches: they maintain a best-so-far [`Incumbent`] with an
//! upper bound on its rank-regret, tighten a lower bound as thresholds
//! are proven infeasible, and can be stopped mid-search by the limits of
//! their [`Budget`] — a wall-clock `time_limit`, a target `gap`, or a
//! deterministic work counter — returning the incumbent annotated with
//! certified [`Bounds`] instead of failing.
//!
//! The limits form one stop rule: every limit that is set applies, and
//! the first one reached stops the search; [`TerminatedBy`] names it.
//!
//! Determinism contract: the counter and gap limits are checked against
//! deterministic state only (probe counts and bounds), so without a
//! `time_limit` results are bit-identical at any thread count. Only the
//! time limit reads the clock — and then the reported gap certifies
//! whatever was returned.
//!
//! The shape follows ddo-style branch-and-bound (shared incumbent,
//! relaxed/restricted bounds, pluggable limits) mapped onto the
//! doubling-then-binary threshold search the solvers share.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::solver::Budget;

/// Certified bounds on the optimal achievable rank-regret at the moment
/// the search stopped: the optimum lies in `[lower, upper]`, and the
/// returned solution achieves rank-regret at most `upper` (within the
/// solver's own frame — exact for MDRRR, discretized for HDRRM, sampled
/// for MDRRRr).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bounds {
    /// Largest threshold proven infeasible, plus one (1 when nothing is
    /// proven yet).
    pub lower: usize,
    /// Rank-regret certified for the returned set.
    pub upper: usize,
}

impl Bounds {
    /// Relative optimality gap `(upper - lower) / upper` in `[0, 1]`:
    /// `0.0` means the answer is proven optimal within the solver's
    /// frame.
    pub fn gap(&self) -> f64 {
        if self.upper == 0 || self.upper <= self.lower {
            0.0
        } else {
            (self.upper - self.lower) as f64 / self.upper as f64
        }
    }
}

/// Why a solve returned when it did.
///
/// `Eq` is deliberately absent: the [`TerminatedBy::Sampled`] variant
/// carries the `(eps, delta)` floats of its confidence statement, so the
/// enum only offers `PartialEq`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TerminatedBy {
    /// The search ran to its natural end (gap 0 within its frame).
    #[default]
    Completed,
    /// The budget's wall-clock `time_limit` elapsed mid-search.
    Time,
    /// The bounds reached the budget's `gap` target.
    Gap,
    /// A deterministic work counter of the budget (`max_enumerations`,
    /// `max_lp_calls`) was exhausted.
    Counter,
    /// The answer is a sampled-ε approximation: `directions` utility
    /// directions were drawn from the query space, enough that by
    /// Hoeffding's inequality, with probability at least `1 - delta`
    /// over the draw, the fraction of the direction space on which the
    /// set's rank exceeds the reported regret is at most `eps`. The
    /// solve itself ran to its natural end — this is a fidelity
    /// statement, not an early stop.
    Sampled { eps: f64, delta: f64, directions: usize },
}

impl TerminatedBy {
    pub fn name(self) -> &'static str {
        match self {
            TerminatedBy::Completed => "completed",
            TerminatedBy::Time => "time",
            TerminatedBy::Gap => "gap",
            TerminatedBy::Counter => "counter",
            TerminatedBy::Sampled { .. } => "sampled",
        }
    }

    /// `true` for the variants that mean "a budget limit stopped the
    /// search and the answer may be sub-optimal within the solver's
    /// frame" — i.e. everything except a natural completion or a
    /// sampled-fidelity answer (which completed its search over the
    /// sampled directions).
    pub fn is_early_stop(self) -> bool {
        matches!(self, TerminatedBy::Time | TerminatedBy::Gap | TerminatedBy::Counter)
    }
}

/// Thread-safe best-so-far solution: an index set plus the rank-regret
/// bound certified for it. Updates are monotone — an offer only wins if
/// its bound is strictly better — so concurrent probes can share one
/// incumbent without ordering concerns.
#[derive(Debug, Default)]
pub struct Incumbent {
    best: Mutex<Option<(Vec<u32>, usize)>>,
}

impl Incumbent {
    pub fn new() -> Self {
        Self::default()
    }

    /// Offer a candidate with a certified upper bound; keeps it only if
    /// it beats the current incumbent. Returns whether it was installed.
    pub fn offer(&self, indices: Vec<u32>, upper: usize) -> bool {
        let mut best = self.best.lock().expect("incumbent lock");
        match best.as_ref() {
            Some((_, have)) if *have <= upper => false,
            _ => {
                *best = Some((indices, upper));
                true
            }
        }
    }

    /// The current best set and its certified bound, if any.
    pub fn best(&self) -> Option<(Vec<u32>, usize)> {
        self.best.lock().expect("incumbent lock").clone()
    }

    /// The current certified upper bound, if any.
    pub fn upper(&self) -> Option<usize> {
        self.best.lock().expect("incumbent lock").as_ref().map(|(_, u)| *u)
    }
}

/// Search statistics attached to an anytime [`Solution`]: node and
/// prune accounting plus the gap-vs-time curve. Wall-clock fields are
/// nondeterministic, which is why the report is excluded from
/// `Solution` equality.
///
/// [`Solution`]: crate::problem::Solution
#[derive(Debug, Clone, Default)]
pub struct SearchReport {
    /// Search nodes expanded: greedy cover selections plus threshold /
    /// cell probes.
    pub nodes: u64,
    /// Probes aborted early because their cover provably could not beat
    /// the feasibility cap (the bound-and-prune win; the skipped nodes
    /// are measured against a no-pruning baseline by `repro anytime`).
    pub pruned_probes: u64,
    /// Seconds from solve start to the first incumbent.
    pub first_incumbent_seconds: Option<f64>,
    /// `(seconds, bounds)` at each bounds improvement, in time order.
    pub curve: Vec<(f64, Bounds)>,
}

/// Per-solve driver state for an anytime search: the budget's limits,
/// the shared incumbent, the deterministic probe budget, and the
/// (wall-clock) report being accumulated.
#[derive(Debug)]
pub struct AnytimeSearch {
    time_limit: Option<Duration>,
    gap: Option<f64>,
    /// Whether the budget sets any limit ([`Budget::has_limit`]).
    limited: bool,
    started: Instant,
    /// Remaining probe budget; `None` means unlimited.
    probes_left: Option<usize>,
    pub incumbent: Incumbent,
    pub report: SearchReport,
}

impl AnytimeSearch {
    /// A search under `budget`'s limits. `probe_budget` is the
    /// deterministic probe allowance consumed by
    /// [`AnytimeSearch::take_probe`]: the solvers pass
    /// `budget.max_enumerations`, except where the counters act inside
    /// each probe instead (MDRRR's k-set enumeration).
    pub fn new(budget: &Budget, probe_budget: Option<usize>) -> Self {
        Self {
            time_limit: budget.time_limit,
            gap: budget.gap,
            limited: budget.has_limit(),
            started: Instant::now(),
            probes_left: probe_budget,
            incumbent: Incumbent::new(),
            report: SearchReport::default(),
        }
    }

    /// A search that never stops early (still counts nodes).
    pub fn unlimited() -> Self {
        Self::new(&Budget::UNLIMITED, None)
    }

    /// Can a limit stop this search early? Limited searches offer a
    /// fallback incumbent before searching, so every early stop has a
    /// sound answer to return.
    pub fn is_limited(&self) -> bool {
        self.limited
    }

    /// Seconds since the solve started.
    pub fn elapsed_seconds(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Count one expanded search node (a greedy pick or a probe).
    pub fn note_node(&mut self) {
        self.report.nodes += 1;
    }

    /// Count `n` expanded search nodes at once.
    pub fn note_nodes(&mut self, n: u64) {
        self.report.nodes += n;
    }

    /// Count one probe aborted early by the feasibility cap.
    pub fn note_pruned_probe(&mut self) {
        self.report.pruned_probes += 1;
    }

    /// Consume one unit of the deterministic probe budget. Returns
    /// `false` when the budget is exhausted (the caller should stop and
    /// return its incumbent).
    pub fn take_probe(&mut self) -> bool {
        match self.probes_left.as_mut() {
            None => true,
            Some(0) => false,
            Some(left) => {
                *left -= 1;
                true
            }
        }
    }

    /// Install a new incumbent; stamps the first-incumbent time and the
    /// gap-vs-time curve when it wins.
    pub fn offer(&mut self, indices: Vec<u32>, upper: usize, lower: usize) {
        if self.incumbent.offer(indices, upper) {
            let t = self.elapsed_seconds();
            self.report.first_incumbent_seconds.get_or_insert(t);
            self.report.curve.push((t, Bounds { lower, upper: upper.max(lower) }));
        }
    }

    /// Should the search stop *before* the next unit of work, given the
    /// current bounds? Every set limit is checked; when several are
    /// reached at once, the deterministic ones are named first (counter,
    /// then gap, then time). Counter and gap read deterministic state
    /// only; the time limit reads the clock.
    pub fn should_stop(&self, bounds: Bounds) -> Option<TerminatedBy> {
        if self.probes_left == Some(0) {
            return Some(TerminatedBy::Counter);
        }
        if self.gap.is_some_and(|target| self.incumbent.upper().is_some() && bounds.gap() <= target)
        {
            return Some(TerminatedBy::Gap);
        }
        if self.time_limit.is_some_and(|limit| self.started.elapsed() >= limit) {
            return Some(TerminatedBy::Time);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_is_relative_and_clamped() {
        assert_eq!(Bounds { lower: 3, upper: 3 }.gap(), 0.0);
        assert_eq!(Bounds { lower: 5, upper: 3 }.gap(), 0.0, "crossed bounds clamp to 0");
        let g = Bounds { lower: 1, upper: 4 }.gap();
        assert!((g - 0.75).abs() < 1e-12, "{g}");
        assert_eq!(Bounds { lower: 0, upper: 0 }.gap(), 0.0);
    }

    #[test]
    fn incumbent_updates_are_monotone() {
        let inc = Incumbent::new();
        assert!(inc.best().is_none());
        assert!(inc.offer(vec![1, 2], 10));
        assert!(!inc.offer(vec![3], 10), "ties do not replace");
        assert!(!inc.offer(vec![3], 12), "worse bounds do not replace");
        assert!(inc.offer(vec![3], 7));
        assert_eq!(inc.best(), Some((vec![3], 7)));
        assert_eq!(inc.upper(), Some(7));
    }

    fn limits(
        max_enumerations: Option<usize>,
        time_limit: Option<Duration>,
        gap: Option<f64>,
    ) -> Budget {
        Budget { max_enumerations, time_limit, gap, ..Budget::UNLIMITED }
    }

    #[test]
    fn counter_budget_is_deterministic_and_exhaustible() {
        let mut s = AnytimeSearch::new(&limits(Some(2), None, None), Some(2));
        let b = Bounds { lower: 1, upper: 100 };
        assert!(s.should_stop(b).is_none());
        assert!(s.take_probe());
        assert!(s.take_probe());
        assert!(!s.take_probe(), "third probe exceeds the budget");
        assert_eq!(s.should_stop(b), Some(TerminatedBy::Counter));
    }

    #[test]
    fn samples_are_a_frame_not_a_limit() {
        let mut s = AnytimeSearch::new(&Budget::with_samples(10), None);
        assert!(!s.is_limited());
        for _ in 0..10 {
            assert!(s.take_probe());
        }
        assert!(s.should_stop(Bounds { lower: 1, upper: 9 }).is_none());
        // Each limit on its own makes the search limited.
        for budget in [
            limits(Some(1), None, None),
            Budget { max_lp_calls: Some(1), ..Budget::UNLIMITED },
            limits(None, Some(Duration::from_secs(60)), None),
            limits(None, None, Some(0.5)),
        ] {
            assert!(AnytimeSearch::new(&budget, None).is_limited(), "{budget:?}");
        }
    }

    #[test]
    fn gap_cutoff_needs_an_incumbent() {
        let mut s = AnytimeSearch::new(&limits(None, None, Some(0.5)), None);
        let tight = Bounds { lower: 3, upper: 4 };
        assert!(s.should_stop(tight).is_none(), "no incumbent yet");
        s.offer(vec![0], 4, 3);
        assert_eq!(s.should_stop(tight), Some(TerminatedBy::Gap));
        assert!(s.should_stop(Bounds { lower: 1, upper: 4 }).is_none(), "gap too wide");
    }

    #[test]
    fn limits_compose_and_the_first_reached_stops() {
        let b = Bounds { lower: 3, upper: 4 };
        let minute = Some(Duration::from_secs(60));
        // Counter plus time: the counter runs out long before the minute.
        let mut s = AnytimeSearch::new(&limits(Some(1), minute, None), Some(1));
        assert!(s.should_stop(b).is_none());
        assert!(s.take_probe());
        assert_eq!(s.should_stop(b), Some(TerminatedBy::Counter));
        // ...and an expired clock stops a search whose counter is not spent.
        let s = AnytimeSearch::new(&limits(Some(5), Some(Duration::ZERO), None), Some(5));
        assert_eq!(s.should_stop(b), Some(TerminatedBy::Time));
        // Gap plus time: the gap is reached as soon as an incumbent exists.
        let mut s = AnytimeSearch::new(&limits(None, minute, Some(0.5)), None);
        assert!(s.should_stop(b).is_none(), "no incumbent, clock far from expiry");
        s.offer(vec![0], 4, 3);
        assert_eq!(s.should_stop(b), Some(TerminatedBy::Gap));
        // ...and an expired clock stops a search whose gap is still wide.
        let mut s = AnytimeSearch::new(&limits(None, Some(Duration::ZERO), Some(0.1)), None);
        s.offer(vec![0], 4, 3);
        assert_eq!(s.should_stop(b), Some(TerminatedBy::Time));
    }

    #[test]
    fn offer_stamps_first_incumbent_and_curve() {
        let mut s = AnytimeSearch::unlimited();
        s.offer(vec![0], 50, 1);
        s.offer(vec![0], 60, 1); // loses: no new curve point
        s.offer(vec![1], 20, 4);
        assert_eq!(s.report.curve.len(), 2);
        assert_eq!(s.report.curve[0].1, Bounds { lower: 1, upper: 50 });
        assert_eq!(s.report.curve[1].1, Bounds { lower: 4, upper: 20 });
        assert!(s.report.first_incumbent_seconds.is_some());
        let t0 = s.report.first_incumbent_seconds.unwrap();
        assert!(t0 <= s.report.curve[1].0);
    }

    #[test]
    fn time_budget_zero_stops_immediately() {
        let s = AnytimeSearch::new(&limits(None, Some(Duration::ZERO), None), None);
        assert_eq!(s.should_stop(Bounds { lower: 1, upper: 2 }), Some(TerminatedBy::Time));
    }
}
