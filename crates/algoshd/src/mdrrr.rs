//! **MDRRR** — the exact k-set baseline of Asudeh et al.
//!
//! Enumerate every k-set ([`crate::ksets`]), then hit them all with as few
//! tuples as possible: ASMS's greedy cover ([`asms_with_topk`]) over the
//! k-sets, with no basis and no candidate mask. Any direction's top-k is
//! one of the enumerated k-sets, so a hitting set has rank-regret ≤ k
//! everywhere — the guaranteed-regret, logarithmic-size-ratio algorithm
//! of the paper's Table III. Exactly as the paper reports, it "does not
//! scale beyond a few hundred tuples" (`|W|` explodes); the limits make
//! it fail gracefully instead of hanging.

use rrm_core::{
    threshold_search, Algorithm, AnytimeSearch, Bounds, Budget, Dataset, RrmError, Solution,
    TerminatedBy,
};

use crate::anytime::uniform_top_set;
use crate::asms::asms_with_topk;
use crate::ksets::{enumerate_ksets, KsetEnumeration, KsetLimits};

/// MDRRR for the RRR problem: a set with rank-regret ≤ `k` (certified when
/// the enumeration completed) and size within `1 + ln|W|` of optimal. The
/// enumeration covers the full space only (`Table III: Suitable for RRRM —
/// No`); the solver's capability check rejects restricted spaces.
pub(crate) fn mdrrr(data: &Dataset, k: usize, limits: KsetLimits) -> Result<Solution, RrmError> {
    if k == 0 {
        return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
    }
    let k = k.min(data.n());
    let e: KsetEnumeration = enumerate_ksets(data, k, &[], limits);
    if let Some(error) = e.error {
        return Err(error);
    }
    let ids = asms_with_topk(data.n(), k, &[], &e.ksets, None);
    let certified = e.complete.then_some(k);
    Solution::new(ids, certified, Algorithm::Mdrrr, data)
}

/// MDRRR adapted to RRM with the improved (doubling + binary) search on
/// `k`, as the paper's experiments run it, under the `budget`'s limits:
/// `probe(k)` answers one threshold, so the prepared handle can memoize
/// enumerations across probes and queries.
///
/// Infeasible probes are sound *lower-bound* proofs even when the k-set
/// enumeration was truncated: a hitting set over a subset of the k-sets
/// can only be smaller than over all of them. Feasible-but-uncertified
/// answers (truncated enumeration) are annotated with the trivially
/// sound upper bound `n` and [`TerminatedBy::Counter`] — the counter
/// exhaustion surfaced as a gap instead of silently claiming the
/// threshold.
pub(crate) fn rrm_search_with(
    data: &Dataset,
    r: usize,
    budget: &Budget,
    mut probe: impl FnMut(usize) -> Result<Solution, RrmError>,
) -> Result<Solution, RrmError> {
    if r == 0 {
        return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
    }
    let n = data.n();
    // The k-set/LP counters act *inside* each probe (they truncate the
    // enumeration), so the probe count itself is not budget-bound here.
    let mut search = AnytimeSearch::new(budget, None);
    if search.is_limited() {
        // Rank is at most n everywhere — a sound fallback incumbent
        // without extra work, for time and gap limits.
        search.offer(uniform_top_set(data, &[], r), n, 1);
    }
    let outcome = threshold_search(n, &mut search, |k, lower, search| {
        let sol = probe(k)?;
        search.note_nodes(sol.size() as u64);
        if sol.size() > r {
            return Ok(None);
        }
        if sol.certified_regret.is_some() {
            search.offer(sol.indices.clone(), k, lower);
        }
        Ok(Some(sol))
    })?;
    match outcome.terminated {
        TerminatedBy::Completed => match outcome.best {
            Some((k, sol)) => {
                if sol.certified_regret.is_some() {
                    Ok(sol.with_bounds(Bounds { lower: k, upper: k }).with_report(search.report))
                } else {
                    Ok(sol
                        .with_bounds(Bounds { lower: outcome.lower, upper: n })
                        .with_termination(TerminatedBy::Counter)
                        .with_report(search.report))
                }
            }
            None => Err(RrmError::Unsupported(
                "k-set enumeration hit its limits before finding a feasible threshold".into(),
            )),
        },
        t => match outcome.best {
            Some((k, sol)) => {
                let upper = if sol.certified_regret.is_some() { k } else { n };
                Ok(sol
                    .with_bounds(Bounds { lower: outcome.lower, upper })
                    .with_termination(t)
                    .with_report(search.report))
            }
            None => {
                let (ids, upper) =
                    search.incumbent.best().expect("limited searches seed a fallback incumbent");
                Solution::new(ids, None, Algorithm::Mdrrr, data).map(|s| {
                    s.with_bounds(Bounds { lower: outcome.lower, upper })
                        .with_termination(t)
                        .with_report(search.report)
                })
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{Budget, ExecPolicy, FullSpace, Solver};
    use rrm_data::synthetic::independent;
    use rrm_eval::estimate_rank_regret_seq;

    #[test]
    fn guarantee_certified_and_real() {
        let data = independent(30, 3, 41);
        for k in [1usize, 2, 4] {
            let sol = mdrrr(&data, k, KsetLimits::default()).unwrap();
            assert_eq!(sol.certified_regret, Some(k));
            // Estimated regret over many directions must respect k.
            let est = estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(3), 8000, 42);
            assert!(est.max_rank <= k, "k={k}: measured {}", est.max_rank);
        }
    }

    #[test]
    fn rrm_adapter_respects_budget() {
        let data = independent(25, 3, 43);
        for r in [2usize, 4, 6] {
            let sol = crate::MdrrrSolver
                .prepare(&data, &FullSpace::new(3), ExecPolicy::default())
                .unwrap()
                .solve_rrm(r, &Budget::UNLIMITED)
                .unwrap();
            assert!(sol.size() <= r);
            let k = sol.certified_regret.unwrap();
            let est = estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(3), 8000, 44);
            assert!(est.max_rank <= k);
        }
    }

    #[test]
    fn incomplete_enumeration_is_uncertified() {
        let data = independent(40, 3, 45);
        let sol = mdrrr(
            &data,
            4,
            KsetLimits { max_ksets: 5, max_lp_calls: 1_000_000, ..Default::default() },
        )
        .unwrap();
        assert_eq!(sol.certified_regret, None);
    }

    #[test]
    fn k_one_is_the_top1_hitting_set() {
        // k = 1: the k-sets are the singleton top-1 regions; the hitting
        // set must contain every tuple that is top-1 somewhere.
        let data = independent(20, 2, 46);
        let sol = mdrrr(&data, 1, KsetLimits::default()).unwrap();
        let est = estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(2), 5000, 47);
        assert_eq!(est.max_rank, 1);
    }

    /// One `minimize` and one `represent` answer on fixed inputs, with
    /// the search statistics that depend on every probe's enumeration.
    #[test]
    fn pinned_answers() {
        let prepared = |seed| {
            crate::MdrrrSolver
                .prepare(&independent(22, 3, seed), &FullSpace::new(3), ExecPolicy::sequential())
                .unwrap()
        };
        let sol = prepared(5).solve_rrm(3, &Budget::UNLIMITED).unwrap();
        assert_eq!(sol.indices, [3, 5, 14]);
        assert_eq!(sol.certified_regret, Some(2));
        assert_eq!(sol.bounds, Some(Bounds { lower: 2, upper: 2 }));
        assert_eq!(sol.terminated_by, TerminatedBy::Completed);
        let report = sol.report.as_deref().expect("RRM search report");
        assert_eq!((report.nodes, report.pruned_probes), (10, 0));

        let sol = prepared(6).solve_rrr(3, &Budget::UNLIMITED).unwrap();
        assert_eq!(sol.indices, [0, 4, 8]);
        assert_eq!(sol.certified_regret, Some(3));
        assert_eq!(sol.bounds, None);
        assert_eq!(sol.terminated_by, TerminatedBy::Completed);
        assert!(sol.report.is_none());
    }

    #[test]
    fn an_undecided_region_lp_is_an_error() {
        // Round-off sends the region LP of {1} into a phase-one ray. Read
        // as "empty", it would drop a k-set and void the certificate.
        let data =
            Dataset::from_rows(&[[1.0, 1e200, 0.5], [1e-300, -1.7e308, 1.7e308], [1.0, 1.0, 0.0]])
                .unwrap();
        let e = enumerate_ksets(&data, 1, &[], KsetLimits::default());
        assert!(!e.complete && matches!(e.error, Some(RrmError::Numerical(_))), "{e:?}");
        assert!(matches!(mdrrr(&data, 1, KsetLimits::default()), Err(RrmError::Numerical(_))));
    }

    #[test]
    fn zero_threshold_rejected() {
        let data = independent(10, 2, 48);
        assert!(mdrrr(&data, 0, KsetLimits::default()).is_err());
    }
}
