//! The sampled-ε tier's solver, `Algorithm::Sampled`.
//!
//! A query draws its directions from the query space (the Hoeffding count
//! of its [`ApproxSpec`], or a larger `samples` override, from one seeded
//! stream: [`rrm_core::approx`]), covers them greedily by their top-`k`
//! lists, and reports the chosen set's measured worst rank over the
//! sample as its regret, with the `(ε, δ)` statement as
//! [`TerminatedBy::Sampled`]. RRM searches the smallest threshold whose
//! cover fits `r` tuples with the crate's one doubling-then-binary
//! search: each doubling round scores its own top-`k` lists, and the
//! bisection reads prefixes of the feasible round's lists. RRR runs one
//! cover at its threshold.
//!
//! The cover is [`greedy_set_cover_csr`] over one set per tuple,
//! indexed by tuple id and holding the directions whose top-`k` contains
//! the tuple. Each pick is the tuple in the most uncovered lists, ties to
//! the smallest tuple id, so the pick sequence is deterministic. Only the
//! scoring is chunked over threads, and answers are bit-identical at any
//! thread count.

use rrm_core::approx::{sample_directions, ApproxSpec, DEFAULT_SEED};
use rrm_core::rank::{batch_top_k, max_rank_regret};
use rrm_core::{
    threshold_search, Algorithm, AnytimeSearch, Bounds, Budget, Dataset, ExecPolicy,
    PreparedSolver, RrmError, Solution, Solver, TerminatedBy, UtilitySpace,
};
use rrm_setcover::greedy_set_cover_csr;

/// Greedy cover of the directions by the top-`k` prefixes of their lists
/// `tops`, over `n` tuples: one set per tuple, indexed by tuple id, so
/// ties go to the smallest tuple id. The sets are compressed rows, filled
/// in direction order. Returns the picks and whether they cover every
/// direction within `cap` picks.
fn cover(n: usize, tops: &[Vec<u32>], k: usize, cap: usize) -> (Vec<u32>, bool) {
    let prefixes = || tops.iter().map(|top| &top[..k.min(top.len())]);
    let mut offsets = vec![0usize; n + 1];
    for &t in prefixes().flatten() {
        offsets[t as usize + 1] += 1;
    }
    for t in 0..n {
        offsets[t + 1] += offsets[t];
    }
    let mut cursor = offsets[..n].to_vec();
    let mut elems = vec![0u32; offsets[n]];
    for (dj, prefix) in prefixes().enumerate() {
        for &t in prefix {
            elems[cursor[t as usize]] = dj as u32;
            cursor[t as usize] += 1;
        }
    }
    // The capped greedy may complete with `cap + 1` picks, which do not fit.
    let (picks, complete) = greedy_set_cover_csr(tops.len(), &offsets, &elems, cap);
    let fits = complete && picks.len() <= cap;
    (picks.into_iter().map(|t| t as u32).collect(), fits)
}

/// The sampled frame of one query: a dimension and spec check, then
/// [`ApproxSpec::directions_with`] directions from the stream seeded by
/// [`DEFAULT_SEED`].
fn frame(
    data: &Dataset,
    space: &dyn UtilitySpace,
    spec: ApproxSpec,
    samples: Option<usize>,
) -> Result<Vec<Vec<f64>>, RrmError> {
    if space.dim() != data.dim() {
        return Err(RrmError::DimensionMismatch { expected: data.dim(), got: space.dim() });
    }
    spec.validate()?;
    Ok(sample_directions(space, spec.directions_with(samples), DEFAULT_SEED))
}

/// The sampled answer: `picks`, with their measured worst rank over `dirs`
/// as the regret (sound however the search got there) and the `(ε, δ)`
/// statement.
fn answer(
    data: &Dataset,
    dirs: &[Vec<f64>],
    picks: Vec<u32>,
    spec: ApproxSpec,
    exec: ExecPolicy,
) -> Result<Solution, RrmError> {
    let k_hat = max_rank_regret(data, dirs, &picks, exec.parallelism).expect("m >= 1");
    Ok(Solution::new(picks, Some(k_hat), Algorithm::Sampled, data)?
        .with_bounds(Bounds { lower: 1, upper: k_hat })
        .with_termination(TerminatedBy::Sampled {
            eps: spec.eps,
            delta: spec.delta,
            directions: dirs.len(),
        }))
}

/// The sampled RRM solve behind [`PreparedSampled::solve_rrm`]. A
/// `samples` override above the Hoeffding direction count derived from
/// `spec` draws that many directions instead; one below it is ignored, so
/// the answer's `(ε, δ)` statement always holds
/// ([`ApproxSpec::directions_with`]).
fn solve_rrm_sampled_with(
    data: &Dataset,
    r: usize,
    space: &dyn UtilitySpace,
    spec: ApproxSpec,
    samples: Option<usize>,
    exec: ExecPolicy,
) -> Result<Solution, RrmError> {
    if r == 0 {
        return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
    }
    let dirs = frame(data, space, spec, samples)?;
    rrm_over(data, r, &dirs, spec, exec)
}

/// The sampled RRM search over the drawn directions `dirs`: the smallest
/// threshold whose greedy cover fits `r` tuples, answered by
/// [`answer`].
fn rrm_over(
    data: &Dataset,
    r: usize,
    dirs: &[Vec<f64>],
    spec: ApproxSpec,
    exec: ExecPolicy,
) -> Result<Solution, RrmError> {
    let n = data.n();
    // The last doubling round's lists: each round scores its own, and the
    // bisection's thresholds lie below the feasible round's, so it reads
    // their prefixes.
    let mut tops: Vec<Vec<u32>> = Vec::new();
    let mut depth = 0;
    let outcome = threshold_search(n, &mut AnytimeSearch::unlimited(), |k, _, _| {
        if k > depth {
            tops = batch_top_k(data, dirs, k, exec.parallelism);
            depth = k;
        }
        let (picks, fits) = cover(n, &tops, k, r);
        Ok(fits.then_some(picks))
    })?;
    // At k = n every list is the whole dataset, so one pick covers
    // everything; reaching here means a broken invariant.
    let Some((_, picks)) = outcome.best else {
        return Err(RrmError::Internal("sampled greedy cover infeasible even at k = n".into()));
    };
    answer(data, dirs, picks, spec, exec)
}

/// The sampled RRR solve: smallest greedy cover at threshold `k` over the
/// sampled directions (every direction is covered by its own rank-1 tuple,
/// so the cover always exists). See [`solve_rrm_sampled_with`] for the
/// `samples` and determinism contracts.
fn solve_rrr_sampled_with(
    data: &Dataset,
    k: usize,
    space: &dyn UtilitySpace,
    spec: ApproxSpec,
    samples: Option<usize>,
    exec: ExecPolicy,
) -> Result<Solution, RrmError> {
    if k == 0 {
        return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
    }
    let dirs = frame(data, space, spec, samples)?;
    let k = k.min(data.n());
    let tops = batch_top_k(data, &dirs, k, exec.parallelism);
    let (picks, fits) = cover(data.n(), &tops, k, usize::MAX);
    debug_assert!(fits, "uncapped greedy cover always completes");
    answer(data, &dirs, picks, spec, exec)
}

/// The sampled-ε tier as a registered [`Solver`]: `Algorithm::Sampled` in
/// the engine roster, dispatched like any exact algorithm but answering
/// with a Hoeffding-certified sampled solution. A budget without an
/// [`ApproxSpec`] answers at [`ApproxSpec::default`], and every query draws
/// its directions from the stream seeded by [`DEFAULT_SEED`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SampledSolver;

impl Solver for SampledSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Sampled
    }

    fn prepare(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.algorithm().ensure_supported(data, space)?;
        // Warm the column-major scoring layout now: it is the only
        // dataset-shaped state the sampled tier reuses across queries.
        let _ = data.soa();
        Ok(Box::new(PreparedSampled { exec, data: data.clone(), space: space.clone_box() }))
    }
}

/// [`SampledSolver`] bound to one dataset + space. The SoA scoring layout
/// is built at prepare time and shared (via the dataset's internal `Arc`)
/// by every query; directions are re-drawn per query from the constant
/// seed, so a warm handle answers bit for bit like a fresh one.
pub struct PreparedSampled {
    exec: ExecPolicy,
    data: Dataset,
    space: Box<dyn UtilitySpace>,
}

impl PreparedSolver for PreparedSampled {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Sampled
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let spec = budget.approx.unwrap_or_default();
        solve_rrm_sampled_with(&self.data, r, self.space.as_ref(), spec, budget.samples, self.exec)
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let spec = budget.approx.unwrap_or_default();
        solve_rrr_sampled_with(&self.data, k, self.space.as_ref(), spec, budget.samples, self.exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::approx::hoeffding_directions;
    use rrm_core::FullSpace;

    fn table1() -> Dataset {
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
    fn greedy_cover_is_deterministic_and_minimal_on_small_cases() {
        // Directions 0,1 covered by tuple 3; direction 2 only by tuple 7.
        let tops = vec![vec![3, 5], vec![3, 9], vec![7]];
        let (picks, full) = cover(10, &tops, 2, usize::MAX);
        assert!(full);
        assert_eq!(picks, vec![3, 7]);
        // Capped below the needed size: reports failure.
        let (_, full) = cover(10, &tops, 2, 1);
        assert!(!full);
        // Ties break to the smallest tuple index.
        let tops = vec![vec![8, 2], vec![2, 8]];
        let (picks, full) = cover(10, &tops, 2, 1);
        assert!(full);
        assert_eq!(picks, vec![2]);
    }

    #[test]
    fn sampled_rrm_finds_the_paper_optimum_on_table1() {
        let data = table1();
        let spec = ApproxSpec { eps: 0.05, delta: 0.05 };
        let sol = solve_rrm_sampled_with(
            &data,
            1,
            &FullSpace::new(2),
            spec,
            None,
            ExecPolicy::sequential(),
        )
        .unwrap();
        // Table I: the best single representative is t3 (index 2), regret 3.
        assert_eq!(sol.indices, vec![2]);
        assert_eq!(sol.certified_regret, Some(3));
        assert_eq!(sol.algorithm, Algorithm::Sampled);
        let m = spec.directions();
        assert_eq!(
            sol.terminated_by,
            TerminatedBy::Sampled { eps: 0.05, delta: 0.05, directions: m }
        );
        assert_eq!(sol.bounds, Some(Bounds { lower: 1, upper: 3 }));
    }

    #[test]
    fn sampled_rrr_covers_the_threshold() {
        let data = table1();
        let sol = solve_rrr_sampled_with(
            &data,
            3,
            &FullSpace::new(2),
            ApproxSpec::default(),
            Some(256),
            ExecPolicy::sequential(),
        )
        .unwrap();
        assert!(sol.certified_regret.unwrap() <= 3);
        assert_eq!(sol.size(), 1, "threshold 3 is achievable with t3 alone");
        // Threshold 1 needs every sampled rank-1 tuple.
        let sol = solve_rrr_sampled_with(
            &data,
            1,
            &FullSpace::new(2),
            ApproxSpec::default(),
            Some(256),
            ExecPolicy::sequential(),
        )
        .unwrap();
        assert_eq!(sol.certified_regret, Some(1));
        assert!(sol.size() >= 2);
    }

    #[test]
    fn coverage_holds_at_rate_one_minus_delta_over_direction_draws() {
        // The `(ε, δ)` statement is over the direction draw: per workload
        // shape at d = 4, one fixed dataset is solved over independently
        // seeded draws, and each certificate is audited on an independent
        // sample. A trial passes when the audited violation fraction stays
        // within ε; the pass rate must reach 1 − δ per shape.
        use rrm_core::kernel;
        use rrm_data::scenario::{matrix, Region};
        let spec = ApproxSpec { eps: 0.15, delta: 0.1 };
        let (n, r, trials, eval_dirs) = (300usize, 4usize, 12usize, 600usize);
        for cell in matrix().into_iter().filter(|c| c.d == 4 && c.region == Region::Full) {
            let data = cell.dataset(n);
            let space = cell.space();
            let mut passes = 0usize;
            for t in 0..trials {
                let seed = 0xBEEF_0000 + cell.seed + 31 * t as u64;
                let dirs = sample_directions(space.as_ref(), spec.directions(), seed);
                let sol = rrm_over(&data, r, &dirs, spec, ExecPolicy::default()).unwrap();
                let k_hat = sol.certified_regret.expect("sampled tier certifies over its sample");
                let audit = sample_directions(space.as_ref(), eval_dirs, seed ^ 0x0DD5_EED5);
                let mut scores = Vec::new();
                let violations = audit
                    .iter()
                    .filter(|u| {
                        kernel::scores_into(data.soa(), u, &mut scores);
                        let best = sol
                            .indices
                            .iter()
                            .map(|&i| scores[i as usize])
                            .fold(f64::MIN, f64::max);
                        1 + scores.iter().filter(|&&s| s > best).count() > k_hat
                    })
                    .count();
                if violations as f64 / eval_dirs as f64 <= spec.eps {
                    passes += 1;
                }
            }
            let rate = passes as f64 / trials as f64;
            assert!(
                rate >= 1.0 - spec.delta,
                "{}: coverage {rate:.3} below 1 - delta ({passes}/{trials} within eps)",
                cell.name()
            );
        }
    }

    /// A fresh sampled-tier handle over Table I.
    fn sampled(exec: ExecPolicy) -> Box<dyn PreparedSolver> {
        SampledSolver.prepare(&table1(), &FullSpace::new(2), exec).unwrap()
    }

    #[test]
    fn sampled_answers_are_bit_identical_across_thread_counts() {
        let budget = Budget::with_samples(128);
        let baseline = sampled(ExecPolicy::sequential()).solve_rrm(2, &budget).unwrap();
        for threads in [2usize, 7] {
            let prepared = sampled(ExecPolicy::threads(threads));
            assert_eq!(prepared.solve_rrm(2, &budget).unwrap(), baseline, "threads={threads}");
        }
    }

    #[test]
    fn budget_spec_overrides_the_solver_default() {
        let budget = Budget::with_approx(ApproxSpec { eps: 0.2, delta: 0.2 });
        let sol = sampled(ExecPolicy::default()).solve_rrm(1, &budget).unwrap();
        match sol.terminated_by {
            TerminatedBy::Sampled { eps, delta, directions } => {
                assert_eq!((eps, delta), (0.2, 0.2));
                assert_eq!(directions, hoeffding_directions(0.2, 0.2));
            }
            other => panic!("expected a sampled certificate, got {other:?}"),
        }
    }

    #[test]
    fn zero_parameters_stay_typed_errors() {
        let prepared = sampled(ExecPolicy::default());
        assert!(matches!(
            prepared.solve_rrm(0, &Budget::UNLIMITED),
            Err(RrmError::OutputSizeTooSmall { .. })
        ));
        assert!(matches!(prepared.solve_rrr(0, &Budget::UNLIMITED), Err(RrmError::Unsupported(_))));
        let bad = Budget::with_approx(ApproxSpec { eps: 2.0, delta: 0.1 });
        assert!(matches!(prepared.solve_rrm(1, &bad), Err(RrmError::Unsupported(_))));
    }
}
