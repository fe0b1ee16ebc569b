//! [`Solver`] implementations for the high-dimensional algorithms:
//! HDRRM (the paper's) and the Table III baselines MDRRR, MDRRRr, MDRC
//! and MDRMS.
//!
//! HDRRM, MDRRRr and MDRMS own an options struct; MDRRR (on
//! [`KsetLimits::default`]) and MDRC are unit structs whose settings are
//! constants. `prepare` binds the solver, with the execution policy it
//! receives, to one dataset; the prepared handles map the
//! engine-facing [`Budget`] caps onto whatever machinery the algorithm
//! actually has — sample counts for the randomized ones, k-set/LP limits
//! for MDRRR — and ignore them where they do not apply.
//!
//! Each handle's per-request state is a [`Memo`]: bounded by
//! [`PREPARED_CACHE_CAP`] where the key is a sample count (MDRRRr's
//! direction pools, MDRMS's greedy states) and by [`PROBE_CACHE_CAP`]
//! where a search probes the keys (MDRRR's thresholds, MDRC's sizes).

use std::sync::{Arc, Mutex};

use rrm_core::approx::sample_directions;
use rrm_core::memo::lock;
use rrm_core::{
    Algorithm, AnytimeSearch, Budget, Dataset, ExecPolicy, Memo, PreparedSolver, RrmError,
    Solution, Solver, UtilitySpace, PREPARED_CACHE_CAP, PROBE_CACHE_CAP,
};

use crate::anytime::{rrr_via_rrm_search_with, CoverSearch};
use crate::common::ListCache;
use crate::hdrrm::{HdrrmOptions, PreparedHdrrm};
use crate::ksets::KsetLimits;
use crate::mdrc::mdrc_anytime;
use crate::mdrms::{GreedyRms, MdrmsOptions};
use crate::mdrrr::{mdrrr, rrm_search_with};
use crate::mdrrr_r::{cover_search, MdrrrROptions};

/// **HDRRM** (paper Section V): discretize-and-cover with a certificate
/// over the discretized direction set (Theorem 10).
#[derive(Debug, Clone, Default)]
pub struct HdrrmSolver {
    pub options: HdrrmOptions,
}

impl HdrrmSolver {
    pub fn new(options: HdrrmOptions) -> Self {
        Self { options }
    }
}

impl Solver for HdrrmSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Hdrrm
    }

    fn prepare(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.algorithm().ensure_supported(data, space)?;
        Ok(Box::new(PreparedHdrrm::new(data, space, self.options, exec)))
    }
}

/// **MDRRR** (Asudeh et al.): exact k-set enumeration — certified, but
/// full-space only and practical only on small inputs. It enumerates
/// within [`KsetLimits::default`], which the [`Budget`] enumeration/LP
/// caps lower per request.
#[derive(Debug, Clone, Copy, Default)]
pub struct MdrrrSolver;

impl Solver for MdrrrSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrrr
    }

    fn prepare(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.algorithm().ensure_supported(data, space)?;
        let limits = KsetLimits { exec, ..KsetLimits::default() };
        Ok(Box::new(PreparedMdrrr { data: data.clone(), limits, memo: Memo::new(PROBE_CACHE_CAP) }))
    }
}

/// MDRRR bound to one dataset: k-set enumerations (the expensive, LP-heavy
/// part) are memoized per `(k, effective limits)`, so the RRM adaptation's
/// threshold search — and any repeated query — re-enumerates nothing.
struct PreparedMdrrr {
    data: Dataset,
    limits: KsetLimits,
    memo: Memo<(usize, usize, usize), Solution>,
}

impl PreparedMdrrr {
    fn budgeted(&self, budget: &Budget) -> KsetLimits {
        let mut limits = self.limits;
        if let Some(cap) = budget.max_enumerations {
            limits.max_ksets = limits.max_ksets.min(cap);
        }
        if let Some(cap) = budget.max_lp_calls {
            limits.max_lp_calls = limits.max_lp_calls.min(cap);
        }
        limits
    }

    fn probe(&self, k: usize, limits: KsetLimits) -> Result<Solution, RrmError> {
        let key = (k, limits.max_ksets, limits.max_lp_calls);
        self.memo.get_or_try_build(key, || mdrrr(&self.data, k, limits))
    }
}

impl PreparedSolver for PreparedMdrrr {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrrr
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let limits = self.budgeted(budget);
        rrm_search_with(&self.data, r, budget, |k| self.probe(k, limits))
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        self.probe(k, self.budgeted(budget))
    }
}

/// **MDRRRr** (Asudeh et al.): randomized k-set discovery — restricted
/// spaces yes, guarantee no.
#[derive(Debug, Clone, Default)]
pub struct MdrrrRSolver {
    pub options: MdrrrROptions,
}

impl MdrrrRSolver {
    pub fn new(options: MdrrrROptions) -> Self {
        Self { options }
    }
}

impl Solver for MdrrrRSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::MdrrrR
    }

    fn prepare(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.algorithm().ensure_supported(data, space)?;
        Ok(Box::new(PreparedMdrrrR {
            data: data.clone(),
            space: space.clone_box(),
            options: self.options,
            exec,
            dirs: Memo::new(PREPARED_CACHE_CAP),
            lists: ListCache::default(),
        }))
    }
}

/// MDRRRr bound to one dataset + space: the sampled direction pool is
/// drawn once per sample count (it is seed-deterministic), and so is one
/// set of top-k lists over it, kept at the deepest level any query needed.
/// Every threshold's k-set family is derived from prefixes of those
/// lists, so repeated thresholds and the whole RRM search skip the
/// `O(samples · n · d)` scoring.
struct PreparedMdrrrR {
    data: Dataset,
    space: Box<dyn UtilitySpace>,
    options: MdrrrROptions,
    exec: ExecPolicy,
    dirs: Memo<usize, Arc<Vec<Vec<f64>>>>,
    /// Per sample count: the deepest top-k lists kept so far.
    lists: ListCache,
}

impl PreparedMdrrrR {
    /// The query's cover search (a budget `samples` override wins) and
    /// its direction pool, drawn once per sample count.
    fn frame(&self, budget: &Budget) -> (CoverSearch<'_>, Arc<Vec<Vec<f64>>>) {
        let mut opts = self.options;
        opts.samples = budget.samples.unwrap_or(opts.samples);
        let dirs = self.dirs.get_or_build(opts.samples, || {
            Arc::new(sample_directions(self.space.as_ref(), opts.samples, opts.seed))
        });
        (cover_search(&self.data, opts, self.exec.parallelism), dirs)
    }
}

impl PreparedSolver for PreparedMdrrrR {
    fn algorithm(&self) -> Algorithm {
        Algorithm::MdrrrR
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let (cover, dirs) = self.frame(budget);
        let search = AnytimeSearch::new(budget, budget.max_enumerations);
        cover.solve_rrm(r, &dirs, search, &self.lists, dirs.len())
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let (cover, dirs) = self.frame(budget);
        cover.solve_rrr(k, &dirs, &self.lists, dirs.len())
    }
}

/// **MDRC** (Asudeh et al.): recursive angle-space partitioning — fast,
/// no certificate, full space only, and no native RRR mode (the
/// representative direction searches the size whose RRM answer meets the
/// threshold).
#[derive(Debug, Clone, Copy, Default)]
pub struct MdrcSolver;

impl Solver for MdrcSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrc
    }

    fn prepare(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.algorithm().ensure_supported(data, space)?;
        Ok(Box::new(PreparedMdrc {
            data: data.clone(),
            space: space.clone_box(),
            exec,
            memo: Memo::new(PROBE_CACHE_CAP),
        }))
    }
}

/// MDRC bound to one dataset: the partition refinement is adaptive in `r`
/// with little reusable sub-structure, so the prepared handle memoizes
/// whole solutions per size budget — repeat queries (and every probe of
/// the RRR-via-RRM search) are free after the first.
struct PreparedMdrc {
    data: Dataset,
    space: Box<dyn UtilitySpace>,
    exec: ExecPolicy,
    /// Keyed by `(r, effective cell-evaluation cap)`: a counter-cut
    /// partial answer must not be served to an unlimited query (or vice
    /// versa).
    memo: Memo<(usize, usize), Solution>,
}

impl PreparedMdrc {
    fn rrm_memo(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        if budget.time_limit.is_some() {
            // Wall-clock limits are nondeterministic — never cache (or
            // serve a cached answer for) a solve under one.
            return mdrc_anytime(&self.data, r, budget, self.exec.parallelism);
        }
        let key = (r, budget.max_enumerations.unwrap_or(usize::MAX));
        self.memo
            .get_or_try_build(key, || mdrc_anytime(&self.data, r, budget, self.exec.parallelism))
    }
}

impl PreparedSolver for PreparedMdrc {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrc
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        self.rrm_memo(r, budget)
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        rrr_via_rrm_search_with(
            "MDRC",
            &self.data,
            k,
            self.space.as_ref(),
            budget,
            self.exec,
            |r| self.rrm_memo(r, budget),
        )
    }
}

/// **MDRMS**: the regret-*ratio* (RMS) baseline — optimizes the wrong
/// objective by design; included for the paper's comparison. No native
/// RRR mode.
#[derive(Debug, Clone, Default)]
pub struct MdrmsSolver {
    pub options: MdrmsOptions,
}

impl MdrmsSolver {
    pub fn new(options: MdrmsOptions) -> Self {
        Self { options }
    }
}

impl Solver for MdrmsSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrms
    }

    fn prepare(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.algorithm().ensure_supported(data, space)?;
        Ok(Box::new(PreparedMdrms {
            data: data.clone(),
            space: space.clone_box(),
            options: self.options,
            exec,
            greedy: Memo::new(PREPARED_CACHE_CAP),
        }))
    }
}

/// MDRMS bound to one dataset + space: the sampled directions, top-1
/// scores and the greedy pick sequence live across queries (one per
/// effective sample count). `mdrms(r)` is a prefix of `mdrms(r')` for
/// `r' ≥ r`, so a larger budget extends the cached sequence in place and a
/// smaller one slices it.
struct PreparedMdrms {
    data: Dataset,
    space: Box<dyn UtilitySpace>,
    options: MdrmsOptions,
    exec: ExecPolicy,
    /// One resumable greedy state per effective sample count, each behind
    /// its own lock: queries for the *same* budget serialize (the prefix
    /// is mutable state), queries for different budgets do not.
    greedy: Memo<usize, Arc<Mutex<GreedyRms>>>,
}

impl PreparedMdrms {
    /// The query's sample count: the budget's `samples`, else the option.
    fn samples(&self, budget: &Budget) -> usize {
        budget.samples.unwrap_or(self.options.samples)
    }

    fn rrm_with(&self, r: usize, m: usize) -> Result<Solution, RrmError> {
        if r == 0 {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let build = || GreedyRms::new(&self.data, self.space.as_ref(), m, self.exec.parallelism);
        let state = self.greedy.get_or_build(m, || Arc::new(Mutex::new(build())));
        // Same-budget queries serialize here — the greedy prefix is
        // resumable *mutable* state; extending it concurrently would race.
        let mut greedy = lock(&state);
        if state.is_poisoned() {
            // A panic interrupted an extension, which may have left the
            // prefix half-extended: rebuild it rather than read it.
            *greedy = build();
            state.clear_poison();
        }
        let chosen = greedy.prefix(&self.data, r);
        Solution::new(chosen, None, Algorithm::Mdrms, &self.data)
    }
}

impl PreparedSolver for PreparedMdrms {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Mdrms
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        self.rrm_with(r, self.samples(budget))
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let m = self.samples(budget);
        rrr_via_rrm_search_with(
            "MDRMS",
            &self.data,
            k,
            self.space.as_ref(),
            budget,
            self.exec,
            |r| self.rrm_with(r, m),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{FullSpace, Parallelism, WeakRankingSpace};

    fn small() -> Dataset {
        rrm_data::synthetic::independent(120, 3, 7)
    }

    /// A fresh handle under the default execution policy.
    fn fresh(
        solver: &dyn Solver,
        data: &Dataset,
        space: &dyn UtilitySpace,
    ) -> Box<dyn PreparedSolver> {
        solver.prepare(data, space, ExecPolicy::default()).unwrap()
    }

    #[test]
    fn hdrrm_solver_budget_maps_to_sample_override() {
        let prepared = fresh(&HdrrmSolver::default(), &small(), &FullSpace::new(3));
        let sol = prepared.solve_rrm(8, &Budget::with_samples(150)).unwrap();
        assert_eq!(sol.algorithm, Algorithm::Hdrrm);
        assert!(sol.size() <= 8);
    }

    #[test]
    fn mdrrr_solver_rejects_restricted_space() {
        let result =
            MdrrrSolver.prepare(&small(), &WeakRankingSpace::new(3, 1), ExecPolicy::default());
        assert!(matches!(result, Err(RrmError::Unsupported(_))));
    }

    #[test]
    fn mdrc_solver_gains_rrr_through_search() {
        let data = rrm_data::synthetic::independent(150, 3, 9);
        let prepared = fresh(&MdrcSolver, &data, &FullSpace::new(3));
        let sol = prepared.solve_rrr(20, &Budget::with_samples(128)).unwrap();
        assert_eq!(sol.algorithm, Algorithm::Mdrc);
        assert!(sol.certified_regret.is_none(), "MDRC must not claim a certificate");
        assert!(sol.size() >= 1);
    }

    #[test]
    fn mdrms_solver_runs_both_directions() {
        let data = rrm_data::synthetic::correlated(150, 3, 11);
        let prepared = fresh(&MdrmsSolver::default(), &data, &FullSpace::new(3));
        let rrm = prepared.solve_rrm(6, &Budget::with_samples(300)).unwrap();
        assert!(rrm.size() <= 6);
        let rrr = prepared.solve_rrr(30, &Budget::with_samples(128)).unwrap();
        assert_eq!(rrr.algorithm, Algorithm::Mdrms);
    }

    #[test]
    fn prepared_hdrrm_matches_one_shot_across_queries() {
        // A warm handle queried out of order answers exactly like a fresh
        // handle per query.
        let data = small();
        let space = FullSpace::new(3);
        let solver = HdrrmSolver::default();
        let budget = Budget::with_samples(150);
        let warm = fresh(&solver, &data, &space);
        for r in [12usize, 6, 8, 6] {
            let want = fresh(&solver, &data, &space).solve_rrm(r, &budget).unwrap();
            assert_eq!(warm.solve_rrm(r, &budget).unwrap(), want, "r={r}");
        }
        for k in [10usize, 2] {
            let want = fresh(&solver, &data, &space).solve_rrr(k, &budget).unwrap();
            assert_eq!(warm.solve_rrr(k, &budget).unwrap(), want, "k={k}");
        }
    }

    #[test]
    fn prepared_baselines_match_one_shot() {
        let space = FullSpace::new(3);
        // Tight LP cap: debug-profile simplex calls are ~50ms each, and
        // every fresh MDRRR handle re-enumerates per probe. Parity holds
        // under any cap — warm and fresh handles see the same one.
        let budget = Budget {
            samples: Some(400),
            max_enumerations: Some(500),
            max_lp_calls: Some(150),
            ..Budget::UNLIMITED
        };
        // MDRRR on a deliberately tiny instance (LP cost per feasibility
        // check grows with k·(n−k) rows); the rest at a larger n.
        let cases: Vec<(Box<dyn Solver>, Dataset)> = vec![
            (Box::new(MdrrrSolver), rrm_data::synthetic::independent(13, 3, 8)),
            (Box::new(MdrrrRSolver::default()), rrm_data::synthetic::independent(22, 3, 8)),
            (Box::new(MdrcSolver), rrm_data::synthetic::independent(22, 3, 8)),
            (Box::new(MdrmsSolver::default()), rrm_data::synthetic::independent(22, 3, 8)),
        ];
        for (solver, data) in &cases {
            let name = solver.algorithm();
            let warm = fresh(solver.as_ref(), data, &space);
            for r in [6usize, 3] {
                let want = fresh(solver.as_ref(), data, &space).solve_rrm(r, &budget).unwrap();
                assert_eq!(warm.solve_rrm(r, &budget).unwrap(), want, "{name} r={r}");
            }
            for k in [5usize, 3] {
                let want = fresh(solver.as_ref(), data, &space).solve_rrr(k, &budget).unwrap();
                assert_eq!(warm.solve_rrr(k, &budget).unwrap(), want, "{name} k={k}");
            }
        }
    }

    #[test]
    fn prepared_mdrms_prefix_property_under_interleaved_budgets() {
        // Queries arriving out of size order must not perturb the greedy
        // sequence: ask big, then small, then medium.
        let data = rrm_data::synthetic::anticorrelated(120, 3, 9);
        let space = FullSpace::new(3);
        let budget = Budget::with_samples(300);
        let solver = MdrmsSolver::default();
        let warm = fresh(&solver, &data, &space);
        for r in [8usize, 2, 5] {
            let want = fresh(&solver, &data, &space).solve_rrm(r, &budget).unwrap();
            assert_eq!(warm.solve_rrm(r, &budget).unwrap(), want, "r={r}");
        }
    }

    #[test]
    fn mdrc_sizes_past_the_bound_are_answered_but_not_kept() {
        let data = rrm_data::synthetic::independent(60, 3, 5);
        let space = FullSpace::new(3);
        let budget = Budget::UNLIMITED;
        let solver = MdrcSolver;
        let handle = PreparedMdrc {
            data: data.clone(),
            space: space.clone_box(),
            exec: ExecPolicy::default(),
            memo: Memo::new(PROBE_CACHE_CAP),
        };
        for r in (1..=PROBE_CACHE_CAP + 60).rev() {
            let want = fresh(&solver, &data, &space).solve_rrm(r, &budget).unwrap();
            assert_eq!(handle.solve_rrm(r, &budget).unwrap(), want, "r={r}");
        }
        assert_eq!(handle.memo.len(), PROBE_CACHE_CAP);
        let want = fresh(&solver, &data, &space).solve_rrr(3, &budget).unwrap();
        assert_eq!(handle.solve_rrr(3, &budget).unwrap(), want);
    }

    #[test]
    fn mdrms_rebuilds_a_greedy_state_a_panic_interrupted() {
        let data = rrm_data::synthetic::anticorrelated(120, 3, 9);
        let other = rrm_data::synthetic::independent(120, 3, 4);
        let space = FullSpace::new(3);
        let budget = Budget::with_samples(300);
        let solver = MdrmsSolver::default();
        let handle = PreparedMdrms {
            data: data.clone(),
            space: space.clone_box(),
            options: solver.options,
            exec: ExecPolicy::default(),
            greedy: Memo::new(PREPARED_CACHE_CAP),
        };
        handle.solve_rrm(3, &budget).unwrap();
        let m = handle.samples(&budget);
        let state = handle.greedy.get(&m).unwrap();
        // An extension over other rows, interrupted by a panic: reading
        // the state it left would answer with other rows' picks.
        let pol = Parallelism::Sequential;
        let stale = GreedyRms::new(&other, &space, m, pol).prefix(&other, 8);
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let mut greedy = lock(&state);
                *greedy = GreedyRms::new(&other, &space, m, pol);
                greedy.prefix(&other, 8);
                panic!("an extension interrupted");
            });
            assert!(holder.join().is_err());
        });
        assert!(state.is_poisoned());
        for r in [8, 2, 5] {
            let want = fresh(&solver, &data, &space).solve_rrm(r, &budget).unwrap();
            assert_eq!(handle.solve_rrm(r, &budget).unwrap(), want, "r={r}");
            if r == 8 {
                assert_ne!(want.indices, stale, "the stale state must differ to be caught");
            }
        }
        assert!(!state.is_poisoned());
    }

    #[test]
    fn capability_queries_mirror_the_enum() {
        // Each solver reports the algorithm whose Table III row it obeys.
        assert!(HdrrmSolver::default().algorithm().has_regret_guarantee());
        assert!(MdrrrSolver.algorithm().has_regret_guarantee());
        assert!(!MdrcSolver.algorithm().has_regret_guarantee());
        assert!(!MdrmsSolver::default().algorithm().has_regret_guarantee());
        assert!(MdrrrRSolver::default().algorithm().supports_restricted_space());
        assert!(!MdrcSolver.algorithm().supports_restricted_space());
        let weak = WeakRankingSpace::new(3, 1);
        let exec = ExecPolicy::default();
        assert!(MdrrrRSolver::default().prepare(&small(), &weak, exec).is_ok());
        assert!(matches!(MdrcSolver.prepare(&small(), &weak, exec), Err(RrmError::Unsupported(_))));
    }
}
