//! [`Solver`] implementations for the high-dimensional algorithms:
//! HDRRM (the paper's) and the Table III baselines MDRRR, MDRRRr, MDRC
//! and MDRMS.
//!
//! Each solver owns its options struct and binds it to one dataset in
//! `prepare`; the prepared handles map the engine-facing [`Budget`] caps
//! onto whatever machinery the algorithm actually has — sample counts for
//! the randomized ones, k-set/LP limits for MDRRR — and ignore them where
//! they do not apply.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rrm_core::{
    cache_bounded, rrr_via_rrm_search_with, Algorithm, AnytimeSearch, Budget, Dataset, ExecPolicy,
    PreparedSolver, RrmError, Solution, Solver, UtilitySpace, PREPARED_CACHE_CAP,
};

use crate::common::{ListCache, ListSource, DEFAULT_CACHE_BUDGET_ENTRIES};
use crate::hdrrm::{HdrrmOptions, PreparedHdrrm};
use crate::ksets::KsetLimits;
use crate::mdrc::{mdrc_anytime, MdrcOptions};
use crate::mdrms::{GreedyRms, MdrmsOptions};
use crate::mdrrr::{hit_ksets, mdrrr, rrm_search_with};
use crate::mdrrr_r::{kset_family, sampled_dirs, MdrrrROptions, SampledSearch};

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
        let mut options = self.options;
        options.exec = exec.or(options.exec);
        Ok(Box::new(PreparedHdrrm::new(data, space, options)))
    }
}

/// **MDRRR** (Asudeh et al.): exact k-set enumeration — certified, but
/// full-space only and practical only on small inputs. The [`Budget`]
/// enumeration/LP caps map directly onto [`KsetLimits`].
#[derive(Debug, Clone, Default)]
pub struct MdrrrSolver {
    pub limits: KsetLimits,
}

impl MdrrrSolver {
    pub fn new(limits: KsetLimits) -> Self {
        Self { limits }
    }
}

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
        let mut limits = self.limits;
        limits.exec = exec.or(limits.exec);
        Ok(Box::new(PreparedMdrrr { data: data.clone(), limits, memo: Mutex::new(HashMap::new()) }))
    }
}

/// MDRRR bound to one dataset: k-set enumerations (the expensive, LP-heavy
/// part) are memoized per `(k, effective limits)`, so the RRM adaptation's
/// threshold search — and any repeated query — re-enumerates nothing.
struct PreparedMdrrr {
    data: Dataset,
    limits: KsetLimits,
    memo: Mutex<HashMap<(usize, usize, usize), Solution>>,
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
        if let Some(sol) = self.memo.lock().expect("MDRRR memo poisoned").get(&key) {
            return Ok(sol.clone());
        }
        let sol = mdrrr(&self.data, k, limits)?;
        let sol = cache_bounded(
            &mut self.memo.lock().expect("MDRRR memo poisoned"),
            key,
            sol,
            8 * PREPARED_CACHE_CAP,
        );
        Ok(sol)
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
        let mut options = self.options;
        options.exec = exec.or(options.exec);
        Ok(Box::new(PreparedMdrrrR {
            data: data.clone(),
            space: space.clone_box(),
            options,
            dirs: Mutex::new(HashMap::new()),
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
    dirs: Mutex<HashMap<usize, Arc<Vec<Vec<f64>>>>>,
    /// Per sample count: the deepest top-k lists kept so far.
    lists: ListCache,
}

impl PreparedMdrrrR {
    fn budgeted(&self, budget: &Budget) -> MdrrrROptions {
        let mut options = self.options;
        if let Some(m) = budget.samples {
            options.samples = m;
        }
        options
    }

    fn dirs(&self, opts: MdrrrROptions) -> Arc<Vec<Vec<f64>>> {
        if let Some(dirs) = self.dirs.lock().expect("direction cache poisoned").get(&opts.samples) {
            return dirs.clone();
        }
        let dirs = Arc::new(sampled_dirs(self.space.as_ref(), opts));
        cache_bounded(
            &mut self.dirs.lock().expect("direction cache poisoned"),
            opts.samples,
            dirs,
            PREPARED_CACHE_CAP,
        )
    }

    fn probe(&self, k: usize, opts: MdrrrROptions) -> Result<Solution, RrmError> {
        if k == 0 {
            return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
        }
        let k = k.min(self.data.n());
        let dirs = self.dirs(opts);
        let lists = ListSource {
            data: &self.data,
            dirs: &dirs,
            pol: opts.exec.parallelism,
            budget_entries: DEFAULT_CACHE_BUDGET_ENTRIES,
            deep: 0,
            cache: &self.lists,
            key: dirs.len(),
        }
        .lists(k);
        let ids = hit_ksets(self.data.n(), &kset_family(&lists, k));
        Solution::new(ids, None, Algorithm::MdrrrR, &self.data)
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
        if r == 0 {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let opts = self.budgeted(budget);
        let dirs = self.dirs(opts);
        let search = AnytimeSearch::new(budget, budget.max_enumerations);
        SampledSearch::new(&self.data, r, opts).solve(&dirs, search, &self.lists)
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        self.probe(k, self.budgeted(budget))
    }
}

/// **MDRC** (Asudeh et al.): recursive angle-space partitioning — fast,
/// no certificate, full space only, and no native RRR mode (the
/// representative direction falls back to [`rrr_via_rrm_search_with`]).
#[derive(Debug, Clone, Default)]
pub struct MdrcSolver {
    pub options: MdrcOptions,
}

impl MdrcSolver {
    pub fn new(options: MdrcOptions) -> Self {
        Self { options }
    }
}

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
        let mut options = self.options;
        options.exec = exec.or(options.exec);
        Ok(Box::new(PreparedMdrc {
            data: data.clone(),
            space: space.clone_box(),
            options,
            memo: Mutex::new(HashMap::new()),
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
    options: MdrcOptions,
    /// Keyed by `(r, effective cell-evaluation cap)`: a counter-cut
    /// partial answer must not be served to an unlimited query (or vice
    /// versa).
    memo: Mutex<HashMap<(usize, usize), Solution>>,
}

impl PreparedMdrc {
    fn rrm_memo(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        if budget.time_limit.is_some() {
            // Wall-clock limits are nondeterministic — never cache (or
            // serve a cached answer for) a solve under one.
            return mdrc_anytime(&self.data, r, self.options, budget);
        }
        let key = (r, budget.max_enumerations.unwrap_or(usize::MAX));
        if let Some(sol) = self.memo.lock().expect("MDRC memo poisoned").get(&key) {
            return Ok(sol.clone());
        }
        let sol = mdrc_anytime(&self.data, r, self.options, budget)?;
        self.memo.lock().expect("MDRC memo poisoned").insert(key, sol.clone());
        Ok(sol)
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
            self.options.exec,
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
        let mut options = self.options;
        options.exec = exec.or(options.exec);
        Ok(Box::new(PreparedMdrms {
            data: data.clone(),
            space: space.clone_box(),
            options,
            greedy: Mutex::new(HashMap::new()),
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
    /// One resumable greedy state per effective sample count, each behind
    /// its own lock: queries for the *same* budget serialize (the prefix
    /// is mutable state), queries for different budgets do not.
    greedy: Mutex<HashMap<usize, Arc<Mutex<GreedyRms>>>>,
}

impl PreparedMdrms {
    fn budgeted(&self, budget: &Budget) -> MdrmsOptions {
        let mut options = self.options;
        if let Some(m) = budget.samples {
            options.samples = m;
        }
        options
    }

    fn rrm_with(&self, r: usize, opts: MdrmsOptions) -> Result<Solution, RrmError> {
        if r == 0 {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let state = self.greedy.lock().expect("greedy cache poisoned").get(&opts.samples).cloned();
        let state = match state {
            Some(state) => state,
            None => {
                // Build outside the outer lock (direction sampling and
                // top-1 scoring are the heavy part), then insert-or-reuse.
                let built =
                    Arc::new(Mutex::new(GreedyRms::new(&self.data, self.space.as_ref(), opts)));
                cache_bounded(
                    &mut self.greedy.lock().expect("greedy cache poisoned"),
                    opts.samples,
                    built,
                    PREPARED_CACHE_CAP,
                )
            }
        };
        // Same-budget queries serialize here — the greedy prefix is
        // resumable *mutable* state; extending it concurrently would race.
        let chosen = state.lock().expect("greedy state poisoned").prefix(&self.data, r);
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
        self.rrm_with(r, self.budgeted(budget))
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let opts = self.budgeted(budget);
        rrr_via_rrm_search_with(
            "MDRMS",
            &self.data,
            k,
            self.space.as_ref(),
            budget,
            opts.exec,
            |r| self.rrm_with(r, opts),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{FullSpace, WeakRankingSpace};

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
        let result = MdrrrSolver::default().prepare(
            &small(),
            &WeakRankingSpace::new(3, 1),
            ExecPolicy::default(),
        );
        assert!(matches!(result, Err(RrmError::Unsupported(_))));
    }

    #[test]
    fn mdrc_solver_gains_rrr_through_search() {
        let data = rrm_data::synthetic::independent(150, 3, 9);
        let prepared = fresh(&MdrcSolver::default(), &data, &FullSpace::new(3));
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
            (Box::new(MdrrrSolver::default()), rrm_data::synthetic::independent(13, 3, 8)),
            (Box::new(MdrrrRSolver::default()), rrm_data::synthetic::independent(22, 3, 8)),
            (Box::new(MdrcSolver::default()), rrm_data::synthetic::independent(22, 3, 8)),
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
    fn capability_queries_mirror_the_enum() {
        // Each solver reports the algorithm whose Table III row it obeys.
        assert!(HdrrmSolver::default().algorithm().has_regret_guarantee());
        assert!(MdrrrSolver::default().algorithm().has_regret_guarantee());
        assert!(!MdrcSolver::default().algorithm().has_regret_guarantee());
        assert!(!MdrmsSolver::default().algorithm().has_regret_guarantee());
        assert!(MdrrrRSolver::default().algorithm().supports_restricted_space());
        assert!(!MdrcSolver::default().algorithm().supports_restricted_space());
        let weak = WeakRankingSpace::new(3, 1);
        let exec = ExecPolicy::default();
        assert!(MdrrrRSolver::default().prepare(&small(), &weak, exec).is_ok());
        assert!(matches!(
            MdrcSolver::default().prepare(&small(), &weak, exec),
            Err(RrmError::Unsupported(_))
        ));
    }
}
