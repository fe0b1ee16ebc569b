//! **HDRRM** — the paper's HD algorithm (Algorithm 3, Theorems 9–11).
//!
//! 1. Discretize the (restricted) function space into `D = Da ∪ Db`.
//! 2. Search the smallest threshold `k` for which [`mod@crate::asms`] returns
//!    at most `r` tuples, with the *improved binary search*: double `k`
//!    until feasible, then binary-search the last gap. (ASMS cost grows
//!    with `k`, so keeping probed thresholds small matters — Section
//!    V-B.2.)
//! 3. Return that set; its certified regret is `∇D(R) ≤ k'`, and Theorems
//!    6/7 transfer the bound to the full space (for any user, with
//!    probability ≥ 1 − δ, the set holds a top-`k'` tuple; all utilities
//!    are within `1 − ε` of `w_{k'}`).
//!
//! Every probe at threshold `k` needs only `Φk`, a prefix of any deeper
//! `Φ_K`. Once the coarse incumbent bounds the answer by `K`, one top-`K`
//! pass serves every doubling and binary probe up to `K`, provided the
//! lists fit a memory budget.
//!
//! [`PreparedHdrrm`] is the implementation: the dataset phase (basis `B`,
//! skyline mask) runs once at prepare time, and each query runs the
//! threshold search (RRM) or one ASMS cover (RRR) over a cached
//! discretization `D`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rrm_core::rank::batch_top_k;
use rrm_core::{
    basis_indices, cache_bounded, Algorithm, AnytimeSearch, AppliedUpdate, Bounds, Budget, Dataset,
    ExecPolicy, Parallelism, PreparedSolver, RrmError, Solution, TerminatedBy, UtilitySpace,
    PREPARED_CACHE_CAP,
};
use rrm_skyline::IncrementalSkyline;

use crate::anytime::{regret_over_dirs, threshold_search, uniform_top_set, ThresholdOutcome};
use crate::asms::{asms_with_topk, asms_with_topk_capped};
use crate::common::{ListCache, ListSource, TopkLists, DEFAULT_CACHE_BUDGET_ENTRIES};
use crate::discretize::{build_vector_set_exec, paper_sample_size, Discretization};

/// Tuning knobs for HDRRM ([`crate::HdrrmSolver`]). Defaults mirror the
/// paper's experiments.
#[derive(Debug, Clone, Copy)]
pub struct HdrrmOptions {
    /// Polar grid resolution γ (paper: 6).
    pub gamma: usize,
    /// Failure probability δ for the sampled guarantee (paper: 0.03).
    pub delta: f64,
    /// Override the sample count `m` (default: the Theorem 10 formula,
    /// which can reach tens of thousands — benches scale it down).
    pub m_override: Option<usize>,
    /// RNG seed for `Da`.
    pub seed: u64,
    /// Restrict cover candidates to skyline tuples (sound by Theorem 3;
    /// ablated in `ablation_candidates`).
    pub skyline_candidates: bool,
    /// Force the boundary-tuple basis `B` into the output (the paper's
    /// Algorithm 2/3). The basis powers Theorem 7's `(1-ε)·w_k` utility
    /// floor but consumes up to `d` of the `r` budget slots, measurably
    /// raising the rank-regret on hard data (see the `ablation`
    /// experiment). Disable only when the utility floor is not needed.
    pub include_basis: bool,
    /// Memory budget for keeping top-k lists between threshold probes, in
    /// entries (`|D| · k`). Lists deeper than it are recomputed per
    /// probe, and the one deep pass at the coarse incumbent's bound runs
    /// only when it fits.
    pub cache_budget_entries: usize,
    /// Bound-and-prune the feasibility probes: abort a greedy cover as
    /// soon as it provably exceeds the size budget `r`. Decision- and
    /// answer-equivalent to running every cover out (greedy picks are
    /// monotone and deterministic); disable only to measure the pruning
    /// win (`repro anytime`).
    pub prune: bool,
    /// Data-parallelism for the direction-batch kernels (top-k scoring,
    /// grid membership). Engine-level contexts override the default;
    /// outputs are identical at any thread count.
    pub exec: ExecPolicy,
}

impl Default for HdrrmOptions {
    fn default() -> Self {
        Self {
            gamma: 6,
            delta: 0.03,
            m_override: None,
            seed: 0xD15C0,
            skyline_candidates: true,
            include_basis: true,
            cache_budget_entries: DEFAULT_CACHE_BUDGET_ENTRIES,
            prune: true,
            exec: ExecPolicy::default(),
        }
    }
}

/// Fraction of the discretization used as the coarse frame (its *prefix*,
/// so coarse infeasibility implies full-frame infeasibility).
const COARSE_FRACTION: usize = 16;
/// Below this many coarse directions the coarse pass is skipped — the
/// full solve is already fast and the extra pass would not pay for
/// itself.
const COARSE_MIN_DIRS: usize = 16;

/// The per-solve probe environment of one HDRRM search: everything a
/// feasibility probe needs besides the cache its top-k lists are kept in.
struct AsmsSearch<'a> {
    data: &'a Dataset,
    r: usize,
    basis: &'a [u32],
    mask: Option<&'a [bool]>,
    /// Greedy pick cap for bound-and-prune probes (`usize::MAX` when
    /// pruning is disabled).
    pick_cap: usize,
    pol: Parallelism,
    cache_budget_entries: usize,
}

/// Greedy pick cap for a probe: chosen tuples never overlap the basis,
/// so a cover that picks more than `r - |B|` tuples already proves
/// infeasibility. `usize::MAX` disables pruning.
fn pick_cap(r: usize, basis: &[u32], options: &HdrrmOptions) -> usize {
    if options.prune {
        r - basis.len()
    } else {
        usize::MAX
    }
}

impl AsmsSearch<'_> {
    /// One capped feasibility probe over precomputed lists. Counts the
    /// cover picks as nodes, records prunes, and offers feasible results
    /// to the incumbent (their threshold is a sound frame-relative upper
    /// bound).
    fn probe(
        &self,
        k: usize,
        lists: &[Vec<u32>],
        lower: usize,
        search: &mut AnytimeSearch,
    ) -> Option<Vec<u32>> {
        let probe =
            asms_with_topk_capped(self.data.n(), k, self.basis, lists, self.mask, self.pick_cap);
        search.note_nodes(probe.picks);
        if !probe.complete {
            search.note_pruned_probe();
            return None;
        }
        if probe.q.len() <= self.r {
            search.offer(probe.q.clone(), k, lower);
            Some(probe.q)
        } else {
            None
        }
    }

    /// Offer the deterministic fallback incumbent (basis topped up with
    /// uniform-direction best scorers), so a limited search always has a
    /// sound answer to return.
    fn offer_fallback(&self, dirs: &[Vec<f64>], search: &mut AnytimeSearch) {
        let fallback = uniform_top_set(self.data, self.basis, self.r);
        let upper = regret_over_dirs(self.data, &fallback, dirs, self.pol);
        search.offer(fallback, upper, 1);
    }

    /// Coarse-to-fine first incumbent: run the whole threshold search on
    /// the *prefix* `dirs[..m/16]` of the discretization (a subset, so
    /// its probes are cheap and its answer fits `r`), then measure that
    /// answer's regret over the full frame for a sound upper bound.
    /// Coarse probes never consume the deterministic probe budget; their
    /// expanded nodes and prunes are merged into the main report.
    fn coarse_incumbent(&self, dirs: &[Vec<f64>], search: &mut AnytimeSearch) {
        let mc = dirs.len() / COARSE_FRACTION;
        if mc < COARSE_MIN_DIRS {
            return;
        }
        let cache = ListCache::default();
        let source = self.source(&dirs[..mc], 0, &cache, 0);
        let mut sub = AnytimeSearch::unlimited();
        let outcome = threshold_search(self.data.n(), &mut sub, |k, lower, sub| {
            Ok(self.probe(k, &source.lists(k), lower, sub))
        });
        search.report.nodes += sub.report.nodes;
        search.report.pruned_probes += sub.report.pruned_probes;
        let Ok(outcome) = outcome else { return };
        if let Some((_, q)) = outcome.best {
            let upper = regret_over_dirs(self.data, &q, dirs, self.pol);
            search.offer(q, upper, 1);
        }
    }

    fn source<'s>(
        &'s self,
        dirs: &'s [Vec<f64>],
        deep: usize,
        cache: &'s ListCache,
        key: usize,
    ) -> ListSource<'s> {
        ListSource {
            data: self.data,
            dirs,
            pol: self.pol,
            budget_entries: self.cache_budget_entries,
            deep,
            cache,
            key,
        }
    }

    /// The whole search over the size-`m` discretization `dirs`
    /// (Algorithm 3 lines 2–6); `cache` keeps the top-k lists (keyed by
    /// `m`) across queries.
    ///
    /// Under a limit a fallback incumbent comes first; then the coarse
    /// incumbent, whose full-frame bound sets the depth of the one deep
    /// top-k pass; then the doubling-then-binary search, whose probes
    /// read prefixes of the kept lists.
    fn solve(
        &self,
        dirs: &[Vec<f64>],
        mut search: AnytimeSearch,
        cache: &ListCache,
        m: usize,
    ) -> Result<Solution, RrmError> {
        if search.is_limited() {
            self.offer_fallback(dirs, &mut search);
        }
        self.coarse_incumbent(dirs, &mut search);
        let n = self.data.n();
        let deep = search.incumbent.upper().map_or(0, |upper| upper.min(n));
        let source = self.source(dirs, deep, cache, m);
        let outcome = threshold_search(n, &mut search, |k, lower, search| {
            Ok(self.probe(k, &source.lists(k), lower, search))
        })?;
        self.finish(outcome, search)
    }

    /// Assemble the final [`Solution`] from a finished or cut-off search.
    fn finish(
        &self,
        outcome: ThresholdOutcome<Vec<u32>>,
        search: AnytimeSearch,
    ) -> Result<Solution, RrmError> {
        match outcome.terminated {
            TerminatedBy::Completed => {
                // Unreachable `None`: at k = n the universe Dk is empty
                // and ASMS returns exactly the basis, which fits r.
                let (best_k, best_q) = outcome.best.expect("ASMS at k = n returns the basis");
                Solution::new(best_q, Some(best_k), Algorithm::Hdrrm, self.data).map(|s| {
                    s.with_bounds(Bounds { lower: best_k, upper: best_k })
                        .with_report(search.report)
                })
            }
            t => {
                let (q, upper) = search
                    .incumbent
                    .best()
                    .expect("a limited search offers a fallback incumbent before searching");
                Solution::new(q, Some(upper), Algorithm::Hdrrm, self.data).map(|s| {
                    s.with_bounds(Bounds { lower: outcome.lower, upper })
                        .with_termination(t)
                        .with_report(search.report)
                })
            }
        }
    }
}

/// HDRRM bound to one dataset and utility space: the prepare-once /
/// query-many form of the paper's HD algorithm.
///
/// Preparation computes the boundary-tuple basis `B` and the skyline
/// candidate mask once. Discretized vector sets (keyed by their sample
/// count `m`, which the Theorem 10 formula ties to the queried `r`) and
/// top-k lists are cached across queries: a repeated query re-runs only
/// the greedy covers, and the probes of *different* queries share one
/// top-`k` computation through the ASMS prefix property.
///
/// Every query on a warm handle returns exactly what a fresh handle
/// returns for the same inputs — the caches are keyed by the deterministic
/// seeds and sample counts the answers depend on.
pub struct PreparedHdrrm {
    data: Dataset,
    space: Box<dyn UtilitySpace>,
    options: HdrrmOptions,
    /// The boundary-tuple basis `B` (always computed: RRR needs it even
    /// when `include_basis` is off for RRM).
    basis: Vec<u32>,
    /// Incrementally maintained skyline behind `mask` (present exactly
    /// when `skyline_candidates` is on), so updates patch the candidate
    /// mask instead of re-filtering the dataset.
    sky: Option<IncrementalSkyline>,
    mask: Option<Vec<bool>>,
    discs: Mutex<HashMap<usize, Arc<Discretization>>>,
    /// Per sample count `m`: the deepest top-k lists kept so far (every
    /// smaller threshold is a prefix).
    topk: ListCache,
}

impl PreparedHdrrm {
    /// The dataset phase. The caller has run
    /// [`Algorithm::ensure_supported`] (`d ≥ 2`, matching space).
    pub(crate) fn new(data: &Dataset, space: &dyn UtilitySpace, options: HdrrmOptions) -> Self {
        let sky = options.skyline_candidates.then(|| IncrementalSkyline::build(data));
        let mask = sky.as_ref().map(|s| s.mask().to_vec());
        Self {
            data: data.clone(),
            space: space.clone_box(),
            options,
            basis: basis_indices(data),
            sky,
            mask,
            discs: Mutex::new(HashMap::new()),
            topk: ListCache::default(),
        }
    }

    /// Rebind the prepared state to the post-update dataset, patching the
    /// caches instead of re-preparing:
    ///
    /// * the skyline candidate mask advances through the maintained
    ///   [`IncrementalSkyline`];
    /// * discretizations transfer wholesale — they are pure functions of
    ///   `(d, space, m, γ, seed)`, never of the rows;
    /// * cached top-k lists are patched per direction: survivors keep
    ///   their (remapped) entries, and only directions actually disturbed
    ///   by the batch — a deleted tuple in the list, or an inserted tuple
    ///   outscoring the k-th entry — are re-scored. Untouched prefixes
    ///   survive verbatim, so the repaired cache is entry-for-entry what
    ///   `batch_top_k` on the new rows would produce (the scoring kernel's
    ///   determinism contract makes the dot-product trigger exact).
    ///
    /// The basis is recomputed (`O(n·d)`, far below one direction's
    /// re-score). Queries on the patched handle answer bit-identically to
    /// a freshly built [`PreparedHdrrm`] over the same rows.
    fn patched(&self, upd: &AppliedUpdate) -> Self {
        let data = upd.new.clone();
        let basis = basis_indices(&data);
        let sky = self.sky.clone().map(|mut s| {
            s.apply_update(upd);
            s
        });
        let mask = sky.as_ref().map(|s| s.mask().to_vec());
        let discs: HashMap<usize, Arc<Discretization>> =
            self.discs.lock().expect("discretization cache poisoned").clone();
        let pol = self.options.exec.parallelism;
        let mut topk = HashMap::new();
        for (&m, (k, lists)) in self.topk.lock().expect("top-k cache poisoned").iter() {
            // A cached list without its discretization (evicted) is
            // dropped; a later query rebuilds both identically.
            let Some(disc) = discs.get(&m) else { continue };
            topk.insert(m, (*k, patch_topk(&data, upd, &disc.dirs, *k, lists, pol)));
        }
        Self {
            data,
            space: self.space.clone_box(),
            options: self.options,
            basis,
            sky,
            mask,
            discs: Mutex::new(discs),
            topk: Mutex::new(topk),
        }
    }

    fn disc(&self, m: usize) -> Arc<Discretization> {
        if let Some(disc) = self.discs.lock().expect("discretization cache poisoned").get(&m) {
            return disc.clone();
        }
        // Build outside the lock: concurrent misses duplicate work (the
        // result is deterministic) but never block other queries.
        let disc = Arc::new(build_vector_set_exec(
            self.data.dim(),
            self.space.as_ref(),
            m,
            self.options.gamma,
            self.options.seed,
            self.options.exec,
        ));
        cache_bounded(
            &mut self.discs.lock().expect("discretization cache poisoned"),
            m,
            disc,
            PREPARED_CACHE_CAP,
        )
    }

    /// The probe environment for one query with size budget `r`.
    fn env<'a>(&'a self, r: usize, basis: &'a [u32]) -> AsmsSearch<'a> {
        AsmsSearch {
            data: &self.data,
            r,
            basis,
            mask: self.mask.as_deref(),
            pick_cap: pick_cap(r, basis, &self.options),
            pol: self.options.exec.parallelism,
            cache_budget_entries: self.options.cache_budget_entries,
        }
    }

    /// The effective sample count for an RRM query: budget override, then
    /// option override, then the Theorem 10 formula.
    fn rrm_samples(&self, r: usize, budget: &Budget) -> usize {
        budget.samples.or(self.options.m_override).unwrap_or_else(|| {
            paper_sample_size(self.data.n(), r, self.data.dim(), self.options.delta)
        })
    }
}

impl PreparedSolver for PreparedHdrrm {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Hdrrm
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// RRM (`space = L`) or RRRM (restricted `space`) for one size budget,
    /// as an anytime bound-and-prune search.
    ///
    /// The doubling-then-binary threshold search runs under the budget's
    /// limits (`max_enumerations` caps the threshold probes, next to the
    /// time limit and gap target); an early stop returns the best
    /// incumbent found so far — the coarse-frame answer, a feasible probe,
    /// or the uniform-direction fallback — with certified [`Bounds`] and
    /// the [`TerminatedBy`] reason, instead of failing. Without a time
    /// limit the answer is bit-identical at any thread count.
    ///
    /// Errors when `r` cannot hold the basis (`r < |B|`; the paper
    /// assumes `r ≥ d`).
    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let basis: &[u32] = if self.options.include_basis { &self.basis } else { &[] };
        if r < basis.len().max(1) {
            return Err(RrmError::OutputSizeTooSmall { requested: r, minimum: basis.len().max(1) });
        }
        let m = self.rrm_samples(r, budget);
        let disc = self.disc(m);
        let search = AnytimeSearch::new(budget, budget.max_enumerations);
        self.env(r, basis).solve(&disc.dirs, search, &self.topk, m)
    }

    /// The RRR (threshold) variant in HD: one ASMS call at threshold `k`
    /// returns a small superset of the basis with `∇D(Q) ≤ k` — the MS
    /// problem of Definition 7, certified over the discretization. The
    /// formula's `r` is unknown for RRR, so the default `m` is sized for
    /// twice the basis instead.
    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        if k == 0 {
            return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
        }
        let n = self.data.n();
        let m = budget.samples.or(self.options.m_override).unwrap_or_else(|| {
            paper_sample_size(n, (2 * self.basis.len()).max(8), self.data.dim(), self.options.delta)
        });
        let k = k.min(n);
        let disc = self.disc(m);
        let lists = ListSource {
            data: &self.data,
            dirs: &disc.dirs,
            pol: self.options.exec.parallelism,
            budget_entries: self.options.cache_budget_entries,
            deep: 0,
            cache: &self.topk,
            key: m,
        }
        .lists(k);
        let q = asms_with_topk(n, k, &self.basis, &lists, self.mask.as_deref());
        Solution::new(q, Some(k), Algorithm::Hdrrm, &self.data)
    }

    fn apply_update(&self, upd: &AppliedUpdate) -> Option<Box<dyn PreparedSolver>> {
        Some(Box::new(self.patched(upd)))
    }
}

/// Patch one cached top-k table onto the post-update dataset: remap each
/// direction's survivor entries in place and fully re-score only the
/// directions the batch disturbed.
///
/// A direction needs re-scoring exactly when its cached list is no longer
/// the true top-k of the new rows: a deleted tuple sat in the list (its
/// replacement is unknown), the list was shorter than `k` and rows were
/// inserted, or an inserted row *strictly* outscores the k-th entry.
/// Score ties never displace — inserted rows take the largest indices and
/// the top-k order breaks ties by ascending index — so the strict test is
/// exact, and the kernel's fixed-order-sum contract makes the scalar
/// [`rrm_core::utility::dot`] comparison bit-compatible with
/// [`batch_top_k`]'s internal scores. Disturbed directions are re-scored
/// through [`batch_top_k`] itself, so every returned list is exactly what
/// a fresh computation over the new rows produces.
fn patch_topk(
    new_data: &Dataset,
    upd: &AppliedUpdate,
    dirs: &[Vec<f64>],
    k: usize,
    lists: &TopkLists,
    pol: Parallelism,
) -> TopkLists {
    let ins_rows: Vec<&[f64]> = upd.inserted.iter().map(|&j| new_data.row(j as usize)).collect();
    let mut out: Vec<Vec<u32>> = Vec::with_capacity(lists.len());
    let mut stale: Vec<usize> = Vec::new();
    for (di, (u, list)) in dirs.iter().zip(lists.iter()).enumerate() {
        let mut remapped = Vec::with_capacity(list.len());
        let mut deleted_in_list = false;
        for &t in list {
            match upd.remap[t as usize] {
                Some(nt) => remapped.push(nt),
                None => {
                    deleted_in_list = true;
                    break;
                }
            }
        }
        let disturbed = deleted_in_list
            || (!ins_rows.is_empty() && {
                remapped.len() < k || {
                    let kth = *remapped.last().expect("top-k lists are non-empty");
                    let floor = rrm_core::utility::dot(u, new_data.row(kth as usize));
                    ins_rows.iter().any(|row| rrm_core::utility::dot(u, row) > floor)
                }
            });
        if disturbed {
            stale.push(di);
            remapped.clear();
        }
        out.push(remapped);
    }
    if !stale.is_empty() {
        let stale_dirs: Vec<Vec<f64>> = stale.iter().map(|&di| dirs[di].clone()).collect();
        let fresh = batch_top_k(new_data, &stale_dirs, k, pol);
        for (&slot, computed) in stale.iter().zip(fresh) {
            out[slot] = computed;
        }
    }
    Arc::new(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::build_vector_set;
    use rrm_core::{FullSpace, Solver, WeakRankingSpace};
    use rrm_data::synthetic::{anticorrelated, correlated, independent};

    fn quick_opts(m: usize) -> HdrrmOptions {
        HdrrmOptions { m_override: Some(m), gamma: 4, ..Default::default() }
    }

    /// HDRRM through a fresh handle (capability check included).
    fn prepared(
        data: &Dataset,
        space: &dyn UtilitySpace,
        opts: HdrrmOptions,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        crate::HdrrmSolver::new(opts).prepare(data, space, ExecPolicy::default())
    }

    /// One RRM query through a fresh handle.
    fn run_rrm(
        data: &Dataset,
        r: usize,
        space: &dyn UtilitySpace,
        opts: HdrrmOptions,
    ) -> Result<Solution, RrmError> {
        prepared(data, space, opts)?.solve_rrm(r, &Budget::UNLIMITED)
    }

    /// One RRR query through a fresh handle.
    fn run_rrr(
        data: &Dataset,
        k: usize,
        space: &dyn UtilitySpace,
        opts: HdrrmOptions,
    ) -> Result<Solution, RrmError> {
        prepared(data, space, opts)?.solve_rrr(k, &Budget::UNLIMITED)
    }

    fn regret_over_dirs(data: &Dataset, set: &[u32], dirs: &[Vec<f64>]) -> usize {
        dirs.iter().map(|u| rrm_core::rank::rank_regret_of_set(data, u, set)).max().unwrap()
    }

    #[test]
    fn certificate_holds_over_its_own_discretization() {
        let data = independent(600, 4, 21);
        let opts = quick_opts(400);
        let sol = run_rrm(&data, 10, &FullSpace::new(4), opts).unwrap();
        assert!(sol.size() <= 10);
        let k = sol.certified_regret.unwrap();
        // Rebuild the same D (same seed/options) and verify ∇D(R) ≤ k.
        let disc = build_vector_set(4, &FullSpace::new(4), 400, opts.gamma, opts.seed);
        let reg = regret_over_dirs(&data, &sol.indices, &disc.dirs);
        assert!(reg <= k, "certified {k}, measured over D {reg}");
    }

    #[test]
    fn includes_basis() {
        let data = independent(300, 3, 22);
        let sol = run_rrm(&data, 8, &FullSpace::new(3), quick_opts(200)).unwrap();
        for b in basis_indices(&data) {
            assert!(sol.indices.contains(&b));
        }
    }

    #[test]
    fn rejects_r_below_basis() {
        let data = independent(100, 4, 23);
        let err = run_rrm(&data, 2, &FullSpace::new(4), quick_opts(50));
        assert!(matches!(err, Err(RrmError::OutputSizeTooSmall { .. })));
    }

    #[test]
    fn larger_r_never_certifies_worse() {
        let data = anticorrelated(800, 4, 24);
        let mut prev = usize::MAX;
        for r in [6usize, 10, 14] {
            let sol = run_rrm(&data, r, &FullSpace::new(4), quick_opts(300)).unwrap();
            let k = sol.certified_regret.unwrap();
            assert!(k <= prev, "r={r}: {k} > {prev}");
            prev = k;
        }
    }

    #[test]
    fn correlated_data_gets_tiny_regret() {
        // "The more correlated the attributes, the smaller the output
        // rank-regrets."
        let corr = correlated(2000, 4, 25);
        let anti = anticorrelated(2000, 4, 25);
        let k_corr = run_rrm(&corr, 10, &FullSpace::new(4), quick_opts(300))
            .unwrap()
            .certified_regret
            .unwrap();
        let k_anti = run_rrm(&anti, 10, &FullSpace::new(4), quick_opts(300))
            .unwrap()
            .certified_regret
            .unwrap();
        assert!(k_corr <= k_anti, "correlated {k_corr} vs anti {k_anti}");
    }

    #[test]
    fn restricted_space_certifies_no_worse() {
        let data = anticorrelated(1000, 4, 26);
        let full = run_rrm(&data, 10, &FullSpace::new(4), quick_opts(300)).unwrap();
        let weak = run_rrm(&data, 10, &WeakRankingSpace::new(4, 2), quick_opts(300)).unwrap();
        // The restricted D is "easier": certified regret should not grow
        // beyond sampling noise. Allow equality plus slack of 1 doubling.
        let (kf, kw) = (full.certified_regret.unwrap(), weak.certified_regret.unwrap());
        assert!(kw <= 2 * kf.max(1), "restricted {kw} vs full {kf}");
    }

    #[test]
    fn skyline_mask_matches_unmasked_quality() {
        let data = independent(500, 3, 27);
        let with_mask = run_rrm(&data, 8, &FullSpace::new(3), quick_opts(250)).unwrap();
        let without_mask = run_rrm(
            &data,
            8,
            &FullSpace::new(3),
            HdrrmOptions { skyline_candidates: false, ..quick_opts(250) },
        )
        .unwrap();
        // Theorem 3 guarantees an equally small cover exists inside the
        // skyline, but greedy is not optimal, so allow small divergence.
        let (a, b) = (with_mask.certified_regret.unwrap(), without_mask.certified_regret.unwrap());
        assert!(a <= 2 * b.max(1) && b <= 2 * a.max(1), "masked {a} vs unmasked {b}");
    }

    #[test]
    fn tiny_cache_budget_same_answer() {
        // Budget 0 keeps no lists between probes: no deep pass, and every
        // probe scores afresh at its own k. The answers must not move, on a
        // fresh handle or a warm one. On the second set the coarse bound (31)
        // sits below the final threshold (45), so the default run also
        // deepens its lists past the deep pass.
        let space = FullSpace::new(3);
        let sets = [(independent(400, 3, 28), 8, 200), (anticorrelated(300, 3, 2), 5, 300)];
        for (i, (data, r, m)) in sets.into_iter().enumerate() {
            let opts = quick_opts(m);
            let tiny = HdrrmOptions { cache_budget_entries: 0, ..opts };
            let want = run_rrm(&data, r, &space, opts).unwrap();
            let k = want.certified_regret.unwrap();
            if i == 1 {
                let coarse = want.report.as_ref().unwrap().curve[0].1.upper;
                assert!(coarse < k, "coarse {coarse} vs final {k}");
            }
            assert_eq!(run_rrm(&data, r, &space, tiny).unwrap(), want, "set {i}");
            for o in [opts, tiny] {
                let prepared = PreparedHdrrm::new(&data, &space, o);
                for _ in 0..2 {
                    assert_eq!(prepared.solve_rrm(r, &Budget::UNLIMITED).unwrap(), want, "set {i}");
                }
                let kept = prepared.topk.lock().unwrap().get(&m).map(|(depth, _)| *depth);
                if o.cache_budget_entries == 0 {
                    assert_eq!(kept, None, "set {i}: budget 0 keeps nothing");
                } else {
                    assert!(kept >= Some(k), "set {i}: kept {kept:?} below final {k}");
                }
            }
        }
    }

    #[test]
    fn hdrrr_threshold_variant() {
        let data = independent(500, 3, 29);
        let opts = quick_opts(300);
        for k in [1usize, 5, 25] {
            let sol = run_rrr(&data, k, &FullSpace::new(3), opts).unwrap();
            assert_eq!(sol.certified_regret, Some(k));
            // Verify over the same discretization it was built from.
            let m = opts.m_override.unwrap();
            let disc = build_vector_set(3, &FullSpace::new(3), m, opts.gamma, opts.seed);
            assert!(regret_over_dirs(&data, &sol.indices, &disc.dirs) <= k);
        }
        // Bigger threshold, same-or-smaller set.
        let small = run_rrr(&data, 2, &FullSpace::new(3), opts).unwrap().size();
        let large = run_rrr(&data, 50, &FullSpace::new(3), opts).unwrap().size();
        assert!(large <= small);
    }

    #[test]
    fn incremental_update_matches_fresh_prepare() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rrm_core::{apply_updates, UpdateOp};
        let mut rng = StdRng::seed_from_u64(33);
        let opts = quick_opts(64);
        let space = FullSpace::new(4);
        let mut data = independent(200, 4, 31);
        let mut prepared = PreparedHdrrm::new(&data, &space, opts);
        let budget = Budget::with_samples(64);
        for batch in 0..3 {
            // Warm the caches before each batch so the patch path has
            // real entries to repair.
            prepared.solve_rrm(8, &budget).unwrap();
            prepared.solve_rrr(5, &budget).unwrap();
            let mut ops: Vec<UpdateOp> = Vec::new();
            for _ in 0..6 {
                let i = rng.random_range(0..data.n());
                if !ops.contains(&UpdateOp::Delete(i)) {
                    ops.push(UpdateOp::Delete(i));
                }
            }
            for _ in 0..6 {
                ops.push(UpdateOp::Insert((0..4).map(|_| rng.random::<f64>()).collect()));
            }
            let upd = apply_updates(&data, &ops).unwrap();
            prepared = prepared.patched(&upd);
            let fresh = PreparedHdrrm::new(&upd.new, &space, opts);
            let ctx = format!("batch {batch}");
            assert_eq!(prepared.basis, fresh.basis, "{ctx}");
            assert_eq!(prepared.mask, fresh.mask, "{ctx}");
            // The patched top-k cache is entry-for-entry a fresh
            // computation over the new rows.
            for (m, (k, lists)) in prepared.topk.lock().unwrap().iter() {
                let disc = build_vector_set(4, &space, *m, opts.gamma, opts.seed);
                let want = batch_top_k(&upd.new, &disc.dirs, *k, Parallelism::Sequential);
                assert_eq!(lists.as_ref(), &want, "{ctx} m={m} k={k}");
            }
            for r in [6usize, 8, 10] {
                assert_eq!(
                    prepared.solve_rrm(r, &budget).unwrap(),
                    fresh.solve_rrm(r, &budget).unwrap(),
                    "{ctx} r={r}"
                );
            }
            for k in [2usize, 5] {
                assert_eq!(
                    prepared.solve_rrr(k, &budget).unwrap(),
                    fresh.solve_rrr(k, &budget).unwrap(),
                    "{ctx} k={k}"
                );
            }
            data = upd.new.clone();
        }
    }

    #[test]
    fn d1_unsupported() {
        let data = Dataset::from_rows(&[[0.5], [0.7]]).unwrap();
        assert!(run_rrm(&data, 1, &FullSpace::new(1), quick_opts(10)).is_err());
    }
}
