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
//! `Φ_K`. Once the coarse incumbent bounds the answer by `U`, one top-`K`
//! pass at the first doubling probe `K` at or above `U` serves every
//! doubling and binary probe up to `K`, provided the lists fit a memory
//! budget; a probe past `K` deepens them to twice its threshold, the next
//! doubling probe.
//!
//! ASMS drops every direction whose top-`k` holds a basis tuple (Lemma
//! 2), so no probe reads a list past its first basis tuple. Each list
//! therefore stops there: it ends right after the direction's
//! best-ranked basis tuple, and its selection starts with that tuple's
//! key as its floor. For every `k` up to the kept depth a stopped prefix
//! either equals the full prefix or holds the same first basis tuple, so
//! ASMS builds the same universe, sets and first-appearance order, and
//! answers, search nodes and pruned probes are those of full lists. A
//! handle with `include_basis` off keeps full lists: its RRM covers force
//! no basis in, while its RRR covers read the same cached lists with it.
//!
//! [`PreparedHdrrm`] is the implementation: the dataset phase (basis `B`,
//! skyline mask) runs once at prepare time, and each query runs the
//! crate's anytime cover search, shared with MDRRRr, over a cached
//! discretization `D`: the threshold search (RRM) or one ASMS cover (RRR).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rrm_core::memo::lock;
use rrm_core::rank::batch_top_k_until;
use rrm_core::{
    basis_indices, Algorithm, AnytimeSearch, AppliedUpdate, Budget, Dataset, ExecPolicy, Memo,
    Parallelism, PreparedSolver, RrmError, Solution, UtilitySpace, PREPARED_CACHE_CAP,
};
use rrm_skyline::IncrementalSkyline;

use crate::anytime::CoverSearch;
use crate::common::{ListCache, TopkLists, DEFAULT_CACHE_BUDGET_ENTRIES};
use crate::discretize::{build_vector_set_exec, paper_sample_size, Discretization};

/// Tuning knobs for HDRRM ([`crate::HdrrmSolver`]). Defaults mirror the
/// paper's experiments.
#[derive(Debug, Clone, Copy)]
pub struct HdrrmOptions {
    /// Polar grid resolution γ (paper: 6).
    pub gamma: usize,
    /// Failure probability δ for the sampled guarantee (paper: 0.03).
    pub delta: f64,
    /// RNG seed for `Da`.
    pub seed: u64,
    /// Restrict cover candidates to skyline tuples (sound by Theorem 3;
    /// ablated in `repro ablation`'s "skyline candidates" section).
    pub skyline_candidates: bool,
    /// Force the boundary-tuple basis `B` into the output (the paper's
    /// Algorithm 2/3). The basis powers Theorem 7's `(1-ε)·w_k` utility
    /// floor but consumes up to `d` of the `r` budget slots, measurably
    /// raising the rank-regret on hard data (see the `ablation`
    /// experiment). Disable only when the utility floor is not needed.
    pub include_basis: bool,
    /// Bound-and-prune the feasibility probes: abort a greedy cover as
    /// soon as it provably exceeds the size budget `r`. Decision- and
    /// answer-equivalent to running every cover out (greedy picks are
    /// monotone and deterministic); disable only to measure the pruning
    /// win (`repro anytime`).
    pub prune: bool,
}

impl Default for HdrrmOptions {
    fn default() -> Self {
        Self {
            gamma: 6,
            delta: 0.03,
            seed: 0xD15C0,
            skyline_candidates: true,
            include_basis: true,
            prune: true,
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
    /// Chunks the direction-batch kernels (top-k scoring, grid membership).
    exec: ExecPolicy,
    /// The boundary-tuple basis `B` (always computed: RRR needs it even
    /// when `include_basis` is off for RRM).
    basis: Vec<u32>,
    /// Incrementally maintained skyline whose membership mask is the
    /// cover candidate mask (present exactly when `skyline_candidates` is
    /// on), so updates patch the mask instead of re-filtering the dataset.
    sky: Option<IncrementalSkyline>,
    /// Per sample count `m`, its discretization.
    discs: Memo<usize, Arc<Discretization>>,
    /// Per sample count `m`: the deepest top-k lists kept so far (every
    /// smaller threshold is a prefix), each cut after its stop
    /// ([`PreparedHdrrm::stops`]).
    topk: ListCache,
}

impl PreparedHdrrm {
    /// The dataset phase, under `exec`. The caller has run
    /// [`Algorithm::ensure_supported`] (`d ≥ 2`, matching space).
    pub(crate) fn new(
        data: &Dataset,
        space: &dyn UtilitySpace,
        options: HdrrmOptions,
        exec: ExecPolicy,
    ) -> Self {
        Self {
            data: data.clone(),
            space: space.clone_box(),
            options,
            exec,
            basis: basis_indices(data),
            sky: options.skyline_candidates.then(|| IncrementalSkyline::build(data)),
            discs: Memo::new(PREPARED_CACHE_CAP),
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
    ///   outranking its last entry — are re-scored ([`patch_topk`]).
    ///   Untouched prefixes survive verbatim, so the repaired cache is
    ///   entry-for-entry what a fresh computation on the new rows would
    ///   produce (the scoring kernel's determinism contract makes the
    ///   dot-product trigger exact).
    ///
    /// The basis is recomputed (`O(n·d)`, far below one direction's
    /// re-score). A batch that changes it moves the stops, so every list
    /// of a stopping handle is re-scored. Queries on the patched handle
    /// answer bit-identically to a freshly built [`PreparedHdrrm`] over
    /// the same rows.
    fn patched(&self, upd: &AppliedUpdate) -> Self {
        let data = upd.new.clone();
        let basis = basis_indices(&data);
        let stops: &[u32] = if self.options.include_basis { &basis } else { &[] };
        // A batch that changes the basis moves the stops of every list.
        let kept = self.basis.iter().map(|&b| upd.remap[b as usize]);
        let moved = !stops.is_empty() && !kept.eq(basis.iter().map(|&b| Some(b)));
        let sky = self.sky.clone().map(|mut s| {
            s.apply_update(upd);
            s
        });
        let discs = self.discs.clone();
        let pol = self.exec.parallelism;
        let mut topk = HashMap::new();
        for (&m, (k, lists)) in lock(&self.topk).iter() {
            // A cached list without its discretization (never kept) is
            // dropped; a later query rebuilds both identically.
            let Some(disc) = discs.get(&m) else { continue };
            let lists = if moved {
                Arc::new(batch_top_k_until(&data, &disc.dirs, *k, stops, pol))
            } else {
                patch_topk(&data, upd, &disc.dirs, *k, lists, stops, pol)
            };
            topk.insert(m, (*k, lists));
        }
        Self {
            data,
            space: self.space.clone_box(),
            options: self.options,
            exec: self.exec,
            basis,
            sky,
            discs,
            topk: Mutex::new(topk),
        }
    }

    fn disc(&self, m: usize) -> Arc<Discretization> {
        self.discs.get_or_build(m, || {
            let (d, space, opts) = (self.data.dim(), self.space.as_ref(), self.options);
            Arc::new(build_vector_set_exec(d, space, m, opts.gamma, opts.seed, self.exec))
        })
    }

    /// The tuples every cached top-k list stops at: the basis when every
    /// query forces it into its answer. With `include_basis` off, RRM
    /// forces no basis in while RRR forces `B`, over one cache entry per
    /// `m`, so the lists stay full.
    fn stops(&self) -> &[u32] {
        if self.options.include_basis {
            &self.basis
        } else {
            &[]
        }
    }

    /// The cover search of one query, with `basis` forced into its answer.
    fn search<'a>(&'a self, basis: &'a [u32]) -> CoverSearch<'a> {
        CoverSearch {
            data: &self.data,
            algorithm: Algorithm::Hdrrm,
            basis,
            stops: self.stops(),
            mask: self.sky.as_ref().map(IncrementalSkyline::mask),
            ksets: false,
            prune: self.options.prune,
            pol: self.exec.parallelism,
            cache_budget_entries: DEFAULT_CACHE_BUDGET_ENTRIES,
        }
    }

    /// The effective sample count `m` for a query sized for `r` tuples:
    /// the budget's `samples`, else the Theorem 10 formula.
    fn samples(&self, r: usize, budget: &Budget) -> usize {
        budget.samples.unwrap_or_else(|| {
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
    /// or the uniform-direction fallback — with certified
    /// [`Bounds`](rrm_core::Bounds) and the
    /// [`TerminatedBy`](rrm_core::TerminatedBy) reason, instead of
    /// failing. Without a time limit the answer is bit-identical at any
    /// thread count.
    ///
    /// Errors when `r` cannot hold the basis (`r < |B|`; the paper
    /// assumes `r ≥ d`).
    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let m = self.samples(r, budget);
        let disc = self.disc(m);
        let search = AnytimeSearch::new(budget, budget.max_enumerations);
        // RRM forces in exactly the tuples the lists stop at.
        self.search(self.stops()).solve_rrm(r, &disc.dirs, search, &self.topk, m)
    }

    /// The RRR (threshold) variant in HD: one ASMS call at threshold `k`
    /// returns a small superset of the basis with `∇D(Q) ≤ k` — the MS
    /// problem of Definition 7, certified over the discretization. The
    /// formula's `r` is unknown for RRR, so the default `m` is sized for
    /// twice the basis instead.
    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        let m = self.samples((2 * self.basis.len()).max(8), budget);
        self.search(&self.basis).solve_rrr(k, &self.disc(m).dirs, &self.topk, m)
    }

    fn apply_update(&self, upd: &AppliedUpdate) -> Option<Box<dyn PreparedSolver>> {
        Some(Box::new(self.patched(upd)))
    }
}

/// Patch one cached top-k table onto the post-update dataset: remap each
/// direction's survivor entries in place and fully re-score only the
/// directions the batch disturbed.
///
/// Each list is the top-`k` prefix, cut after its best-ranked member of
/// `stops` (the basis, which the batch left unchanged; empty for full
/// lists). A list needs re-scoring exactly when it is no longer what a
/// fresh computation over the new rows gives: a deleted tuple sat in the
/// list (its replacement is unknown), the list was shorter than `k`
/// without ending at a stop (so it held every row) and rows were
/// inserted, or an inserted row *strictly* outscores its last entry.
/// Score ties never displace — inserted rows take the largest indices and
/// the top-k order breaks ties by ascending index — so the strict test is
/// exact, and the kernel's fixed-order-sum contract makes the scalar
/// [`rrm_core::utility::dot`] comparison bit-compatible with the
/// selection's internal scores. A list that ends at its stop keeps it:
/// nothing that outranked the stop was deleted or inserted, and the stops
/// are the same tuples. Disturbed directions are re-scored through
/// [`batch_top_k_until`] itself, so every returned list is exactly what a
/// fresh computation over the new rows produces.
fn patch_topk(
    new_data: &Dataset,
    upd: &AppliedUpdate,
    dirs: &[Vec<f64>],
    k: usize,
    lists: &TopkLists,
    stops: &[u32],
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
                let last = *remapped.last().expect("top-k lists are non-empty");
                let ends = remapped.len() == k || stops.binary_search(&last).is_ok();
                !ends || {
                    let floor = rrm_core::utility::dot(u, new_data.row(last as usize));
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
        let fresh = batch_top_k_until(new_data, &stale_dirs, k, stops, pol);
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
    use rrm_core::{Bounds, FullSpace, Solver, WeakRankingSpace};
    use rrm_data::synthetic::{anticorrelated, correlated, independent};

    fn quick_opts() -> HdrrmOptions {
        HdrrmOptions { gamma: 4, ..Default::default() }
    }

    /// HDRRM through a fresh handle (capability check included).
    fn prepared(
        data: &Dataset,
        space: &dyn UtilitySpace,
        opts: HdrrmOptions,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        crate::HdrrmSolver::new(opts).prepare(data, space, ExecPolicy::default())
    }

    /// One RRM query on `m` sampled directions through a fresh handle.
    fn run_rrm(
        data: &Dataset,
        r: usize,
        space: &dyn UtilitySpace,
        opts: HdrrmOptions,
        m: usize,
    ) -> Result<Solution, RrmError> {
        prepared(data, space, opts)?.solve_rrm(r, &Budget::with_samples(m))
    }

    /// One RRR query on `m` sampled directions through a fresh handle.
    fn run_rrr(
        data: &Dataset,
        k: usize,
        space: &dyn UtilitySpace,
        opts: HdrrmOptions,
        m: usize,
    ) -> Result<Solution, RrmError> {
        prepared(data, space, opts)?.solve_rrr(k, &Budget::with_samples(m))
    }

    fn regret_over_dirs(data: &Dataset, set: &[u32], dirs: &[Vec<f64>]) -> usize {
        dirs.iter().map(|u| rrm_core::rank::rank_regret_of_set(data, u, set)).max().unwrap()
    }

    #[test]
    fn certificate_holds_over_its_own_discretization() {
        let data = independent(600, 4, 21);
        let opts = quick_opts();
        let sol = run_rrm(&data, 10, &FullSpace::new(4), opts, 400).unwrap();
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
        let sol = run_rrm(&data, 8, &FullSpace::new(3), quick_opts(), 200).unwrap();
        for b in basis_indices(&data) {
            assert!(sol.indices.contains(&b));
        }
    }

    #[test]
    fn rejects_r_below_basis() {
        let data = independent(100, 4, 23);
        let err = run_rrm(&data, 2, &FullSpace::new(4), quick_opts(), 50);
        assert!(matches!(err, Err(RrmError::OutputSizeTooSmall { .. })));
    }

    #[test]
    fn larger_r_never_certifies_worse() {
        let data = anticorrelated(800, 4, 24);
        let mut prev = usize::MAX;
        for r in [6usize, 10, 14] {
            let sol = run_rrm(&data, r, &FullSpace::new(4), quick_opts(), 300).unwrap();
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
        let k_corr = run_rrm(&corr, 10, &FullSpace::new(4), quick_opts(), 300)
            .unwrap()
            .certified_regret
            .unwrap();
        let k_anti = run_rrm(&anti, 10, &FullSpace::new(4), quick_opts(), 300)
            .unwrap()
            .certified_regret
            .unwrap();
        assert!(k_corr <= k_anti, "correlated {k_corr} vs anti {k_anti}");
    }

    #[test]
    fn restricted_space_certifies_no_worse() {
        let data = anticorrelated(1000, 4, 26);
        let full = run_rrm(&data, 10, &FullSpace::new(4), quick_opts(), 300).unwrap();
        let weak = run_rrm(&data, 10, &WeakRankingSpace::new(4, 2), quick_opts(), 300).unwrap();
        // The restricted D is "easier": certified regret should not grow
        // beyond sampling noise. Allow equality plus slack of 1 doubling.
        let (kf, kw) = (full.certified_regret.unwrap(), weak.certified_regret.unwrap());
        assert!(kw <= 2 * kf.max(1), "restricted {kw} vs full {kf}");
    }

    #[test]
    fn skyline_mask_matches_unmasked_quality() {
        let data = independent(500, 3, 27);
        let with_mask = run_rrm(&data, 8, &FullSpace::new(3), quick_opts(), 250).unwrap();
        let unmasked = HdrrmOptions { skyline_candidates: false, ..quick_opts() };
        let without_mask = run_rrm(&data, 8, &FullSpace::new(3), unmasked, 250).unwrap();
        // Theorem 3 guarantees an equally small cover exists inside the
        // skyline, but greedy is not optimal, so allow small divergence.
        let (a, b) = (with_mask.certified_regret.unwrap(), without_mask.certified_regret.unwrap());
        assert!(a <= 2 * b.max(1) && b <= 2 * a.max(1), "masked {a} vs unmasked {b}");
    }

    #[test]
    fn tiny_cache_budget_same_answer() {
        // Budget 0 keeps no lists between probes: no deep pass, and every
        // probe scores afresh at its own k. The answers must not move, over
        // an empty cache or a warm handle's. On the second set the coarse
        // bound (31) sits below the final threshold (45), so the default
        // run also deepens its lists past the deep pass.
        let space = FullSpace::new(3);
        let sets = [(independent(400, 3, 28), 8, 200), (anticorrelated(300, 3, 2), 5, 300)];
        for (i, (data, r, m)) in sets.into_iter().enumerate() {
            let prepared = PreparedHdrrm::new(&data, &space, quick_opts(), ExecPolicy::default());
            let budget = Budget::with_samples(m);
            let want = run_rrm(&data, r, &space, quick_opts(), m).unwrap();
            let k = want.certified_regret.unwrap();
            if i == 1 {
                let coarse = want.report.as_ref().unwrap().curve[0].1.upper;
                assert!(coarse < k, "coarse {coarse} vs final {k}");
            }
            for _ in 0..2 {
                assert_eq!(prepared.solve_rrm(r, &budget).unwrap(), want, "set {i}");
            }
            let kept = lock(&prepared.topk).get(&m).map(|(depth, _)| *depth);
            assert!(kept >= Some(k), "set {i}: kept {kept:?} below final {k}");
            let tiny = CoverSearch { cache_budget_entries: 0, ..prepared.search(prepared.stops()) };
            let dirs = &prepared.disc(m).dirs;
            let empty = ListCache::default();
            for cache in [&empty, &prepared.topk] {
                let got = tiny.solve_rrm(r, dirs, AnytimeSearch::unlimited(), cache, m).unwrap();
                assert_eq!(got, want, "set {i}");
            }
            assert!(lock(&empty).is_empty(), "set {i}: budget 0 keeps nothing");
        }
    }

    #[test]
    fn search_work_and_answer_are_pinned() {
        // One fixed instance: the probes the search runs, the prunes, and
        // the answer it returns.
        let data = anticorrelated(300, 3, 2);
        let sol = run_rrm(&data, 5, &FullSpace::new(3), quick_opts(), 300).unwrap();
        let report = sol.report.as_ref().unwrap();
        assert_eq!((report.nodes, report.pruned_probes), (73, 8));
        assert_eq!(sol.bounds, Some(Bounds { lower: 45, upper: 45 }));
        assert_eq!(sol.indices, vec![101, 228, 258, 259, 268]);
        assert_eq!(sol.certified_regret, Some(45));
    }

    #[test]
    fn hdrrr_threshold_variant() {
        let data = independent(500, 3, 29);
        let (opts, m) = (quick_opts(), 300);
        for k in [1usize, 5, 25] {
            let sol = run_rrr(&data, k, &FullSpace::new(3), opts, m).unwrap();
            assert_eq!(sol.certified_regret, Some(k));
            // Verify over the same discretization it was built from.
            let disc = build_vector_set(3, &FullSpace::new(3), m, opts.gamma, opts.seed);
            assert!(regret_over_dirs(&data, &sol.indices, &disc.dirs) <= k);
        }
        // Bigger threshold, same-or-smaller set.
        let small = run_rrr(&data, 2, &FullSpace::new(3), opts, m).unwrap().size();
        let large = run_rrr(&data, 50, &FullSpace::new(3), opts, m).unwrap().size();
        assert!(large <= small);
    }

    #[test]
    fn incremental_update_matches_fresh_prepare() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rrm_core::{apply_updates, UpdateOp};
        let mut rng = StdRng::seed_from_u64(33);
        let opts = quick_opts();
        let space = FullSpace::new(4);
        let mut data = independent(200, 4, 31);
        let mut prepared = PreparedHdrrm::new(&data, &space, opts, ExecPolicy::default());
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
            let fresh = PreparedHdrrm::new(&upd.new, &space, opts, ExecPolicy::default());
            let ctx = format!("batch {batch}");
            assert_eq!(prepared.basis, fresh.basis, "{ctx}");
            let masks = [&prepared, &fresh].map(|h| h.sky.as_ref().map(IncrementalSkyline::mask));
            assert_eq!(masks[0], masks[1], "{ctx}");
            // The patched top-k cache is entry-for-entry a fresh stopped
            // computation over the new rows.
            assert_lists_fresh(&prepared, &fresh.basis, &ctx);
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

    /// Every kept list of `prepared` is what a fresh computation over its
    /// rows gives, stopped at `stops`.
    fn assert_lists_fresh(prepared: &PreparedHdrrm, stops: &[u32], ctx: &str) {
        let (d, space, opts) = (prepared.data.dim(), prepared.space.as_ref(), prepared.options);
        for (m, (k, lists)) in lock(&prepared.topk).iter() {
            let disc = build_vector_set(d, space, *m, opts.gamma, opts.seed);
            let want =
                batch_top_k_until(&prepared.data, &disc.dirs, *k, stops, Parallelism::Sequential);
            assert_eq!(lists.as_ref(), &want, "{ctx} m={m} k={k}");
        }
    }

    #[test]
    fn lists_stop_at_the_first_basis_tuple() {
        let data = anticorrelated(500, 4, 7);
        let space = FullSpace::new(4);
        let prepared = PreparedHdrrm::new(&data, &space, quick_opts(), ExecPolicy::default());
        prepared.solve_rrm(7, &Budget::with_samples(200)).unwrap();
        let (depth, lists) = lock(&prepared.topk).get(&200).cloned().unwrap();
        let disc = build_vector_set(4, &space, 200, 4, prepared.options.seed);
        let full = rrm_core::rank::batch_top_k(&data, &disc.dirs, depth, Parallelism::Sequential);
        let mut cut = 0;
        for (stopped, full) in lists.iter().zip(&full) {
            let end = full.iter().position(|t| prepared.basis.contains(t)).map_or(depth, |p| p + 1);
            assert_eq!(stopped.as_slice(), &full[..end]);
            cut += (end < full.len()) as usize;
        }
        assert!(cut > 0, "no list reached a basis tuple above depth {depth}");
    }

    #[test]
    fn updates_that_move_the_basis_match_fresh_prepare() {
        use rrm_core::{apply_updates, UpdateOp};
        let opts = quick_opts();
        let space = FullSpace::new(4);
        let data = anticorrelated(400, 4, 41);
        let budget = Budget::with_samples(96);
        let basis = basis_indices(&data);
        let batches: Vec<Vec<UpdateOp>> = vec![
            // A new maximum on attribute 0 replaces that boundary tuple.
            vec![UpdateOp::Insert(vec![1.5, 0.1, 0.1, 0.1])],
            // Deleting a basis tuple promotes another.
            vec![UpdateOp::Delete(basis[1] as usize)],
            // Both at once, beside an ordinary insert and delete.
            vec![
                UpdateOp::Delete(basis[0] as usize),
                UpdateOp::Delete(3),
                UpdateOp::Insert(vec![0.2, 0.2, 1.5, 0.2]),
                UpdateOp::Insert(vec![0.3, 0.3, 0.3, 0.3]),
            ],
        ];
        for (i, ops) in batches.iter().enumerate() {
            let prepared = PreparedHdrrm::new(&data, &space, opts, ExecPolicy::default());
            prepared.solve_rrm(6, &budget).unwrap();
            prepared.solve_rrr(9, &budget).unwrap();
            let upd = apply_updates(&data, ops).unwrap();
            let patched = prepared.patched(&upd);
            let fresh = PreparedHdrrm::new(&upd.new, &space, opts, ExecPolicy::default());
            let ctx = format!("batch {i}");
            assert_ne!(patched.basis, basis, "{ctx}: the basis must move");
            assert_eq!(patched.basis, fresh.basis, "{ctx}");
            assert_lists_fresh(&patched, &fresh.basis, &ctx);
            for r in [5usize, 6, 9] {
                assert_eq!(
                    patched.solve_rrm(r, &budget).unwrap(),
                    fresh.solve_rrm(r, &budget).unwrap(),
                    "{ctx} r={r}"
                );
            }
            assert_eq!(
                patched.solve_rrr(9, &budget).unwrap(),
                fresh.solve_rrr(9, &budget).unwrap()
            );
        }
    }

    #[test]
    fn without_basis_rrm_and_rrr_share_full_lists() {
        // RRM forces no basis in while RRR forces `B`, both over one
        // cache entry per m: whichever query fills it, the other must
        // answer as on a fresh handle.
        let data = anticorrelated(500, 4, 43);
        let space = FullSpace::new(4);
        let opts = HdrrmOptions { include_basis: false, ..quick_opts() };
        let budget = Budget::with_samples(150);
        let fresh = || PreparedHdrrm::new(&data, &space, opts, ExecPolicy::default());
        let rrm = fresh().solve_rrm(5, &budget).unwrap();
        let rrr = fresh().solve_rrr(40, &budget).unwrap();
        let shared = fresh();
        assert_eq!(shared.solve_rrm(5, &budget).unwrap(), rrm);
        assert_eq!(shared.solve_rrr(40, &budget).unwrap(), rrr);
        assert_eq!(shared.solve_rrm(5, &budget).unwrap(), rrm);
        assert_lists_fresh(&shared, &[], "include_basis off");
    }

    #[test]
    fn a_poisoned_list_cache_still_answers_like_a_fresh_handle() {
        let data = anticorrelated(300, 3, 2);
        let space = FullSpace::new(3);
        let budget = Budget::with_samples(300);
        let fresh = || PreparedHdrrm::new(&data, &space, quick_opts(), ExecPolicy::default());
        let handle = fresh();
        // Kept lists first.
        handle.solve_rrm(5, &budget).unwrap();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = lock(&handle.topk);
                panic!("poisoning the top-k cache");
            });
            assert!(holder.join().is_err());
        });
        assert!(handle.topk.is_poisoned());
        for r in [5, 4, 8] {
            let want = fresh().solve_rrm(r, &budget).unwrap();
            assert_eq!(handle.solve_rrm(r, &budget).unwrap(), want, "r={r}");
        }
        let want = fresh().solve_rrr(20, &budget).unwrap();
        assert_eq!(handle.solve_rrr(20, &budget).unwrap(), want);
        assert_lists_fresh(&handle, &handle.basis, "after poisoning");
    }

    #[test]
    fn d1_unsupported() {
        let data = Dataset::from_rows(&[[0.5], [0.7]]).unwrap();
        assert!(run_rrm(&data, 1, &FullSpace::new(1), quick_opts(), 10).is_err());
    }
}
