//! **MDRRRr** — the randomized k-set baseline of Asudeh et al.
//!
//! Instead of exact region enumeration, sample directions, collect the
//! distinct top-k sets observed, and hit those. Faster
//! (`O(|W|(nd + k log k))` in the paper's accounting), works for
//! restricted spaces, but the output's rank-regret is **not** guaranteed —
//! unsampled k-set regions can be missed, which is exactly the quality gap
//! the paper's figures display at scale.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rrm_core::{
    Algorithm, AnytimeSearch, Bounds, Dataset, ExecPolicy, Parallelism, RrmError, Solution,
    TerminatedBy, UtilitySpace,
};

use crate::anytime::{regret_over_dirs, threshold_search, uniform_top_set, ThresholdOutcome};
use crate::common::{ListCache, ListSource, DEFAULT_CACHE_BUDGET_ENTRIES};
use crate::mdrrr::hit_ksets_capped;

/// Options for MDRRRr ([`crate::MdrrrRSolver`]).
#[derive(Debug, Clone, Copy)]
pub struct MdrrrROptions {
    /// Number of sampled directions used to discover k-sets.
    pub samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Bound-and-prune the RRM feasibility probes: abort a hitting-set
    /// cover once it provably exceeds the size budget `r`
    /// (answer-equivalent; disable only to measure the pruning win).
    pub prune: bool,
    /// Data-parallelism for the k-set discovery scoring pass. Engine-level
    /// contexts override the default; the discovered k-set family is
    /// identical at any thread count.
    pub exec: ExecPolicy,
}

impl Default for MdrrrROptions {
    fn default() -> Self {
        Self { samples: 20_000, seed: 0x5EED, prune: true, exec: ExecPolicy::default() }
    }
}

/// Prefix fraction of the sampled pool used as the coarse frame.
const COARSE_FRACTION: usize = 16;
/// Minimum coarse pool size for the coarse pass to be worth running.
const COARSE_MIN_DIRS: usize = 16;

/// The per-solve probe environment of one MDRRRr RRM search (top-k lists
/// are kept in the cache the caller passes).
pub(crate) struct SampledSearch<'a> {
    pub data: &'a Dataset,
    pub r: usize,
    /// Hitting-set pick cap (`usize::MAX` = pruning disabled).
    pub pick_cap: usize,
    pub pol: Parallelism,
    /// Most list entries (`samples · k`) kept between probes; the one
    /// deep pass runs only when it fits.
    pub cache_budget_entries: usize,
}

impl<'a> SampledSearch<'a> {
    pub(crate) fn new(data: &'a Dataset, r: usize, opts: MdrrrROptions) -> Self {
        SampledSearch {
            data,
            r,
            pick_cap: if opts.prune { r } else { usize::MAX },
            pol: opts.exec.parallelism,
            cache_budget_entries: DEFAULT_CACHE_BUDGET_ENTRIES,
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

    /// One capped hitting probe over a k-set family. Counts picks as
    /// nodes, records prunes, offers feasible results (their threshold
    /// is the sound upper bound over the sampled pool).
    fn probe(
        &self,
        k: usize,
        ksets: &[Vec<u32>],
        lower: usize,
        search: &mut AnytimeSearch,
    ) -> Option<Vec<u32>> {
        let probe = hit_ksets_capped(self.data.n(), ksets, self.pick_cap);
        search.note_nodes(probe.picks);
        if !probe.complete {
            search.note_pruned_probe();
            return None;
        }
        if probe.ids.len() <= self.r {
            search.offer(probe.ids.clone(), k, lower);
            Some(probe.ids)
        } else {
            None
        }
    }

    /// Offer the uniform-direction top-`r` fallback incumbent, with its
    /// measured regret over the full sampled pool as the upper bound.
    fn offer_fallback(&self, dirs: &[Vec<f64>], search: &mut AnytimeSearch) {
        let fallback = uniform_top_set(self.data, &[], self.r);
        let upper = regret_over_dirs(self.data, &fallback, dirs, self.pol);
        search.offer(fallback, upper, 1);
    }

    /// Coarse-to-fine first incumbent: solve over the prefix
    /// `dirs[..samples/16]` of the pool (cheap — fewer directions to
    /// score and fewer k-sets to hit), then measure that answer over the
    /// full pool for a sound frame-relative upper bound. Coarse probes
    /// never consume the deterministic probe budget.
    fn coarse_incumbent(&self, dirs: &[Vec<f64>], search: &mut AnytimeSearch) {
        let mc = dirs.len() / COARSE_FRACTION;
        if mc < COARSE_MIN_DIRS {
            return;
        }
        let cache = ListCache::default();
        let source = self.source(&dirs[..mc], 0, &cache, 0);
        let mut sub = AnytimeSearch::unlimited();
        let outcome = threshold_search(self.data.n(), &mut sub, |k, lower, sub| {
            Ok(self.probe(k, &kset_family(&source.lists(k), k), lower, sub))
        });
        search.report.nodes += sub.report.nodes;
        search.report.pruned_probes += sub.report.pruned_probes;
        let Ok(outcome) = outcome else { return };
        if let Some((_, ids)) = outcome.best {
            let upper = regret_over_dirs(self.data, &ids, dirs, self.pol);
            search.offer(ids, upper, 1);
        }
    }

    /// The whole RRM search over the sampled pool `dirs`, as an anytime
    /// bound-and-prune search; `cache` keeps top-k lists (keyed by the
    /// pool size) across queries.
    ///
    /// The pool is scored once for every threshold probe up to the coarse
    /// incumbent's bound (deeper probes deepen the lists); hitting-set
    /// covers abort as soon as they provably exceed `r` (when
    /// `opts.prune`). Without a time limit the answer is bit-identical
    /// at any thread count.
    ///
    /// Under a limit a fallback incumbent comes first; then the coarse
    /// incumbent, whose pool-wide bound sets the depth of the one deep
    /// top-k pass; then the doubling-then-binary search, whose probes
    /// derive their k-set families from prefixes of the kept lists.
    pub(crate) fn solve(
        &self,
        dirs: &[Vec<f64>],
        mut search: AnytimeSearch,
        cache: &ListCache,
    ) -> Result<Solution, RrmError> {
        if search.is_limited() {
            self.offer_fallback(dirs, &mut search);
        }
        self.coarse_incumbent(dirs, &mut search);
        let n = self.data.n();
        let deep = search.incumbent.upper().map_or(0, |upper| upper.min(n));
        let source = self.source(dirs, deep, cache, dirs.len());
        let outcome = threshold_search(n, &mut search, |k, lower, search| {
            Ok(self.probe(k, &kset_family(&source.lists(k), k), lower, search))
        })?;
        self.finish(outcome, search)
    }

    /// Assemble the final [`Solution`]. MDRRRr certifies nothing
    /// (`certified_regret` stays `None`); its bounds are relative to the
    /// sampled pool only.
    fn finish(
        &self,
        outcome: ThresholdOutcome<Vec<u32>>,
        search: AnytimeSearch,
    ) -> Result<Solution, RrmError> {
        match outcome.terminated {
            TerminatedBy::Completed => {
                // Unreachable `None`: at k = n the only k-set is the whole
                // dataset and any single tuple hits it.
                let (best_k, ids) = outcome.best.expect("hitting at k = n is a single tuple");
                Solution::new(ids, None, Algorithm::MdrrrR, self.data).map(|s| {
                    s.with_bounds(Bounds { lower: best_k, upper: best_k })
                        .with_report(search.report)
                })
            }
            t => {
                let (ids, upper) = search
                    .incumbent
                    .best()
                    .expect("a limited search offers a fallback incumbent before searching");
                Solution::new(ids, None, Algorithm::MdrrrR, self.data).map(|s| {
                    s.with_bounds(Bounds { lower: outcome.lower, upper })
                        .with_termination(t)
                        .with_report(search.report)
                })
            }
        }
    }
}

/// The sampled direction pool (deterministic per seed and sample count —
/// the prepared handle caches it per sample count and reuses it for every
/// threshold).
pub(crate) fn sampled_dirs(space: &dyn UtilitySpace, opts: MdrrrROptions) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    (0..opts.samples).map(|_| space.sample_direction(&mut rng)).collect()
}

/// The distinct top-k sets among per-direction top-k `lists`, each list
/// read to its first `k` entries. Every set is sorted ascending and the
/// family is sorted and deduplicated, so it is deterministic for a fixed
/// pool (the greedy cover downstream tie-breaks by family order).
pub(crate) fn kset_family(lists: &[Vec<u32>], k: usize) -> Vec<Vec<u32>> {
    let mut family: Vec<Vec<u32>> = lists
        .iter()
        .map(|list| {
            let mut set = list[..k.min(list.len())].to_vec();
            set.sort_unstable();
            set
        })
        .collect();
    family.sort_unstable();
    family.dedup();
    family
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{Budget, FullSpace, PreparedSolver, Solver, WeakRankingSpace};
    use rrm_data::synthetic::{anticorrelated, independent};
    use rrm_eval::estimate_rank_regret_seq;

    fn opts(samples: usize, seed: u64) -> MdrrrROptions {
        MdrrrROptions { samples, seed, ..Default::default() }
    }

    /// MDRRRr through a fresh handle (capability check included).
    fn prepared(
        data: &Dataset,
        space: &dyn UtilitySpace,
        o: MdrrrROptions,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        crate::MdrrrRSolver::new(o).prepare(data, space, ExecPolicy::default())
    }

    /// One RRR query through a fresh handle.
    fn run_rrr(
        data: &Dataset,
        k: usize,
        space: &dyn UtilitySpace,
        o: MdrrrROptions,
    ) -> Result<Solution, RrmError> {
        prepared(data, space, o)?.solve_rrr(k, &Budget::UNLIMITED)
    }

    /// One RRM query through a fresh handle.
    fn run_rrm(
        data: &Dataset,
        r: usize,
        space: &dyn UtilitySpace,
        o: MdrrrROptions,
    ) -> Result<Solution, RrmError> {
        prepared(data, space, o)?.solve_rrm(r, &Budget::UNLIMITED)
    }

    #[test]
    fn hits_every_sampled_kset() {
        let data = independent(100, 3, 51);
        let sol = run_rrr(&data, 3, &FullSpace::new(3), opts(3000, 52)).unwrap();
        // Regret over a fresh sample shouldn't stray far above k on this
        // easy instance (no guarantee, but the mechanism must basically
        // work).
        let est = estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(3), 3000, 53);
        assert!(est.max_rank <= 12, "estimated regret {}", est.max_rank);
        assert_eq!(sol.certified_regret, None);
        assert_eq!(sol.algorithm, Algorithm::MdrrrR);
    }

    #[test]
    fn rrm_adapter_respects_budget() {
        let data = anticorrelated(300, 3, 54);
        for r in [4usize, 8] {
            let sol = run_rrm(&data, r, &FullSpace::new(3), opts(2000, 55)).unwrap();
            assert!(sol.size() <= r, "r={r}: {}", sol.size());
        }
    }

    #[test]
    fn supports_restricted_space() {
        let data = anticorrelated(200, 4, 56);
        let space = WeakRankingSpace::new(4, 2);
        let sol = run_rrm(&data, 8, &space, opts(2000, 57)).unwrap();
        assert!(sol.size() <= 8);
        // Output must do reasonably on the restricted space itself.
        let est = estimate_rank_regret_seq(&data, &sol.indices, &space, 3000, 58);
        assert!(est.max_rank < data.n() / 2);
    }

    #[test]
    fn fewer_samples_weaker_quality() {
        // The no-guarantee failure mode: with very few samples the hitting
        // set misses regions. We only check it still returns something
        // valid and small.
        let data = anticorrelated(400, 4, 59);
        let sol = run_rrr(&data, 2, &FullSpace::new(4), opts(20, 60)).unwrap();
        assert!(!sol.indices.is_empty());
    }

    #[test]
    fn tiny_cache_budget_same_answer() {
        // Budget 0 keeps no lists between probes: no deep pass, and every
        // probe scores afresh at its own k. Here the coarse bound (14)
        // sits below the final threshold (21), so the default run also
        // deepens its lists past the deep pass.
        let data = anticorrelated(300, 3, 4);
        let space = FullSpace::new(3);
        let o = opts(1000, 104);
        let want = run_rrm(&data, 4, &space, o).unwrap();
        let coarse = want.report.as_ref().unwrap().curve[0].1.upper;
        assert!(coarse < want.bounds.unwrap().upper, "coarse {coarse} vs {:?}", want.bounds);
        let tiny = SampledSearch { cache_budget_entries: 0, ..SampledSearch::new(&data, 4, o) };
        let dirs = sampled_dirs(&space, o);
        let got = tiny.solve(&dirs, AnytimeSearch::unlimited(), &ListCache::default()).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn kset_family_reads_prefixes_and_dedups() {
        let lists = vec![vec![4, 1, 9], vec![1, 4, 2], vec![9, 4, 1], vec![2]];
        assert_eq!(kset_family(&lists, 2), vec![vec![1, 4], vec![2], vec![4, 9]]);
        assert_eq!(kset_family(&lists, 3), vec![vec![1, 2, 4], vec![1, 4, 9], vec![2]]);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let data = independent(50, 3, 61);
        assert!(run_rrr(&data, 2, &FullSpace::new(4), opts(100, 62)).is_err());
    }
}
