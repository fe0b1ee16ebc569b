//! **MDRRRr** — the randomized k-set baseline of Asudeh et al.
//!
//! Instead of exact region enumeration, sample directions, collect the
//! distinct top-k sets observed, and hit those. Faster
//! (`O(|W|(nd + k log k))` in the paper's accounting), works for
//! restricted spaces, but the output's rank-regret is **not** guaranteed —
//! unsampled k-set regions can be missed, which is exactly the quality gap
//! the paper's figures display at scale.
//!
//! The directions are `rrm_core::approx::sample_directions(space,
//! samples, seed)`. Queries run on the anytime cover search HDRRM runs,
//! with no basis, no candidate mask, and each threshold's distinct k-sets
//! (`kset_family`) as the universe: RRM searches the smallest threshold
//! whose hitting set fits `r`, RRR hits one threshold's k-sets. The answer
//! certifies nothing; its bounds hold over the sampled directions only.

use rrm_core::{Algorithm, Dataset, Parallelism};

use crate::anytime::CoverSearch;
use crate::common::DEFAULT_CACHE_BUDGET_ENTRIES;

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
}

impl Default for MdrrrROptions {
    fn default() -> Self {
        Self { samples: 20_000, seed: 0x5EED, prune: true }
    }
}

/// MDRRRr's cover search over `opts.samples` directions, its k-set
/// discovery scoring chunked under `pol`: no basis, no candidate mask,
/// and each threshold's distinct k-sets as the universe.
pub(crate) fn cover_search(
    data: &Dataset,
    opts: MdrrrROptions,
    pol: Parallelism,
) -> CoverSearch<'_> {
    CoverSearch {
        data,
        algorithm: Algorithm::MdrrrR,
        basis: &[],
        stops: &[],
        mask: None,
        ksets: true,
        prune: opts.prune,
        pol,
        cache_budget_entries: DEFAULT_CACHE_BUDGET_ENTRIES,
    }
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
    use crate::common::ListCache;
    use rrm_core::approx::sample_directions;
    use rrm_core::{
        AnytimeSearch, Bounds, Budget, ExecPolicy, FullSpace, PreparedSolver, RrmError, Solution,
        Solver, UtilitySpace, WeakRankingSpace,
    };
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
        let tiny = CoverSearch {
            cache_budget_entries: 0,
            ..cover_search(&data, o, Parallelism::default())
        };
        let dirs = sample_directions(&space, o.samples, o.seed);
        let got = tiny
            .solve_rrm(4, &dirs, AnytimeSearch::unlimited(), &ListCache::default(), o.samples)
            .unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn search_work_and_answer_are_pinned() {
        // One fixed instance: the probes the search runs, the prunes, and
        // the answer it returns.
        let data = anticorrelated(300, 3, 4);
        let sol = run_rrm(&data, 4, &FullSpace::new(3), opts(1000, 104)).unwrap();
        let report = sol.report.as_ref().unwrap();
        assert_eq!((report.nodes, report.pruned_probes), (102, 8));
        assert_eq!(sol.bounds, Some(Bounds { lower: 21, upper: 21 }));
        assert_eq!(sol.indices, vec![117, 186, 215, 236]);
        assert_eq!(sol.certified_regret, None);
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
