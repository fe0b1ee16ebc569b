//! Shared machinery for the HD algorithms: the batch top-1 kernel, and
//! the top-k list source behind the anytime cover search that HDRRM and
//! MDRRRr run.
//! All dot products route through the blocked SoA kernel
//! ([`rrm_core::kernel`]); top-k lists come from
//! [`rrm_core::rank::batch_top_k_until`].
//!
//! A list source may *stop* its lists: each list then ends right after
//! its best-ranked member of `stops`. HDRRM stops at its basis `B`. ASMS
//! drops every direction whose top-k prefix holds a basis tuple, so for
//! every threshold up to the kept depth a stopped prefix either equals
//! the full prefix or holds the same first basis tuple, and every cover
//! is the one full lists give.
//!
//! A list source computes lists as deep as the search will read them: to
//! its deep pass's depth, the first doubling probe at or above the
//! search's bound, or else to `2k`, the next doubling probe. A threshold
//! search over greedy covers that are monotone in `k` then scores its
//! frame once.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rrm_core::kernel::{self, ScoreScratch};
use rrm_core::memo::lock;
use rrm_core::rank::batch_top_k_until;
use rrm_core::{Dataset, Parallelism, PREPARED_CACHE_CAP};

/// Default memory budget for keeping top-k lists between probes, in
/// entries (`|D| · k`): 64M `u32` entries = 256 MB.
pub(crate) const DEFAULT_CACHE_BUDGET_ENTRIES: usize = 64 << 20;

/// Top-k index lists, one per direction, best first, shared by the
/// probes that read them.
pub(crate) type TopkLists = Arc<Vec<Vec<u32>>>;

/// Kept top-k lists: per key (a direction set's sample count), the
/// deepest lists computed so far. A kept depth `D` means each list is the
/// top-`D` prefix, cut after its stop when the source stops. A prepared
/// handle shares one across its queries; the coarse pass of a search
/// holds its own. At most [`PREPARED_CACHE_CAP`] keys are kept, and a
/// kept key's lists only deepen.
pub(crate) type ListCache = Mutex<HashMap<usize, (usize, TopkLists)>>;

/// The top-k lists one threshold search reads.
///
/// A probe at threshold `k` reads only each list's first `k` entries (the
/// prefix property ASMS and the k-set family rely on), so one deep list
/// set serves every shallower probe. A list set is computed only when no
/// kept one is deep enough, and then as deep as the search will read it
/// next: the deep pass's depth for a probe at or below it, else `2k`, the
/// threshold search's next doubling probe. Either depth is clamped to `n`
/// and to the deepest level that fits `budget_entries`, and never below
/// `k`. Lists are kept in `cache` while `dirs × depth` fits the budget;
/// above it they are computed per probe and not kept.
pub(crate) struct ListSource<'a> {
    pub data: &'a Dataset,
    pub dirs: &'a [Vec<f64>],
    pub pol: Parallelism,
    pub budget_entries: usize,
    /// Depth of the one deep pass: the first doubling probe at or above a
    /// bound on the search's answer (a power of two at or above its
    /// incumbent's upper bound), or the one threshold of a single cover.
    /// The first probe at or below it computes lists this deep, so the
    /// doubling and binary probes under it never score again. Zero
    /// disables the deep pass.
    pub deep: usize,
    /// The cache and the key `dirs`' lists are kept under. Queries
    /// sharing a cache may evict and refill an entry under each other;
    /// lists are a deterministic function of the rows, `dirs` and
    /// `stops`, so that only duplicates work. Every source of one cache
    /// passes the same `stops`.
    pub cache: &'a ListCache,
    pub key: usize,
    /// Each list ends right after its best-ranked member of these
    /// tuples ([`batch_top_k_until`]); empty for full lists.
    pub stops: &'a [u32],
}

impl ListSource<'_> {
    /// Whether lists `depth` deep fit the budget, and so are kept.
    pub fn fits(&self, depth: usize) -> bool {
        self.dirs.len().saturating_mul(depth) <= self.budget_entries
    }

    /// Lists at least `k` deep, one per direction of `dirs`, and their
    /// depth.
    pub fn lists(&self, k: usize) -> (usize, TopkLists) {
        let kept = lock(self.cache).get(&self.key).filter(|(depth, _)| *depth >= k).cloned();
        if let Some(kept) = kept {
            return kept;
        }
        let want = if k <= self.deep { self.deep } else { 2 * k };
        let fitting = self.budget_entries / self.dirs.len().max(1);
        let depth = want.min(self.data.n()).min(fitting).max(k);
        let keep = self.fits(depth);
        if keep {
            // Free the shallower lists first, so two levels never sit in
            // memory at once.
            lock(self.cache).remove(&self.key);
        }
        let lists = Arc::new(batch_top_k_until(self.data, self.dirs, depth, self.stops, self.pol));
        if keep {
            self.keep(depth, lists.clone());
        }
        (depth, lists)
    }

    fn keep(&self, depth: usize, lists: TopkLists) {
        let mut cache = lock(self.cache);
        match cache.get(&self.key) {
            // A concurrent query kept deeper lists meanwhile.
            Some((kept, _)) if *kept >= depth => {}
            // Deepening an entry never grows the entry count.
            Some(_) => {
                cache.insert(self.key, (depth, lists));
            }
            None if cache.len() < PREPARED_CACHE_CAP => {
                cache.insert(self.key, (depth, lists));
            }
            None => {}
        }
    }
}

/// Compute the top-1 score of the dataset for every direction, chunked
/// over `pol`'s worker threads (the denominator of the regret-ratio in
/// MDRMS). Output order follows `dirs`.
///
/// Uses the kernel's fused maximum — no `n`-length score vector is
/// materialized. The fold order (ascending tuple index, `f64::max`)
/// matches the previous row-major implementation bit for bit.
pub fn batch_top1_scores(data: &Dataset, dirs: &[Vec<f64>], pol: Parallelism) -> Vec<f64> {
    let soa = data.soa();
    let chunk = rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    let per_chunk = rrm_par::par_chunks(dirs, chunk, pol, |_, dirs_chunk| {
        let mut scratch = ScoreScratch::new();
        dirs_chunk.iter().map(|u| kernel::max_score(soa, u, &mut scratch)).collect::<Vec<f64>>()
    });
    per_chunk.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rrm_core::rank::batch_top_k;
    use rrm_core::sampling::orthant_direction;
    use rrm_core::utility;
    use rrm_data::synthetic::independent;

    fn dirs(d: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count).map(|_| orthant_direction(d, &mut rng)).collect()
    }

    #[test]
    fn batch_top1_matches_serial() {
        let data = independent(200, 3, 4);
        let dirs = dirs(3, 30, 5);
        for pol in [Parallelism::Sequential, Parallelism::Fixed(3)] {
            let tops = batch_top1_scores(&data, &dirs, pol);
            for (u, &got) in dirs.iter().zip(&tops) {
                let scores = utility::utilities(&data, u);
                let want = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(got, want, "{pol:?}");
            }
        }
    }

    #[test]
    fn empty_dirs() {
        let data = independent(10, 2, 6);
        assert!(batch_top1_scores(&data, &[], Parallelism::Auto).is_empty());
    }

    fn source<'a>(
        data: &'a Dataset,
        dirs: &'a [Vec<f64>],
        budget_entries: usize,
        deep: usize,
        cache: &'a ListCache,
    ) -> ListSource<'a> {
        let pol = Parallelism::Sequential;
        ListSource { data, dirs, pol, budget_entries, deep, cache, key: 0, stops: &[] }
    }

    fn kept_depth(cache: &ListCache) -> Option<usize> {
        lock(cache).get(&0).map(|(depth, _)| *depth)
    }

    #[test]
    fn deep_pass_serves_every_probe_at_or_below_it() {
        let data = independent(300, 4, 1);
        let dirs = dirs(4, 40, 2);
        let fresh = |k| batch_top_k(&data, &dirs, k, Parallelism::Sequential);
        let cache = ListCache::default();
        let src = source(&data, &dirs, usize::MAX, 24, &cache);
        // The first probe computes the deep level; later shallower probes
        // are prefixes of it.
        let (depth, deep) = src.lists(1);
        assert_eq!((depth, &*deep), (24, &fresh(24)));
        assert_eq!(kept_depth(&cache), Some(24));
        for k in [2, 16, 24] {
            assert!(Arc::ptr_eq(&src.lists(k).1, &deep), "k={k} rescored");
        }
        // Above the deep level the lists deepen to 2k, the next doubling
        // probe, and replace the kept ones; every probe up to 2k reads
        // them.
        let (depth, doubled) = src.lists(40);
        assert_eq!((depth, &*doubled), (80, &fresh(80)));
        assert_eq!(kept_depth(&cache), Some(80));
        for k in [25, 41, 64, 80] {
            assert!(Arc::ptr_eq(&src.lists(k).1, &doubled), "k={k} rescored");
        }
        // 2k is clamped to n.
        let (depth, all) = src.lists(200);
        assert_eq!((depth, &*all), (300, &fresh(300)));
        assert_eq!(kept_depth(&cache), Some(300));
    }

    #[test]
    fn budget_caps_what_is_kept() {
        let data = independent(300, 3, 3);
        let dirs = dirs(3, 10, 4);
        let fresh = |k| batch_top_k(&data, &dirs, k, Parallelism::Sequential);
        // 10 dirs × 24 deep exceeds 100 entries: the deep pass is clamped
        // to the 10 levels that fit, and only levels within the budget are
        // kept.
        let cache = ListCache::default();
        let src = source(&data, &dirs, 100, 24, &cache);
        assert_eq!(src.lists(4), (10, Arc::new(fresh(10))));
        assert_eq!(kept_depth(&cache), Some(10));
        assert_eq!(src.lists(16), (16, Arc::new(fresh(16))));
        assert_eq!(kept_depth(&cache), Some(10), "over-budget lists must not replace kept ones");
        // With no deep pass, 2k is clamped to the budget the same way.
        let doubling = ListCache::default();
        let src = source(&data, &dirs, 100, 0, &doubling);
        assert_eq!(src.lists(3), (6, Arc::new(fresh(6))));
        assert_eq!(kept_depth(&doubling), Some(6));
        assert_eq!(src.lists(7), (10, Arc::new(fresh(10))));
        assert_eq!(kept_depth(&doubling), Some(10));
        let empty = ListCache::default();
        let none = source(&data, &dirs, 0, 24, &empty);
        assert_eq!(none.lists(2), (2, Arc::new(fresh(2))));
        assert_eq!(kept_depth(&empty), None);
    }

    #[test]
    fn keep_never_replaces_deeper_lists() {
        let data = independent(20, 2, 5);
        let cache = ListCache::default();
        let src = source(&data, &[], usize::MAX, 0, &cache);
        let lists: TopkLists = Arc::new(vec![vec![3, 1, 2]]);
        src.keep(3, lists.clone());
        src.keep(2, Arc::new(vec![vec![3, 1]]));
        assert!(Arc::ptr_eq(&src.lists(3).1, &lists), "a shallower keep is ignored");
    }
}
