//! Shared machinery for the HD algorithms: the batch top-1 kernel, and
//! the top-k list source behind HDRRM's and MDRRRr's threshold searches.
//! All dot products route through the blocked SoA kernel
//! ([`rrm_core::kernel`]); top-k lists come from
//! [`rrm_core::rank::batch_top_k`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use rrm_core::kernel::{self, ScoreScratch};
use rrm_core::rank::batch_top_k;
use rrm_core::{Dataset, Parallelism, PREPARED_CACHE_CAP};

/// Default memory budget for keeping top-k lists between probes, in
/// entries (`|D| · k`): 64M `u32` entries = 256 MB.
pub(crate) const DEFAULT_CACHE_BUDGET_ENTRIES: usize = 64 << 20;

/// Top-k index lists, one per direction, best first, shared by the
/// probes that read them.
pub(crate) type TopkLists = Arc<Vec<Vec<u32>>>;

/// Kept top-k lists: per key (a direction set's sample count), the
/// deepest lists computed so far. A prepared handle shares one across
/// its queries; the coarse pass of a search holds its own.
pub(crate) type ListCache = Mutex<HashMap<usize, (usize, TopkLists)>>;

/// The top-k lists one threshold search reads.
///
/// A probe at threshold `k` reads only each list's first `k` entries (the
/// prefix property ASMS and the k-set family rely on), so one deep list
/// set serves every shallower probe. Lists are kept in `cache` while
/// `dirs × depth` fits `budget_entries`; above it they are computed per
/// probe and not kept.
pub(crate) struct ListSource<'a> {
    pub data: &'a Dataset,
    pub dirs: &'a [Vec<f64>],
    pub pol: Parallelism,
    pub budget_entries: usize,
    /// Depth of the one deep pass: a bound on the search's answer, such
    /// as its incumbent's upper bound, clamped to `n`. The first probe at
    /// or below it computes lists this deep, so the doubling and binary
    /// probes under it never score again. Probes above it deepen the
    /// lists to their own `k`. Zero disables the deep pass.
    pub deep: usize,
    /// The cache and the key `dirs`' lists are kept under. Queries
    /// sharing a cache may evict and refill an entry under each other;
    /// lists are a deterministic function of the rows and `dirs`, so that
    /// only duplicates work.
    pub cache: &'a ListCache,
    pub key: usize,
}

impl ListSource<'_> {
    fn lock(&self) -> MutexGuard<'_, HashMap<usize, (usize, TopkLists)>> {
        self.cache.lock().expect("top-k cache poisoned")
    }

    fn fits(&self, depth: usize) -> bool {
        self.dirs.len().saturating_mul(depth) <= self.budget_entries
    }

    /// Lists at least `k` deep, one per direction of `dirs`.
    pub fn lists(&self, k: usize) -> TopkLists {
        let kept = self.lock().get(&self.key).filter(|(depth, _)| *depth >= k).map(|e| e.1.clone());
        if let Some(lists) = kept {
            return lists;
        }
        let depth = if k <= self.deep && self.fits(self.deep) { self.deep } else { k };
        let keep = self.fits(depth);
        if keep {
            // Free the shallower lists first, so two levels never sit in
            // memory at once.
            self.lock().remove(&self.key);
        }
        let lists = Arc::new(batch_top_k(self.data, self.dirs, depth, self.pol));
        if keep {
            self.keep(depth, lists.clone());
        }
        lists
    }

    fn keep(&self, depth: usize, lists: TopkLists) {
        let mut cache = self.lock();
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
        ListSource { data, dirs, pol, budget_entries, deep, cache, key: 0 }
    }

    fn kept_depth(cache: &ListCache) -> Option<usize> {
        cache.lock().unwrap().get(&0).map(|(depth, _)| *depth)
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
        assert_eq!(*src.lists(1), fresh(24));
        assert_eq!(kept_depth(&cache), Some(24));
        for k in [2, 16, 24] {
            assert!(Arc::ptr_eq(&src.lists(k), &src.lists(1)), "k={k} rescored");
        }
        // Above the deep level the lists deepen to the probe's own k, and
        // replace the kept ones.
        assert_eq!(*src.lists(40), fresh(40));
        assert_eq!(kept_depth(&cache), Some(40));
    }

    #[test]
    fn budget_caps_what_is_kept() {
        let data = independent(300, 3, 3);
        let dirs = dirs(3, 10, 4);
        // 10 dirs × 24 deep exceeds 100 entries: no deep pass, and only
        // levels within the budget are kept.
        let cache = ListCache::default();
        let src = source(&data, &dirs, 100, 24, &cache);
        assert_eq!(src.lists(4).iter().map(Vec::len).max(), Some(4));
        assert_eq!(kept_depth(&cache), Some(4));
        assert_eq!(src.lists(16).iter().map(Vec::len).max(), Some(16));
        assert_eq!(kept_depth(&cache), Some(4), "over-budget lists must not replace kept ones");
        let empty = ListCache::default();
        let none = source(&data, &dirs, 0, 24, &empty);
        assert_eq!(none.lists(2).iter().map(Vec::len).max(), Some(2));
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
        assert!(Arc::ptr_eq(&src.lists(3), &lists), "a shallower keep is ignored");
    }
}
