//! The anytime bound-and-prune cover search shared by the hard HD
//! solvers.
//!
//! Every search in the crate runs on [`threshold_search`], the
//! workspace's one doubling-then-binary search (in [`rrm_core::anytime`],
//! beside [`AnytimeSearch`]): [`CoverSearch`], MDRRR's k-set search, the
//! sampled tier's RRM solve, and [`rrr_via_rrm_search_with`]. Probe
//! closures do the domain work: computing the candidate set, counting
//! expanded nodes, offering incumbents. An early stop returns the
//! incumbent with sound [`Bounds`] instead of failing.
//!
//! [`CoverSearch`] is the one anytime cover search. HDRRM (Algorithm 3)
//! and MDRRRr both look for the smallest threshold `k` at which a greedy
//! cover of the directions' top-`k` lists fits `r` tuples. HDRRM covers
//! every list, with the basis forced in and the skyline as candidates,
//! and stops each list at its first basis tuple; MDRRRr covers the
//! distinct k-sets among full lists, with neither.
//!
//! An RRM search scores its frame in one deep pass, to the first doubling
//! probe at or above its coarse incumbent's bound, and deepens the lists
//! to `2k` only when a probe reads past them. HDRRM's probes over one list
//! set share one [`CoverIndex`], which the search keeps while it probes
//! that set and which each probe extends to its own depth, so a probe
//! walks only the candidate entries of the directions it covers.
//!
//! A warm search scores nothing its handle keeps. It takes one snapshot
//! of the frame's kept lists: the coarse pass starts from their prefix,
//! and the frame-wide bound of each incumbent before the deep pass (the
//! coarse answer's `U`, a limited search's fallback's) is one plus the
//! position of the set's first member in each list, counted only for the
//! directions whose list holds none ([`max_rank_regret_kept`]). Kept lists
//! are exact prefixes of the order the count ranks in, so `U`, the deep
//! pass's depth, every answer, node and prune, and every curve bound are
//! a cold search's. The snapshot is let go before the deep pass.

use std::sync::Arc;

use rrm_core::approx::sample_directions;
use rrm_core::memo::lock;
use rrm_core::rank::max_rank_regret;
use rrm_core::{
    threshold_search, Algorithm, AnytimeSearch, Bounds, Budget, Dataset, ExecPolicy, Parallelism,
    RrmError, Solution, TerminatedBy, ThresholdOutcome, UtilitySpace,
};

use crate::asms::{asms_with_topk_capped, AsmsProbe, CoverIndex};
use crate::common::{max_rank_regret_kept, ListCache, ListSource, TopkLists};
use crate::mdrrr_r::kset_family;

/// Fraction of the frame used as the coarse frame (its *prefix*, so
/// coarse infeasibility implies full-frame infeasibility).
const COARSE_FRACTION: usize = 16;
/// Below this many coarse directions the coarse pass is skipped: the full
/// solve is already fast and the extra pass would not pay for itself.
const COARSE_MIN_DIRS: usize = 16;

/// The anytime cover search over one direction frame: HDRRM's ASMS
/// search and MDRRRr's k-set hitting search.
///
/// A probe at threshold `k` is ASMS's greedy cover
/// ([`asms_with_topk_capped`]) of the frame's top-`k` lists, or of the
/// distinct k-sets among them ([`kset_family`]) when `ksets` is set. The
/// answer certifies its threshold only when the algorithm has a regret
/// guarantee ([`Algorithm::has_regret_guarantee`]); otherwise its bounds
/// hold over the frame alone.
pub(crate) struct CoverSearch<'a> {
    pub data: &'a Dataset,
    /// Whose answer this is.
    pub algorithm: Algorithm,
    /// Tuples every answer holds (HDRRM's basis `B`), sorted.
    pub basis: &'a [u32],
    /// Each top-k list ends right after its best-ranked member of these
    /// tuples. Exact only when every cover that reads the lists forces
    /// them all into its answer, so HDRRM passes its basis, and passes
    /// nothing when its RRM and RRR covers force different sets into
    /// answers over one cache. MDRRRr's k-sets need full lists.
    pub stops: &'a [u32],
    /// Tuples the cover may choose (HDRRM's skyline); `None` for any.
    pub mask: Option<&'a [bool]>,
    /// Cover the distinct k-sets among the lists (MDRRRr) instead of
    /// every list (HDRRM).
    pub ksets: bool,
    /// Abort a cover once it provably exceeds `r` tuples. Greedy picks
    /// are monotone and deterministic, so this never changes an answer.
    pub prune: bool,
    pub pol: Parallelism,
    /// Most list entries (`|dirs| · k`) kept between probes; the one deep
    /// pass runs only when it fits.
    pub cache_budget_entries: usize,
}

impl CoverSearch<'_> {
    /// RRM over the frame `dirs`: the smallest threshold whose cover fits
    /// `r` tuples. `cache` keeps the frame's top-k lists under `key`
    /// across queries.
    ///
    /// Under a limit a fallback incumbent comes first; then the coarse
    /// incumbent, whose frame-wide bound `U` sets the depth of the one
    /// deep top-k pass (the first doubling probe at or above `U`); then
    /// the doubling-then-binary search, whose probes read prefixes of the
    /// kept lists. Both incumbents' bounds and the coarse pass read the
    /// lists `cache` already keeps for the frame, and score only what those
    /// lists do not reach; with nothing kept they score the whole frame.
    /// An early stop returns the best incumbent with sound [`Bounds`].
    /// Without a time limit the answer is bit-identical at any thread
    /// count.
    pub fn solve_rrm(
        &self,
        r: usize,
        dirs: &[Vec<f64>],
        mut search: AnytimeSearch,
        cache: &ListCache,
        key: usize,
    ) -> Result<Solution, RrmError> {
        let minimum = self.basis.len().max(1);
        if r < minimum {
            return Err(RrmError::OutputSizeTooSmall { requested: r, minimum });
        }
        self.check_frame(dirs)?;
        // The frame's kept lists, read by the incumbents' bounds and the
        // coarse pass alone.
        let kept = lock(cache).get(&key).cloned();
        // A measured, sound frame-relative upper bound for a candidate.
        let regret = |set: &[u32]| {
            let lists = kept.as_ref().map(|(_, lists)| lists.as_slice());
            max_rank_regret_kept(self.data, dirs, set, lists, self.pol)
                .expect("the frame is not empty")
        };
        if search.is_limited() {
            let fallback = uniform_top_set(self.data, self.basis, r);
            let upper = regret(&fallback);
            search.offer(fallback, upper, 1);
        }
        // Coarse-to-fine first incumbent: the whole search on a prefix of
        // the frame, whose answer fits `r`, measured over the full frame.
        // Its private cache starts with the kept lists' prefix. Coarse
        // probes never consume the probe budget; their nodes and prunes
        // join the main report.
        let coarse = &dirs[..dirs.len() / COARSE_FRACTION];
        if coarse.len() >= COARSE_MIN_DIRS {
            let seeded = ListCache::default();
            if let Some((depth, lists)) = &kept {
                lock(&seeded).insert(0, (*depth, Arc::new(lists[..coarse.len()].to_vec())));
            }
            let mut sub = AnytimeSearch::unlimited();
            let outcome = self.search(r, &self.source(coarse, 0, &seeded, 0), &mut sub)?;
            search.report.nodes += sub.report.nodes;
            search.report.pruned_probes += sub.report.pruned_probes;
            if let Some((_, q)) = outcome.best {
                let upper = regret(&q);
                search.offer(q, upper, 1);
            }
        }
        // Let the snapshot go, so the deep pass never holds two list sets.
        drop(kept);
        // The deep pass goes to the first doubling probe at or above the
        // incumbent's bound, so a search whose greedy covers are monotone
        // never scores the frame again.
        let deep = search.incumbent.upper().map_or(0, usize::next_power_of_two);
        let outcome = self.search(r, &self.source(dirs, deep, cache, key), &mut search)?;
        let sol = match outcome.terminated {
            TerminatedBy::Completed => {
                // At k = n every list holds every tuple, so the basis or a
                // single pick covers the frame.
                let (k, q) = outcome.best.expect("a cover at k = n fits r");
                Solution::new(q, self.certified(k), self.algorithm, self.data)?
                    .with_bounds(Bounds { lower: k, upper: k })
            }
            t => {
                let (q, upper) = search
                    .incumbent
                    .best()
                    .expect("a limited search offers a fallback incumbent before searching");
                Solution::new(q, self.certified(upper), self.algorithm, self.data)?
                    .with_bounds(Bounds { lower: outcome.lower, upper })
                    .with_termination(t)
            }
        };
        Ok(sol.with_report(search.report))
    }

    /// RRR over the frame `dirs`: one uncapped cover at threshold `k`.
    pub fn solve_rrr(
        &self,
        k: usize,
        dirs: &[Vec<f64>],
        cache: &ListCache,
        key: usize,
    ) -> Result<Solution, RrmError> {
        if k == 0 {
            return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
        }
        self.check_frame(dirs)?;
        let k = k.min(self.data.n());
        // The one threshold is the deep pass: the lists go no deeper.
        let (_, lists) = self.source(dirs, k, cache, key).lists(k);
        let q = self.cover(k, &lists, usize::MAX).q;
        Solution::new(q, self.certified(k), self.algorithm, self.data)
    }

    /// The doubling-then-binary threshold search for size budget `r` over
    /// `source`'s lists.
    ///
    /// HDRRM's probes read one [`CoverIndex`] per list set, kept while
    /// the search probes that set: the source returns the same `Arc`
    /// while its kept lists are deep enough, and the held `Arc` keeps the
    /// comparison sound. Lists the next probe cannot read, or that the
    /// source does not keep, are let go before it computes new ones, so
    /// two list sets never sit in memory at once.
    fn search(
        &self,
        r: usize,
        source: &ListSource<'_>,
        search: &mut AnytimeSearch,
    ) -> Result<ThresholdOutcome<Vec<u32>>, RrmError> {
        let n = self.data.n();
        let cap = if self.prune { r - self.basis.len() } else { usize::MAX };
        let mut held: Option<(usize, TopkLists, CoverIndex<'_>)> = None;
        threshold_search(n, search, |k, lower, search| {
            if self.ksets {
                let (_, lists) = source.lists(k);
                return Ok(self.settle(r, k, self.cover(k, &lists, cap), lower, search));
            }
            if held.as_ref().is_some_and(|(depth, ..)| *depth < k || !source.fits(*depth)) {
                held = None;
            }
            let (depth, lists) = source.lists(k);
            if !held.as_ref().is_some_and(|(_, kept, _)| Arc::ptr_eq(kept, &lists)) {
                let index = CoverIndex::new(n, self.basis, self.mask, &lists);
                held = Some((depth, lists, index));
            }
            let (_, lists, index) = held.as_mut().expect("an index over the probed lists");
            let probe = index.probe(lists, k, cap);
            Ok(self.settle(r, k, probe, lower, search))
        })
    }

    /// An empty frame has nothing to cover: a typed error, rather than an
    /// empty answer or a vacuous certificate.
    fn check_frame(&self, dirs: &[Vec<f64>]) -> Result<(), RrmError> {
        if dirs.is_empty() {
            return Err(RrmError::Unsupported(format!(
                "{} needs at least one direction to cover (samples >= 1)",
                self.algorithm
            )));
        }
        Ok(())
    }

    fn certified(&self, k: usize) -> Option<usize> {
        self.algorithm.has_regret_guarantee().then_some(k)
    }

    /// The greedy cover at threshold `k`, capped at `cap` picks, as one
    /// probe of a fresh index.
    fn cover(&self, k: usize, lists: &[Vec<u32>], cap: usize) -> AsmsProbe {
        let n = self.data.n();
        if self.ksets {
            asms_with_topk_capped(n, k, self.basis, &kset_family(lists, k), self.mask, cap)
        } else {
            asms_with_topk_capped(n, k, self.basis, lists, self.mask, cap)
        }
    }

    /// Settle one feasibility probe at threshold `k` for size budget `r`
    /// from its cover, capped at `r - |B|` picks when pruning (picks never
    /// overlap the basis, so more of them prove infeasibility). Counts the
    /// cover's picks as nodes, records prunes, and offers a cover that
    /// fits as an incumbent (its threshold bounds the frame's regret).
    fn settle(
        &self,
        r: usize,
        k: usize,
        probe: AsmsProbe,
        lower: usize,
        search: &mut AnytimeSearch,
    ) -> Option<Vec<u32>> {
        search.note_nodes(probe.picks);
        if !probe.complete {
            search.note_pruned_probe();
            return None;
        }
        if probe.q.len() > r {
            return None;
        }
        search.offer(probe.q.clone(), k, lower);
        Some(probe.q)
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
            stops: self.stops,
        }
    }
}

/// RRR for solvers with no representative mode of their own (MDRC,
/// MDRMS): the smallest size `r` whose `solve_rrm(r)` answer meets the
/// threshold `k`, found by [`threshold_search`] over `r`. The regret is
/// *estimated* on a deterministic direction sample, so the answer keeps
/// the inner solver's (lack of) certificate. The estimate is chunked
/// over `exec`'s threads and identical at any thread count.
pub(crate) fn rrr_via_rrm_search_with(
    name: &str,
    data: &Dataset,
    k: usize,
    space: &dyn UtilitySpace,
    budget: &Budget,
    exec: ExecPolicy,
    mut solve_rrm: impl FnMut(usize) -> Result<Solution, RrmError>,
) -> Result<Solution, RrmError> {
    if k == 0 {
        return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
    }
    let n = data.n();
    let dirs = sample_directions(space, budget.samples.unwrap_or(512).max(1), 0x5EA7C4);
    let outcome = threshold_search(n, &mut AnytimeSearch::unlimited(), |r, _, _| {
        match solve_rrm(r) {
            Ok(sol) => {
                let est = max_rank_regret(data, &dirs, &sol.indices, exec.parallelism)
                    .expect("at least one direction");
                Ok((est <= k).then_some(sol))
            }
            // "This r is below the solver's minimum output size" is an
            // expected probe outcome; the search just moves to a larger r.
            Err(RrmError::OutputSizeTooSmall { .. }) => Ok(None),
            // Everything else — notably `Internal` contract violations —
            // must surface, not be mistaken for infeasibility.
            Err(e) => Err(e),
        }
    })?;
    outcome.best.map(|(_, sol)| sol).ok_or_else(|| {
        RrmError::Unsupported(format!(
            "{name} could not reach rank-regret <= {k} even with r = {n}"
        ))
    })
}

/// A deterministic fallback representative: `seed` tuples (a basis, or
/// nothing) topped up to `r` with the best scorers under the uniform
/// direction. Offered as the first incumbent when the search is limited,
/// so every early stop has *something* sound to return.
pub(crate) fn uniform_top_set(data: &Dataset, seed: &[u32], r: usize) -> Vec<u32> {
    let n = data.n();
    let u = vec![1.0; data.dim()];
    let scores = rrm_core::utility::utilities(data, &u);
    let order = rrm_core::rank::argsort_desc(&scores);
    let mut set: Vec<u32> = seed.to_vec();
    let mut in_set = vec![false; n];
    for &s in seed {
        in_set[s as usize] = true;
    }
    for &t in &order {
        if set.len() >= r.min(n).max(1) {
            break;
        }
        if !in_set[t as usize] {
            in_set[t as usize] = true;
            set.push(t);
        }
    }
    set.sort_unstable();
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::FullSpace;
    use rrm_data::synthetic::independent;

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
    fn rrr_search_propagates_internal_errors() {
        // The RRR-via-RRM fallback must surface a misbehaving inner
        // solver's Internal error, not translate it into "infeasible".
        let data = table1();
        let err = rrr_via_rrm_search_with(
            "broken",
            &data,
            3,
            &FullSpace::new(2),
            &Budget::with_samples(16),
            ExecPolicy::default(),
            // Empty output: the contract violation Solution::new types.
            |_| Solution::new(vec![], None, Algorithm::Mdrc, &data),
        )
        .unwrap_err();
        assert!(matches!(&err, RrmError::Internal(msg) if msg.contains("empty")), "{err}");
    }

    #[test]
    fn rrr_search_doubles_then_bisects_the_size() {
        // Row i is (i, i): row 0 ranks last everywhere, so {0} never meets
        // the threshold, while the whole dataset does. The predicate turns
        // feasible at r = 13.
        let rows: Vec<[f64; 2]> = (0..100).map(|i| [i as f64, i as f64]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let mut probed = Vec::new();
        let sol = rrr_via_rrm_search_with(
            "pinned",
            &data,
            1,
            &FullSpace::new(2),
            &Budget::with_samples(16),
            ExecPolicy::default(),
            |r| {
                probed.push(r);
                let ids = if r >= 13 { (0..100).collect() } else { vec![0] };
                Solution::new(ids, None, Algorithm::Mdrc, &data)
            },
        )
        .unwrap();
        assert_eq!(probed, vec![1, 2, 4, 8, 16, 12, 14, 13]);
        assert_eq!(sol.size(), 100);
    }

    #[test]
    fn uniform_top_set_is_deterministic_and_sized() {
        let data = independent(50, 3, 5);
        let a = uniform_top_set(&data, &[3, 9], 8);
        let b = uniform_top_set(&data, &[3, 9], 8);
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        assert!(a.contains(&3) && a.contains(&9));
        let solo = uniform_top_set(&data, &[], 1);
        assert_eq!(solo.len(), 1);
    }
}
