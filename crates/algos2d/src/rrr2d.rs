//! **2DRRR** — the 2D baseline of Asudeh et al. (SIGMOD 2019), adapted to
//! RRM as in the paper's experiments.
//!
//! For a threshold `k`, every candidate tuple contributes the window
//! `[first, last]` of weights where its rank is at most `k`. A straight
//! line that ranks ≤ k at two weights ranks ≤ 2k − 1 anywhere between them
//! (any line above it in the middle must be above it at one of the two
//! ends — lines cross once), so covering the weight range with the fewest
//! windows yields a set that is no larger than the optimal rank-k
//! representative while guaranteeing rank-regret ≤ 2k − 1.
//!
//! The windows are read off the crossings of the candidates with the
//! K-band for `K = k`: the rows that fewer than `k` others beat at both
//! ends of the weight range, whose ranks are exact up to `k`. The
//! doubling phase builds one band per probe; the halving phase reuses the
//! last. A prepare bins the rows into a dominance grid by their heights
//! at both ends of the range and sorts none of them: the candidates (the
//! restricted skyline) are read off the rows the grid finds no row
//! beating, and band `k` sorts only the rows it counts fewer than `k`
//! beaters for. A band's `s·|band|` crossings are materialized under the
//! same memory budget as 2DRRM's, and streamed strip by strip past it.
//!
//! The RRM adaptation searches the smallest `k` whose cover fits the size
//! budget `r` with the doubling + halving scheme of Section V-B.2
//! ("improved binary search"), the workspace's one
//! [`threshold_search`]. A minimum interval cover never grows as `k`
//! grows, so the search's probes find the smallest fitting threshold.

use rrm_core::{
    threshold_search, Algorithm, AnytimeSearch, Budget, Dataset, ExecPolicy, Memo, PreparedSolver,
    RrmError, Solution, UtilitySpace, PROBE_CACHE_CAP,
};
use rrm_setcover::interval::{cover_segment, Interval};

use crate::band::{Bands, Rows};
use crate::rrm2d::weight_interval;

const COVER_TOL: f64 = 1e-9;

/// **2DRRR** bound to one dataset and weight interval: the candidates are
/// computed once, the bands their windows are read from are built on
/// first use, and per-threshold covers are memoized, so repeated queries —
/// and the RRM adaptation's whole binary search — replay cached state.
pub struct PreparedRrr2d {
    data: Dataset,
    /// Tracks the restricted skyline, ascending.
    bands: Bands,
    covers: Memo<usize, Option<Vec<u32>>>,
}

impl PreparedRrr2d {
    /// Build the sweep state under `exec` (queries are identical at any
    /// thread count). The caller has run
    /// [`Algorithm::ensure_supported`] (`d = 2`).
    pub(crate) fn new(
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Self, RrmError> {
        let interval = weight_interval(space)?;
        let rows = Rows::new(data, interval)?;
        let sky = rows.skyline.clone();
        let bands = Bands::new(rows, sky, interval, exec.parallelism);
        Ok(Self { data: data.clone(), bands, covers: Memo::new(PROBE_CACHE_CAP) })
    }

    /// Read every window off one band holding every row: the all-rows
    /// stream the bands are checked against.
    #[cfg(test)]
    pub(crate) fn all_rows(mut self) -> Self {
        self.bands.all_rows();
        self
    }

    /// The rank ≤ k window `[first, last]` of every candidate, skipping
    /// candidates that never reach rank ≤ k.
    fn windows(&self, k: usize) -> Vec<Interval> {
        let band = self.bands.band(k);
        let sky = self.bands.tracked();
        let (c0, c1) = self.bands.interval();
        let row_of = &band.row_of;
        let mut lo: Vec<f64> = vec![f64::NAN; sky.len()];
        let mut hi: Vec<f64> = vec![f64::NAN; sky.len()];
        let mut rank: Vec<usize> = band.init_ranks.clone();
        // Initial state at c0.
        for (line, &i) in row_of.iter().enumerate() {
            if i != usize::MAX && rank[line] <= k {
                lo[i] = c0;
                hi[i] = c0;
            }
        }
        band.replay(|ev| {
            rank[ev.down as usize] += 1;
            rank[ev.up as usize] -= 1;
            // Entering the window (rank drops to k) or leaving it (rank
            // rises past k) both happen at ev.x.
            let i = row_of[ev.up as usize];
            if i != usize::MAX && rank[ev.up as usize] <= k {
                if lo[i].is_nan() {
                    lo[i] = ev.x;
                }
                hi[i] = ev.x;
            }
            let i = row_of[ev.down as usize];
            if i != usize::MAX && rank[ev.down as usize] == k + 1 && !lo[i].is_nan() {
                hi[i] = ev.x; // rank was ≤ k right up to this point
            }
        });
        // A line still within rank ≤ k at the end extends to c1.
        for (line, &i) in row_of.iter().enumerate() {
            if i != usize::MAX && rank[line] <= k && !lo[i].is_nan() {
                hi[i] = c1;
            }
        }
        sky.iter()
            .enumerate()
            .filter(|(i, _)| !lo[*i].is_nan())
            .map(|(i, &id)| Interval::new(lo[i], hi[i], id))
            .collect()
    }

    /// Minimum single-window cover for threshold `k`, memoized.
    pub(crate) fn cover(&self, k: usize) -> Option<Vec<u32>> {
        self.covers.get_or_build(k, || {
            let (c0, c1) = self.bands.interval();
            cover_segment(&self.windows(k), c0, c1, COVER_TOL)
                .map(|ivs| ivs.into_iter().map(|iv| iv.id).collect())
        })
    }
}

impl PreparedSolver for PreparedRrr2d {
    fn algorithm(&self) -> Algorithm {
        Algorithm::TwoDRrr
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// RRM via the smallest feasible threshold: the smallest `k` whose
    /// interval cover fits in `r` tuples (doubling then binary search, as
    /// the paper benchmarks it), with every probed cover memoized. When no
    /// threshold fits, the cover at `n`, truncated to `r`. The 2D solver
    /// takes no budget knobs; the budget is ignored.
    fn solve_rrm(&self, r: usize, _budget: &Budget) -> Result<Solution, RrmError> {
        if r == 0 {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let n = self.data.n();
        let fits = |k| Ok(self.cover(k).filter(|ids| ids.len() <= r));
        let outcome = threshold_search(n, &mut AnytimeSearch::unlimited(), |k, _, _| fits(k))?;
        let (k, mut ids) =
            outcome.best.unwrap_or_else(|| (n, self.cover(n).expect("k = n always covers")));
        ids.truncate(r);
        Solution::new(ids, Some((2 * k).saturating_sub(1)), Algorithm::TwoDRrr, &self.data)
    }

    /// RRR baseline: a set of size at most the optimal rank-`k`
    /// representative's size, with certified rank-regret at most `2k − 1`.
    fn solve_rrr(&self, k: usize, _budget: &Budget) -> Result<Solution, RrmError> {
        if k == 0 {
            return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
        }
        let ids = self.cover(k).expect(
            "rank-k windows always cover the range (the top-1 line is in every window set)",
        );
        Solution::new(ids, Some((2 * k).saturating_sub(1)), Algorithm::TwoDRrr, &self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rrm_core::FullSpace;
    use rrm_geom::dual::DualLine;
    use rrm_geom::events::crossings_with_tracked;

    use crate::rrm2d::Prepared2d;

    /// A fresh 2DRRR handle over the full space.
    fn baseline(data: &Dataset) -> PreparedRrr2d {
        PreparedRrr2d::new(data, &FullSpace::new(2), ExecPolicy::default()).unwrap()
    }

    /// A fresh exact 2DRRM handle over the full space.
    fn exact(data: &Dataset) -> Prepared2d {
        Prepared2d::new(data, &FullSpace::new(2), ExecPolicy::default()).unwrap()
    }

    fn random_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<[f64; 2]> =
            (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        Dataset::from_rows(&rows).unwrap()
    }

    /// Exact rank-regret of a set over the full weight range, brute-forced
    /// through every arrangement gap (test-only; small n).
    fn exact_regret(data: &Dataset, set: &[u32]) -> usize {
        let lines = DualLine::from_dataset(data);
        let all: Vec<u32> = (0..data.n() as u32).collect();
        let events = crossings_with_tracked(&lines, &all, 0.0, 1.0);
        let mut xs = vec![0.0, 1.0];
        xs.extend(events.iter().map(|e| e.x));
        xs.sort_unstable_by(|a, b| a.partial_cmp(b).unwrap());
        let mut probes: Vec<f64> = xs.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
        probes.push(0.0);
        probes.push(1.0);
        let mut worst = 0usize;
        for &x in &probes {
            let best =
                set.iter().map(|&i| lines[i as usize].eval(x)).fold(f64::NEG_INFINITY, f64::max);
            let above = lines.iter().filter(|l| l.eval(x) > best).count();
            worst = worst.max(above + 1);
        }
        worst
    }

    #[test]
    fn guarantee_holds_on_random_data() {
        for seed in 0..15 {
            let d = random_dataset(40, seed);
            for k in [1usize, 2, 3] {
                let sol = baseline(&d).solve_rrr(k, &Budget::UNLIMITED).unwrap();
                let regret = exact_regret(&d, &sol.indices);
                assert!(regret < 2 * k, "seed {seed} k={k}: regret {regret} > {}", 2 * k - 1);
            }
        }
    }

    #[test]
    fn size_never_exceeds_exact_rrr() {
        // The cover size is ≤ the minimum size of an exact rank-k set,
        // because every exact set's windows also cover the segment.
        for seed in 20..30 {
            let d = random_dataset(30, seed);
            for k in [1usize, 2, 3] {
                let approx = baseline(&d).solve_rrr(k, &Budget::UNLIMITED).unwrap();
                let exact = exact(&d).solve_rrr(k, &Budget::UNLIMITED).unwrap();
                assert!(
                    approx.size() <= exact.size(),
                    "seed {seed} k={k}: approx {} > exact {}",
                    approx.size(),
                    exact.size()
                );
            }
        }
    }

    #[test]
    fn rrm_adaptation_respects_budget_and_2dr_rm_beats_it() {
        for seed in 40..50 {
            let d = random_dataset(60, seed);
            for r in [2usize, 4] {
                let baseline = baseline(&d).solve_rrm(r, &Budget::UNLIMITED).unwrap();
                assert!(baseline.size() <= r);
                let exact = exact(&d).solve_rrm(r, &Budget::UNLIMITED).unwrap();
                let exact_k = exact.certified_regret.unwrap();
                let baseline_k = exact_regret(&d, &baseline.indices);
                assert!(
                    exact_k <= baseline_k,
                    "seed {seed} r={r}: 2DRRM {exact_k} vs 2DRRR {baseline_k}"
                );
            }
        }
    }

    #[test]
    fn threshold_one_picks_upper_envelope() {
        let d =
            Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75], [0.79, 0.6], [1.0, 0.0]])
                .unwrap();
        let sol = baseline(&d).solve_rrr(1, &Budget::UNLIMITED).unwrap();
        // Rank ≤ 1 windows: only upper-envelope lines; certified 2·1−1 = 1.
        assert_eq!(sol.certified_regret, Some(1));
        assert_eq!(exact_regret(&d, &sol.indices), 1);
    }

    #[test]
    fn streamed_bands_answer_like_materialized_ones() {
        let b = Budget::UNLIMITED;
        for seed in [70, 71] {
            let d = random_dataset(400, seed);
            let mut streamed = baseline(&d);
            streamed.bands.chunk_target(7);
            let materialized = baseline(&d);
            for k in [1, 2, 4, 8] {
                assert_eq!(streamed.cover(k), materialized.cover(k), "seed {seed} k={k}");
            }
            for r in 1..=6 {
                let want = materialized.solve_rrm(r, &b).unwrap();
                assert_eq!(streamed.solve_rrm(r, &b).unwrap(), want, "seed {seed} r={r}");
            }
            let built = streamed.bands.materialized();
            assert!(!built.is_empty() && !built.contains(&true), "seed {seed}: {built:?}");
            assert!(!materialized.bands.materialized().contains(&false), "seed {seed}");
        }
    }

    #[test]
    fn poisoned_cache_locks_still_answer_like_a_fresh_handle() {
        let d = random_dataset(300, 80);
        let b = Budget::UNLIMITED;
        let handle = baseline(&d);
        // A memoized cover and a built band first, then interrupted cover
        // and band builds.
        handle.cover(2);
        crate::interrupt(&handle.covers, 4);
        handle.bands.interrupt(8);
        for k in [1, 2, 4, 8] {
            assert_eq!(handle.cover(k), baseline(&d).cover(k), "k={k}");
            assert_eq!(handle.solve_rrr(k, &b).unwrap(), baseline(&d).solve_rrr(k, &b).unwrap());
        }
        for r in 1..=4 {
            assert_eq!(handle.solve_rrm(r, &b).unwrap(), baseline(&d).solve_rrm(r, &b).unwrap());
        }
    }

    #[test]
    fn thresholds_past_the_bound_are_answered_but_not_kept() {
        let d = random_dataset(300, 81);
        let b = Budget::UNLIMITED;
        let handle = baseline(&d);
        for k in (1..=PROBE_CACHE_CAP + 200).rev() {
            let want = baseline(&d).solve_rrr(k, &b).unwrap();
            assert_eq!(handle.solve_rrr(k, &b).unwrap(), want, "k={k}");
        }
        assert_eq!(handle.covers.len(), PROBE_CACHE_CAP);
        assert!(handle.bands.kept() <= PROBE_CACHE_CAP);
        for r in [1, 3, 6] {
            assert_eq!(handle.solve_rrm(r, &b).unwrap(), baseline(&d).solve_rrm(r, &b).unwrap());
        }
    }

    #[test]
    fn zero_threshold_rejected() {
        let d = random_dataset(10, 60);
        assert!(baseline(&d).solve_rrr(0, &Budget::UNLIMITED).is_err());
    }
}
