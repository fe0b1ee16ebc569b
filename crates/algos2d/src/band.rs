//! The **K-band**: the rows whose rank can reach `K` somewhere on the
//! weight interval, and the crossing stream of the tracked lines with them.
//!
//! Both 2D solvers read only the ranks of their tracked (candidate) lines,
//! and only while those ranks are small: 2DRRM's answer is the best final
//! rank of its dynamic program, 2DRRR's windows are rank-`k` thresholds.
//! A row that another row beats at both ends of `[c0, c1]` ranks below it
//! at every weight in between (two lines cross at most once). The K-band
//! is the set of rows fewer than `K` others beat at both ends — the
//! `K`-skyband of the U-transformed rows. A row outside it ranks below at
//! least `K` band rows at every weight (each of its dominators is in the
//! band or beaten by `K` band rows itself), so replaying the crossings of
//! the tracked lines with the band's lines gives each tracked rank exactly
//! while it is at most `K + 1`, and a rank of at least `K + 1` otherwise.
//! Hence
//!
//! * a 2DRRM replay over the band is exact whenever its best final rank is
//!   at most `K` (a larger one only shows that the optimum exceeds `K`),
//!   and
//! * 2DRRR's rank-`k` windows are exact for every `k ≤ K`.
//!
//! A band's lines are compacted in ascending row id, so every tie-break of
//! [`rrm_geom::dual::order_at`] and of the `(x, down, up)` crossing order
//! is the one a stream over all rows makes.
//!
//! "Beats" is counted with a margin relative to the data's magnitude, so a
//! near-tie that rounding could flip never counts, and a row within the
//! margin of a tracked line at `c0` is in every band: a band can only
//! hold more rows than the exact skyband, never fewer.
//!
//! A prepare sorts the rows once, into `order0`: every row id in
//! [`order_at`] order at `c0` ([`Rows`]). The U-skyline the solvers track
//! is read off it in one max scan, and each band is marked in one sweep
//! down it ([`Bands::members`]). `LB₁`, the one figure that needs the
//! order at `c1` too, is computed when a query first asks for it
//! ([`Bands::cap`]).
//!
//! Every sort here is a counting sort (`rrm_geom`'s `counting` module):
//! [`order_at`] buckets rows by height, one bucket per row, and a band's
//! stream counts its crossings per `x`-bucket, then enumerates them again
//! straight into one exact-size buffer. Each bucket is then sorted by the
//! exact key, so the orders are the comparison sorts' to the bit.

use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, OnceLock};

use rrm_core::rank::descending_bits;
use rrm_core::{Dataset, RrmError};
use rrm_geom::dual::{merge_at, order_at, overflowing_span, DualLine};
use rrm_geom::events::{crossings_with_tracked_capped_par, initial_ranks, stream_crossings};
use rrm_geom::Crossing;
use rrm_par::Parallelism;
use rrm_skyline::restricted::u_scores_2d;
use rrm_skyline::sky2d::skyline_2d_sorted;

/// The `K` 2DRRM's replays start from (`r = 1` starts at the cap).
pub(crate) const START: usize = 32;

/// The most crossings a band's stream materializes: 4 << 20 crossings of
/// 16 bytes, 64 MiB. A longer stream is swept strip by strip on every
/// replay instead; the count pass that finds its length allocates none.
const CHUNK_TARGET: usize = 4 << 20;

/// Relative margin a row must lead by, at both ends, to count as beating
/// another: far above the rounding error of a dual-line evaluation or a
/// crossing, far below any lead a real dataset's ranks depend on.
const MARGIN: f64 = 1e-9;

/// Every row's dual line. Crossings and heights are differences of slopes
/// and of intercepts, so where one overflows f64 no rank a sweep reads
/// means anything: slopes (an infinite one included) or intercepts whose
/// range is not finite are a [`RrmError::Numerical`].
fn dual_lines(data: &Dataset) -> Result<Vec<DualLine>, RrmError> {
    let lines = DualLine::from_dataset(data);
    if let Some((what, lo, hi)) = overflowing_span(&lines) {
        return Err(RrmError::Numerical(format!(
            "the rows' dual {what} span [{lo:e}, {hi:e}], so 2D crossings overflow f64"
        )));
    }
    Ok(lines)
}

/// What a 2D prepare derives from the rows: every row's dual line,
/// `order0` (every row id in [`order_at`] order at `c0`: the prepare's
/// one sort) and the U-skyline over `[c0, c1]` read off it, ascending.
pub(crate) struct Rows {
    pub(crate) lines: Vec<DualLine>,
    pub(crate) order0: Vec<u32>,
    pub(crate) skyline: Vec<u32>,
}

impl Rows {
    pub(crate) fn new(data: &Dataset, (c0, c1): (f64, f64)) -> Result<Self, RrmError> {
        let lines = dual_lines(data)?;
        let mut order0: Vec<u32> = (0..lines.len() as u32).collect();
        order_at(&lines, &mut order0, c0);
        Ok(Self::read(data, lines, order0, (c0, c1)))
    }

    /// Read the U-skyline, the 2D skyline of the rows' [`u_scores_2d`],
    /// off `order0`. A line's height at `c0` is its score there up to
    /// rounding, so a stable sort by the score repairs the order's
    /// inversions first: one pass over the order when it has none, as at
    /// `c0 = 0`.
    fn read(data: &Dataset, lines: Vec<DualLine>, order0: Vec<u32>, (c0, c1): (f64, f64)) -> Self {
        let mut scored: Vec<(u32, [f64; 2])> =
            order0.iter().map(|&i| (i, u_scores_2d(data.row(i as usize), c0, c1))).collect();
        scored.sort_by_key(|&(_, [at0, _])| descending_bits(at0));
        let skyline = skyline_2d_sorted(scored);
        Self { lines, order0, skyline }
    }
}

/// One band: its rows' dual lines, where the tracked lines sit among them,
/// their ranks at `c0`, and the crossing stream when it fits the chunk
/// budget. Crossings and ranks are in band indices.
pub(crate) struct Band {
    /// Tracked ranks replayed over this band are exact while at most
    /// `k + 1`; `usize::MAX` when the band holds every row.
    pub(crate) k: usize,
    /// The `K` this band was built for.
    built_for: usize,
    lines: Vec<DualLine>,
    tracked: Vec<u32>,
    /// Band index → position in the tracked list (`usize::MAX`: untracked).
    pub(crate) row_of: Vec<usize>,
    /// 1-based ranks at `c0` among the band's rows, by band index.
    pub(crate) init_ranks: Vec<usize>,
    /// `None` when the stream exceeds the chunk budget: each replay then
    /// streams it strip by strip.
    events: Option<Vec<Crossing>>,
    c0: f64,
    c1: f64,
    chunk_target: usize,
}

impl Band {
    /// Visit the crossings of the tracked lines with the band's lines in
    /// `(x, down, up)` order.
    pub(crate) fn replay(&self, visit: impl FnMut(&Crossing)) {
        match &self.events {
            Some(events) => events.iter().for_each(visit),
            None => stream_crossings(
                &self.lines,
                &self.tracked,
                self.c0,
                self.c1,
                self.chunk_target,
                visit,
            ),
        }
    }
}

/// The band builder a prepared 2D handle owns: the rows' dual lines and
/// `order0`, the tracked lines whose ranks its solver reads, and the bands
/// built so far. A band is built on first use and cached.
pub(crate) struct Bands {
    c0: f64,
    c1: f64,
    lines: Vec<DualLine>,
    /// Every row id in [`order_at`] order at `c0`: each band is swept off
    /// it, and an update merges into it instead of re-sorting.
    order0: Vec<u32>,
    tracked: Vec<u32>,
    /// [`Bands::cap`], once a query has asked for it.
    cap: OnceLock<usize>,
    chunk_target: usize,
    parallelism: Parallelism,
    /// Every band is at least this wide (`usize::MAX` in tests: one band
    /// holding every row).
    floor: usize,
    /// One slot per `K` asked for; the slot's band is built outside the
    /// lock, so only callers of the same `K` wait on one build.
    built: Mutex<Vec<(usize, Slot)>>,
}

/// A band built once, by the first caller of its `K`.
type Slot = Arc<OnceLock<Arc<Band>>>;

impl Bands {
    /// The band builder over `rows` on `[c0, c1]`. `tracked` lists the row
    /// ids whose ranks the solver reads, in its row order; every band
    /// keeps them. A band's stream is materialized when it holds at most
    /// [`CHUNK_TARGET`] crossings, classified under `parallelism`.
    pub(crate) fn new(
        Rows { lines, order0, .. }: Rows,
        tracked: Vec<u32>,
        (c0, c1): (f64, f64),
        parallelism: Parallelism,
    ) -> Self {
        Self {
            c0,
            c1,
            lines,
            order0,
            tracked,
            cap: OnceLock::new(),
            chunk_target: CHUNK_TARGET,
            parallelism,
            floor: 0,
            built: Mutex::new(Vec::new()),
        }
    }

    /// The rows after an update that left `data`: `remap` sends old row
    /// ids to new ones (monotone, `None` for deleted rows) and `inserted`
    /// lists the new rows' ids. The survivors keep their `order0`
    /// sequence and the sorted inserts merge in.
    pub(crate) fn rows_after(
        &self,
        data: &Dataset,
        remap: &[Option<u32>],
        inserted: &[u32],
    ) -> Result<Rows, RrmError> {
        let lines = dual_lines(data)?;
        let survivors: Vec<u32> = self.order0.iter().filter_map(|&id| remap[id as usize]).collect();
        let order0 = merge_at(&lines, &survivors, &mut inserted.to_vec(), self.c0);
        Ok(Rows::read(data, lines, order0, self.interval()))
    }

    /// Keep every row in every band: the all-rows stream the bands are
    /// checked against.
    #[cfg(test)]
    pub(crate) fn all_rows(&mut self) {
        self.floor = usize::MAX;
    }

    /// Materialize no stream of more than `chunk_target` crossings: the
    /// streaming path at test sizes.
    #[cfg(test)]
    pub(crate) fn chunk_target(&mut self, chunk_target: usize) {
        self.chunk_target = chunk_target;
    }

    pub(crate) fn interval(&self) -> (f64, f64) {
        (self.c0, self.c1)
    }

    /// Every row's dual line, by row id.
    #[cfg(test)]
    pub(crate) fn lines(&self) -> &[DualLine] {
        &self.lines
    }

    /// The tracked row ids, in the solver's row order.
    pub(crate) fn tracked(&self) -> &[u32] {
        &self.tracked
    }

    #[cfg(test)]
    pub(crate) fn order0(&self) -> &[u32] {
        &self.order0
    }

    /// Whether a query has asked for [`Bands::cap`] yet.
    #[cfg(test)]
    pub(crate) fn cap_known(&self) -> bool {
        self.cap.get().is_some()
    }

    /// Per band built so far, whether its stream is materialized.
    #[cfg(test)]
    pub(crate) fn materialized(&self) -> Vec<bool> {
        let built = self.built.lock().expect("band cache poisoned");
        built.iter().filter_map(|(_, slot)| slot.get()).map(|b| b.events.is_some()).collect()
    }

    /// `2·LB₁ − 1`, where `LB₁` is the minimum over rows of the worse of
    /// its two endpoint ranks. The row that ranks at most `LB₁` at both
    /// ends ranks at most `2·LB₁ − 1` everywhere between them (a line
    /// above it in the middle is above it at one end), so no size budget's
    /// optimum exceeds this. Computed on first use, which sorts the rows
    /// at `c1`.
    pub(crate) fn cap(&self) -> usize {
        *self.cap.get_or_init(|| {
            let n = self.lines.len();
            let mut at0 = vec![0u32; n];
            for (j, &i) in self.order0.iter().enumerate() {
                at0[i as usize] = j as u32;
            }
            let mut order1: Vec<u32> = (0..n as u32).collect();
            order_at(&self.lines, &mut order1, self.c1);
            let ranks =
                order1.iter().enumerate().map(|(j, &i)| j.max(at0[i as usize] as usize) + 1);
            2 * ranks.min().unwrap_or(1) - 1
        })
    }

    /// A band whose replayed ranks are exact up to at least `k`: the
    /// narrowest one already built for at most `2k`, else band `k`, built
    /// now (or by a concurrent caller of the same `k`) and cached.
    pub(crate) fn band(&self, k: usize) -> Arc<Band> {
        let k = k.max(self.floor);
        let slot = {
            let mut built = self.built.lock().expect("band cache poisoned");
            let ready = built
                .iter()
                .filter_map(|(_, slot)| slot.get())
                .filter(|b| b.k >= k && b.built_for <= k.saturating_mul(2))
                .min_by_key(|b| b.lines.len());
            if let Some(band) = ready {
                return Arc::clone(band);
            }
            match built.iter().find(|(for_k, _)| *for_k == k) {
                Some((_, slot)) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(OnceLock::new());
                    built.push((k, Arc::clone(&slot)));
                    slot
                }
            }
        };
        Arc::clone(slot.get_or_init(|| Arc::new(self.build(k))))
    }

    /// Per row id, whether band `k` holds it apart from the tracked rows:
    /// whether fewer than `k` rows beat it at both `x = c0` and `x = c1` by
    /// more than the margin.
    ///
    /// A row within the margin of a tracked line (other than itself) at
    /// `c0` counts as beaten by none, and beats none. Such a pair's
    /// crossing can lie within rounding of `c0`, where the replay's order
    /// at `c0` and its crossings may disagree for the whole sweep (a
    /// crossing at `x ≈ 1e-451` underflows to `0` and is dropped). Every
    /// other pair a band's exactness argument uses is then separated by
    /// the margin at `c0`, so the replay orders it as the real lines do,
    /// except within rounding of `c1`, where the two lines nearly tie and
    /// a margin-separated row cannot fall between them.
    ///
    /// One sweep down `order0` offers every row that leads the current one
    /// at `c0` by the margin, keeping the `k` highest `c1` heights
    /// offered: `k` rows beat the current one iff the lowest kept height
    /// leads it at `c1` by the margin.
    pub(crate) fn members(&self, k: usize) -> Vec<bool> {
        let n = self.lines.len();
        if k >= n {
            return vec![true; n];
        }
        let (c0, c1) = self.interval();
        let scale =
            self.lines.iter().map(|l| l.intercept.abs() + l.slope.abs()).fold(0.0, f64::max);
        let margin = MARGIN * scale;
        // Heights at both ends by c0 position, so the sweep reads
        // sequentially; the heights at c0 descend.
        let h: Vec<[f64; 2]> = self
            .order0
            .iter()
            .map(|&i| {
                let line = self.lines[i as usize];
                [line.eval(c0), line.eval(c1)]
            })
            .collect();

        // Per c0 position, whether the row is within the margin of another
        // tracked line at c0: each tracked line marks the run around its
        // own position.
        let mut near = vec![false; n];
        for &t in &self.tracked {
            let at = self.lines[t as usize].eval(c0);
            let from = h.partition_point(|g| g[0] - margin > at);
            let to = h.partition_point(|g| g[0] + margin >= at);
            for (near, &row) in near[from..to].iter_mut().zip(&self.order0[from..to]) {
                *near |= row != t;
            }
        }

        // The `k` highest c1 heights offered so far, as `descending_bits`
        // keys: the top of the heap is the lowest of them.
        let mut highest: BinaryHeap<u64> = BinaryHeap::with_capacity(k);
        let mut keep = vec![false; n];
        let mut q = 0;
        for j in 0..n {
            while q < n && h[q][0] > h[j][0] + margin {
                if !near[q] {
                    let key = descending_bits(h[q][1]);
                    if highest.len() < k {
                        highest.push(key);
                    } else if let Some(mut lowest) = highest.peek_mut().filter(|low| key < **low) {
                        *lowest = key;
                    }
                }
                q += 1;
            }
            let beaten = highest.len() == k
                && highest.peek().is_some_and(|&low| low < descending_bits(h[j][1] + margin));
            keep[self.order0[j] as usize] = near[j] || !beaten;
        }
        keep
    }

    fn build(&self, k: usize) -> Band {
        let n = self.lines.len();
        let mut keep = self.members(k);
        for &t in &self.tracked {
            keep[t as usize] = true;
        }
        let mut index = vec![u32::MAX; n];
        let mut lines = Vec::new();
        for (i, line) in self.lines.iter().enumerate() {
            if keep[i] {
                index[i] = lines.len() as u32;
                lines.push(*line);
            }
        }
        let tracked: Vec<u32> = self.tracked.iter().map(|&t| index[t as usize]).collect();
        let mut row_of = vec![usize::MAX; lines.len()];
        for (i, &t) in tracked.iter().enumerate() {
            row_of[t as usize] = i;
        }
        let init_ranks = initial_ranks(&lines, self.c0);
        let events = crossings_with_tracked_capped_par(
            &lines,
            &tracked,
            self.c0,
            self.c1,
            self.chunk_target,
            self.parallelism,
        );
        Band {
            k: if lines.len() == n { usize::MAX } else { k },
            built_for: k,
            lines,
            tracked,
            row_of,
            init_ranks,
            events,
            c0: self.c0,
            c1: self.c1,
            chunk_target: self.chunk_target,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rrm_core::{
        Budget, ConeSpace, ExecPolicy, FullSpace, PreparedSolver, UtilitySpace, WeakRankingSpace,
    };
    use rrm_skyline::restricted::u_skyline_2d;

    use crate::rrm2d::{weight_interval, Prepared2d};
    use crate::rrr2d::PreparedRrr2d;

    fn quantized(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<[f64; 2]> = (0..n)
            .map(|_| [rng.random_range(0..32) as f64 / 32.0, rng.random_range(0..32) as f64 / 32.0])
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    /// Anti-correlated rows near a quarter circle: many rows are top-1
    /// somewhere, so small budgets have optima in the hundreds.
    fn anticorrelated(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<[f64; 2]> = (0..n)
            .map(|_| {
                let angle = rng.random::<f64>() * std::f64::consts::FRAC_PI_2;
                let radius = 1.0 - 0.1 * rng.random::<f64>();
                [radius * angle.cos(), radius * angle.sin()]
            })
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    /// Finite rows spanning 1e-300 to 1e300, beside rows of unit scale.
    fn extreme(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let scales = [1e-300, 1e-150, 1.0, 1e150, 1e300];
        let rows: Vec<[f64; 2]> = (0..n)
            .map(|_| {
                let a = scales[rng.random_range(0..scales.len())];
                let b = scales[rng.random_range(0..scales.len())];
                [a * rng.random::<f64>(), b * rng.random::<f64>()]
            })
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    fn spaces() -> Vec<Box<dyn UtilitySpace>> {
        vec![
            Box::new(FullSpace::new(2)),
            Box::new(WeakRankingSpace::new(2, 1)),
            // Weights on attribute 1 within [0.40, 0.45].
            Box::new(ConeSpace::new(2, vec![vec![0.6, -0.4], vec![-0.55, 0.45]])),
        ]
    }

    /// Banded answers — from a warm handle asked minimize first, one asked
    /// represent first (whose size search memoizes what its narrow bands
    /// settle), and a cold handle per query — equal the all-rows stream's,
    /// indices and certificates.
    fn assert_band_parity(data: &Dataset, space: &dyn UtilitySpace, ctx: &str) {
        let b = Budget::UNLIMITED;
        let exec = ExecPolicy::default();
        let cold = || Prepared2d::new(data, space, exec).unwrap();
        let (warm, represent_first) = (cold(), cold());
        let all = cold().all_rows();
        for k in 1..=8 {
            let want = all.solve_rrr(k, &b).unwrap();
            assert_eq!(represent_first.solve_rrr(k, &b).unwrap(), want, "{ctx}: 2DRRM k={k}");
            assert_eq!(cold().solve_rrr(k, &b).unwrap(), want, "{ctx}: 2DRRM k={k} (cold)");
        }
        for r in 1..=6 {
            let want = all.solve_rrm(r, &b).unwrap();
            assert_eq!(warm.solve_rrm(r, &b).unwrap(), want, "{ctx}: 2DRRM r={r}");
            assert_eq!(represent_first.solve_rrm(r, &b).unwrap(), want, "{ctx}: 2DRRM r={r}");
            assert_eq!(cold().solve_rrm(r, &b).unwrap(), want, "{ctx}: 2DRRM r={r} (cold)");
        }
        for k in 1..=8 {
            let want = all.solve_rrr(k, &b).unwrap();
            assert_eq!(warm.solve_rrr(k, &b).unwrap(), want, "{ctx}: 2DRRM k={k} (warm)");
        }
        let rrr = PreparedRrr2d::new(data, space, exec).unwrap();
        let rrr_all = PreparedRrr2d::new(data, space, exec).unwrap().all_rows();
        for r in 1..=6 {
            let want = rrr_all.solve_rrm(r, &b).unwrap();
            assert_eq!(rrr.solve_rrm(r, &b).unwrap(), want, "{ctx}: 2DRRR r={r}");
        }
        // 2DRRR's answer to `represent(k)` is its rank-k cover. Compared
        // as covers: at extreme magnitudes the rank-1 windows can leave a
        // gap, and `solve_rrr` then fails the same way on either stream.
        for k in 1..=8 {
            assert_eq!(rrr.cover(k), rrr_all.cover(k), "{ctx}: 2DRRR k={k}");
        }
    }

    #[test]
    fn bands_answer_like_all_rows_on_quantized_rows() {
        // Duplicates, score ties and concurrent crossings.
        for seed in 0..4 {
            let data = quantized(400, seed);
            for (s, space) in spaces().iter().enumerate() {
                assert_band_parity(&data, space.as_ref(), &format!("seed {seed} space {s}"));
            }
        }
    }

    #[test]
    fn bands_answer_like_all_rows_on_extreme_magnitudes() {
        for seed in 0..6 {
            let data = extreme(300, seed);
            for (s, space) in spaces().iter().enumerate() {
                assert_band_parity(&data, space.as_ref(), &format!("seed {seed} space {s}"));
            }
        }
    }

    #[test]
    fn bands_answer_like_all_rows_across_doublings() {
        for (s, space) in spaces().iter().enumerate() {
            let data = anticorrelated(1_000, s as u64);
            assert_band_parity(&data, space.as_ref(), &format!("space {s}"));
        }
        // On the full space the optima climb past several rungs.
        let data = anticorrelated(1_000, 0);
        let handle = Prepared2d::new(&data, &FullSpace::new(2), ExecPolicy::default()).unwrap();
        let regret = handle.solve_rrm(3, &Budget::UNLIMITED).unwrap().certified_regret.unwrap();
        assert!(regret > 2 * START, "r = 3 optimum {regret} stays on the first rungs");
    }

    #[test]
    fn memo_fill_matches_all_rows_at_any_thread_count() {
        let data = anticorrelated(1_500, 3);
        let space = FullSpace::new(2);
        let rs: Vec<usize> = (1..=8).collect();
        let all = Prepared2d::new(&data, &space, ExecPolicy::default()).unwrap().all_rows();
        let want = all.solve_rrm_many(&rs).unwrap();
        for threads in [1, 4] {
            let handle = Prepared2d::new(&data, &space, ExecPolicy::threads(threads)).unwrap();
            assert_eq!(handle.solve_rrm_many(&rs).unwrap(), want, "{threads} threads");
        }
    }

    /// The band builder over `data` on `interval`, tracking the U-skyline.
    fn bands_over(data: &Dataset, interval: (f64, f64)) -> Bands {
        let rows = Rows::new(data, interval).unwrap();
        let sky = rows.skyline.clone();
        Bands::new(rows, sky, interval, Parallelism::Sequential)
    }

    #[test]
    fn band_members_match_brute_force() {
        // In the last set the scale is 2, and on the full space row 0
        // leads row 1 at c0 but at c1 by exactly the margin, which does
        // not count as beating it.
        let at_margin = Dataset::from_rows(&[[MARGIN * 2.0, 0.0], [0.0, -1.0]]).unwrap();
        let datasets = [quantized(300, 11), anticorrelated(300, 12), extreme(200, 13), at_margin];
        for (i, data) in datasets.iter().enumerate() {
            for space in spaces() {
                let (c0, c1) = weight_interval(space.as_ref()).unwrap();
                let bands = bands_over(data, (c0, c1));
                let lines = bands.lines();
                let n = lines.len();
                let tracked = bands.tracked();
                let scale =
                    lines.iter().map(|l| l.intercept.abs() + l.slope.abs()).fold(0.0, f64::max);
                let m = MARGIN * scale;
                let h: Vec<[f64; 2]> = lines.iter().map(|l| [l.eval(c0), l.eval(c1)]).collect();
                let near = |u: usize| {
                    let tie = |t: usize| h[t][0] <= h[u][0] + m && h[t][0] >= h[u][0] - m;
                    tracked.iter().any(|&t| t as usize != u && tie(t as usize))
                };
                let near: Vec<bool> = (0..n).map(near).collect();
                let beaten_by =
                    |m: f64, u: usize, o: usize| h[u][0] > h[o][0] + m && h[u][1] > h[o][1] + m;
                // How many rows beat each one by the margin, and exactly.
                let dominators: Vec<usize> = (0..n)
                    .map(|o| {
                        let count = (0..n).filter(|&u| !near[u] && beaten_by(m, u, o)).count();
                        if near[o] {
                            0
                        } else {
                            count
                        }
                    })
                    .collect();
                let strict: Vec<usize> =
                    (0..n).map(|o| (0..n).filter(|&u| beaten_by(0.0, u, o)).count()).collect();
                for k in [1, 2, 3, 5, 8, 32, n] {
                    let members = bands.members(k);
                    for o in 0..n {
                        let ctx = format!("data {i} k {k} row {o}");
                        assert_eq!(members[o], dominators[o] < k, "{ctx}");
                        // The margin only ever keeps more rows.
                        assert!(members[o] || strict[o] >= k, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn skyline_off_the_c0_order_matches_u_skyline_2d() {
        let mut intervals: Vec<(f64, f64)> =
            spaces().iter().map(|s| weight_interval(s.as_ref()).unwrap()).collect();
        intervals.push((0.0, 0.7));
        let mut rng = StdRng::seed_from_u64(41);
        let random = Dataset::from_rows(
            &(0..500).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect::<Vec<_>>(),
        )
        .unwrap();
        for (i, data) in [random, quantized(500, 42), extreme(500, 43)].iter().enumerate() {
            for &(c0, c1) in &intervals {
                let rows = Rows::new(data, (c0, c1)).unwrap();
                assert_eq!(rows.skyline, u_skyline_2d(data, c0, c1), "data {i} [{c0}, {c1}]");
            }
        }
        // At c0 = 0.4 row 0's line rounds above row 1's, though row 1
        // scores higher there, and at c1 too: the skyline is row 1 alone.
        let data = Dataset::from_rows(&[
            [0.493539895953764, 0.4935062888839354],
            [0.49353989595376424, 0.4935062888839352],
        ])
        .unwrap();
        let rows = Rows::new(&data, (0.4, 0.45)).unwrap();
        assert_eq!(rows.order0, [0, 1]);
        assert_eq!(rows.skyline, [1]);
        assert_eq!(u_skyline_2d(&data, 0.4, 0.45), [1]);
    }

    #[test]
    fn lb1_reads_the_endpoint_orders() {
        // Table I: t3 ranks 3rd at x = 0 and 3rd at x = 1 (behind t7 and t4),
        // and no row is better at both ends: LB₁ = 3.
        let data = Dataset::from_rows(&[
            [0.0, 1.0],
            [0.4, 0.95],
            [0.57, 0.75],
            [0.79, 0.6],
            [0.2, 0.5],
            [0.35, 0.3],
            [1.0, 0.0],
        ])
        .unwrap();
        let bands = bands_over(&data, (0.0, 1.0));
        assert!(!bands.cap_known());
        assert_eq!(bands.cap(), 5);
        assert!(bands.cap_known());
        // t5 and t6 are each beaten at both ends by t2, t3 and t4.
        assert_eq!(bands.members(3), [true, true, true, true, false, false, true]);
        assert_eq!(bands.members(4), [true; 7]);
    }

    /// 2DRRM answers and 2DRRR covers on fixed anti-correlated rows, as
    /// the dominator-count bands gave them: a change to how bands or the
    /// skyline are computed must not move any of them.
    #[test]
    fn answers_on_anticorrelated_rows_are_pinned() {
        type Pins = ([(&'static [u32], usize); 6], [&'static [u32]; 4]);
        let full: Pins = (
            [
                (&[520], 948),
                (&[1337, 1708], 372),
                (&[520, 662, 1006], 145),
                (&[1159, 1262, 1495, 1808], 63),
                (&[491, 573, 1170, 1222, 1526], 37),
                (&[290, 573, 638, 653, 800, 1082], 22),
            ],
            [
                &[
                    1867, 1988, 1567, 958, 653, 491, 1159, 289, 1563, 1114, 927, 399, 444, 64, 555,
                    1899, 567, 638, 1406, 1271, 1160, 1847, 1082, 409, 1042, 696, 573, 1046, 422,
                ],
                &[
                    1988, 958, 491, 1159, 1563, 1114, 927, 290, 64, 1899, 638, 1271, 1847, 409,
                    1042, 696, 573, 422,
                ],
                &[
                    1988, 653, 1159, 1563, 1114, 927, 444, 1899, 638, 1160, 1082, 1042, 1262, 1046,
                    422,
                ],
                &[1567, 1159, 1563, 927, 64, 638, 1160, 417, 573, 1046],
            ],
        );
        let cone: Pins = (
            [
                (&[444], 4),
                (&[64, 444], 1),
                (&[64, 444], 1),
                (&[64, 444], 1),
                (&[64, 444], 1),
                (&[64, 444], 1),
            ],
            [&[444, 64], &[444, 64], &[444], &[444]],
        );
        let data = anticorrelated(2_000, 7);
        let b = Budget::UNLIMITED;
        let spaces: [Box<dyn UtilitySpace>; 2] = [
            Box::new(FullSpace::new(2)),
            // Weights on attribute 1 within [0.40, 0.45].
            Box::new(ConeSpace::new(2, vec![vec![0.6, -0.4], vec![-0.55, 0.45]])),
        ];
        for (space, (answers, covers)) in spaces.iter().zip([full, cone]) {
            let rrm = Prepared2d::new(&data, space.as_ref(), ExecPolicy::default()).unwrap();
            for (r, (indices, regret)) in (1..).zip(answers) {
                let sol = rrm.solve_rrm(r, &b).unwrap();
                assert_eq!((sol.indices.as_slice(), sol.certified_regret), (indices, Some(regret)));
            }
            let rrr = PreparedRrr2d::new(&data, space.as_ref(), ExecPolicy::default()).unwrap();
            for (k, cover) in [1, 2, 4, 8].into_iter().zip(covers) {
                assert_eq!(rrr.cover(k).as_deref(), Some(cover), "k={k}");
            }
        }
    }
}
