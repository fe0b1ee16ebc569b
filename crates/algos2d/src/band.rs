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

use std::sync::{Arc, Mutex, OnceLock};

use rrm_geom::dual::{merge_at, order_at, DualLine};
use rrm_geom::events::{crossings_with_tracked_capped_par, initial_ranks, stream_crossings};
use rrm_geom::Crossing;
use rrm_par::Parallelism;

/// The `K` 2DRRM's replays start from (`r = 1` starts at the cap).
pub(crate) const START: usize = 32;

/// Relative margin a row must lead by, at both ends, to count as beating
/// another: far above the rounding error of a dual-line evaluation or a
/// crossing, far below any lead a real dataset's ranks depend on.
const MARGIN: f64 = 1e-9;

/// Every row id in [`order_at`] order at `c0` and at `c1`.
fn endpoint_orders(lines: &[DualLine], c0: f64, c1: f64) -> [Vec<u32>; 2] {
    [c0, c1].map(|x| {
        let mut order: Vec<u32> = (0..lines.len() as u32).collect();
        order_at(lines, &mut order, x);
        order
    })
}

/// Per row, how many rows beat it at both `x = c0` and `x = c1` by more
/// than the margin, capped at a limit; below the limit a band reads them
/// exactly.
#[derive(Debug, PartialEq)]
pub(crate) struct Counts {
    limit: usize,
    rows: Vec<u32>,
}

/// [`Counts`] capped at `max(floor, 4·LB₁ − 2)`, twice the bound on every
/// size budget's optimum (see [`Bands::cap`]), so that no 2DRRM replay and
/// no probe of 2DRRR's RRM search needs a recount; and `LB₁`, the minimum
/// over rows of the worse of its two endpoint ranks. `orders` are
/// [`endpoint_orders`].
///
/// A row within the margin of a tracked line (other than itself) at `c0`
/// counts as beaten by none, and beats none. Such a pair's crossing can
/// lie within rounding of `c0`, where the replay's order at `c0` and its
/// crossings may disagree for the whole sweep (a crossing at
/// `x ≈ 1e-451` underflows to `0` and is dropped). Every other pair a
/// band's exactness argument uses is then separated by the margin at
/// `c0`, so the replay orders it as the real lines do, except within
/// rounding of `c1`, where the two lines nearly tie and a margin-separated
/// row cannot fall between them.
///
/// One pass over the rows in their `c0` order offers every row that leads
/// the current one by the margin to the set of the `limit` smallest `c1`
/// positions, then counts the kept rows that also lead at `c1`: that is
/// the true count whenever it is below the limit. `LB₁` reads its ranks
/// straight off the two orders.
pub(crate) fn count_dominators(
    lines: &[DualLine],
    tracked: &[u32],
    (c0, c1): (f64, f64),
    [order0, order1]: &[Vec<u32>; 2],
    floor: usize,
) -> (Counts, usize) {
    let n = lines.len();
    let scale = lines.iter().map(|l| l.intercept.abs() + l.slope.abs()).fold(0.0, f64::max);
    let margin = MARGIN * scale;
    // Everything below is indexed by position in an endpoint order, so
    // the passes read sequentially; heights there are descending.
    let h0: Vec<f64> = order0.iter().map(|&i| lines[i as usize].eval(c0)).collect();
    let h1: Vec<f64> = order1.iter().map(|&i| lines[i as usize].eval(c1)).collect();

    // Per c0 position, whether the row is within the margin of another
    // tracked line at c0: each tracked line marks the run around its own
    // position.
    let mut near = vec![false; n];
    for &t in tracked {
        let h = lines[t as usize].eval(c0);
        let from = h0.partition_point(|&g| g - margin > h);
        let to = h0.partition_point(|&g| g + margin >= h);
        for j in from..to {
            near[j] |= order0[j] != t;
        }
    }

    // Per c1 position, how many rows lead it there by the margin (a prefix
    // of the c1 order); per c0 position, the row's c1 position.
    let mut p = 0usize;
    let ahead1: Vec<u32> = h1
        .iter()
        .map(|&h| {
            while p < n && h1[p] > h + margin {
                p += 1;
            }
            p as u32
        })
        .collect();
    let mut pos1 = vec![0u32; n];
    for (j, &o) in order1.iter().enumerate() {
        pos1[o as usize] = j as u32;
    }
    let at1: Vec<u32> = order0.iter().map(|&o| pos1[o as usize]).collect();

    let lb1 = at1.iter().enumerate().map(|(j, &p)| j.max(p as usize) + 1).min().unwrap_or(1);
    let limit = floor.max(lb1.saturating_mul(4) - 2);
    let mut leaders = Smallest::new(n, limit);
    let mut rows = vec![0u32; n];
    let mut q = 0usize;
    for j in 0..n {
        while q < n && h0[q] > h0[j] + margin {
            if !near[q] {
                leaders.offer(at1[q] as usize);
            }
            q += 1;
        }
        if !near[j] {
            rows[order0[j] as usize] = leaders.below(ahead1[at1[j] as usize] as usize);
        }
    }
    (Counts { limit, rows }, lb1)
}

/// The `limit` smallest of the positions in `0..n` offered so far: a
/// bitset, and a Fenwick tree over the populations of its words, small
/// enough to stay in cache. Once the set is full, an offer above its
/// largest position is dropped and a smaller one evicts that position.
struct Smallest {
    bits: Vec<u64>,
    tree: Vec<u32>,
    limit: usize,
    len: usize,
    /// The largest position kept (`0` while empty).
    max: usize,
}

impl Smallest {
    fn new(n: usize, limit: usize) -> Self {
        let words = n / 64 + 1;
        Self { bits: vec![0; words], tree: vec![0; words + 1], limit, len: 0, max: 0 }
    }

    /// Flip position `p`, moving its word's population by `delta`
    /// (`1`, or `u32::MAX` to subtract one).
    fn flip(&mut self, p: usize, delta: u32) {
        self.bits[p / 64] ^= 1 << (p % 64);
        let mut i = p / 64 + 1;
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Offer `p`, a position not offered before.
    fn offer(&mut self, p: usize) {
        if self.len < self.limit {
            self.flip(p, 1);
            self.len += 1;
            self.max = self.max.max(p);
        } else if p < self.max {
            self.flip(self.max, u32::MAX);
            self.flip(p, 1);
            // The new largest is below the old one: scan down from its word.
            let mut w = self.max / 64;
            while self.bits[w] == 0 {
                w -= 1;
            }
            self.max = 64 * w + 63 - self.bits[w].leading_zeros() as usize;
        }
    }

    /// How many kept positions are below `p` (`p ≤ n`): the number of
    /// offered ones below `p`, capped at `limit`.
    fn below(&self, p: usize) -> u32 {
        if self.len == 0 || p > self.max {
            return self.len as u32;
        }
        let mut count = (self.bits[p / 64] & ((1u64 << (p % 64)) - 1)).count_ones();
        let mut i = p / 64;
        while i > 0 {
            count += self.tree[i];
            i &= i - 1;
        }
        count
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

/// The band builder a prepared 2D handle owns: the rows' dual lines, the
/// tracked lines whose ranks its solver reads, per-row dominator counts,
/// and the bands built so far. A band is built on first use and cached.
pub(crate) struct Bands {
    c0: f64,
    c1: f64,
    lines: Vec<DualLine>,
    tracked: Vec<u32>,
    /// [`endpoint_orders`], kept so an update merges instead of re-sorting.
    orders: [Vec<u32>; 2],
    /// Recounted with a higher limit when a band needs one.
    counts: Mutex<Arc<Counts>>,
    cap: usize,
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
    /// Count dominators over `lines` on `[c0, c1]`. `tracked` lists the row
    /// ids whose ranks the solver reads, in its row order; every band keeps
    /// them. A band's stream is materialized when it holds at most
    /// `chunk_target` crossings, classified under `parallelism`.
    pub(crate) fn new(
        lines: Vec<DualLine>,
        tracked: Vec<u32>,
        c0: f64,
        c1: f64,
        chunk_target: usize,
        parallelism: Parallelism,
    ) -> Self {
        let orders = endpoint_orders(&lines, c0, c1);
        Self::counted(lines, tracked, (c0, c1), orders, chunk_target, parallelism)
    }

    /// The builder for the rows after an update: `lines` and `tracked`
    /// describe the new rows, `remap` sends old row ids to new ones
    /// (monotone, `None` for deleted rows) and `inserted` lists the new
    /// rows' ids. The endpoint orders keep their survivors' sequence and
    /// merge the sorted inserts; dominators are recounted.
    pub(crate) fn patched(
        &self,
        lines: Vec<DualLine>,
        tracked: Vec<u32>,
        remap: &[Option<u32>],
        inserted: &[u32],
    ) -> Self {
        let (c0, c1) = (self.c0, self.c1);
        let merged = |old: &[u32], x: f64| {
            let survivors: Vec<u32> = old.iter().filter_map(|&id| remap[id as usize]).collect();
            merge_at(&lines, &survivors, &mut inserted.to_vec(), x)
        };
        let orders = [merged(&self.orders[0], c0), merged(&self.orders[1], c1)];
        Self::counted(lines, tracked, (c0, c1), orders, self.chunk_target, self.parallelism)
    }

    fn counted(
        lines: Vec<DualLine>,
        tracked: Vec<u32>,
        (c0, c1): (f64, f64),
        orders: [Vec<u32>; 2],
        chunk_target: usize,
        parallelism: Parallelism,
    ) -> Self {
        let (counts, lb1) = count_dominators(&lines, &tracked, (c0, c1), &orders, 0);
        Self {
            c0,
            c1,
            lines,
            tracked,
            orders,
            counts: Mutex::new(Arc::new(counts)),
            cap: lb1.saturating_mul(2) - 1,
            chunk_target,
            parallelism,
            floor: 0,
            built: Mutex::new(Vec::new()),
        }
    }

    /// Keep every row in every band: the all-rows stream the bands are
    /// checked against.
    #[cfg(test)]
    pub(crate) fn all_rows(&mut self) {
        self.floor = usize::MAX;
    }

    pub(crate) fn interval(&self) -> (f64, f64) {
        (self.c0, self.c1)
    }

    /// Every row's dual line, by row id.
    pub(crate) fn lines(&self) -> &[DualLine] {
        &self.lines
    }

    /// The tracked row ids, in the solver's row order.
    pub(crate) fn tracked(&self) -> &[u32] {
        &self.tracked
    }

    /// The dominator counts bands are cut from so far.
    #[cfg(test)]
    pub(crate) fn counts(&self) -> Arc<Counts> {
        Arc::clone(&self.counts.lock().expect("counts poisoned"))
    }

    /// The endpoint orders at `c0` and `c1`.
    #[cfg(test)]
    pub(crate) fn orders(&self) -> &[Vec<u32>; 2] {
        &self.orders
    }

    /// Per band built so far, whether its stream is materialized.
    #[cfg(test)]
    pub(crate) fn materialized(&self) -> Vec<bool> {
        let built = self.built.lock().expect("band cache poisoned");
        built.iter().filter_map(|(_, slot)| slot.get()).map(|b| b.events.is_some()).collect()
    }

    /// `2·LB₁ − 1`. The row that ranks at most `LB₁` at both ends ranks at
    /// most `2·LB₁ − 1` everywhere between them (a line above it in the
    /// middle is above it at one end), so no size budget's optimum exceeds
    /// this.
    pub(crate) fn cap(&self) -> usize {
        self.cap
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

    /// Counts exact below `k`: the current ones, or a recount capped at
    /// least twice as high, which replaces them.
    fn counts_below(&self, k: usize) -> Arc<Counts> {
        // No row has `n` dominators.
        let k = k.min(self.lines.len());
        let current = Arc::clone(&self.counts.lock().expect("counts poisoned"));
        if current.limit >= k {
            return current;
        }
        let floor = k.max(current.limit.saturating_mul(2));
        let (wider, _) =
            count_dominators(&self.lines, &self.tracked, self.interval(), &self.orders, floor);
        let wider = Arc::new(wider);
        let mut counts = self.counts.lock().expect("counts poisoned");
        if counts.limit < wider.limit {
            *counts = Arc::clone(&wider);
        }
        wider
    }

    fn build(&self, k: usize) -> Band {
        let n = self.lines.len();
        let counts = self.counts_below(k);
        let mut keep: Vec<bool> = counts.rows.iter().map(|&c| (c as usize) < k).collect();
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
        Budget, ConeSpace, Dataset, ExecPolicy, FullSpace, PreparedSolver, UtilitySpace,
        WeakRankingSpace,
    };

    use rrm_skyline::restricted::u_skyline_2d;

    use crate::rrm2d::{weight_interval, Prepared2d, Rrm2dOptions};
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
        let options = Rrm2dOptions::default();
        let cold = || Prepared2d::new(data, space, options).unwrap();
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
        let exec = ExecPolicy::default();
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
        let handle = Prepared2d::new(&data, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        let regret = handle.solve_rrm(3, &Budget::UNLIMITED).unwrap().certified_regret.unwrap();
        assert!(regret > 2 * START, "r = 3 optimum {regret} stays on the first rungs");
    }

    #[test]
    fn memo_fill_matches_all_rows_at_any_thread_count() {
        let data = anticorrelated(1_500, 3);
        let space = FullSpace::new(2);
        let rs: Vec<usize> = (1..=8).collect();
        let all = Prepared2d::new(&data, &space, Rrm2dOptions::default()).unwrap().all_rows();
        let want = all.solve_rrm_many(&rs).unwrap();
        for threads in [1, 4] {
            let options = Rrm2dOptions { exec: ExecPolicy::threads(threads), ..Default::default() };
            let handle = Prepared2d::new(&data, &space, options).unwrap();
            assert_eq!(handle.solve_rrm_many(&rs).unwrap(), want, "{threads} threads");
        }
    }

    #[test]
    fn dominator_counts_match_brute_force() {
        let datasets = [quantized(300, 11), anticorrelated(300, 12), extreme(200, 13)];
        for (i, data) in datasets.iter().enumerate() {
            for space in spaces() {
                let (c0, c1) = weight_interval(space.as_ref()).unwrap();
                let lines = DualLine::from_dataset(data);
                let n = lines.len();
                let tracked = u_skyline_2d(data, c0, c1);
                let orders = endpoint_orders(&lines, c0, c1);
                let scale =
                    lines.iter().map(|l| l.intercept.abs() + l.slope.abs()).fold(0.0, f64::max);
                let m = MARGIN * scale;
                let h: Vec<[f64; 2]> = lines.iter().map(|l| [l.eval(c0), l.eval(c1)]).collect();
                let near = |u: usize| {
                    let tie = |t: usize| h[t][0] <= h[u][0] + m && h[t][0] >= h[u][0] - m;
                    tracked.iter().any(|&t| t as usize != u && tie(t as usize))
                };
                let near: Vec<bool> = (0..n).map(near).collect();
                // The default limit caps some counts; a floor of `n` caps none.
                for floor in [0, n] {
                    let (counts, _) = count_dominators(&lines, &tracked, (c0, c1), &orders, floor);
                    for o in 0..n {
                        let beaten_by =
                            |m: f64, u: usize| h[u][0] > h[o][0] + m && h[u][1] > h[o][1] + m;
                        let brute = if near[o] {
                            0
                        } else {
                            (0..n).filter(|&u| !near[u] && beaten_by(m, u)).count()
                        };
                        let want = brute.min(counts.limit) as u32;
                        assert_eq!(counts.rows[o], want, "data {i} floor {floor} row {o}");
                        // The margin only ever drops rows that beat `o`.
                        let strict = (0..n).filter(|&u| beaten_by(0.0, u)).count() as u32;
                        assert!(counts.rows[o] <= strict, "data {i} row {o}");
                    }
                }
            }
        }
    }

    #[test]
    fn smallest_keeps_the_limit_smallest_offers() {
        let mut rng = StdRng::seed_from_u64(31);
        for (n, limit) in [(1, 1), (130, 1), (130, 7), (130, 64), (130, 500)] {
            // Offer every position once, in random order.
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                order.swap(i, rng.random_range(0..=i));
            }
            let mut set = Smallest::new(n, limit);
            for (i, &p) in order.iter().enumerate() {
                set.offer(p);
                for q in 0..=n {
                    let below = order[..=i].iter().filter(|&&o| o < q).count().min(limit);
                    assert_eq!(set.below(q) as usize, below, "n {n} limit {limit} offer {i} q {q}");
                }
            }
        }
    }

    #[test]
    fn bands_past_the_count_limit_are_recounted() {
        let data = quantized(400, 21);
        let lines = DualLine::from_dataset(&data);
        let n = lines.len();
        let tracked = u_skyline_2d(&data, 0.0, 1.0);
        let bands = Bands::new(
            lines.clone(),
            tracked.clone(),
            0.0,
            1.0,
            usize::MAX,
            Parallelism::Sequential,
        );
        let (exact, _) = count_dominators(&lines, &tracked, (0.0, 1.0), &bands.orders, n);
        let limit = bands.counts().limit;
        for k in [limit, limit + 1, 3 * limit] {
            let want = (0..n)
                .filter(|&i| (exact.rows[i] as usize) < k || tracked.contains(&(i as u32)))
                .count();
            assert!(want < n, "k={k} keeps every row");
            assert_eq!(bands.band(k).lines.len(), want, "k={k}");
        }
        assert!(bands.counts().limit >= 3 * limit);
    }

    #[test]
    fn lb1_reads_the_endpoint_orders() {
        // Table I: t3 ranks 3rd at x = 0 and 3rd at x = 1 (behind t7 and t4),
        // and no row is better at both ends.
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
        let tracked = u_skyline_2d(&data, 0.0, 1.0);
        let lines = DualLine::from_dataset(&data);
        let orders = endpoint_orders(&lines, 0.0, 1.0);
        let (counts, lb1) = count_dominators(&lines, &tracked, (0.0, 1.0), &orders, 0);
        assert_eq!(lb1, 3);
        // t5 and t6 are each beaten at both ends by t2, t3 and t4; nothing
        // reaches the limit 4·LB₁ − 2.
        assert_eq!(counts, Counts { limit: 10, rows: vec![0, 0, 0, 0, 3, 3, 0] });
    }
}
