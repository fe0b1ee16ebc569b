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
//! A prepare sorts no row. It bins every row into a dominance grid
//! ([`Grid`]) by its line's heights at `c0` and `c1`, in the manner of the
//! K-skyband's dominance regions (Papadias, Tao, Fu & Seeger, "Progressive
//! skyline computation in database systems", TODS 2005), and counts per
//! cell the rows at least two cells above it at both ends: each of them
//! beats every row of the cell by the margin. The U-skyline the solvers
//! track is read off the rows whose count is 0 ([`Rows`]). Band `K` sorts
//! only the rows whose count is below `K` and marks the band in one sweep
//! down their order at `c0` ([`Bands::band`]): every row that beats one of
//! them is one of them, so the sweep marks exactly the band a sweep over
//! all rows would. `LB₁`, which reads ranks at both ends, sorts only the
//! grid columns and rows whose cells can hold its row ([`Bands::cap`]).
//!
//! Every sort here is a counting sort (`rrm_geom`'s `counting` module):
//! [`order_at`] buckets rows by height, one bucket per row, and a band's
//! stream counts its crossings per `x`-bucket, then enumerates them again
//! straight into one exact-size buffer. Each bucket is then sorted by the
//! exact key, so the orders are the comparison sorts' to the bit.

use std::collections::BinaryHeap;
use std::sync::{Arc, OnceLock};

use rrm_core::rank::descending_bits;
use rrm_core::{Dataset, Memo, RrmError, PROBE_CACHE_CAP};
use rrm_geom::dual::{order_at, overflowing_span, DualLine};
use rrm_geom::events::{crossings_with_tracked_capped_par, stream_crossings};
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

/// The most cells on a side of the dominance grid: a cell id then fits in
/// 14 bits, beside the two flags below.
const MAX_SIDE: usize = 128;

/// A cell id's flag for a row within the margin of a tracked line other
/// than itself at `c0`: it is in every band and beats no row.
const NEAR: u16 = 1 << 15;

/// A cell id's flag for a tracked row: it is in every band.
const TRACKED: u16 = 1 << 14;

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

/// Equal-width bins over a range of heights, each more than twice the
/// margin wide. A bin never decreases as the height grows, so a higher bin
/// holds only higher heights; two heights within the margin of each other
/// lie in the same bin or adjacent ones; and a height two or more bins
/// above another leads it by more than a bin's width, so by the margin.
#[derive(Clone, Copy)]
struct Bins {
    lo: f64,
    /// Bins per unit of height; 0 for a single bin.
    per_unit: f64,
    last: usize,
}

impl Bins {
    /// `count` bins over `[lo, hi]`, or a single one when a bin would be
    /// at most twice `margin` wide or the span is not finite. Heights
    /// outside the range land in the first or the last bin.
    fn new((lo, hi): (f64, f64), count: usize, margin: f64) -> Self {
        let per_unit = count as f64 / (hi - lo);
        let wide = (hi - lo) / count as f64 > 2.0 * margin;
        if count > 1 && per_unit.is_finite() && per_unit > 0.0 && wide {
            Self { lo, per_unit, last: count - 1 }
        } else {
            Self { lo, per_unit: 0.0, last: 0 }
        }
    }

    fn len(&self) -> usize {
        self.last + 1
    }

    #[inline]
    fn of(&self, h: f64) -> usize {
        // Through u32, whose saturating cast is cheaper than usize's.
        (((h - self.lo) * self.per_unit) as u32).min(self.last as u32) as usize
    }
}

/// The dominance grid: every row binned by its line's height at `c0` (its
/// column) and at `c1` (its grid row) into `side × side` cells ([`Bins`]).
/// A row two or more columns and two or more grid rows above another beats
/// it by the margin at both ends.
struct Grid {
    /// Cells per side: the largest power of two at most `√n`, at most
    /// [`MAX_SIDE`]; 1 when a cell would be at most twice the margin wide
    /// or the heights' span is not finite.
    side: usize,
    /// `log2(side)`: a cell id is `column << shift | grid row`.
    shift: u32,
    /// The lowest and the highest height at `c0`.
    span0: (f64, f64),
    /// The margin a row must lead another by to beat it.
    margin: f64,
    /// Per row id, its cell id with the [`NEAR`] and [`TRACKED`] flags.
    cells: Vec<u16>,
    /// Rows per cell.
    counts: Vec<u32>,
    /// Per cell, the rows, near ones aside once flagged, in the cells at
    /// least two columns and two grid rows above it: each beats every row
    /// of the cell.
    beaten: Vec<u32>,
}

impl Grid {
    /// Bin `lines` by their heights at `c0` and `c1` in two passes: one
    /// for the heights' spans and the margin, one for the cells.
    fn new(lines: &[DualLine], (c0, c1): (f64, f64)) -> Self {
        let (mut lo0, mut hi0) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut lo1, mut hi1) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut scale = 0.0f64;
        // Plain compares: no height is NaN (slopes and intercepts are
        // finite), and they keep `f64::min`'s extra work out of the loop.
        for line in lines {
            let (h0, h1) = (line.eval(c0), line.eval(c1));
            if h0 < lo0 {
                lo0 = h0;
            }
            if h0 > hi0 {
                hi0 = h0;
            }
            if h1 < lo1 {
                lo1 = h1;
            }
            if h1 > hi1 {
                hi1 = h1;
            }
            let size = line.intercept.abs() + line.slope.abs();
            if size > scale {
                scale = size;
            }
        }
        let (lo, hi) = ([lo0, lo1], [hi0, hi1]);
        let margin = MARGIN * scale;
        let root = (lines.len() as f64).sqrt() as usize;
        let side = if root < 2 { 1 } else { (1 << root.ilog2()).min(MAX_SIDE) };
        let mut axes = [0, 1].map(|e| Bins::new((lo[e], hi[e]), side, margin));
        if axes.iter().any(|bins| bins.len() != side) {
            axes = [Bins::new((0.0, 0.0), 1, margin); 2];
        }
        let side = axes[0].len();
        let mut counts = vec![0; side * side];
        let shift = side.trailing_zeros();
        let cells = lines
            .iter()
            .map(|line| {
                let cell = axes[0].of(line.eval(c0)) << shift | axes[1].of(line.eval(c1));
                counts[cell] += 1;
                cell as u16
            })
            .collect();
        let mut grid =
            Grid { side, shift, span0: (lo[0], hi[0]), margin, cells, counts, beaten: Vec::new() };
        grid.beaten = grid.count_beaten(&grid.counts);
        grid
    }

    /// Row `i`'s cell id, flags aside.
    #[inline]
    fn cell(&self, i: usize) -> usize {
        (self.cells[i] & !(NEAR | TRACKED)) as usize
    }

    #[inline]
    fn column(&self, cell: usize) -> usize {
        cell >> self.shift
    }

    #[inline]
    fn row(&self, cell: usize) -> usize {
        cell & (self.side - 1)
    }

    /// Per cell, the sum of `counts` over the cells at least two columns
    /// and two grid rows above it: suffix sums along each axis, shifted.
    fn count_beaten(&self, counts: &[u32]) -> Vec<u32> {
        let side = self.side;
        let mut sums = counts.to_vec();
        for column in sums.chunks_exact_mut(side) {
            for b in (0..side - 1).rev() {
                column[b] += column[b + 1];
            }
        }
        for a in (0..side - 1).rev() {
            let (column, above) = sums[a * side..].split_at_mut(side);
            column.iter_mut().zip(&above[..side]).for_each(|(sum, up)| *sum += up);
        }
        let mut beaten = vec![0; side * side];
        for a in 0..side.saturating_sub(2) {
            let from = (a + 2) * side + 2;
            beaten[a * side..][..side - 2].copy_from_slice(&sums[from..][..side - 2]);
        }
        beaten
    }
}

/// What a 2D prepare derives from the rows: every row's dual line, their
/// dominance grid, and the U-skyline over `[c0, c1]`, ascending.
pub(crate) struct Rows {
    pub(crate) lines: Vec<DualLine>,
    grid: Grid,
    pub(crate) skyline: Vec<u32>,
}

impl Rows {
    /// Read the U-skyline, the 2D skyline of the rows' [`u_scores_2d`],
    /// off the rows no other row beats by two grid cells at both ends. A
    /// row beaten so trails its beater by more than the margin, far above
    /// the rounding between a height and a score, so it is strictly
    /// U-dominated, and by one of those rows (a chain of beaters ends at
    /// one): it cannot move the max scan. A line's
    /// height at `c0` is its score there up to rounding, so a stable sort
    /// by the score repairs the [`order_at`] order's inversions first: one
    /// pass over the order when it has none, as at `c0 = 0`.
    pub(crate) fn new(data: &Dataset, (c0, c1): (f64, f64)) -> Result<Self, RrmError> {
        let lines = dual_lines(data)?;
        let grid = Grid::new(&lines, (c0, c1));
        let mut kept: Vec<u32> =
            (0..lines.len() as u32).filter(|&i| grid.beaten[grid.cell(i as usize)] == 0).collect();
        order_at(&lines, &mut kept, c0);
        let mut scored: Vec<(u32, [f64; 2])> =
            kept.iter().map(|&i| (i, u_scores_2d(data.row(i as usize), c0, c1))).collect();
        scored.sort_by_key(|&(_, [at0, _])| descending_bits(at0));
        let skyline = skyline_2d_sorted(scored);
        Ok(Self { lines, grid, skyline })
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

/// A band's candidates, the rows the grid leaves it, and which of them the
/// band holds.
struct Marked {
    /// Candidate row ids, ascending.
    rows: Vec<u32>,
    /// Their dual lines, by candidate index.
    lines: Vec<DualLine>,
    /// Candidate indices in [`order_at`] order at `c0`.
    order: Vec<u32>,
    /// Per candidate index, whether the band holds it.
    keep: Vec<bool>,
}

/// The band builder a prepared 2D handle owns: the rows' dual lines and
/// dominance grid, the tracked lines whose ranks its solver reads, and the
/// bands built so far. A band is built on first use and kept, for at most
/// [`PROBE_CACHE_CAP`] `K`s.
pub(crate) struct Bands {
    c0: f64,
    c1: f64,
    lines: Vec<DualLine>,
    /// Near and tracked rows flagged, and near rows left out of `beaten`.
    grid: Grid,
    tracked: Vec<u32>,
    /// [`Bands::cap`], once a query has asked for it.
    cap: OnceLock<usize>,
    chunk_target: usize,
    parallelism: Parallelism,
    /// Every band is at least this wide (`usize::MAX` in tests: one band
    /// holding every row).
    floor: usize,
    /// Per `K` asked for, its band: only callers of the same `K` wait on
    /// one build.
    built: Memo<usize, Arc<Band>>,
}

impl Bands {
    /// The band builder over `rows` on `[c0, c1]`. `tracked` lists the row
    /// ids whose ranks the solver reads, in its row order; every band
    /// keeps them. A band's stream is materialized when it holds at most
    /// [`CHUNK_TARGET`] crossings, classified under `parallelism`.
    ///
    /// Flags the tracked rows and the near ones: a row within the margin
    /// of a tracked line other than itself at `c0`. Such a pair's crossing
    /// can lie within rounding of `c0`, where the replay's order at `c0`
    /// and its crossings may disagree for the whole sweep (a crossing at
    /// `x ≈ 1e-451` underflows to `0` and is dropped), so a near row counts
    /// as beaten by none and beats none. Every other pair a band's
    /// exactness argument uses is then separated by the margin at `c0`, so
    /// the replay orders it as the real lines do, except within rounding
    /// of `c1`, where the two lines nearly tie and a margin-separated row
    /// cannot fall between them. Near rows then leave the grid's counts.
    pub(crate) fn new(
        Rows { lines, mut grid, .. }: Rows,
        tracked: Vec<u32>,
        (c0, c1): (f64, f64),
        parallelism: Parallelism,
    ) -> Self {
        // The tracked lines' heights at c0, ascending, and the bins of
        // them and their neighbours: a row within the margin of one lies in
        // a marked bin. With up to 64 bins per tracked line most rows' are
        // not.
        let mut at: Vec<(f64, u32)> =
            tracked.iter().map(|&t| (lines[t as usize].eval(c0), t)).collect();
        at.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        let margin = grid.margin;
        let count = (64 * at.len()).min(lines.len()).next_power_of_two();
        let bins = Bins::new(grid.span0, count, margin);
        let mut marked = vec![false; bins.len()];
        for &(h, _) in &at {
            let b = bins.of(h);
            marked[b.saturating_sub(1)..=(b + 1).min(bins.last)].fill(true);
        }
        let mut near = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            let h = line.eval(c0);
            if !marked[bins.of(h)] {
                continue;
            }
            let (below, above) = (h - margin, h + margin);
            let from = at.partition_point(|&(t, _)| below > t);
            let mut ties = at[from..].iter().take_while(|&&(t, _)| above >= t);
            if ties.any(|&(_, t)| t as usize != i) {
                grid.cells[i] |= NEAR;
                near.push(grid.cell(i));
            }
        }
        if !near.is_empty() {
            let mut free = grid.counts.clone();
            near.iter().for_each(|&cell| free[cell] -= 1);
            grid.beaten = grid.count_beaten(&free);
        }
        for &t in &tracked {
            grid.cells[t as usize] |= TRACKED;
        }
        Self {
            c0,
            c1,
            lines,
            grid,
            tracked,
            cap: OnceLock::new(),
            chunk_target: CHUNK_TARGET,
            parallelism,
            floor: 0,
            built: Memo::new(PROBE_CACHE_CAP),
        }
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

    /// Whether a query has asked for [`Bands::cap`] yet.
    #[cfg(test)]
    pub(crate) fn cap_known(&self) -> bool {
        self.cap.get().is_some()
    }

    /// Per band built so far, whether its stream is materialized.
    #[cfg(test)]
    pub(crate) fn materialized(&self) -> Vec<bool> {
        self.built.values().iter().map(|b| b.events.is_some()).collect()
    }

    /// Interrupt the build of band `k` with a panic, as a build that
    /// panicked would.
    #[cfg(test)]
    pub(crate) fn interrupt(&self, k: usize) {
        crate::interrupt(&self.built, k);
    }

    /// Number of `K`s whose bands are kept.
    #[cfg(test)]
    pub(crate) fn kept(&self) -> usize {
        self.built.len()
    }

    /// `2·LB₁ − 1`, where `LB₁` is the minimum over rows of the worse of
    /// its two endpoint ranks. The row that ranks at most `LB₁` at both
    /// ends ranks at most `2·LB₁ − 1` everywhere between them (a line
    /// above it in the middle is above it at one end), so no size budget's
    /// optimum exceeds this. Computed on first use.
    ///
    /// Every row of a cell ranks, at `c0`, after the rows of the higher
    /// columns and at most their count plus its column's; likewise by grid
    /// rows at `c1`. The best cell's bound bounds `LB₁`, so only rows in
    /// cells whose first ranks stay within it can attain `LB₁`. A row's
    /// rank at an end is the rows in higher columns (grid rows) plus its
    /// place in its own, so only the columns and grid rows that hold such
    /// cells are sorted.
    pub(crate) fn cap(&self) -> usize {
        *self.cap.get_or_init(|| {
            let g = &self.grid;
            let side = g.side;
            let (mut per_column, mut per_row) = (vec![0; side], vec![0; side]);
            for (cell, &count) in g.counts.iter().enumerate() {
                per_column[g.column(cell)] += count as usize;
                per_row[g.row(cell)] += count as usize;
            }
            let above = |per: &[usize]| {
                let mut sum = 0;
                let mut above = vec![0; side];
                for c in (0..side).rev() {
                    above[c] = sum;
                    sum += per[c];
                }
                above
            };
            let (above0, above1) = (above(&per_column), above(&per_row));
            let filled = || (0..side * side).filter(|&cell| g.counts[cell] > 0);
            let bound = filled()
                .map(|cell| {
                    let (a, b) = (g.column(cell), g.row(cell));
                    (above0[a] + per_column[a]).max(above1[b] + per_row[b])
                })
                .min()
                .unwrap_or(0);
            let (mut columns, mut rows) = (vec![false; side], vec![false; side]);
            for cell in filled() {
                let (a, b) = (g.column(cell), g.row(cell));
                if above0[a] < bound && above1[b] < bound {
                    (columns[a], rows[b]) = (true, true);
                }
            }
            let at0 = self.ranks(self.c0, |cell| g.column(cell), &columns, &above0);
            let mut at1 = self.ranks(self.c1, |cell| g.row(cell), &rows, &above1);
            at1.sort_unstable();
            let worse = at0.iter().filter_map(|&(i, r0)| {
                let at = at1.binary_search_by_key(&i, |&(j, _)| j).ok()?;
                Some(r0.max(at1[at].1))
            });
            2 * worse.min().unwrap_or(1) - 1
        })
    }

    /// `(row id, 1-based rank at x)` of every row in the `picked` columns
    /// (or grid rows) of `axis`: its rank is the rows `above` its column
    /// plus its place in its column's [`order_at`] order at `x`.
    fn ranks(
        &self,
        x: f64,
        axis: impl Fn(usize) -> usize,
        picked: &[bool],
        above: &[usize],
    ) -> Vec<(u32, usize)> {
        let g = &self.grid;
        let mut ids: Vec<u32> =
            (0..self.lines.len() as u32).filter(|&i| picked[axis(g.cell(i as usize))]).collect();
        order_at(&self.lines, &mut ids, x);
        let (mut column, mut start) = (usize::MAX, 0);
        let mut ranks = Vec::with_capacity(ids.len());
        for (j, &i) in ids.iter().enumerate() {
            let a = axis(g.cell(i as usize));
            if a != column {
                (column, start) = (a, j);
            }
            ranks.push((i, above[a] + j - start + 1));
        }
        ranks
    }

    /// A band whose replayed ranks are exact up to at least `k`: the
    /// narrowest one already built for at most `2k`, else band `k`, built
    /// now (or by a concurrent caller of the same `k`) and kept.
    pub(crate) fn band(&self, k: usize) -> Arc<Band> {
        let k = k.max(self.floor);
        let ready = self
            .built
            .values()
            .into_iter()
            .filter(|b| b.k >= k && b.built_for <= k.saturating_mul(2))
            .min_by_key(|b| (b.lines.len(), b.built_for));
        ready.unwrap_or_else(|| self.built.get_or_build(k, || Arc::new(self.build(k))))
    }

    /// Band `k`'s candidates and members: whether fewer than `k` rows beat
    /// each candidate at both `x = c0` and `x = c1` by more than the
    /// margin, near rows aside. A candidate is a tracked or near row, or
    /// one the grid counts fewer than `k` beaters for. A row that beats one
    /// of the last kind is a candidate too: it lies in that row's cell or
    /// above it at both ends, so the grid counts no more beaters for it.
    /// The candidates alone therefore decide membership; near rows are in
    /// every band whatever beats them, and a row the grid counts `k`
    /// beaters for is outside band `k`.
    ///
    /// One sweep down the candidates' order at `c0` offers every row that
    /// leads the current one at `c0` by the margin, keeping the `k` highest
    /// `c1` heights offered: `k` rows beat the current one iff the lowest
    /// kept height leads it at `c1` by the margin.
    fn marked(&self, k: usize) -> Marked {
        let g = &self.grid;
        let rows: Vec<u32> = (0..self.lines.len() as u32)
            .filter(|&i| {
                let cell = g.cells[i as usize];
                cell & (NEAR | TRACKED) != 0 || (g.beaten[g.cell(i as usize)] as usize) < k
            })
            .collect();
        let lines: Vec<DualLine> = rows.iter().map(|&i| self.lines[i as usize]).collect();
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        order_at(&lines, &mut order, self.c0);
        let m = rows.len();
        if k >= m {
            return Marked { rows, lines, order, keep: vec![true; m] };
        }
        let margin = g.margin;
        let near = |o: u32| g.cells[rows[o as usize] as usize] & NEAR != 0;
        // Heights at both ends by c0 position, so the sweep reads
        // sequentially; the heights at c0 descend.
        let h: Vec<[f64; 2]> = order
            .iter()
            .map(|&o| {
                let line = lines[o as usize];
                [line.eval(self.c0), line.eval(self.c1)]
            })
            .collect();
        // The `k` highest c1 heights offered so far, as `descending_bits`
        // keys: the top of the heap is the lowest of them.
        let mut highest: BinaryHeap<u64> = BinaryHeap::with_capacity(k);
        let mut keep = vec![false; m];
        let mut q = 0;
        for j in 0..m {
            while q < m && h[q][0] > h[j][0] + margin {
                if !near(order[q]) {
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
            keep[order[j] as usize] = near(order[j]) || !beaten;
        }
        Marked { rows, lines, order, keep }
    }

    /// Per row id, whether band `k` holds it apart from the tracked rows.
    #[cfg(test)]
    pub(crate) fn members(&self, k: usize) -> Vec<bool> {
        let marked = self.marked(k);
        let mut members = vec![false; self.lines.len()];
        for (&i, &keep) in marked.rows.iter().zip(&marked.keep) {
            members[i as usize] = keep;
        }
        members
    }

    fn build(&self, k: usize) -> Band {
        let Marked { rows, lines: candidates, order, mut keep } = self.marked(k);
        let at: Vec<usize> = self
            .tracked
            .iter()
            .map(|t| rows.binary_search(t).expect("every band's candidates hold the tracked rows"))
            .collect();
        at.iter().for_each(|&c| keep[c] = true);
        // Candidate index → band index; the kept lines stay in row order.
        let mut index = vec![u32::MAX; rows.len()];
        let mut lines = Vec::new();
        for (c, line) in candidates.iter().enumerate() {
            if keep[c] {
                index[c] = lines.len() as u32;
                lines.push(*line);
            }
        }
        let tracked: Vec<u32> = at.iter().map(|&c| index[c]).collect();
        let mut row_of = vec![usize::MAX; lines.len()];
        for (i, &t) in tracked.iter().enumerate() {
            row_of[t as usize] = i;
        }
        // The band's order at c0 is its candidates' with the others left
        // out: band indices keep the candidates' id order, so every tie
        // breaks alike.
        let mut init_ranks = vec![0; lines.len()];
        for (rank, &c) in (1..).zip(order.iter().filter(|&&c| keep[c as usize])) {
            init_ranks[index[c as usize] as usize] = rank;
        }
        let events = crossings_with_tracked_capped_par(
            &lines,
            &tracked,
            self.c0,
            self.c1,
            self.chunk_target,
            self.parallelism,
        );
        Band {
            k: if lines.len() == self.lines.len() { usize::MAX } else { k },
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

    /// Rows 2 to 10 tie skyline row 1 at `x = 0` and trail it at `x = 1`,
    /// at least two cells of the 4 × 4 grid above row 0 at both ends: on
    /// the full space these nine near rows alone would put row 0 outside
    /// band 8. The rest lie on the two axes, below row 0 at one end.
    fn near_rows() -> Dataset {
        let mut rows = vec![[0.05, 0.05], [0.7, 0.95]];
        rows.extend((0..9).map(|i| [0.5 + 0.01 * i as f64, 0.95]));
        rows.extend((1..=16).map(|i| [i as f64 / 16.0, 0.0]));
        rows.extend((1..=15).map(|i| [0.0, i as f64 / 16.0]));
        Dataset::from_rows(&rows).unwrap()
    }

    /// Rows on the lattice of eighths, many of them repeated: on the full
    /// space every height lies on a cell edge of the 8 × 8 grid.
    fn on_cell_edges(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = vec![[0.0, 1.0], [1.0, 0.0]];
        rows.extend(
            (0..98).map(|_| {
                [rng.random_range(0..=8) as f64 / 8.0, rng.random_range(0..=8) as f64 / 8.0]
            }),
        );
        Dataset::from_rows(&rows).unwrap()
    }

    /// Heights within about five margins of each other: some rows beat
    /// others, but a cell of the 4 × 4 grid would be at most twice the
    /// margin wide.
    fn narrow(seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<[f64; 2]> = (0..60)
            .map(|_| {
                let step = |rng: &mut StdRng| 1.0 + rng.random_range(0..=100) as f64 * 5e-11;
                [step(&mut rng), step(&mut rng)]
            })
            .collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn band_members_match_brute_force() {
        // In the last set the scale is 2, and on the full space row 0
        // leads row 1 at c0 but at c1 by exactly the margin, which does
        // not count as beating it.
        let at_margin = Dataset::from_rows(&[[MARGIN * 2.0, 0.0], [0.0, -1.0]]).unwrap();
        let datasets = [
            quantized(300, 11),
            anticorrelated(300, 12),
            extreme(200, 13),
            near_rows(),
            on_cell_edges(14),
            narrow(15),
            at_margin,
        ];
        for (i, data) in datasets.iter().enumerate() {
            for space in spaces() {
                let (c0, c1) = weight_interval(space.as_ref()).unwrap();
                let side = Rows::new(data, (c0, c1)).unwrap().grid.side;
                assert_eq!(side == 1, i >= 5, "data {i}: a {side} × {side} grid");
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
        // The grid counts row 0's near beaters until the band builder sets
        // them aside, and row 0 then stays in band 8.
        let rows = Rows::new(&near_rows(), (0.0, 1.0)).unwrap();
        assert!(rows.grid.beaten[rows.grid.cell(0)] > 8);
        let bands = bands_over(&near_rows(), (0.0, 1.0));
        assert!(bands.members(8)[0] && !bands.members(1)[0]);
        assert!(bands.marked(1).rows.len() < near_rows().n());
    }

    #[test]
    fn lb1_matches_brute_force_endpoint_ranks() {
        let mut rng = StdRng::seed_from_u64(24);
        let random = Dataset::from_rows(
            &(0..400).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect::<Vec<_>>(),
        )
        .unwrap();
        let datasets = [random, quantized(400, 21), extreme(300, 22), anticorrelated(1_000, 23)];
        for (i, data) in datasets.iter().enumerate() {
            for space in spaces() {
                let (c0, c1) = weight_interval(space.as_ref()).unwrap();
                let bands = bands_over(data, (c0, c1));
                assert!(bands.grid.side > 1, "data {i}");
                let lines = bands.lines();
                // 1-based ranks at x by counting the lines ahead in
                // `order_at`'s (height, slope, id) order.
                let key = |x: f64, i: usize| {
                    (descending_bits(lines[i].eval(x)), descending_bits(lines[i].slope), i)
                };
                let ranks = |x: f64| -> Vec<usize> {
                    let keys: Vec<_> = (0..lines.len()).map(|i| key(x, i)).collect();
                    keys.iter().map(|k| keys.iter().filter(|o| *o < k).count() + 1).collect()
                };
                let (r0, r1) = (ranks(c0), ranks(c1));
                let lb1 = r0.iter().zip(&r1).map(|(a, b)| *a.max(b)).min().unwrap();
                assert_eq!(bands.cap(), 2 * lb1 - 1, "data {i} [{c0}, {c1}]");
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
                let g = &rows.grid;
                let read = (0..data.n()).filter(|&i| g.beaten[g.cell(i)] == 0).count();
                assert!(read < data.n(), "data {i} [{c0}, {c1}]: the grid kept every row");
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
        let mut order = vec![0, 1];
        order_at(&rows.lines, &mut order, 0.4);
        assert_eq!(order, [0, 1]);
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
