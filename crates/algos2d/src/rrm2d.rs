//! **2DRRM** — the exact 2D dynamic program (Algorithm 1, Theorems 4–5).
//!
//! The solver sweeps a vertical line across the dual arrangement,
//! maintaining for every skyline line `lg(i)` and every budget `j ≤ r` the
//! best convex chain ending in `lg(i)` with at most `j` lines
//! ([`crate::matrix::DpMatrix`]). At each crossing where a skyline line's
//! rank increases, the affected chains' maximum ranks are folded; when the
//! other line is also a skyline line, a cheaper chain may be extended onto
//! it. The best column-`r` cell at the end is the optimal solution.
//!
//! # Event machinery
//!
//! The paper maintains all `n` lines in a sorted list and pops adjacent
//! intersections from a heap (`O(n² log n)`). Only crossings that involve
//! a skyline line change a rank the DP reads, and only ranks up to the
//! answer matter, so the default replays the `O(s·|band|)` crossings of
//! the skyline lines with the *K-band* from a pre-sorted stream
//! ([`rrm_geom::events`]): the rows fewer than `K` others beat at both
//! ends of the weight interval. A prepare bins the rows into a dominance
//! grid and sorts none of them; band `K` sorts and sweeps only the rows
//! the grid cannot place outside it. A replay over the band is exact
//! when its best final rank is at most `K`; otherwise `K` doubles and the
//! replay runs again on the wider band. `K` starts at 32, or for `r = 1`
//! at `2·LB₁ − 1` (`LB₁` is the best worst-endpoint rank of any row), a
//! bound on every budget's optimum that also caps the doubling; past it
//! `K` keeps doubling, so exactness never rests on the bound. The bound
//! sorts the grid columns and rows that can hold its row, so it is
//! computed only when `r = 1` or a doubling past 32 first needs it. This
//! is the solver's only query path. The paper's original
//! full-arrangement sweep over every row is kept as the reference
//! function [`full_sweep_rrm`]: it answers identically, and
//! `repro ablation` and the tests fail on any difference.
//!
//! # Degeneracies
//!
//! The paper assumes no two tuples tie under any utility function. Exact
//! duplicates are deduplicated among candidates (they share one dual line);
//! concurrent crossings at exactly equal `x` are processed in a
//! deterministic order, which can momentarily over-count a rank at a
//! measure-zero point — the usual general-position caveat.

use std::collections::HashMap;
use std::sync::Mutex;

use rrm_core::memo::lock;
use rrm_core::{
    Algorithm, AppliedUpdate, Budget, Dataset, ExecPolicy, Memo, PreparedSolver, RrmError,
    Solution, UtilitySpace,
};
use rrm_geom::dual::{normalized_interval_2d, DualLine};
use rrm_geom::events::initial_ranks;
use rrm_geom::sweep::arrangement_sweep;

use crate::band::{Bands, Rows, START};
use crate::matrix::DpMatrix;

/// The weight interval `[c0, c1]` a 2D utility space occupies after
/// normalization (`u → (c, 1-c)`), i.e. the paper's "render the scene"
/// step. Errors when the space is empty or not polyhedral.
pub fn weight_interval(space: &dyn UtilitySpace) -> Result<(f64, f64), RrmError> {
    if space.dim() != 2 {
        return Err(RrmError::DimensionMismatch { expected: 2, got: space.dim() });
    }
    if space.is_full() {
        return Ok((0.0, 1.0));
    }
    let rows = space
        .cone_rows()
        .ok_or_else(|| RrmError::InvalidSpace("2D solvers need a polyhedral space".into()))?;
    normalized_interval_2d(&rows)
        .ok_or_else(|| RrmError::InvalidSpace("the 2D cone contains no direction".into()))
}

/// Deduplicate identical dual lines among candidates (exact duplicate
/// tuples share one dual line; a convex chain uses strictly increasing
/// slopes, so at most one copy could ever appear in a solution), then sort
/// by slope ascending (the paper's g(1..s) order).
fn dedup_candidates(lines: &[DualLine], candidates: &[u32]) -> Vec<u32> {
    let mut sky: Vec<u32> = Vec::with_capacity(candidates.len());
    let mut seen: Vec<(f64, f64)> = Vec::new();
    for &c in candidates {
        let l = &lines[c as usize];
        if !seen.iter().any(|&(s, b)| s == l.slope && b == l.intercept) {
            seen.push((l.slope, l.intercept));
            sky.push(c);
        }
    }
    sky.sort_unstable_by(|&a, &b| {
        lines[a as usize]
            .slope
            .partial_cmp(&lines[b as usize].slope)
            .expect("finite slopes")
            .then(a.cmp(&b))
    });
    sky
}

/// The DP core: one matrix run over an event source. Lines are indexed in
/// one space — every row, or a band's rows: `row_of` maps a line to its
/// skyline row (`usize::MAX` = not a skyline line), `init_ranks` holds
/// every line's rank at `c0`, and `for_each` must yield the `(down, up)`
/// pairs of the skyline lines' crossings in `(x, down, up)` order. `sky`
/// holds the skyline rows' ids, which the chains report. Requires
/// `sky.len() > r` (the caller handles the trivial whole-skyline case).
fn dp_run(
    data: &Dataset,
    sky: &[u32],
    row_of: &[usize],
    init_ranks: &[usize],
    r: usize,
    for_each: impl FnOnce(&mut dyn FnMut(u32, u32)),
) -> Result<Solution, RrmError> {
    let mut rank: Vec<u32> = init_ranks.iter().map(|&v| v as u32).collect();
    let mut sky_ranks = vec![0u32; sky.len()];
    for (line, &row) in row_of.iter().enumerate() {
        if row != usize::MAX {
            sky_ranks[row] = rank[line];
        }
    }
    let mut m = DpMatrix::new(sky, &sky_ranks, r);

    // Event replay: at each crossing the `down` line's rank increases.
    // `extend` must see `M[i_down, h-1]` pre-fold, hence extend-then-fold.
    let mut apply = |down: u32, up: u32| {
        rank[down as usize] += 1;
        rank[up as usize] -= 1;
        let i_down = row_of[down as usize];
        if i_down != usize::MAX {
            let j_up = row_of[up as usize];
            if j_up != usize::MAX {
                m.extend(i_down, j_up, sky[j_up]);
            }
            m.fold_rank(i_down, rank[down as usize]);
        }
    };
    for_each(&mut apply);

    let (best_row, best_rank) = m.best_final();
    let chain = m.chain_lines(best_row, r);
    Solution::new(chain, Some(best_rank as usize), Algorithm::TwoDRrm, data)
}

/// The paper's 2DRRM query as it states it: one DP replay over the
/// sweep of the whole arrangement of every row's dual line
/// ([`arrangement_sweep`]), with no band and no doubling. It answers
/// `minimize(r)` exactly as a [`crate::TwoDRrmSolver`] handle does, at
/// `O(n² log n)` cost: the reference `repro ablation` and the tests check
/// the K-band replay against.
pub fn full_sweep_rrm(
    data: &Dataset,
    space: &dyn UtilitySpace,
    r: usize,
) -> Result<Solution, RrmError> {
    Algorithm::TwoDRrm.ensure_supported(data, space)?;
    let (c0, c1) = weight_interval(space)?;
    let Rows { lines, skyline, .. } = Rows::new(data, (c0, c1))?;
    if r == 0 {
        return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
    }
    let sky = dedup_candidates(&lines, &skyline);
    if sky.len() <= r {
        return Solution::new(sky, Some(1), Algorithm::TwoDRrm, data);
    }
    let mut row_of = vec![usize::MAX; lines.len()];
    for (i, &id) in sky.iter().enumerate() {
        row_of[id as usize] = i;
    }
    dp_run(data, &sky, &row_of, &initial_ranks(&lines, c0), r, |apply| {
        arrangement_sweep(&lines, c0, c1, |_, down, up, _| apply(down, up));
    })
}

/// **2DRRM** bound to one dataset and utility space: the exact 2D solver.
/// RRM (`space = L`) or RRRM (restricted `space`) is one DP replay per
/// size budget; exact RRR is a binary search on the size over those
/// replays ("2DRRM can be easily adopted for RRR by a binary search").
///
/// Preparation (Theorem 3's candidates) renders the space onto its weight
/// interval, computes the dual lines, bins them into a dominance grid by
/// their heights at both ends and reads the restricted skyline off the
/// rows no other row beats by a cell at both. The K-bands,
/// and their crossing streams (materialized when they fit a fixed memory
/// budget), are built on first use and cached, so each later query is one
/// DP replay. Solutions are memoized per `r` below the candidate count (a
/// budget at or above it is the whole candidate set, answered without
/// the memo), which also makes the RRR binary search and the Pareto
/// frontier ([`crate::pareto_frontier`]) share probe work.
pub struct Prepared2d {
    data: Dataset,
    /// Chunks crossing classification and the per-`r` memo fill (the DP
    /// replay itself is sequential: rank updates chain).
    exec: ExecPolicy,
    /// Pre-dedup candidate count: the RRR binary search's upper bound.
    sky_total: usize,
    /// Tracks the deduplicated candidates in ascending slope order (the
    /// DP rows).
    bands: Bands,
    /// Exact solutions per size budget below the candidate count.
    solved: Memo<usize, Solution>,
    /// Per size budget, a threshold its optimum is known to exceed (a band
    /// replay that did not certify).
    exceeds: Mutex<HashMap<usize, usize>>,
}

impl Prepared2d {
    /// Build the sweep state under `exec`. The caller has run
    /// [`Algorithm::ensure_supported`] (`d = 2`).
    pub(crate) fn new(
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Self, RrmError> {
        let interval = weight_interval(space)?;
        let rows = Rows::new(data, interval)?;
        Ok(Self::assemble(data.clone(), exec, interval, rows))
    }

    /// Track `rows`' deduplicated skyline on `interval`.
    fn assemble(data: Dataset, exec: ExecPolicy, interval: (f64, f64), rows: Rows) -> Self {
        let sky_total = rows.skyline.len();
        let sky = dedup_candidates(&rows.lines, &rows.skyline);
        let solved = Memo::new(sky.len());
        let bands = Bands::new(rows, sky, interval, exec.parallelism);
        Self { data, exec, sky_total, bands, solved, exceeds: Mutex::default() }
    }

    /// The prepared state of the post-update dataset: a fresh prepare of
    /// `upd.new` on the same interval. A grid prepare costs about as much
    /// as patching any kept order would, and the old bands and memoized
    /// solutions describe the old rows.
    fn patched(&self, upd: &AppliedUpdate) -> Result<Self, RrmError> {
        let interval = self.bands.interval();
        let rows = Rows::new(&upd.new, interval)?;
        Ok(Self::assemble(upd.new.clone(), self.exec, interval, rows))
    }

    /// Answer from one band holding every row: the all-rows stream the
    /// bands are checked against.
    #[cfg(test)]
    pub(crate) fn all_rows(mut self) -> Self {
        self.bands.all_rows();
        self
    }

    /// Number of candidate (restricted-skyline, deduplicated) tuples.
    pub fn candidates(&self) -> usize {
        self.bands.tracked().len()
    }

    /// One exact solve for size budget `r` below the candidate count
    /// against the cached sweep state, bypassing the memo.
    fn compute_rrm(&self, r: usize) -> Result<Solution, RrmError> {
        let mut k = if r == 1 { self.bands.cap() } else { START };
        loop {
            if let Some(sol) = self.replay_band(r, k)? {
                return Ok(sol);
            }
            let cap = self.bands.cap();
            k = if k < cap { (2 * k).min(cap) } else { k.saturating_mul(2) };
        }
    }

    /// One DP replay for budget `r` over the band for `k`: the exact
    /// solution when the band certifies its rank-regret, `None` when the
    /// optimum exceeds `k`.
    fn replay_band(&self, r: usize, k: usize) -> Result<Option<Solution>, RrmError> {
        let band = self.bands.band(k);
        let sol =
            dp_run(&self.data, self.bands.tracked(), &band.row_of, &band.init_ranks, r, |apply| {
                band.replay(|c| apply(c.down, c.up))
            })?;
        Ok((sol.certified_regret.expect("the DP certifies") <= band.k).then_some(sol))
    }

    /// Exact RRM for one size budget, replaying the cached sweep.
    fn rrm(&self, r: usize) -> Result<Solution, RrmError> {
        if r == 0 {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let sky = self.bands.tracked();
        // The whole candidate set has rank-regret 1 (the top-1 for any u
        // in the space is never U-dominated, hence a candidate).
        if sky.len() <= r {
            return Solution::new(sky.to_vec(), Some(1), Algorithm::TwoDRrm, &self.data);
        }
        self.solved.get_or_try_build(r, || self.compute_rrm(r))
    }

    /// Budget `r`'s exact solution if its rank-regret is at most `k`, else
    /// `None`. An unsettled budget is decided by one replay on the band for
    /// `k`, so the RRR size search never replays wider than its threshold.
    fn rrm_within(&self, r: usize, k: usize) -> Result<Option<Solution>, RrmError> {
        let within = |sol: Solution| (sol.certified_regret.expect("certified") <= k).then_some(sol);
        if let Some(sol) = self.solved.get(&r) {
            return Ok(within(sol));
        }
        if self.candidates() <= r {
            return self.rrm(r).map(within);
        }
        if lock(&self.exceeds).get(&r).is_some_and(|&e| e >= k) {
            return Ok(None);
        }
        match self.replay_band(r, k)? {
            Some(sol) => Ok(within(self.solved.get_or_build(r, || sol))),
            None => {
                let mut exceeds = lock(&self.exceeds);
                let e = exceeds.entry(r).or_insert(0);
                *e = (*e).max(k);
                Ok(None)
            }
        }
    }

    /// Answer many size budgets at once: unsettled budgets are replayed
    /// concurrently (one DP run per budget over the shared sweep state,
    /// chunked by the handle's execution policy) and memoized; results
    /// come back in request order. Each budget's replay is independent, so
    /// the solutions are identical to serial `solve_rrm` calls at any
    /// thread count. This is the memo-fill path behind
    /// [`crate::pareto_frontier`].
    pub fn solve_rrm_many(&self, rs: &[usize]) -> Result<Vec<Solution>, RrmError> {
        if rs.contains(&0) {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let mut missing: Vec<usize> =
            rs.iter().copied().filter(|r| self.solved.get(r).is_none()).collect();
        missing.sort_unstable();
        missing.dedup();
        // Surface the first error (by ascending budget) before assembling.
        for sol in rrm_par::par_map(&missing, self.exec.parallelism, |&r| self.rrm(r)) {
            sol?;
        }
        rs.iter().map(|&r| self.rrm(r)).collect()
    }
}

impl PreparedSolver for Prepared2d {
    fn algorithm(&self) -> Algorithm {
        Algorithm::TwoDRrm
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    /// The 2D solver takes no budget knobs; the budget is ignored.
    fn solve_rrm(&self, r: usize, _budget: &Budget) -> Result<Solution, RrmError> {
        self.rrm(r)
    }

    /// Exact RRR: binary search on the output size, each probe settled on
    /// the band for `k`. Errors with [`RrmError::Unsupported`] when even
    /// the full candidate set misses the threshold — impossible for
    /// `k ≥ 1` since the whole (restricted) skyline achieves rank-regret 1.
    fn solve_rrr(&self, k: usize, _budget: &Budget) -> Result<Solution, RrmError> {
        if k == 0 {
            return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
        }
        let mut lo = 1usize;
        let mut hi = self.sky_total;
        let mut best: Option<Solution> = None;
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            match self.rrm_within(mid, k)? {
                Some(sol) => {
                    hi = mid - 1;
                    best = Some(sol);
                }
                None => lo = mid + 1,
            }
        }
        best.ok_or_else(|| RrmError::Unsupported("no candidate set meets the threshold".into()))
    }

    /// `None` when the new rows fail the prepare (a fresh prepare then
    /// reports why).
    fn apply_update(&self, upd: &AppliedUpdate) -> Option<Box<dyn PreparedSolver>> {
        Some(Box::new(self.patched(upd).ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{ConeSpace, FullSpace, WeakRankingSpace};

    /// One exact RRM solve through a fresh handle.
    fn solve(data: &Dataset, r: usize, space: &dyn UtilitySpace) -> Result<Solution, RrmError> {
        Prepared2d::new(data, space, ExecPolicy::default())?.rrm(r)
    }

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
    fn table1_r1_returns_t3() {
        // The paper: "When r = 1, the solutions for RRM and RMS are {t3}
        // and {t4} respectively."
        let sol = solve(&table1(), 1, &FullSpace::new(2)).unwrap();
        assert_eq!(sol.indices, vec![2], "expected {{t3}}");
        assert_eq!(sol.certified_regret, Some(3), "Table I rank-ratio of t3");
        assert_eq!(sol.algorithm, Algorithm::TwoDRrm);
    }

    #[test]
    fn table1_shift_invariance() {
        // Figure 2's shift: +4 on A2. The RRM solution stays {t3}.
        let shifted = table1().shift(&[0.0, 4.0]);
        let sol = solve(&shifted, 1, &FullSpace::new(2)).unwrap();
        assert_eq!(sol.indices, vec![2]);
        assert_eq!(sol.certified_regret, Some(3));
    }

    #[test]
    fn table2_subset_r2() {
        // D = {t1, t2, t3}, r = 2 -> optimal rank-regret 2, {t1,t2} or {t1,t3}.
        let d = Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75]]).unwrap();
        let sol = solve(&d, 2, &FullSpace::new(2)).unwrap();
        assert_eq!(sol.certified_regret, Some(2));
        assert!(sol.indices == vec![0, 1] || sol.indices == vec![0, 2], "{:?}", sol.indices);
    }

    #[test]
    fn whole_skyline_fits() {
        let d = table1();
        // Skyline has 5 tuples; with r = 5 the answer is the skyline with
        // rank-regret 1.
        let sol = solve(&d, 5, &FullSpace::new(2)).unwrap();
        assert_eq!(sol.indices, vec![0, 1, 2, 3, 6]);
        assert_eq!(sol.certified_regret, Some(1));
    }

    #[test]
    fn full_sweep_agrees_with_event_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let spaces: [Box<dyn UtilitySpace>; 3] = [
            Box::new(FullSpace::new(2)),
            Box::new(WeakRankingSpace::new(2, 1)),
            // Weights on attribute 1 within [0.40, 0.45].
            Box::new(ConeSpace::new(2, vec![vec![0.6, -0.4], vec![-0.55, 0.45]])),
        ];
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..20 {
            let n = rng.random_range(3..40);
            let rows: Vec<[f64; 2]> =
                (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
            let d = Dataset::from_rows(&rows).unwrap();
            for (s, space) in spaces.iter().enumerate() {
                let stream = Prepared2d::new(&d, space.as_ref(), ExecPolicy::default()).unwrap();
                for r in 1..4 {
                    let a = stream.rrm(r).unwrap();
                    let b = full_sweep_rrm(&d, space.as_ref(), r).unwrap();
                    let ctx = format!("trial {trial} space {s} r={r}: {rows:?}");
                    assert_eq!(a.indices, b.indices, "{ctx}");
                    assert_eq!(a.certified_regret, b.certified_regret, "{ctx}");
                }
            }
        }
    }

    #[test]
    fn tiny_chunks_do_not_change_results() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(4);
        let rows: Vec<[f64; 2]> =
            (0..30).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let d = Dataset::from_rows(&rows).unwrap();
        let a = solve(&d, 3, &FullSpace::new(2)).unwrap();
        let mut tiny = Prepared2d::new(&d, &FullSpace::new(2), ExecPolicy::default()).unwrap();
        tiny.bands.chunk_target(3);
        let b = tiny.rrm(3).unwrap();
        assert_eq!(a.certified_regret, b.certified_regret);
        assert_eq!(a.indices, b.indices);
    }

    #[test]
    fn restricted_space_lowers_regret() {
        // "Under the same settings, the solution of RRRM usually has a
        // lower rank-regret than RRM, owing to fewer functions in U."
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let rows: Vec<[f64; 2]> =
            (0..200).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let d = Dataset::from_rows(&rows).unwrap();
        let full = solve(&d, 2, &FullSpace::new(2)).unwrap();
        let restricted = solve(&d, 2, &WeakRankingSpace::new(2, 1)).unwrap();
        assert!(
            restricted.certified_regret.unwrap() <= full.certified_regret.unwrap(),
            "restricted {restricted:?} vs full {full:?}"
        );
    }

    #[test]
    fn duplicates_are_deduplicated() {
        let d = Dataset::from_rows(&[[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]).unwrap();
        let sol = solve(&d, 2, &FullSpace::new(2)).unwrap();
        // Never both copies of the duplicate.
        assert!(!(sol.indices.contains(&0) && sol.indices.contains(&1)));
    }

    #[test]
    fn r_zero_rejected() {
        assert!(matches!(
            solve(&table1(), 0, &FullSpace::new(2)),
            Err(RrmError::OutputSizeTooSmall { .. })
        ));
    }

    #[test]
    fn wrong_dimension_rejected() {
        use rrm_core::Solver;
        let d = Dataset::from_rows(&[[0.1, 0.2, 0.3]]).unwrap();
        let solver = crate::TwoDRrmSolver;
        assert!(matches!(
            solver.prepare(&d, &FullSpace::new(3), ExecPolicy::default()),
            Err(RrmError::Unsupported(_))
        ));
    }

    #[test]
    fn prepared_replay_equals_one_shot() {
        // A warm handle, asked each budget twice (the second from the
        // memo), answers exactly like a fresh handle per query.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<[f64; 2]> =
            (0..120).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let d = Dataset::from_rows(&rows).unwrap();
        for space in [
            Box::new(FullSpace::new(2)) as Box<dyn rrm_core::UtilitySpace>,
            Box::new(WeakRankingSpace::new(2, 1)),
        ] {
            let warm = Prepared2d::new(&d, space.as_ref(), ExecPolicy::default()).unwrap();
            for r in [4usize, 1, 6, 2, 5, 3] {
                let fresh = solve(&d, r, space.as_ref()).unwrap();
                assert_eq!(warm.rrm(r).unwrap(), fresh, "r={r}");
                assert_eq!(warm.rrm(r).unwrap(), fresh, "r={r} (memo)");
            }
        }
    }

    #[test]
    fn prepared_streaming_fallback_equals_materialized() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(12);
        let rows: Vec<[f64; 2]> = (0..80)
            .map(|_| {
                let t = rng.random::<f64>();
                [t, 1.0 - t + 0.05 * rng.random::<f64>()]
            })
            .collect();
        let d = Dataset::from_rows(&rows).unwrap();
        // chunk_target 1 forces the no-cache streaming path.
        let exec = ExecPolicy::default();
        let mut streamed = Prepared2d::new(&d, &FullSpace::new(2), exec).unwrap();
        streamed.bands.chunk_target(1);
        let cached = Prepared2d::new(&d, &FullSpace::new(2), exec).unwrap();
        for r in [1usize, 3, 5] {
            assert_eq!(streamed.rrm(r).unwrap(), cached.rrm(r).unwrap(), "r={r}");
        }
        assert!(!streamed.bands.materialized().contains(&true));
        assert!(!cached.bands.materialized().contains(&false));
    }

    #[test]
    fn prepared_rrr_matches_exact_search() {
        // The RRR binary search on a warm handle (its probes memoized by
        // earlier searches) answers like a fresh handle per threshold.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(13);
        let rows: Vec<[f64; 2]> =
            (0..90).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let d = Dataset::from_rows(&rows).unwrap();
        let space = FullSpace::new(2);
        let b = Budget::UNLIMITED;
        let warm = Prepared2d::new(&d, &space, ExecPolicy::default()).unwrap();
        for k in [4usize, 1, 7, 2] {
            let fresh = Prepared2d::new(&d, &space, ExecPolicy::default()).unwrap();
            assert_eq!(warm.solve_rrr(k, &b).unwrap(), fresh.solve_rrr(k, &b).unwrap(), "k={k}");
        }
        assert!(warm.solve_rrr(0, &b).is_err());
        assert!(warm.solve_rrm(0, &b).is_err());
    }

    #[test]
    fn incremental_update_matches_fresh_prepare() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rrm_core::{apply_updates, UpdateOp};
        let mut rng = StdRng::seed_from_u64(19);
        for trial in 0..8 {
            let n = rng.random_range(6..60);
            // Quantized coordinates provoke duplicate lines, rank ties and
            // concurrent crossings — the degenerate cases dedup and the
            // event order must get right.
            let rows: Vec<[f64; 2]> = (0..n)
                .map(|_| {
                    [rng.random_range(0..32) as f64 / 32.0, rng.random_range(0..32) as f64 / 32.0]
                })
                .collect();
            let data = Dataset::from_rows(&rows).unwrap();
            for space in [
                Box::new(FullSpace::new(2)) as Box<dyn rrm_core::UtilitySpace>,
                Box::new(WeakRankingSpace::new(2, 1)),
            ] {
                let mut prepared =
                    Prepared2d::new(&data, space.as_ref(), ExecPolicy::default()).unwrap();
                let mut cur = data.clone();
                for batch in 0..4 {
                    let mut ops: Vec<UpdateOp> = Vec::new();
                    for _ in 0..rng.random_range(0..cur.n().min(4)) {
                        let i = rng.random_range(0..cur.n());
                        if !ops.contains(&UpdateOp::Delete(i)) {
                            ops.push(UpdateOp::Delete(i));
                        }
                    }
                    for _ in 0..rng.random_range(1..4) {
                        ops.push(UpdateOp::Insert(vec![
                            rng.random_range(0..32) as f64 / 32.0,
                            rng.random_range(0..32) as f64 / 32.0,
                        ]));
                    }
                    let upd = apply_updates(&cur, &ops).unwrap();
                    prepared = prepared.patched(&upd).unwrap();
                    let fresh =
                        Prepared2d::new(&upd.new, space.as_ref(), ExecPolicy::default()).unwrap();
                    // Candidate, LB₁ and band-membership parity, then
                    // answers.
                    let ctx = format!("trial {trial} batch {batch}");
                    assert_eq!(prepared.bands.tracked(), fresh.bands.tracked(), "{ctx}");
                    assert_eq!(prepared.sky_total, fresh.sky_total, "{ctx}");
                    assert_eq!(prepared.bands.cap(), fresh.bands.cap(), "{ctx}");
                    for k in [1, 2, 4, 8] {
                        let members = prepared.bands.members(k);
                        assert_eq!(members, fresh.bands.members(k), "{ctx} k={k}");
                    }
                    for r in 1..4 {
                        assert_eq!(prepared.rrm(r).unwrap(), fresh.rrm(r).unwrap(), "{ctx} r={r}");
                    }
                    assert_eq!(
                        prepared.solve_rrr(2, &Budget::UNLIMITED).unwrap(),
                        fresh.solve_rrr(2, &Budget::UNLIMITED).unwrap(),
                        "{ctx}"
                    );
                    cur = upd.new.clone();
                }
            }
        }
    }

    #[test]
    fn incremental_update_streaming_fallback_still_answers_right() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use rrm_core::{apply_updates, UpdateOp};
        let mut rng = StdRng::seed_from_u64(29);
        let rows: Vec<[f64; 2]> =
            (0..40).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        // chunk_target 1: band streams never materialize.
        let exec = ExecPolicy::default();
        let prepared = Prepared2d::new(&data, &FullSpace::new(2), exec).unwrap();
        let upd =
            apply_updates(&data, &[UpdateOp::Delete(3), UpdateOp::Insert(vec![0.9, 0.9])]).unwrap();
        let mut prepared = prepared.patched(&upd).unwrap();
        prepared.bands.chunk_target(1);
        let mut fresh = Prepared2d::new(&upd.new, &FullSpace::new(2), exec).unwrap();
        fresh.bands.chunk_target(1);
        for r in 1..4 {
            assert_eq!(prepared.rrm(r).unwrap(), fresh.rrm(r).unwrap(), "r={r}");
        }
        let materialized = prepared.bands.materialized();
        assert!(!materialized.is_empty() && !materialized.contains(&true), "{materialized:?}");
    }

    #[test]
    fn poisoned_cache_locks_still_answer_like_a_fresh_handle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        let rows: Vec<[f64; 2]> =
            (0..300).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let d = Dataset::from_rows(&rows).unwrap();
        let b = Budget::UNLIMITED;
        let fresh = || Prepared2d::new(&d, &FullSpace::new(2), ExecPolicy::default()).unwrap();
        let handle = fresh();
        // A memoized budget and a built band first; then a poisoned
        // threshold lock and interrupted budget and band builds.
        handle.rrm(2).unwrap();
        crate::poison(&handle.exceeds);
        crate::interrupt(&handle.solved, 3);
        handle.bands.interrupt(3);
        for r in 1..=4 {
            assert_eq!(handle.rrm(r).unwrap(), fresh().rrm(r).unwrap(), "r={r}");
        }
        assert_eq!(handle.solve_rrr(3, &b).unwrap(), fresh().solve_rrr(3, &b).unwrap());
        let rs = [1, 5, 6];
        assert_eq!(handle.solve_rrm_many(&rs).unwrap(), fresh().solve_rrm_many(&rs).unwrap());
    }

    #[test]
    fn budgets_past_the_candidate_count_are_answered_but_not_kept() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(37);
        let rows: Vec<[f64; 2]> = (0..2_000)
            .map(|_| {
                let t = rng.random::<f64>();
                [t, 1.0 - t + 0.5 * rng.random::<f64>()]
            })
            .collect();
        let d = Dataset::from_rows(&rows).unwrap();
        let (space, b) = (FullSpace::new(2), Budget::UNLIMITED);
        let fresh = || Prepared2d::new(&d, &space, ExecPolicy::default()).unwrap();
        let handle = fresh();
        let candidates = handle.candidates();
        assert!(candidates >= 8, "{candidates} candidates");
        for r in (1..=10 * candidates).rev().chain(1..=candidates) {
            assert_eq!(
                handle.solve_rrm(r, &b).unwrap(),
                fresh().solve_rrm(r, &b).unwrap(),
                "r={r}"
            );
            assert!(handle.solved.len() < candidates, "r={r}: {} kept", handle.solved.len());
        }
        assert_eq!(handle.solve_rrr(3, &b).unwrap(), fresh().solve_rrr(3, &b).unwrap());
        assert!(lock(&handle.exceeds).keys().all(|&r| r < candidates));
    }

    #[test]
    fn budgets_settled_on_the_first_band_never_sort_at_c1() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<[f64; 2]> =
            (0..2_000).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let d = Dataset::from_rows(&rows).unwrap();
        let handle = Prepared2d::new(&d, &FullSpace::new(2), ExecPolicy::default()).unwrap();
        let regret = handle.rrm(3).unwrap().certified_regret.unwrap();
        assert!(regret <= START, "the r = 3 optimum {regret} needs a wider band");
        assert!(!handle.bands.cap_known(), "r = 3 computed LB₁");
        handle.rrm(1).unwrap();
        assert!(handle.bands.cap_known(), "r = 1 starts at the cap");
    }

    #[test]
    fn weight_interval_full_and_restricted() {
        assert_eq!(weight_interval(&FullSpace::new(2)).unwrap(), (0.0, 1.0));
        let (lo, hi) = weight_interval(&WeakRankingSpace::new(2, 1)).unwrap();
        assert!((lo - 0.5).abs() < 1e-12 && (hi - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_r() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(6);
        let rows: Vec<[f64; 2]> =
            (0..120).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let d = Dataset::from_rows(&rows).unwrap();
        let mut prev = usize::MAX;
        for r in 1..=6 {
            let sol = solve(&d, r, &FullSpace::new(2)).unwrap();
            let k = sol.certified_regret.unwrap();
            assert!(k <= prev, "regret must not increase with r");
            assert!(sol.size() <= r);
            prev = k;
        }
    }
}
