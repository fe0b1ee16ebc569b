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
//! intersections from a heap (`O(n² log n)`); only crossings that involve
//! a skyline line ever change a rank the DP reads, so the default here
//! replays exactly those `O(s·n)` crossings from a pre-sorted stream
//! ([`rrm_geom::events`]). Set [`Rrm2dOptions::use_full_sweep`] to run the
//! paper's original full-arrangement sweep instead (identical output;
//! compared in the `ablation_sweep` benchmark and `repro ablation`).
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

use rrm_core::{
    Algorithm, AppliedUpdate, Budget, Dataset, ExecPolicy, PreparedSolver, RrmError, Solution,
    UtilitySpace,
};
use rrm_geom::dual::{cmp_at, normalized_interval_2d, DualLine};
use rrm_geom::events::{crossing_of_pair, crossings_with_tracked_capped_par, stream_crossings};
use rrm_geom::sweep::arrangement_sweep;
use rrm_geom::Crossing;
use rrm_skyline::restricted::u_transform_2d;
use rrm_skyline::IncrementalSkyline;

use crate::matrix::DpMatrix;

/// Tuning knobs for 2DRRM ([`Prepared2d`]).
#[derive(Debug, Clone, Copy)]
pub struct Rrm2dOptions {
    /// Replay the paper-faithful full arrangement sweep on every query
    /// instead of the skyline-crossing event stream (which is then never
    /// materialized). Same output, more events.
    pub use_full_sweep: bool,
    /// Upper bound on crossings materialized at once by the event stream.
    pub chunk_target: usize,
    /// Data-parallelism for crossing classification and the prepared
    /// per-`r` memo fill. The DP replay itself is inherently sequential
    /// (rank updates chain); outputs are identical at any thread count.
    pub exec: ExecPolicy,
}

impl Default for Rrm2dOptions {
    fn default() -> Self {
        Self { use_full_sweep: false, chunk_target: 4 << 20, exec: ExecPolicy::default() }
    }
}

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

/// 1-based ranks from a sorted id order (the inverse permutation
/// [`initial_ranks`] builds after sorting).
fn ranks_of_order(order: &[u32]) -> Vec<usize> {
    let mut rank = vec![0usize; order.len()];
    for (pos, &id) in order.iter().enumerate() {
        rank[id as usize] = pos + 1;
    }
    rank
}

/// The `(x, down, up)` total order every crossing stream is sorted by.
fn cmp_crossing(a: &Crossing, b: &Crossing) -> std::cmp::Ordering {
    a.x.partial_cmp(&b.x).expect("finite crossings").then(a.down.cmp(&b.down)).then(a.up.cmp(&b.up))
}

/// Merge two `(x, down, up)`-sorted crossing streams. Keys are distinct
/// (one crossing per line pair), so the merge is the unique sorted
/// sequence — exactly what a full re-sort would produce.
fn merge_crossings(a: Vec<Crossing>, b: Vec<Crossing>) -> Vec<Crossing> {
    if b.is_empty() {
        return a;
    }
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if cmp_crossing(&a[i], &b[j]).is_lt() {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// The DP core: one matrix run over an event source. `for_each` must
/// yield the crossings of `stream_crossings(lines, sky, c0, c1, ..)` in
/// exactly that order (streamed, materialized, or full-sweep — all three
/// are order-identical for tracked lines). Requires `sky.len() > r` (the
/// caller handles the trivial whole-skyline case).
fn dp_run(
    data: &Dataset,
    lines: &[DualLine],
    sky: &[u32],
    init_ranks: &[usize],
    r: usize,
    for_each: impl FnOnce(&mut dyn FnMut(f64, u32, u32)),
) -> Result<Solution, RrmError> {
    // Row lookup: line id -> skyline row (usize::MAX = not a skyline line).
    let mut row_of = vec![usize::MAX; lines.len()];
    for (i, &id) in sky.iter().enumerate() {
        row_of[id as usize] = i;
    }

    let mut rank: Vec<u32> = init_ranks.iter().map(|&v| v as u32).collect();
    let sky_ranks: Vec<u32> = sky.iter().map(|&id| rank[id as usize]).collect();
    let mut m = DpMatrix::new(sky, &sky_ranks, r);

    // Event replay: at each crossing the `down` line's rank increases.
    // `extend` must see `M[i_down, h-1]` pre-fold, hence extend-then-fold.
    let mut apply = |_x: f64, down: u32, up: u32| {
        rank[down as usize] += 1;
        rank[up as usize] -= 1;
        let i_down = row_of[down as usize];
        if i_down != usize::MAX {
            let j_up = row_of[up as usize];
            if j_up != usize::MAX {
                m.extend(i_down, j_up, up);
            }
            m.fold_rank(i_down, rank[down as usize]);
        }
    };
    for_each(&mut apply);

    let (best_row, best_rank) = m.best_final();
    let chain = m.chain_lines(best_row, r);
    Solution::new(chain, Some(best_rank as usize), Algorithm::TwoDRrm, data)
}

/// **2DRRM** bound to one dataset and utility space: the exact 2D solver.
/// RRM (`space = L`) or RRRM (restricted `space`) is one DP replay per
/// size budget; exact RRR is a binary search on the size over those
/// replays ("2DRRM can be easily adopted for RRR by a binary search").
///
/// Preparation (Theorem 3's candidates and the dual-line crossings)
/// renders the space onto its weight interval, computes the restricted
/// skyline, the dual lines and the initial ranks, and — when they fit the
/// [`Rrm2dOptions::chunk_target`] memory budget, and the full sweep is
/// not requested — materializes the sorted crossing stream, so each query
/// is one DP replay instead of a full sweep reconstruction. Solutions are
/// memoized per `r`, which also makes the RRR binary search and the
/// Pareto frontier ([`crate::pareto_frontier`]) share probe work.
pub struct Prepared2d {
    data: Dataset,
    options: Rrm2dOptions,
    c0: f64,
    c1: f64,
    /// Deduplicated candidates in ascending slope order (the DP rows).
    sky: Vec<u32>,
    /// Pre-dedup candidate count: the RRR binary search's upper bound.
    sky_total: usize,
    lines: Vec<DualLine>,
    init_ranks: Vec<usize>,
    /// Materialized crossings, `None` when they exceed the chunk budget
    /// (the DP then streams per query: slower, but memory stays bounded)
    /// or when [`Rrm2dOptions::use_full_sweep`] replays the arrangement.
    events: Option<Vec<Crossing>>,
    /// Incrementally maintained restricted skyline over the
    /// extreme-direction transform of the data (its skyline *is* the
    /// pre-dedup candidate set).
    usky: IncrementalSkyline,
    /// All line ids sorted by the `x = c0` order — the source of
    /// `init_ranks`, persisted so updates can merge instead of re-sorting.
    order0: Vec<u32>,
    memo: Mutex<HashMap<usize, Solution>>,
}

impl Prepared2d {
    /// Build the sweep state. The caller has run
    /// [`Algorithm::ensure_supported`] (`d = 2`).
    pub(crate) fn new(
        data: &Dataset,
        space: &dyn UtilitySpace,
        options: Rrm2dOptions,
    ) -> Result<Self, RrmError> {
        let (c0, c1) = weight_interval(space)?;
        let usky = IncrementalSkyline::build(&u_transform_2d(data, c0, c1));
        let sky_total = usky.skyline().len();
        let lines = DualLine::from_dataset(data);
        let sky = dedup_candidates(&lines, usky.skyline());
        let mut order0: Vec<u32> = (0..lines.len() as u32).collect();
        rrm_geom::dual::order_at(&lines, &mut order0, c0);
        let init_ranks = ranks_of_order(&order0);
        // Parallel classification: chunked per tracked line, merged by a
        // deterministic total order — bit-identical to the sequential
        // enumeration (see rrm_geom::events).
        let events = if options.use_full_sweep {
            None
        } else {
            crossings_with_tracked_capped_par(
                &lines,
                &sky,
                c0,
                c1,
                options.chunk_target,
                options.exec.parallelism,
            )
        };
        Ok(Self {
            data: data.clone(),
            options,
            c0,
            c1,
            sky,
            sky_total,
            lines,
            init_ranks,
            events,
            usky,
            order0,
            memo: Mutex::new(HashMap::new()),
        })
    }

    /// Rebind the prepared state to the post-update dataset by patching it
    /// in place of a full re-prepare:
    ///
    /// * the restricted-skyline candidate set advances through the
    ///   maintained [`IncrementalSkyline`] (O(churn · s) instead of a full
    ///   sort-filter pass);
    /// * the `x = c0` line order keeps its surviving sequence (the remap is
    ///   monotone and survivors' lines are unchanged) and merges the sorted
    ///   churn in O(n), replacing the O(n log n) re-sort;
    /// * the crossing stream is repaired locally: surviving events that
    ///   still involve a tracked line are remapped (their `x` is a pure
    ///   function of the two unchanged lines), and only pairs with an
    ///   inserted or newly tracked endpoint are re-intersected.
    ///
    /// Every piece is bit-identical to what [`Prepared2d::new`] on
    /// `upd.new` computes — the parity tests below compare the full
    /// internal state, not just answers. Memoized solutions are dropped
    /// (they describe the old rows).
    fn patched(&self, upd: &AppliedUpdate) -> Self {
        let data = upd.new.clone();
        assert_eq!(data.dim(), 2, "updates cannot change the arity");
        let n_new = data.n();
        let first_ins = n_new - upd.inserted.len();
        let lines = DualLine::from_dataset(&data);

        // Candidates: advance the incremental restricted skyline.
        let mut usky = self.usky.clone();
        usky.apply(&u_transform_2d(&data, self.c0, self.c1), &upd.remap, &upd.inserted);
        let sky_total = usky.skyline().len();
        let sky = dedup_candidates(&lines, usky.skyline());

        // Initial ranks at c0: merge the surviving order with the sorted
        // inserts under the same total order `order_at` sorts by.
        let survivors: Vec<u32> =
            self.order0.iter().filter_map(|&id| upd.remap[id as usize]).collect();
        let mut churn: Vec<u32> = upd.inserted.clone();
        churn.sort_unstable_by(|&a, &b| cmp_at(&lines, self.c0, a, b));
        let mut order0 = Vec::with_capacity(n_new);
        let (mut i, mut j) = (0usize, 0usize);
        while i < survivors.len() && j < churn.len() {
            if cmp_at(&lines, self.c0, survivors[i], churn[j]).is_lt() {
                order0.push(survivors[i]);
                i += 1;
            } else {
                order0.push(churn[j]);
                j += 1;
            }
        }
        order0.extend_from_slice(&survivors[i..]);
        order0.extend_from_slice(&churn[j..]);
        let init_ranks = ranks_of_order(&order0);

        // Crossing-event repair, local to the touched lines.
        let events = self.events.as_ref().map(|old_events| {
            let mut ns_mask = vec![false; n_new];
            for &s in &sky {
                ns_mask[s as usize] = true;
            }
            // Old tracked set on surviving new ids.
            let mut os_surv = vec![false; n_new];
            for &t in &self.sky {
                if let Some(nt) = upd.remap[t as usize] {
                    os_surv[nt as usize] = true;
                }
            }
            // R: surviving crossings that still involve a tracked line.
            // The filter preserves sortedness (monotone remap, same x).
            let mut kept: Vec<Crossing> = Vec::with_capacity(old_events.len());
            for c in old_events {
                if let (Some(nd), Some(nu)) = (upd.remap[c.down as usize], upd.remap[c.up as usize])
                {
                    if ns_mask[nd as usize] || ns_mask[nu as usize] {
                        kept.push(Crossing { x: c.x, down: nd, up: nu });
                    }
                }
            }
            // A: pairs the old stream cannot contain, deduplicated by the
            // same skip rule the enumeration passes use.
            let mut fresh: Vec<Crossing> = Vec::new();
            // Inserted tracked lines against everything.
            for &j in &upd.inserted {
                if !ns_mask[j as usize] {
                    continue;
                }
                for o in 0..n_new as u32 {
                    if o == j || (ns_mask[o as usize] && o < j) {
                        continue;
                    }
                    fresh.extend(crossing_of_pair(&lines, j, o, self.c0, self.c1));
                }
            }
            // Surviving tracked lines against the inserted lines, and
            // promoted (newly tracked) survivors against the previously
            // untracked survivors (tracked–old-tracked pairs are in R).
            let mut promoted: Vec<u32> = Vec::new();
            let mut promoted_mask = vec![false; first_ins];
            for &t in &sky {
                if (t as usize) >= first_ins {
                    continue;
                }
                for &o in &upd.inserted {
                    fresh.extend(crossing_of_pair(&lines, t, o, self.c0, self.c1));
                }
                if !os_surv[t as usize] {
                    promoted.push(t);
                    promoted_mask[t as usize] = true;
                }
            }
            for &p in &promoted {
                for o in 0..first_ins as u32 {
                    if o == p || os_surv[o as usize] || (promoted_mask[o as usize] && o < p) {
                        continue;
                    }
                    fresh.extend(crossing_of_pair(&lines, p, o, self.c0, self.c1));
                }
            }
            fresh.sort_unstable_by(cmp_crossing);
            merge_crossings(kept, fresh)
        });
        // Same materialization rule as the capped enumeration: the stream
        // is kept only when it fits the chunk budget.
        let events = match events {
            Some(all) if all.len() <= self.options.chunk_target => Some(all),
            _ => None,
        };

        Self {
            data,
            options: self.options,
            c0: self.c0,
            c1: self.c1,
            sky,
            sky_total,
            lines,
            init_ranks,
            events,
            usky,
            order0,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// Number of candidate (restricted-skyline, deduplicated) tuples.
    pub fn candidates(&self) -> usize {
        self.sky.len()
    }

    /// One DP replay for size budget `r` against the cached sweep state,
    /// bypassing the memo (the unit of work of the parallel memo fill).
    fn compute_rrm(&self, r: usize) -> Result<Solution, RrmError> {
        // The whole candidate set has rank-regret 1 (the top-1 for any u
        // in the space is never U-dominated, hence a candidate).
        if self.sky.len() <= r {
            return Solution::new(self.sky.clone(), Some(1), Algorithm::TwoDRrm, &self.data);
        }
        let (lines, sky, c0, c1) = (&self.lines, &self.sky, self.c0, self.c1);
        dp_run(&self.data, lines, sky, &self.init_ranks, r, |apply| match &self.events {
            Some(events) => {
                for c in events {
                    apply(c.x, c.down, c.up);
                }
            }
            None if self.options.use_full_sweep => {
                arrangement_sweep(lines, c0, c1, |x, down, up, _| apply(x, down, up));
            }
            None => stream_crossings(lines, sky, c0, c1, self.options.chunk_target, |c| {
                apply(c.x, c.down, c.up)
            }),
        })
    }

    /// Exact RRM for one size budget, replaying the cached sweep.
    fn rrm(&self, r: usize) -> Result<Solution, RrmError> {
        if r == 0 {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        if let Some(sol) = self.memo.lock().expect("2D memo poisoned").get(&r) {
            return Ok(sol.clone());
        }
        let sol = self.compute_rrm(r)?;
        self.memo.lock().expect("2D memo poisoned").insert(r, sol.clone());
        Ok(sol)
    }

    /// Answer many size budgets at once: uncached budgets are replayed
    /// concurrently (one DP run per budget over the shared sweep state,
    /// chunked by [`Rrm2dOptions::exec`]) and memoized; results come back
    /// in request order. Each budget's replay is independent, so the
    /// solutions are identical to serial `solve_rrm` calls at any thread
    /// count. This is the memo-fill path behind
    /// [`crate::pareto_frontier`].
    pub fn solve_rrm_many(&self, rs: &[usize]) -> Result<Vec<Solution>, RrmError> {
        if rs.contains(&0) {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let missing: Vec<usize> = {
            let memo = self.memo.lock().expect("2D memo poisoned");
            let mut missing: Vec<usize> =
                rs.iter().copied().filter(|r| !memo.contains_key(r)).collect();
            missing.sort_unstable();
            missing.dedup();
            missing
        };
        let computed =
            rrm_par::par_map(&missing, self.options.exec.parallelism, |&r| self.compute_rrm(r));
        {
            let mut memo = self.memo.lock().expect("2D memo poisoned");
            for (r, sol) in missing.iter().zip(&computed) {
                if let Ok(sol) = sol {
                    memo.insert(*r, sol.clone());
                }
            }
        }
        // Surface the first error (by ascending budget) before assembling.
        for sol in computed {
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

    /// Exact RRR: binary search on the output size over the memoized RRM
    /// replays. Errors with [`RrmError::Unsupported`] when even the full
    /// candidate set misses the threshold — impossible for `k ≥ 1` since
    /// the whole (restricted) skyline achieves rank-regret 1.
    fn solve_rrr(&self, k: usize, _budget: &Budget) -> Result<Solution, RrmError> {
        if k == 0 {
            return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
        }
        let mut lo = 1usize;
        let mut hi = self.sky_total;
        let mut best: Option<Solution> = None;
        while lo <= hi {
            let mid = lo + (hi - lo) / 2;
            let sol = self.rrm(mid)?;
            if sol.certified_regret.expect("certified") <= k {
                hi = mid - 1;
                best = Some(sol);
            } else {
                lo = mid + 1;
            }
        }
        best.ok_or_else(|| RrmError::Unsupported("no candidate set meets the threshold".into()))
    }

    fn apply_update(&self, upd: &AppliedUpdate) -> Option<Box<dyn PreparedSolver>> {
        Some(Box::new(self.patched(upd)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{FullSpace, WeakRankingSpace};

    /// One exact RRM solve through a fresh handle.
    fn solve(
        data: &Dataset,
        r: usize,
        space: &dyn UtilitySpace,
        options: Rrm2dOptions,
    ) -> Result<Solution, RrmError> {
        Prepared2d::new(data, space, options)?.rrm(r)
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
        let sol = solve(&table1(), 1, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        assert_eq!(sol.indices, vec![2], "expected {{t3}}");
        assert_eq!(sol.certified_regret, Some(3), "Table I rank-ratio of t3");
        assert_eq!(sol.algorithm, Algorithm::TwoDRrm);
    }

    #[test]
    fn table1_shift_invariance() {
        // Figure 2's shift: +4 on A2. The RRM solution stays {t3}.
        let shifted = table1().shift(&[0.0, 4.0]);
        let sol = solve(&shifted, 1, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        assert_eq!(sol.indices, vec![2]);
        assert_eq!(sol.certified_regret, Some(3));
    }

    #[test]
    fn table2_subset_r2() {
        // D = {t1, t2, t3}, r = 2 -> optimal rank-regret 2, {t1,t2} or {t1,t3}.
        let d = Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75]]).unwrap();
        let sol = solve(&d, 2, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        assert_eq!(sol.certified_regret, Some(2));
        assert!(sol.indices == vec![0, 1] || sol.indices == vec![0, 2], "{:?}", sol.indices);
    }

    #[test]
    fn whole_skyline_fits() {
        let d = table1();
        // Skyline has 5 tuples; with r = 5 the answer is the skyline with
        // rank-regret 1.
        let sol = solve(&d, 5, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        assert_eq!(sol.indices, vec![0, 1, 2, 3, 6]);
        assert_eq!(sol.certified_regret, Some(1));
    }

    #[test]
    fn full_sweep_agrees_with_event_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let full = Rrm2dOptions { use_full_sweep: true, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        for trial in 0..20 {
            let n = rng.random_range(3..40);
            let rows: Vec<[f64; 2]> =
                (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
            let d = Dataset::from_rows(&rows).unwrap();
            let stream = Prepared2d::new(&d, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
            let sweep = Prepared2d::new(&d, &FullSpace::new(2), full).unwrap();
            // The full sweep replays the arrangement; it keeps no stream.
            assert!(sweep.events.is_none(), "trial {trial}");
            for r in 1..4 {
                let a = stream.rrm(r).unwrap();
                let b = sweep.rrm(r).unwrap();
                assert_eq!(a.certified_regret, b.certified_regret, "trial {trial} r={r}: {rows:?}");
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
        let a = solve(&d, 3, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        let b = solve(
            &d,
            3,
            &FullSpace::new(2),
            Rrm2dOptions { chunk_target: 3, ..Default::default() },
        )
        .unwrap();
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
        let full = solve(&d, 2, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        let restricted =
            solve(&d, 2, &WeakRankingSpace::new(2, 1), Rrm2dOptions::default()).unwrap();
        assert!(
            restricted.certified_regret.unwrap() <= full.certified_regret.unwrap(),
            "restricted {restricted:?} vs full {full:?}"
        );
    }

    #[test]
    fn duplicates_are_deduplicated() {
        let d = Dataset::from_rows(&[[0.9, 0.1], [0.9, 0.1], [0.1, 0.9], [0.5, 0.5]]).unwrap();
        let sol = solve(&d, 2, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        // Never both copies of the duplicate.
        assert!(!(sol.indices.contains(&0) && sol.indices.contains(&1)));
    }

    #[test]
    fn r_zero_rejected() {
        assert!(matches!(
            solve(&table1(), 0, &FullSpace::new(2), Rrm2dOptions::default()),
            Err(RrmError::OutputSizeTooSmall { .. })
        ));
    }

    #[test]
    fn wrong_dimension_rejected() {
        use rrm_core::{ExecPolicy, Solver};
        let d = Dataset::from_rows(&[[0.1, 0.2, 0.3]]).unwrap();
        let solver = crate::TwoDRrmSolver::default();
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
            let warm = Prepared2d::new(&d, space.as_ref(), Rrm2dOptions::default()).unwrap();
            for r in [4usize, 1, 6, 2, 5, 3] {
                let fresh = solve(&d, r, space.as_ref(), Rrm2dOptions::default()).unwrap();
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
        let tiny = Rrm2dOptions { chunk_target: 1, ..Default::default() };
        let streamed = Prepared2d::new(&d, &FullSpace::new(2), tiny).unwrap();
        let cached = Prepared2d::new(&d, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        for r in [1usize, 3, 5] {
            assert_eq!(streamed.rrm(r).unwrap(), cached.rrm(r).unwrap(), "r={r}");
        }
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
        let warm = Prepared2d::new(&d, &space, Rrm2dOptions::default()).unwrap();
        for k in [4usize, 1, 7, 2] {
            let fresh = Prepared2d::new(&d, &space, Rrm2dOptions::default()).unwrap();
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
                    Prepared2d::new(&data, space.as_ref(), Rrm2dOptions::default()).unwrap();
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
                    prepared = prepared.patched(&upd);
                    let fresh =
                        Prepared2d::new(&upd.new, space.as_ref(), Rrm2dOptions::default()).unwrap();
                    // Full internal-state parity, not just answers.
                    let ctx = format!("trial {trial} batch {batch}");
                    assert_eq!(prepared.sky, fresh.sky, "{ctx}");
                    assert_eq!(prepared.sky_total, fresh.sky_total, "{ctx}");
                    assert_eq!(prepared.order0, fresh.order0, "{ctx}");
                    assert_eq!(prepared.init_ranks, fresh.init_ranks, "{ctx}");
                    assert_eq!(prepared.events, fresh.events, "{ctx}");
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
        // chunk_target 1: events never materialize, updates keep None.
        let tiny = Rrm2dOptions { chunk_target: 1, ..Default::default() };
        let mut prepared = Prepared2d::new(&data, &FullSpace::new(2), tiny).unwrap();
        let upd =
            apply_updates(&data, &[UpdateOp::Delete(3), UpdateOp::Insert(vec![0.9, 0.9])]).unwrap();
        prepared = prepared.patched(&upd);
        assert!(prepared.events.is_none());
        let fresh = Prepared2d::new(&upd.new, &FullSpace::new(2), tiny).unwrap();
        for r in 1..4 {
            assert_eq!(prepared.rrm(r).unwrap(), fresh.rrm(r).unwrap(), "r={r}");
        }
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
            let sol = solve(&d, r, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
            let k = sol.certified_regret.unwrap();
            assert!(k <= prev, "regret must not increase with r");
            assert!(sol.size() <= r);
            prev = k;
        }
    }
}
