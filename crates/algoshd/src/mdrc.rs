//! **MDRC** — the space-partitioning heuristic baseline of Asudeh et al.
//!
//! Partition the polar angle space into up to `r` cells (adaptive binary
//! splits of the widest axis, refining the cell whose representative looks
//! worst) and pick per cell the tuple with the best worst-case rank over
//! the cell's probe directions (corners + center). Fast and scalable, but
//! the probes say nothing about the cell's interior, so the output has no
//! rank-regret guarantee — on clustered data (the Weather experiment,
//! Fig. 28) it degrades by orders of magnitude, exactly the behaviour the
//! paper reports.
//!
//! Restricted spaces are rejected by `Algorithm::ensure_supported`,
//! matching Table III ("Suitable for RRRM: No").

use rrm_core::{
    rank, Algorithm, AnytimeSearch, Bounds, Budget, Dataset, ExecPolicy, RrmError, Solution,
    TerminatedBy,
};
use rrm_geom::polar::angles_to_direction;

/// Options for MDRC ([`crate::MdrcSolver`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct MdrcOptions {
    /// Extra probe directions per cell in addition to the `2^(d-1)`
    /// corners and the center (sampled on a fixed sub-grid).
    pub probes_per_axis: usize,
    /// Data-parallelism for the per-cell probe evaluations. Engine-level
    /// contexts override the default; representatives are identical at
    /// any thread count.
    pub exec: ExecPolicy,
}

#[derive(Debug, Clone)]
struct Cell {
    lo: Vec<f64>,
    hi: Vec<f64>,
    /// Best tuple for this cell and its worst probe rank.
    representative: u32,
    worst_rank: usize,
}

/// MDRC for RRM as an anytime refinement: a size ≤ `r` set chosen by
/// recursive angle-space partitioning, `certified_regret` `None` (no
/// guarantee). Every refinement step improves the answer, so an early
/// stop simply returns the cells refined so far (fewer, coarser
/// representatives — still a valid size ≤ `r` set). MDRC probes say
/// nothing about cell interiors, so no rank bounds are attached; a
/// cut-off run carries only its [`TerminatedBy`] reason. The budget's
/// `max_enumerations` caps the number of cell evaluations, next to its
/// time limit.
pub(crate) fn mdrc_anytime(
    data: &Dataset,
    r: usize,
    opts: MdrcOptions,
    budget: &Budget,
) -> Result<Solution, RrmError> {
    if r == 0 {
        return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
    }
    let mut search = AnytimeSearch::new(budget, budget.max_enumerations);
    // The root cell is always evaluated (the answer must be non-empty);
    // it still counts against the evaluation budget.
    search.take_probe();
    search.note_node();
    let mut terminated = TerminatedBy::Completed;
    let ad = data.dim() - 1; // angle-space dimensionality
    let root = evaluate_cell(data, &vec![0.0; ad], &vec![std::f64::consts::FRAC_PI_2; ad], opts);
    let mut cells = vec![root];
    // Refine until r cells exist (or cells stop being splittable).
    while cells.len() < r {
        // No incumbent bounds to tighten (MDRC certifies nothing), so the
        // gap check is inert; the time limit still fires here.
        if let Some(t) = search.should_stop(Bounds { lower: 1, upper: 1 }) {
            terminated = t;
            break;
        }
        // Each split evaluates two child cells.
        if !search.take_probe() || !search.take_probe() {
            terminated = TerminatedBy::Counter;
            break;
        }
        // Worst representative first.
        let (idx, _) =
            cells.iter().enumerate().max_by_key(|(_, c)| c.worst_rank).expect("non-empty cells");
        let cell = cells.swap_remove(idx);
        // Split along the widest angle axis.
        let axis = (0..ad)
            .max_by(|&a, &b| {
                let wa = cell.hi[a] - cell.lo[a];
                let wb = cell.hi[b] - cell.lo[b];
                wa.partial_cmp(&wb).expect("finite widths")
            })
            .expect("at least one axis");
        let width = cell.hi[axis] - cell.lo[axis];
        if width < 1e-6 {
            cells.push(cell); // too narrow to split further
            break;
        }
        let mid = 0.5 * (cell.lo[axis] + cell.hi[axis]);
        let mut lo_hi = cell.hi.clone();
        lo_hi[axis] = mid;
        let mut hi_lo = cell.lo.clone();
        hi_lo[axis] = mid;
        cells.push(evaluate_cell(data, &cell.lo, &lo_hi, opts));
        cells.push(evaluate_cell(data, &hi_lo, &cell.hi, opts));
        search.note_node();
        search.note_node();
    }
    let ids: Vec<u32> = cells.iter().map(|c| c.representative).collect();
    Solution::new(ids, None, Algorithm::Mdrc, data)
        .map(|s| s.with_termination(terminated).with_report(search.report))
}

/// Probe the cell (corners, center and optional sub-grid) and pick the
/// tuple minimizing the maximum rank across probes.
fn evaluate_cell(data: &Dataset, lo: &[f64], hi: &[f64], opts: MdrcOptions) -> Cell {
    let ad = lo.len();
    let mut probes: Vec<Vec<f64>> = Vec::new();
    // Corners: 2^ad angle vectors.
    for mask in 0..(1u32 << ad) {
        let angles: Vec<f64> =
            (0..ad).map(|i| if mask & (1 << i) != 0 { hi[i] } else { lo[i] }).collect();
        probes.push(angles);
    }
    // Center.
    probes.push(lo.iter().zip(hi).map(|(a, b)| 0.5 * (a + b)).collect());
    // Optional sub-grid along each axis.
    for extra in 1..=opts.probes_per_axis {
        let f = extra as f64 / (opts.probes_per_axis + 1) as f64;
        probes.push(lo.iter().zip(hi).map(|(a, b)| a + f * (b - a)).collect());
    }

    // Worst rank per tuple across probes: each chunk of probes streams
    // its max updates into one n-length vector (the `O(n log n)` sorts
    // dominate), then chunk vectors merge elementwise — `max` commutes,
    // so the result is identical at any thread count, and transient
    // memory is one vector per chunk rather than one per probe. Scoring
    // runs through the blocked SoA kernel, one scratch per chunk.
    let dirs: Vec<Vec<f64>> = probes.iter().map(|angles| angles_to_direction(angles)).collect();
    let n = data.n();
    let pol = opts.exec.parallelism;
    let soa = data.soa();
    let chunk = rrm_par::adaptive_chunk(dirs.len(), n * data.dim());
    let worst = rrm_par::par_map_reduce(
        &dirs,
        chunk,
        pol,
        |_, dirs_chunk| {
            let mut worst = vec![0usize; n];
            let mut scratch = rrm_core::ScoreScratch::new();
            rrm_core::kernel::for_each_scores(soa, dirs_chunk, &mut scratch, |_, scores| {
                let order = rank::argsort_desc(scores);
                for (pos, &t) in order.iter().enumerate() {
                    if pos + 1 > worst[t as usize] {
                        worst[t as usize] = pos + 1;
                    }
                }
            });
            worst
        },
        |mut a, b| {
            for (w, r) in a.iter_mut().zip(b) {
                if r > *w {
                    *w = r;
                }
            }
            a
        },
    )
    .expect("cells always have probes");
    let representative =
        (0..n as u32).min_by_key(|&t| worst[t as usize]).expect("non-empty dataset");
    Cell {
        lo: lo.to_vec(),
        hi: hi.to_vec(),
        representative,
        worst_rank: worst[representative as usize],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{Budget, FullSpace, Solver, UtilitySpace, WeakRankingSpace};
    use rrm_data::synthetic::{correlated, independent};
    use rrm_eval::estimate_rank_regret_seq;

    /// One MDRC query through a fresh handle (capability check included).
    fn run_rrm(
        data: &Dataset,
        r: usize,
        space: &dyn UtilitySpace,
        opts: MdrcOptions,
    ) -> Result<Solution, RrmError> {
        crate::MdrcSolver::new(opts)
            .prepare(data, space, ExecPolicy::default())?
            .solve_rrm(r, &Budget::UNLIMITED)
    }

    #[test]
    fn respects_budget_and_runs() {
        let data = independent(500, 4, 71);
        for r in [1usize, 5, 10] {
            let sol = run_rrm(&data, r, &FullSpace::new(4), MdrcOptions::default()).unwrap();
            assert!(sol.size() <= r);
            assert_eq!(sol.certified_regret, None);
        }
    }

    #[test]
    fn rejects_restricted_space() {
        let data = independent(50, 3, 72);
        let err = run_rrm(&data, 5, &WeakRankingSpace::new(3, 1), MdrcOptions::default());
        assert!(matches!(err, Err(RrmError::Unsupported(_))));
    }

    #[test]
    fn reasonable_on_easy_data() {
        // On correlated data a single good tuple dominates: MDRC should
        // find a low-regret set.
        let data = correlated(1000, 3, 73);
        let sol = run_rrm(&data, 5, &FullSpace::new(3), MdrcOptions::default()).unwrap();
        let est = estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(3), 5000, 74);
        assert!(est.max_rank <= 50, "regret {} on correlated data", est.max_rank);
    }

    #[test]
    fn probes_improve_or_match() {
        let data = independent(400, 3, 75);
        let coarse = run_rrm(
            &data,
            6,
            &FullSpace::new(3),
            MdrcOptions { probes_per_axis: 0, ..Default::default() },
        )
        .unwrap();
        let fine = run_rrm(
            &data,
            6,
            &FullSpace::new(3),
            MdrcOptions { probes_per_axis: 3, ..Default::default() },
        )
        .unwrap();
        let ec = estimate_rank_regret_seq(&data, &coarse.indices, &FullSpace::new(3), 4000, 76);
        let ef = estimate_rank_regret_seq(&data, &fine.indices, &FullSpace::new(3), 4000, 76);
        // More probes usually help; never catastrophically worse.
        assert!(ef.max_rank <= 3 * ec.max_rank.max(3));
    }

    #[test]
    fn two_d_works() {
        let data = independent(200, 2, 77);
        let sol = run_rrm(&data, 4, &FullSpace::new(2), MdrcOptions::default()).unwrap();
        assert!(sol.size() <= 4);
    }
}
