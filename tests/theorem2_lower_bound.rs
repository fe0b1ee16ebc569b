//! Theorem 2: there are datasets where *every* size-r set has rank-regret
//! Ω(n/r). The quarter-arc construction makes the bound concrete, and the
//! exact 2D solver lets us verify it against the true optimum.

use rank_regret::{
    Budget, Dataset, ExecPolicy, FullSpace, RrmError, Solution, Solver, UtilitySpace,
};
use rrm_2d::TwoDRrmSolver;
use rrm_data::synthetic::lower_bound_arc;
use rrm_eval::estimate_rank_regret_seq;

/// One RRM query through a fresh prepared handle — what `Engine::run`
/// does for a fixed algorithm.
fn run_rrm(
    solver: &dyn Solver,
    data: &Dataset,
    r: usize,
    space: &dyn UtilitySpace,
) -> Result<Solution, RrmError> {
    solver.prepare(data, space, ExecPolicy::default())?.solve_rrm(r, &Budget::UNLIMITED)
}

#[test]
fn arc_optimum_scales_like_n_over_r() {
    // The proof: r tuples leave an angular gap of at least π/(2(r+1)),
    // containing ≥ n/(r+1) − O(1) tuples that outrank both gap endpoints
    // near the gap's bisector direction.
    for &(n, r) in &[(200usize, 3usize), (400, 4), (800, 5), (800, 9)] {
        let data = lower_bound_arc(n, 2);
        let sol = run_rrm(&TwoDRrmSolver::default(), &data, r, &FullSpace::new(2)).unwrap();
        let k = sol.certified_regret.unwrap();
        let bound = n / (2 * (r + 1)) - 2;
        assert!(k >= bound, "n={n} r={r}: optimal regret {k} below the Ω(n/r) bound {bound}");
        // And the optimum is not wildly above the bound either (the
        // construction is tight up to constants).
        assert!(k <= 2 * n / r.max(1), "n={n} r={r}: regret {k} unexpectedly large");
    }
}

#[test]
fn doubling_n_roughly_doubles_the_arc_regret() {
    let r = 4;
    let k1 = run_rrm(&TwoDRrmSolver::default(), &lower_bound_arc(300, 2), r, &FullSpace::new(2))
        .unwrap()
        .certified_regret
        .unwrap();
    let k2 = run_rrm(&TwoDRrmSolver::default(), &lower_bound_arc(600, 2), r, &FullSpace::new(2))
        .unwrap()
        .certified_regret
        .unwrap();
    let ratio = k2 as f64 / k1 as f64;
    assert!((1.5..=2.5).contains(&ratio), "scaling ratio {ratio} (k1={k1}, k2={k2})");
}

#[test]
fn higher_dims_inherit_the_bound() {
    // The construction pads dimensions ≥ 3 with constant 1; the bound
    // survives (checked with the sampled estimator on the HD solver's
    // input format).
    let n = 400;
    let data = lower_bound_arc(n, 4);
    // Evaluate the best *2D-optimal* choice embedded in 4D.
    let data2 = data.project(&[0, 1]).unwrap();
    let sol = run_rrm(&TwoDRrmSolver::default(), &data2, 4, &FullSpace::new(2)).unwrap();
    let est = estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(4), 20_000, 11);
    assert!(est.max_rank >= n / 10 - 2, "embedded arc regret {} too small for n={n}", est.max_rank);
}
