//! Failure injection and degenerate-input robustness across the pipeline.

use rank_regret::prelude::*;
use rank_regret::Tuning;
use rrm_2d::TwoDRrmSolver;
use rrm_data::jitter;
use rrm_eval::exact_rank_regret_2d;
use rrm_hd::{HdrrmOptions, HdrrmSolver};

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

fn quick_hd() -> HdrrmOptions {
    HdrrmOptions { m_override: Some(300), ..Default::default() }
}

/// One request through a one-off session with the default engine.
fn solve(data: &Dataset, request: &Request) -> Solution {
    rank_regret::session(data).run(request).unwrap().solution
}

/// One request through a one-off session whose HDRRM uses [`quick_hd`].
fn solve_quick(data: &Dataset, request: &Request) -> Solution {
    let tuning = Tuning { hdrrm: quick_hd(), ..Default::default() };
    Engine::with_tuning(&tuning).session(data.clone()).run(request).unwrap().solution
}

#[test]
fn single_tuple_dataset() {
    let data = Dataset::from_rows(&[[0.3, 0.7]]).unwrap();
    let sol = solve(&data, &Request::minimize(1));
    assert_eq!(sol.indices, vec![0]);
    assert_eq!(sol.certified_regret, Some(1));
    let sol = solve(&data, &Request::represent(1));
    assert_eq!(sol.indices, vec![0]);
}

#[test]
fn two_identical_tuples() {
    let data = Dataset::from_rows(&[[0.5, 0.5], [0.5, 0.5]]).unwrap();
    let sol = solve(&data, &Request::minimize(1));
    assert_eq!(sol.size(), 1);
    // Under index tie-breaking the first copy has rank 1 everywhere.
    assert_eq!(sol.certified_regret, Some(1));
}

#[test]
fn budget_larger_than_dataset() {
    let data = Dataset::from_rows(&[[0.1, 0.9], [0.9, 0.1], [0.5, 0.5]]).unwrap();
    let sol = solve(&data, &Request::minimize(50));
    assert!(sol.size() <= 3);
    assert_eq!(sol.certified_regret, Some(1));
}

#[test]
fn threshold_larger_than_dataset() {
    let data = rrm_data::synthetic::independent(20, 3, 1);
    let sol = solve_quick(&data, &Request::represent(1000));
    assert!(!sol.indices.is_empty());
}

#[test]
fn extreme_value_ranges() {
    // Mixed-unit data spanning 9 orders of magnitude: solvers must not
    // produce NaN or bogus certificates (exactness is float-limited, so
    // compare against the exact evaluator).
    let data = Dataset::from_rows(&[
        [1.0e9, 3.0e-4],
        [8.0e8, 5.0e-4],
        [2.0e8, 9.0e-4],
        [1.0e7, 9.9e-4],
        [9.9e8, 1.0e-6],
    ])
    .unwrap();
    let sol = run_rrm(&TwoDRrmSolver::default(), &data, 2, &FullSpace::new(2)).unwrap();
    let k = sol.certified_regret.unwrap();
    let (exact, _) = exact_rank_regret_2d(&data, &sol.indices, 0.0, 1.0);
    assert_eq!(k, exact);
    // Normalization gives the same certified value (order-preserving).
    let sol_n =
        run_rrm(&TwoDRrmSolver::default(), &data.normalize(), 2, &FullSpace::new(2)).unwrap();
    assert_eq!(sol_n.certified_regret, sol.certified_regret);
}

#[test]
fn heavily_tied_grid_data_with_jitter() {
    // A 5x5 grid duplicated 8 times: massive exact ties. Raw solving is
    // well-defined (index tie-breaks) but the general-position repair
    // (jitter) must keep certificates consistent with exact evaluation.
    let mut rows = Vec::new();
    for _ in 0..8 {
        for i in 0..5 {
            for j in 0..5 {
                rows.push([i as f64 / 4.0, j as f64 / 4.0]);
            }
        }
    }
    let data = Dataset::from_rows(&rows).unwrap();
    let jittered = jitter(&data, 1e-9, 42);
    let sol = run_rrm(&TwoDRrmSolver::default(), &jittered, 3, &FullSpace::new(2)).unwrap();
    let (exact, _) = exact_rank_regret_2d(&jittered, &sol.indices, 0.0, 1.0);
    assert_eq!(sol.certified_regret, Some(exact));
}

#[test]
fn hd_on_degenerate_low_rank_data() {
    // All tuples on a single line through attribute space: the skyline is
    // tiny and one tuple nearly dominates; HDRRM must terminate quickly
    // with a small certificate.
    let rows: Vec<[f64; 3]> = (0..200)
        .map(|i| {
            let t = i as f64 / 199.0;
            [t, 0.5 * t, 0.25 * t]
        })
        .collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let sol = run_rrm(&HdrrmSolver::new(quick_hd()), &data, 5, &FullSpace::new(3)).unwrap();
    assert_eq!(sol.certified_regret, Some(1), "the top tuple dominates everything");
}

#[test]
fn constant_attribute_everywhere() {
    // Attribute 2 never discriminates; the problem degenerates to 1D on
    // attribute 1 and the single best tuple has regret 1.
    let rows: Vec<[f64; 2]> = (0..50).map(|i| [i as f64 / 49.0, 0.7]).collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let sol = run_rrm(&TwoDRrmSolver::default(), &data, 1, &FullSpace::new(2)).unwrap();
    assert_eq!(sol.certified_regret, Some(1));
    assert_eq!(sol.indices, vec![49]);
}

#[test]
fn nan_rejected_at_the_door() {
    assert!(Dataset::from_rows(&[[f64::NAN, 1.0]]).is_err());
    assert!(Dataset::from_flat(2, vec![0.1, f64::INFINITY]).is_err());
}

#[test]
fn negative_values_are_legal_inputs() {
    // Negated (smaller-is-better) attributes produce negative values; all
    // solvers must handle them (shift invariance means they change
    // nothing).
    let data = Dataset::from_rows(&[[0.9, 10.0], [0.5, 2.0], [0.1, 30.0]])
        .unwrap()
        .negate_attributes(&[1]);
    let sol = run_rrm(&TwoDRrmSolver::default(), &data, 1, &FullSpace::new(2)).unwrap();
    // Tuple 1 (quality 0.5, price 2) is never the worst pick; exactness:
    let (exact, _) = exact_rank_regret_2d(&data, &sol.indices, 0.0, 1.0);
    assert_eq!(sol.certified_regret, Some(exact));

    let data3 = Dataset::from_rows(&[
        [0.9, -10.0, 0.2],
        [0.5, -2.0, 0.8],
        [0.1, -30.0, 0.5],
        [0.7, -15.0, 0.6],
    ])
    .unwrap();
    let sol = run_rrm(&HdrrmSolver::new(quick_hd()), &data3, 3, &FullSpace::new(3)).unwrap();
    assert!(sol.certified_regret.is_some());
}

#[test]
fn restricted_space_narrower_than_data_spread() {
    // A very tight weight box: every sampled direction nearly identical;
    // the solver must still terminate and certify.
    let data = rrm_data::synthetic::anticorrelated(300, 3, 9);
    let space = BoxSpace::around(&[0.5, 0.3, 0.2], 0.01);
    let sol = solve_quick(&data, &Request::minimize(5).within(space));
    // With an (almost) single direction, a handful of tuples reach the
    // very top ranks.
    assert!(sol.certified_regret.unwrap() <= 5, "{:?}", sol.certified_regret);
}
