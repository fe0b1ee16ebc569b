//! Failure injection and degenerate-input robustness across the pipeline.

use rank_regret::prelude::*;
use rrm_2d::TwoDRrmSolver;
use rrm_data::jitter;
use rrm_eval::exact_rank_regret_2d;
use rrm_hd::HdrrmSolver;

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

/// Directions HDRRM samples in these checks.
const QUICK: usize = 300;

/// One HDRRM query on [`QUICK`] directions through a fresh handle.
fn run_quick_hd(data: &Dataset, r: usize, space: &dyn UtilitySpace) -> Result<Solution, RrmError> {
    let prepared = HdrrmSolver::default().prepare(data, space, ExecPolicy::default())?;
    prepared.solve_rrm(r, &Budget::with_samples(QUICK))
}

/// One request through a one-off session with the default engine.
fn solve(data: &Dataset, request: &Request) -> Solution {
    rank_regret::session(data).run(request).unwrap().solution
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
    let sol = solve(&data, &Request::represent(1000).samples(QUICK));
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
    let sol = run_rrm(&TwoDRrmSolver, &data, 2, &FullSpace::new(2)).unwrap();
    let k = sol.certified_regret.unwrap();
    let (exact, _) = exact_rank_regret_2d(&data, &sol.indices, 0.0, 1.0);
    assert_eq!(k, exact);
    // Normalization gives the same certified value (order-preserving).
    let sol_n = run_rrm(&TwoDRrmSolver, &data.normalize(), 2, &FullSpace::new(2)).unwrap();
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
    let sol = run_rrm(&TwoDRrmSolver, &jittered, 3, &FullSpace::new(2)).unwrap();
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
    let sol = run_quick_hd(&data, 5, &FullSpace::new(3)).unwrap();
    assert_eq!(sol.certified_regret, Some(1), "the top tuple dominates everything");
}

#[test]
fn constant_attribute_everywhere() {
    // Attribute 2 never discriminates; the problem degenerates to 1D on
    // attribute 1 and the single best tuple has regret 1.
    let rows: Vec<[f64; 2]> = (0..50).map(|i| [i as f64 / 49.0, 0.7]).collect();
    let data = Dataset::from_rows(&rows).unwrap();
    let sol = run_rrm(&TwoDRrmSolver, &data, 1, &FullSpace::new(2)).unwrap();
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
    let sol = run_rrm(&TwoDRrmSolver, &data, 1, &FullSpace::new(2)).unwrap();
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
    let sol = run_quick_hd(&data3, 3, &FullSpace::new(3)).unwrap();
    assert!(sol.certified_regret.is_some());
}

#[test]
fn restricted_space_narrower_than_data_spread() {
    // A very tight weight box: every sampled direction nearly identical;
    // the solver must still terminate and certify.
    let data = rrm_data::synthetic::anticorrelated(300, 3, 9);
    let space = BoxSpace::around(&[0.5, 0.3, 0.2], 0.01);
    let sol = solve(&data, &Request::minimize(5).within(space).samples(QUICK));
    // With an (almost) single direction, a handful of tuples reach the
    // very top ranks.
    assert!(sol.certified_regret.unwrap() <= 5, "{:?}", sol.certified_regret);
}

#[test]
fn mdrrr_r_with_zero_samples_is_a_typed_error() {
    // No sampled direction leaves MDRRRr nothing to cover: both tasks
    // answer `Unsupported`, never a panic or an empty answer.
    let data = rrm_data::synthetic::independent(200, 3, 5);
    let session = rank_regret::session(&data);
    for request in [Request::minimize(4), Request::represent(4)] {
        let err = session.run(&request.algo(Algorithm::MdrrrR).samples(0)).unwrap_err();
        assert!(matches!(err, RrmError::Unsupported(_)), "{err}");
    }
}

/// MDRRR's four request shapes on one dataset, in a fresh session each.
fn mdrrr_requests(data: &Dataset) -> Vec<Result<Solution, RrmError>> {
    [Request::minimize(2), Request::minimize(3), Request::represent(1), Request::represent(2)]
        .into_iter()
        .map(|request| {
            rank_regret::session(data).run(&request.algo(Algorithm::Mdrrr)).map(|r| r.solution)
        })
        .collect()
}

#[test]
fn mdrrr_answers_extreme_magnitudes_with_true_certificates() {
    // Rows near f64::MAX beside subnormal ones once drove a region LP's
    // phase one into a panic. Row 0 dominates every other row.
    let data = Dataset::from_rows(&[
        [1.7e308, 1.7e308],
        [1.0, 0.0],
        [0.0, 1.0],
        [1.7e308, 1e-300],
        [5e-324, 1.7e308],
    ])
    .unwrap();
    for result in mdrrr_requests(&data) {
        let sol = result.expect("MDRRR answers");
        let k = sol.certified_regret.expect("a complete enumeration certifies");
        let est =
            rrm_eval::estimate_rank_regret_seq(&data, &sol.indices, &FullSpace::new(2), 2000, 7);
        assert!(est.max_rank <= k, "{:?}: measured {} above {k}", sol.indices, est.max_rank);
    }
}

#[test]
fn mdrrr_rejects_rows_whose_differences_overflow() {
    // 1.7e308 − (−1.7e308) overflows, so the region LPs would see ±∞
    // coefficients. Solved anyway, `represent(1)` certified regret 1 for
    // [2] or [0, 2], whose worst rank is 4 (row 1, then rows 3 and 4, lead
    // wherever u1 > u0).
    let data = Dataset::from_rows(&[
        [1.7e308, -1.7e308],
        [-1.7e308, 1.7e308],
        [1.0, 0.0],
        [0.0, 1.0],
        [0.5, 0.5],
    ])
    .unwrap();
    for result in mdrrr_requests(&data) {
        assert!(matches!(result, Err(RrmError::Numerical(_))), "{result:?}");
    }
}

/// Rows whose dual lines overflow f64: row 0's slope 1.7e308 − (−1.7e308)
/// in the first, the range of rows 0 and 1's slopes ±1.7e308 in the
/// second.
fn overflowing_dual_lines() -> [Dataset; 2] {
    [
        [[1.7e308, -1.7e308], [-1.7e308, 1.7e308], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        [[1.7e308, 0.0], [0.0, 1.7e308], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
    ]
    .map(|rows| Dataset::from_rows(&rows).unwrap())
}

#[test]
fn two_d_solvers_reject_rows_whose_dual_lines_overflow() {
    // Solved anyway, 2DRRM certified regret 2 for [4] on the first set,
    // whose worst rank is 3, and both 2D solvers certified 1 for [1] on
    // the second, which row 0 outscores at weight 0.9.
    let requests = [Request::minimize(1), Request::minimize(2), Request::represent(1)];
    for (i, data) in overflowing_dual_lines().iter().enumerate() {
        for algo in [Algorithm::TwoDRrm, Algorithm::TwoDRrr] {
            // A fresh session, and one that reaches the rows by an update
            // from a warm handle over safe rows.
            let fresh = rank_regret::session(data);
            let updated = rank_regret::session(&Dataset::from_rows(&[[0.2, 0.8]]).unwrap());
            updated.warm(&[algo]);
            let inserts = data.rows().map(|row| UpdateOp::Insert(row.to_vec()));
            updated.update(&inserts.chain([UpdateOp::Delete(0)]).collect::<Vec<_>>()).unwrap();
            for session in [fresh, updated] {
                for request in &requests {
                    let result = session.run(&request.clone().algo(algo));
                    let err = result.map(|r| r.solution).unwrap_err();
                    assert!(matches!(err, RrmError::Numerical(_)), "set {i} {algo}: {err}");
                }
            }
        }
    }
}

#[test]
fn cli_answers_rows_whose_range_overflows() {
    // Default normalization once turned the first set's attribute 0 into
    // NaN: the 2D solvers and MDRRR panicked, brute force printed NaN.
    let dir = std::env::temp_dir().join(format!("rrm_overflow_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, data) in overflowing_dual_lines().iter().enumerate() {
        let path = dir.join(format!("set{i}.csv"));
        let rows: Vec<String> = data.rows().map(|r| format!("{:e},{:e}", r[0], r[1])).collect();
        std::fs::write(&path, format!("a,b\n{}\n", rows.join("\n"))).unwrap();
        for algo in ["2drrm", "2drrr", "mdrrr", "bruteforce"] {
            for normalize in [true, false] {
                let mut cli = std::process::Command::new(env!("CARGO_BIN_EXE_rrm"));
                cli.args(["minimize", "--size", "1", "--algo", algo, "--input"]).arg(&path);
                if !normalize {
                    cli.arg("--no-normalize");
                }
                let out = cli.output().unwrap();
                let stdout = String::from_utf8_lossy(&out.stdout);
                let ctx = format!("set {i} {algo} normalize={normalize}: {out:?}");
                // Normalized rows answer; raw ones may fail as a typed
                // solver error (exit 1), never as a panic (exit 101). An
                // answer prints no NaN either way.
                match out.status.code() {
                    Some(0) => assert!(!stdout.contains("NaN"), "{ctx}"),
                    Some(1) => assert!(!normalize, "{ctx}"),
                    _ => panic!("{ctx}"),
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
