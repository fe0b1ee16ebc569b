//! Ground-truth validation of 2DRRM (Theorem 4): on small instances the
//! dynamic program must match exhaustive search over all candidate
//! subsets, evaluated with the exact arrangement evaluator.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rank_regret::{
    Budget, ConeSpace, Dataset, ExecPolicy, FullSpace, RrmError, Solution, Solver, UtilitySpace,
    WeakRankingSpace,
};
use rrm_2d::{weight_interval, TwoDRrmSolver};
use rrm_eval::exact_rank_regret_2d;
use rrm_skyline::restricted::u_skyline_2d;

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

/// One RRR query through a fresh prepared handle.
fn run_rrr(
    solver: &dyn Solver,
    data: &Dataset,
    k: usize,
    space: &dyn UtilitySpace,
) -> Result<Solution, RrmError> {
    solver.prepare(data, space, ExecPolicy::default())?.solve_rrr(k, &Budget::UNLIMITED)
}

/// Exhaustive RRM over subsets of the candidate set.
fn brute_force_optimum(data: &Dataset, r: usize, c0: f64, c1: f64) -> usize {
    let candidates = u_skyline_2d(data, c0, c1);
    let s = candidates.len();
    let r = r.min(s);
    let mut best = usize::MAX;
    // Enumerate subsets of size exactly min(r, s) — regret is monotone in
    // the subset, so larger sets are never worse.
    let mut subset: Vec<usize> = (0..r).collect();
    loop {
        let set: Vec<u32> = subset.iter().map(|&i| candidates[i]).collect();
        let (k, _) = exact_rank_regret_2d(data, &set, c0, c1);
        best = best.min(k);
        // Next combination.
        let mut i = r;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if subset[i] != i + s - r {
                subset[i] += 1;
                for j in i + 1..r {
                    subset[j] = subset[j - 1] + 1;
                }
                break;
            }
        }
    }
}

#[test]
fn dp_matches_brute_force_full_space() {
    let mut rng = StdRng::seed_from_u64(1001);
    for trial in 0..30 {
        let n = rng.random_range(4..25);
        let rows: Vec<[f64; 2]> =
            (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        for r in 1..=3 {
            let sol = run_rrm(&TwoDRrmSolver::default(), &data, r, &FullSpace::new(2)).unwrap();
            let dp = sol.certified_regret.unwrap();
            let brute = brute_force_optimum(&data, r, 0.0, 1.0);
            assert_eq!(dp, brute, "trial {trial} r={r}: rows {rows:?}");
            // The certificate must also equal the exact regret of the
            // returned set.
            let (actual, _) = exact_rank_regret_2d(&data, &sol.indices, 0.0, 1.0);
            assert_eq!(actual, dp, "trial {trial} r={r}: certificate mismatch");
        }
    }
}

#[test]
fn dp_matches_brute_force_restricted_space() {
    let mut rng = StdRng::seed_from_u64(2002);
    let space = WeakRankingSpace::new(2, 1);
    let (c0, c1) = weight_interval(&space).unwrap();
    for trial in 0..20 {
        let n = rng.random_range(4..20);
        let rows: Vec<[f64; 2]> =
            (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        for r in 1..=2 {
            let sol = run_rrm(&TwoDRrmSolver::default(), &data, r, &space).unwrap();
            let dp = sol.certified_regret.unwrap();
            let brute = brute_force_optimum(&data, r, c0, c1);
            assert_eq!(dp, brute, "trial {trial} r={r}: rows {rows:?}");
        }
    }
}

#[test]
fn dp_matches_brute_force_on_narrow_interval() {
    let mut rng = StdRng::seed_from_u64(3003);
    for trial in 0..15 {
        let n = rng.random_range(4..18);
        let rows: Vec<[f64; 2]> =
            (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let a: f64 = rng.random_range(0.0..0.8);
        let b = a + rng.random_range(0.05..0.2);
        // The cone of directions (c, 1 - c) with a <= c <= b.
        let space = ConeSpace::new(2, vec![vec![1.0 - a, -a], vec![b - 1.0, b]]);
        let (c0, c1) = weight_interval(&space).unwrap();
        assert!((c0 - a).abs() < 1e-12 && (c1 - b).abs() < 1e-12, "trial {trial} [{a},{b}]");
        let sol = run_rrm(&TwoDRrmSolver::default(), &data, 2, &space).unwrap();
        let brute = brute_force_optimum(&data, 2, c0, c1);
        assert_eq!(sol.certified_regret.unwrap(), brute, "trial {trial} [{a},{b}]");
    }
}

#[test]
fn skyline_restriction_loses_nothing() {
    // Theorem 3 end-to-end: brute force over ALL subsets (not just skyline
    // candidates) on tiny instances agrees with the DP.
    let mut rng = StdRng::seed_from_u64(4004);
    for trial in 0..20 {
        let n = rng.random_range(3..10usize);
        let rows: Vec<[f64; 2]> =
            (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        for r in 1..=2usize {
            let mut best = usize::MAX;
            // All subsets of size r over the whole dataset.
            if r == 1 {
                for i in 0..n as u32 {
                    best = best.min(exact_rank_regret_2d(&data, &[i], 0.0, 1.0).0);
                }
            } else {
                for i in 0..n as u32 {
                    for j in i + 1..n as u32 {
                        best = best.min(exact_rank_regret_2d(&data, &[i, j], 0.0, 1.0).0);
                    }
                }
            }
            let sol = run_rrm(&TwoDRrmSolver::default(), &data, r, &FullSpace::new(2)).unwrap();
            assert_eq!(sol.certified_regret.unwrap(), best, "trial {trial} r={r}");
        }
    }
}

#[test]
fn envelope_is_the_minimal_rank1_set() {
    // Two independent routes to "the smallest set with rank-regret 1":
    // the upper envelope of the dual lines, and the exact RRR solver at
    // threshold 1 (binary search over the exact DP). They must agree in
    // size, and the envelope achieves regret 1.
    use rrm_geom::dual::DualLine;
    use rrm_geom::envelope::envelope_lines;
    let mut rng = StdRng::seed_from_u64(5005);
    for trial in 0..15 {
        let n = rng.random_range(3..60);
        let rows: Vec<[f64; 2]> =
            (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let lines = DualLine::from_dataset(&data);
        let envelope = envelope_lines(&lines, 0.0, 1.0);
        let (k, _) = exact_rank_regret_2d(&data, &envelope, 0.0, 1.0);
        assert_eq!(k, 1, "trial {trial}: envelope must have rank-regret 1");
        let rrr = run_rrr(&TwoDRrmSolver::default(), &data, 1, &FullSpace::new(2)).unwrap();
        assert_eq!(rrr.size(), envelope.len(), "trial {trial}: minimality mismatch");
    }
}
