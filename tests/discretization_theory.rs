//! Direct checks of the discretization theory behind HDRRM
//! (Theorems 6 and 7).

use rank_regret::{
    Budget, Dataset, ExecPolicy, FullSpace, RrmError, Solution, Solver, UtilitySpace,
};
use rrm_2d::TwoDRrmSolver;
use rrm_core::{basis_indices, rank, utility};
use rrm_data::synthetic::independent;
use rrm_geom::polar::{grid_distance_bound, polar_grid};
use rrm_hd::{asms, build_vector_set};

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

/// Theorem 7's chain: if `∇D(S) ≤ k` and `B ⊆ S`, then for every direction
/// `u`, `w(u, S) ≥ (1 − ε) · w_k(u, D)` with `ε` determined by γ.
#[test]
fn theorem7_epsilon_utility_guarantee() {
    let data = independent(400, 3, 71);
    let d = 3;
    // γ large enough that ε = 2dσ < 1 and the bound has teeth (the
    // paper's default γ = 6 gives a vacuous ε at d = 3).
    let gamma = 24usize;
    let k = 5usize;
    let basis = basis_indices(&data);
    let disc = build_vector_set(d, &FullSpace::new(d), 200, gamma, 1);
    let s = asms(&data, k, &basis, &disc.dirs, None, rank_regret::Parallelism::Auto);

    // ε from the proof: w(u,t') ≥ w_k(u,D) − 2σ√d whenever w_k is large;
    // the basis covers the small-w_k case. Overall multiplicative slack:
    let sigma = grid_distance_bound(d, gamma);
    let eps = 2.0 * (d as f64) * sigma; // the paper's (1 − 2dσ) bound

    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(72);
    let space = FullSpace::new(d);
    for _ in 0..2_000 {
        let u = space.sample_direction(&mut rng);
        let scores = utility::utilities(&data, &u);
        let wk = rank::kth_score(&scores, k);
        let ws = utility::best_score_of_set(&data, &u, &s);
        // The small-w_k branch of the proof uses w(u, B) ≥ 1/√d; either
        // branch implies the following joint bound.
        let floor = (1.0 - eps) * wk.min(1.0 / (1.0 - eps) / (d as f64).sqrt());
        assert!(ws >= floor - 1e-9, "w(u,S) = {ws} below (1-eps) floor {floor} for u = {u:?}");
    }
}

/// Theorem 6's engine: a set with `∇D(S) ≤ k` has rank ≤ k for *most* of
/// the sphere (the sampled coverage ratio Rat_k(S) approaches 1).
#[test]
fn theorem6_coverage_ratio() {
    let data = independent(500, 4, 73);
    let k = 8usize;
    let basis = basis_indices(&data);
    let disc = build_vector_set(4, &FullSpace::new(4), 3_000, 6, 2);
    let s = asms(&data, k, &basis, &disc.dirs, None, rank_regret::Parallelism::Auto);

    // Fresh directions (not the ones ASMS saw): the fraction with rank ≤ k
    // must be close to 1.
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(74);
    let space = FullSpace::new(4);
    let trials = 5_000usize;
    let mut good = 0usize;
    for _ in 0..trials {
        let u = space.sample_direction(&mut rng);
        if rank::rank_regret_of_set(&data, &u, &s) <= k {
            good += 1;
        }
    }
    let ratio = good as f64 / trials as f64;
    assert!(ratio >= 0.97, "coverage ratio {ratio} too low");
}

/// The grid's covering radius really is what Theorem 7 needs: every
/// direction has a grid member within σ, and σ shrinks as 1/γ.
#[test]
fn grid_covering_radius_shrinks() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(75);
    let space = FullSpace::new(4);
    let mut prev_worst = f64::INFINITY;
    for gamma in [2usize, 4, 8] {
        let grid = polar_grid(4, gamma, true);
        let mut worst = 0.0f64;
        for _ in 0..500 {
            let u = space.sample_direction(&mut rng);
            let best = grid
                .iter()
                .map(|v| u.iter().zip(v).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt())
                .fold(f64::INFINITY, f64::min);
            worst = worst.max(best);
        }
        assert!(worst <= grid_distance_bound(4, gamma) + 1e-9);
        assert!(worst < prev_worst, "γ={gamma}: radius must shrink");
        prev_worst = worst;
    }
}

/// Percentage representation of rank-regret (Section II): same solution,
/// same percentage, across dataset scales of the same distribution.
#[test]
fn percentage_regret_comparable_across_sizes() {
    // The arc construction scales regret linearly with n (Theorem 2), the
    // setting where absolute rank-regret misleads across dataset sizes.
    let small = rrm_data::synthetic::lower_bound_arc(2_000, 2);
    let large = rrm_data::synthetic::lower_bound_arc(8_000, 2);
    let r = 4;
    let ks =
        run_rrm(&TwoDRrmSolver, &small, r, &FullSpace::new(2)).unwrap().certified_regret.unwrap();
    let kl =
        run_rrm(&TwoDRrmSolver, &large, r, &FullSpace::new(2)).unwrap().certified_regret.unwrap();
    let ps = 100.0 * ks as f64 / small.n() as f64;
    let pl = 100.0 * kl as f64 / large.n() as f64;
    // Absolute regrets differ by ~4x (they scale with n, Theorem 2), while
    // percentages land in the same ballpark.
    assert!(kl > 2 * ks, "absolute regret should grow with n: {ks} vs {kl}");
    assert!((ps - pl).abs() < ps.max(pl), "percentages should be comparable: {ps:.2}% vs {pl:.2}%");
}

/// Validation: solutions built from a tiny Dataset::prefix of a sweep
/// behave identically to a fresh generator call (harness correctness).
#[test]
fn prefix_matches_fresh_generation() {
    let big = independent(1_000, 3, 78);
    let prefix = big.prefix(300);
    assert_eq!(prefix.n(), 300);
    assert_eq!(prefix.row(299), big.row(299));
    let direct = Dataset::from_rows(&big.rows().take(300).collect::<Vec<_>>()).unwrap();
    assert_eq!(prefix, direct);
}
