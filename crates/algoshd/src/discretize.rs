//! The discretized vector set `D = Da ∪ Db` (paper Section V-A).
//!
//! `Da` is a uniform sample of the sphere patch `S ∩ U` (Theorem 6 makes
//! the sampled coverage argument); `Db` is the polar grid of
//! `(γ+1)^(d-1)` vertices (Theorem 7 makes the geometric covering
//! argument). For RRRM the samples come from `U` and grid vertices outside
//! `U` are discarded (Section V-C).

use rrm_core::approx::sample_directions;
use rrm_core::space::batch_contains;
use rrm_core::{ExecPolicy, UtilitySpace};
use rrm_geom::polar::polar_grid;

/// The discretized direction set used by HDRRM.
#[derive(Debug, Clone)]
pub struct Discretization {
    /// All directions: samples first, grid vertices after.
    pub dirs: Vec<Vec<f64>>,
    /// Number of sampled directions (`|Da|`).
    pub n_samples: usize,
    /// Number of retained grid directions (`|Db|` after restriction).
    pub n_grid: usize,
}

/// The sample size of Theorem 10's proof:
/// `m = ((r−d)·ln(n−d) + ln(n−r+1) + ln n) / (2(δ − 1/n)²)`,
/// with the degenerate corners clamped to keep the formula defined.
pub fn paper_sample_size(n: usize, r: usize, d: usize, delta: f64) -> usize {
    assert!(delta > 0.0 && delta < 1.0);
    let nf = n as f64;
    let num = (r.saturating_sub(d).max(1) as f64) * ((n.saturating_sub(d)).max(2) as f64).ln()
        + ((n.saturating_sub(r) + 1).max(2) as f64).ln()
        + nf.max(2.0).ln();
    let eff = (delta - 1.0 / nf).max(delta / 2.0);
    (num / (2.0 * eff * eff)).ceil() as usize
}

/// Build `D = Da ∪ Db` for a (possibly restricted) space.
///
/// * `m` — sample count for `Da` (use [`paper_sample_size`] for the
///   paper's default).
/// * `gamma` — polar grid resolution (the paper uses 6).
///
/// Grid vertices are deduplicated (collapsed vertices of the polar map)
/// and, for restricted spaces, filtered by direction membership.
pub fn build_vector_set(
    d: usize,
    space: &dyn UtilitySpace,
    m: usize,
    gamma: usize,
    seed: u64,
) -> Discretization {
    build_vector_set_exec(d, space, m, gamma, seed, ExecPolicy::default())
}

/// [`build_vector_set`] under an explicit execution policy: `Da` sampling
/// stays sequential (the RNG stream is part of the discretization's
/// identity), while the `Db` grid's membership classification is chunked
/// over the policy's threads. The resulting vector set is identical at
/// any thread count.
pub fn build_vector_set_exec(
    d: usize,
    space: &dyn UtilitySpace,
    m: usize,
    gamma: usize,
    seed: u64,
    exec: ExecPolicy,
) -> Discretization {
    assert!(d >= 2, "HD discretization requires d >= 2");
    assert_eq!(space.dim(), d);
    let mut dirs = sample_directions(space, m, seed);
    let n_samples = dirs.len();
    let grid = polar_grid(d, gamma, true);
    let mut n_grid = 0;
    if space.is_full() {
        n_grid = grid.len();
        dirs.extend(grid);
    } else {
        let keep = batch_contains(space, &grid, exec.parallelism);
        for (v, k) in grid.into_iter().zip(keep) {
            if k {
                dirs.push(v);
                n_grid += 1;
            }
        }
    }
    Discretization { dirs, n_samples, n_grid }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{FullSpace, WeakRankingSpace};

    #[test]
    fn composition_counts() {
        let disc = build_vector_set(3, &FullSpace::new(3), 100, 4, 1);
        assert_eq!(disc.n_samples, 100);
        assert!(disc.n_grid > 0);
        assert_eq!(disc.dirs.len(), disc.n_samples + disc.n_grid);
    }

    #[test]
    fn restricted_grid_is_filtered() {
        let full = build_vector_set(3, &FullSpace::new(3), 0, 6, 2);
        let space = WeakRankingSpace::new(3, 2);
        let restricted = build_vector_set(3, &space, 0, 6, 2);
        assert!(restricted.n_grid < full.n_grid, "restriction must discard vertices");
        for v in &restricted.dirs {
            assert!(space.contains_direction(v));
        }
    }

    #[test]
    fn restricted_samples_live_in_space() {
        let space = WeakRankingSpace::new(4, 2);
        let disc = build_vector_set(4, &space, 200, 3, 3);
        for v in &disc.dirs[..disc.n_samples] {
            assert!(space.contains_direction(v));
        }
    }

    #[test]
    fn sample_size_formula() {
        // Paper defaults: n = 10K, d = 4, r = 10, δ = 0.03:
        // m = (6·ln(9996) + ln(9991) + ln(10000)) / (2·(0.03 − 1e-4)²).
        let m = paper_sample_size(10_000, 10, 4, 0.03);
        let expect = (6.0 * (9996f64).ln() + (9991f64).ln() + (10_000f64).ln())
            / (2.0 * (0.03 - 1e-4) * (0.03 - 1e-4));
        assert_eq!(m, expect.ceil() as usize);
        // Monotone: smaller δ → more samples.
        assert!(paper_sample_size(10_000, 10, 4, 0.01) > m);
        assert!(paper_sample_size(10_000, 10, 4, 0.1) < m);
    }

    #[test]
    fn sample_size_degenerate_corners() {
        // r <= d and tiny n must not panic or return zero.
        assert!(paper_sample_size(10, 2, 4, 0.05) > 0);
        assert!(paper_sample_size(3, 3, 3, 0.5) > 0);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = build_vector_set(3, &FullSpace::new(3), 50, 3, 9);
        let b = build_vector_set(3, &FullSpace::new(3), 50, 3, 9);
        assert_eq!(a.dirs, b.dirs);
    }
}
