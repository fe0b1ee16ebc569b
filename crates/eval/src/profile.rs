//! Rank-distribution profiling — a library extension beyond the paper.
//!
//! The paper evaluates the *maximum* rank over sampled directions. For a
//! deployed representative set the whole distribution matters: a set whose
//! rank is 1 for 99.9% of users and 500 for the rest is very different
//! from one that is uniformly ~20. [`rank_profile`] reports the max, the
//! mean and chosen quantiles of `∇u(S)` under the space's direction
//! distribution, and the fraction of directions served within a target
//! rank (the paper's `Rat_k(S)` from Theorem 6, estimated).

use rand::rngs::StdRng;
use rand::SeedableRng;
use rrm_core::{Dataset, UtilitySpace};

/// Distributional summary of a set's rank-regret.
#[derive(Debug, Clone, PartialEq)]
pub struct RankProfile {
    /// Worst observed rank (the paper's estimator).
    pub max: usize,
    /// Mean rank over the sampled directions.
    pub mean: f64,
    /// `(q, rank)` pairs for the requested quantiles.
    pub quantiles: Vec<(f64, usize)>,
    /// Number of directions sampled.
    pub samples: usize,
}

impl RankProfile {
    /// Estimated `Rat_k(S)`: the fraction of directions whose rank is ≤ k.
    /// Derived from the stored sorted ranks at construction time via the
    /// quantile list when possible; use [`coverage_ratio`] for exact
    /// per-k values.
    pub fn quantile(&self, q: f64) -> Option<usize> {
        self.quantiles.iter().find(|(qq, _)| (qq - q).abs() < 1e-12).map(|&(_, r)| r)
    }
}

/// Profile `∇u(S)` over `samples` directions drawn from `space`.
///
/// `quantiles` are probabilities in `(0, 1]`; they are reported against the
/// empirical distribution (nearest-rank definition).
pub fn rank_profile(
    data: &Dataset,
    set: &[u32],
    space: &dyn UtilitySpace,
    samples: usize,
    quantiles: &[f64],
    seed: u64,
) -> RankProfile {
    assert!(!set.is_empty(), "rank profile of an empty set is undefined");
    assert!(samples >= 1);
    let ranks = sample_ranks(data, set, space, samples, seed);
    let mut sorted = ranks.clone();
    sorted.sort_unstable();
    let max = *sorted.last().expect("samples >= 1");
    let mean = sorted.iter().sum::<usize>() as f64 / sorted.len() as f64;
    let qs = quantiles
        .iter()
        .map(|&q| {
            assert!(q > 0.0 && q <= 1.0, "quantiles live in (0, 1]");
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            (q, sorted[idx - 1])
        })
        .collect();
    RankProfile { max, mean, quantiles: qs, samples }
}

/// Estimated `Rat_k(S)` (Theorem 6's coverage ratio): the fraction of
/// sampled directions for which `S` holds a top-`k` tuple.
pub fn coverage_ratio(
    data: &Dataset,
    set: &[u32],
    space: &dyn UtilitySpace,
    k: usize,
    samples: usize,
    seed: u64,
) -> f64 {
    assert!(k >= 1);
    let ranks = sample_ranks(data, set, space, samples, seed);
    ranks.iter().filter(|&&r| r <= k).count() as f64 / ranks.len() as f64
}

fn sample_ranks(
    data: &Dataset,
    set: &[u32],
    space: &dyn UtilitySpace,
    samples: usize,
    seed: u64,
) -> Vec<usize> {
    // One sequential direction stream (machine-independent), then the
    // rank counting chunked over RRM_THREADS/all cores (evaluation
    // utility, not the Session serving path — no per-call ExecPolicy;
    // bound its CPU use via RRM_THREADS). The seed offset matches this
    // sampler's historical single-chunk stream.
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x9E37_79B9_7F4A_7C15_u64));
    let dirs: Vec<Vec<f64>> = (0..samples).map(|_| space.sample_direction(&mut rng)).collect();
    let d = data.dim();
    let flat = data.flat();
    let set_rows: Vec<&[f64]> = set.iter().map(|&i| data.row(i as usize)).collect();
    rrm_par::par_map(&dirs, rrm_core::Parallelism::Auto, |u| {
        let mut best = f64::NEG_INFINITY;
        for row in &set_rows {
            let s = rrm_core::utility::dot(u, row);
            if s > best {
                best = s;
            }
        }
        flat.chunks_exact(d).filter(|c| rrm_core::utility::dot(u, c) > best).count() + 1
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::FullSpace;
    use rrm_data::synthetic::{anticorrelated, independent};

    #[test]
    fn profile_of_the_whole_dataset() {
        let data = independent(100, 3, 1);
        let all: Vec<u32> = (0..100).collect();
        let p = rank_profile(&data, &all, &FullSpace::new(3), 1000, &[0.5, 0.99], 2);
        assert_eq!(p.max, 1);
        assert_eq!(p.mean, 1.0);
        assert_eq!(p.quantile(0.5), Some(1));
        assert_eq!(p.quantile(0.99), Some(1));
        assert_eq!(p.quantile(0.123), None);
    }

    #[test]
    fn quantiles_are_ordered_and_bounded_by_max() {
        let data = anticorrelated(800, 3, 3);
        let set = vec![0, 1, 2];
        let p = rank_profile(&data, &set, &FullSpace::new(3), 4000, &[0.5, 0.9, 0.99], 4);
        let q50 = p.quantile(0.5).unwrap();
        let q90 = p.quantile(0.9).unwrap();
        let q99 = p.quantile(0.99).unwrap();
        assert!(q50 <= q90 && q90 <= q99 && q99 <= p.max);
        assert!(p.mean >= 1.0 && p.mean <= p.max as f64);
    }

    #[test]
    fn coverage_matches_profile_tail() {
        let data = anticorrelated(500, 3, 5);
        let set = vec![3, 7, 11];
        let p = rank_profile(&data, &set, &FullSpace::new(3), 5000, &[0.9], 6);
        let k90 = p.quantile(0.9).unwrap();
        let cov = coverage_ratio(&data, &set, &FullSpace::new(3), k90, 5000, 6);
        // Same seed, same sample set: coverage at the 90th-percentile rank
        // is at least 0.9 by construction.
        assert!(cov >= 0.9, "coverage {cov} below the quantile definition");
    }

    #[test]
    fn good_sets_have_high_coverage() {
        // An HDRRM output with certified k should cover ~everything at k.
        let data = independent(400, 3, 7);
        let opts = rrm_hd::HdrrmOptions { m_override: Some(500), ..Default::default() };
        let sol = rrm_core::Solver::prepare(
            &rrm_hd::HdrrmSolver::new(opts),
            &data,
            &FullSpace::new(3),
            rrm_core::ExecPolicy::default(),
        )
        .unwrap()
        .solve_rrm(8, &rrm_core::Budget::UNLIMITED)
        .unwrap();
        let k = sol.certified_regret.unwrap();
        let cov = coverage_ratio(&data, &sol.indices, &FullSpace::new(3), k, 5000, 8);
        assert!(cov >= 0.95, "coverage {cov} at certified k = {k}");
    }

    #[test]
    #[should_panic(expected = "quantiles live in (0, 1]")]
    fn bad_quantile_panics() {
        let data = independent(10, 2, 9);
        rank_profile(&data, &[0], &FullSpace::new(2), 10, &[1.5], 10);
    }
}
