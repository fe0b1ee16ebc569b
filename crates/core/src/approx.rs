//! Sampled-ε approximate solving: the spec, sizing and direction stream
//! of the confidence-certified answer tier.
//!
//! For `n` in the millions even preparing an exact solver is expensive.
//! The sampled tier draws `m` utility directions from the query space,
//! solves the covering problem over that sample, and reports the set's
//! measured worst rank over the sample as its regret. This module holds
//! what every layer shares: the [`ApproxSpec`] and [`Fidelity`] a request
//! carries, the Hoeffding count [`hoeffding_directions`], the seeded
//! stream [`sample_directions`], and the coreset screen [`reduce`]. The
//! solver itself is `rrm_hd::SampledSolver` (module `rrm_hd::sampled`).
//!
//! # Confidence semantics
//!
//! For a fixed set `S`, each sampled direction is an independent Bernoulli
//! observation of the event "the rank of `S` under this direction exceeds
//! the reported `k̂`". Over the returned set the observed rate is 0 (by
//! construction `k̂` is the sampled maximum), so by Hoeffding's inequality
//! with `m = ceil(ln(2/δ) / (2ε²))` draws, with probability at least
//! `1 - δ` over the sample, the true direction-space measure on which the
//! rank of `S` exceeds `k̂` is at most `ε`. That statement rides the
//! solution as [`TerminatedBy::Sampled`]`{ eps, delta, directions }`; it is
//! a fidelity certificate, not an early-stop marker.
//!
//! # Determinism
//!
//! Directions are drawn *sequentially* from a seeded [`StdRng`] (the
//! stream is part of the answer's identity); only the per-direction
//! scoring/top-k work is chunked over threads, with fixed chunk boundaries
//! and in-order merges per the [`rrm_par`] contract. The greedy cover runs
//! sequentially and breaks ties by the smallest tuple id, a strict total
//! order. Answers are therefore bit-identical at any thread count
//! (`tests/approx.rs` enforces 1/2/7).
//!
//! [`TerminatedBy::Sampled`]: crate::TerminatedBy::Sampled

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dataset::Dataset;
use crate::error::RrmError;
use crate::exec::ExecPolicy;
use crate::rank;
use crate::space::UtilitySpace;

/// Default `ε`: tolerated measure of the direction space on which the
/// reported regret may be exceeded.
pub const DEFAULT_EPS: f64 = 0.05;
/// Default `δ`: probability (over the direction draw) that the `ε`
/// statement fails.
pub const DEFAULT_DELTA: f64 = 0.05;
/// Direction-stream seed of the sampled tier (`rrm_hd::SampledSolver`) and
/// of the engine's [`reduce`] coresets: constant so sampled answers are
/// reproducible across runs and layers.
pub const DEFAULT_SEED: u64 = 0x5A3D_5EED;
/// Floor on the sampled direction count: even very loose `(ε, δ)` pairs
/// probe a handful of directions so the cover problem is non-degenerate.
const MIN_DIRECTIONS: usize = 16;

/// Hoeffding sample size `m = ceil(ln(2/δ) / (2ε²))` for a one-sided
/// `(ε, δ)` statement about an exceedance rate.
pub fn hoeffding_directions(eps: f64, delta: f64) -> usize {
    let m = ((2.0 / delta).ln() / (2.0 * eps * eps)).ceil();
    (m as usize).max(MIN_DIRECTIONS)
}

/// A sampled-ε fidelity request: the `(ε, δ)` pair of the Hoeffding
/// confidence statement the answer must carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApproxSpec {
    /// Tolerated exceedance measure, in `(0, 1)`.
    pub eps: f64,
    /// Failure probability of the statement, in `(0, 1)`.
    pub delta: f64,
}

impl Default for ApproxSpec {
    fn default() -> Self {
        Self { eps: DEFAULT_EPS, delta: DEFAULT_DELTA }
    }
}

impl ApproxSpec {
    /// A validated spec (both parameters must lie strictly in `(0, 1)`).
    pub fn new(eps: f64, delta: f64) -> Result<Self, RrmError> {
        let spec = Self { eps, delta };
        spec.validate()?;
        Ok(spec)
    }

    /// Reject parameters outside `(0, 1)` (or non-finite).
    pub fn validate(&self) -> Result<(), RrmError> {
        for (name, v) in [("eps", self.eps), ("delta", self.delta)] {
            if !v.is_finite() || v <= 0.0 || v >= 1.0 {
                return Err(RrmError::Unsupported(format!(
                    "approx {name} must lie strictly between 0 and 1, got {v}"
                )));
            }
        }
        Ok(())
    }

    /// The Hoeffding direction count this spec requires.
    pub fn directions(&self) -> usize {
        hoeffding_directions(self.eps, self.delta)
    }

    /// Directions a sampled solve under this spec draws: the Hoeffding
    /// count, or a larger `samples` override. An override can add
    /// directions but never weaken the stated `(ε, δ)`.
    pub fn directions_with(&self, samples: Option<usize>) -> usize {
        samples.unwrap_or(0).max(self.directions())
    }
}

/// Requested answer fidelity, the new first-class request dimension:
/// exact solving (the default) or the sampled-ε tier.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Fidelity {
    /// Exact within the chosen algorithm's frame (the pre-existing tier).
    #[default]
    Exact,
    /// Sampled-ε with a Hoeffding `(eps, delta)` confidence statement.
    Approx { eps: f64, delta: f64 },
}

impl Fidelity {
    /// The approximation spec, when this fidelity is approximate.
    pub fn spec(&self) -> Option<ApproxSpec> {
        match *self {
            Fidelity::Exact => None,
            Fidelity::Approx { eps, delta } => Some(ApproxSpec { eps, delta }),
        }
    }

    pub fn is_approx(&self) -> bool {
        matches!(self, Fidelity::Approx { .. })
    }

    /// Wire/report name: `"exact"` or `"approx"`.
    pub fn name(&self) -> &'static str {
        match self {
            Fidelity::Exact => "exact",
            Fidelity::Approx { .. } => "approx",
        }
    }
}

/// Draw `m` directions from `space`, sequentially from one seeded stream
/// (deterministic regardless of thread count).
pub fn sample_directions(space: &dyn UtilitySpace, m: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..m).map(|_| space.sample_direction(&mut rng)).collect()
}

/// A dataset shrunk by sampled top-rank screening, with the certificate
/// needed to transfer solutions back to the full data.
#[derive(Debug, Clone)]
pub struct Reduced {
    /// The reduced dataset (rows of `kept`, in ascending original order).
    pub data: Dataset,
    /// Original indices of the kept rows, ascending.
    pub kept: Vec<u32>,
    /// The per-direction depth `L` the reduction certifies: for every
    /// sampled direction and every `k ≤ L`, the top-`k` of the reduced
    /// data maps (through `kept`) to exactly the top-`k` of the full data.
    pub rank_fidelity: usize,
    /// Number of sampled directions the screen used.
    pub directions: usize,
}

impl Reduced {
    /// Map reduced-row indices back to original dataset indices.
    pub fn original_indices(&self, reduced: &[u32]) -> Vec<u32> {
        reduced.iter().map(|&i| self.kept[i as usize]).collect()
    }
}

/// Shrink `data` to the union of per-direction top-`per_direction` tuples
/// over `m` sampled directions — the coreset fed to exact solvers on the
/// approximate path.
///
/// Candidate-loss certificate: scores are per-tuple, so dropping rows
/// never changes a kept row's score, and `kept` is ascending so the
/// index tie-break order is preserved. Hence for every *sampled* direction
/// `u` and every `k ≤ per_direction`, `top_k(u, reduced)` maps through
/// [`Reduced::original_indices`] to `top_k(u, full)` — any solution whose
/// sampled regret is at most `per_direction` transfers with its sampled
/// regret unchanged. Directions outside the sample are covered only by the
/// Hoeffding statement of the re-evaluation the engine performs after
/// solving on the coreset.
pub fn reduce(
    data: &Dataset,
    space: &dyn UtilitySpace,
    per_direction: usize,
    m: usize,
    seed: u64,
    exec: ExecPolicy,
) -> Result<Reduced, RrmError> {
    if per_direction == 0 {
        return Err(RrmError::Unsupported("reduce needs a per-direction depth >= 1".into()));
    }
    if m == 0 {
        return Err(RrmError::Unsupported("reduce needs at least one direction".into()));
    }
    if space.dim() != data.dim() {
        return Err(RrmError::DimensionMismatch { expected: data.dim(), got: space.dim() });
    }
    let dirs = sample_directions(space, m, seed);
    let depth = per_direction.min(data.n());
    let tops = rank::batch_top_k(data, &dirs, depth, exec.parallelism);
    let mut kept: Vec<u32> = tops.into_iter().flatten().collect();
    kept.sort_unstable();
    kept.dedup();
    Ok(Reduced { data: data.subset(&kept), kept, rank_fidelity: depth, directions: m })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Parallelism;
    use crate::space::FullSpace;

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
    fn hoeffding_count_matches_the_formula() {
        // eps = 0.1, delta = 0.05: ln(40) / 0.02 = 184.44… -> 185.
        assert_eq!(hoeffding_directions(0.1, 0.05), 185);
        // Loose parameters hit the floor.
        assert_eq!(hoeffding_directions(0.5, 0.5), MIN_DIRECTIONS);
        // Tighter eps dominates quadratically.
        assert!(hoeffding_directions(0.01, 0.05) > 50 * hoeffding_directions(0.1, 0.05));
        assert_eq!(ApproxSpec { eps: 0.1, delta: 0.05 }.directions(), 185);
    }

    #[test]
    fn spec_validation_rejects_out_of_range() {
        assert!(ApproxSpec::new(0.1, 0.05).is_ok());
        for (eps, delta) in [(0.0, 0.1), (1.0, 0.1), (0.1, 0.0), (0.1, 1.0), (-0.2, 0.1)] {
            let err = ApproxSpec::new(eps, delta).unwrap_err();
            assert!(err.to_string().contains("between 0 and 1"), "{eps},{delta}: {err}");
        }
        assert!(ApproxSpec::new(f64::NAN, 0.5).is_err());
    }

    #[test]
    fn fidelity_roundtrips_its_spec() {
        assert_eq!(Fidelity::default(), Fidelity::Exact);
        assert_eq!(Fidelity::Exact.spec(), None);
        assert!(!Fidelity::Exact.is_approx());
        assert_eq!(Fidelity::Exact.name(), "exact");
        let f = Fidelity::Approx { eps: 0.1, delta: 0.02 };
        assert_eq!(f.spec(), Some(ApproxSpec { eps: 0.1, delta: 0.02 }));
        assert!(f.is_approx());
        assert_eq!(f.name(), "approx");
    }

    #[test]
    fn reduce_preserves_sampled_top_k_prefixes() {
        let data = table1();
        let space = FullSpace::new(2);
        let depth = 3;
        let m = 64;
        let red = reduce(&data, &space, depth, m, DEFAULT_SEED, ExecPolicy::sequential()).unwrap();
        assert!(red.data.n() <= data.n());
        assert_eq!(red.rank_fidelity, depth);
        assert_eq!(red.directions, m);
        assert!(red.kept.windows(2).all(|w| w[0] < w[1]), "kept must be ascending");
        // The certificate: for every sampled direction and k <= depth, the
        // reduced top-k maps to the full top-k.
        let dirs = sample_directions(&space, m, DEFAULT_SEED);
        for k in 1..=depth {
            let full_tops = rank::batch_top_k(&data, &dirs, k, Parallelism::Sequential);
            let red_tops = rank::batch_top_k(&red.data, &dirs, k, Parallelism::Sequential);
            for (f, r) in full_tops.iter().zip(&red_tops) {
                assert_eq!(&red.original_indices(r), f, "k={k}");
            }
        }
    }

    #[test]
    fn reduce_rejects_degenerate_parameters() {
        let data = table1();
        let space = FullSpace::new(2);
        assert!(reduce(&data, &space, 0, 8, 1, ExecPolicy::sequential()).is_err());
        assert!(reduce(&data, &space, 2, 0, 1, ExecPolicy::sequential()).is_err());
        assert!(reduce(&data, &FullSpace::new(3), 2, 8, 1, ExecPolicy::sequential()).is_err());
    }
}
