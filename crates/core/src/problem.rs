//! Solver outputs.
//!
//! Solvers live in `rrm-2d` and `rrm-hd`; this module defines the shared
//! contract: which [`Algorithm`] answered and what a [`Solution`] reports
//! back.

use std::sync::Arc;

use crate::anytime::{Bounds, SearchReport, TerminatedBy};
use crate::dataset::Dataset;
use crate::error::RrmError;
use crate::solver::DimRange;
use crate::space::UtilitySpace;

/// Which algorithm produced a solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Exact 2D dynamic program (this paper, Section IV).
    TwoDRrm,
    /// 2D baseline of Asudeh et al. with the 2k rank relaxation.
    TwoDRrr,
    /// HD discretize-and-cover algorithm (this paper, Section V).
    Hdrrm,
    /// Exact k-set enumeration baseline (Asudeh et al.).
    Mdrrr,
    /// Randomized k-set baseline (Asudeh et al.).
    MdrrrR,
    /// Space-partitioning heuristic baseline (Asudeh et al.).
    Mdrc,
    /// Regret-ratio (RMS) baseline optimizing the wrong objective.
    Mdrms,
    /// Exhaustive search over candidate subsets (tests/benches only).
    BruteForce,
    /// Sampled-ε approximate tier: exact cover over a Hoeffding-sized
    /// direction sample, regret certified over the sample
    /// (`rrm_core::approx`).
    Sampled,
}

impl Algorithm {
    /// Every variant, in the paper's presentation order. The engine
    /// registry and the CLI `--algo` flag iterate this list.
    pub const ALL: [Algorithm; 9] = [
        Algorithm::TwoDRrm,
        Algorithm::TwoDRrr,
        Algorithm::Hdrrm,
        Algorithm::Mdrrr,
        Algorithm::MdrrrR,
        Algorithm::Mdrc,
        Algorithm::Mdrms,
        Algorithm::BruteForce,
        Algorithm::Sampled,
    ];

    /// Position of this variant in [`Algorithm::ALL`] — a dense index for
    /// registry tables, so engines can look solvers up in O(1) instead of
    /// scanning their roster.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Parse a user-facing algorithm name (case-insensitive; `-`/`_`
    /// ignored, so `mdrrr-r` and `MDRRRr` both resolve). The error lists
    /// every valid name, so a typo on the CLI is self-correcting.
    pub fn from_name(name: &str) -> Result<Algorithm, RrmError> {
        let canon = |s: &str| -> String {
            s.chars().filter(|c| *c != '-' && *c != '_').collect::<String>().to_lowercase()
        };
        let wanted = canon(name);
        Algorithm::ALL.into_iter().find(|a| canon(a.name()) == wanted).ok_or_else(|| {
            let valid: Vec<&str> = Algorithm::ALL.iter().map(|a| a.name()).collect();
            RrmError::Unsupported(format!(
                "unknown algorithm {name:?}; valid names: {}",
                valid.join(", ")
            ))
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Algorithm::TwoDRrm => "2DRRM",
            Algorithm::TwoDRrr => "2DRRR",
            Algorithm::Hdrrm => "HDRRM",
            Algorithm::Mdrrr => "MDRRR",
            Algorithm::MdrrrR => "MDRRRr",
            Algorithm::Mdrc => "MDRC",
            Algorithm::Mdrms => "MDRMS",
            Algorithm::BruteForce => "BruteForce",
            Algorithm::Sampled => "Sampled",
        }
    }

    /// Does the algorithm certify a rank-regret bound on its output
    /// (the "Guarantee on rank-regret" row of Table III)? The sampled-ε
    /// tier reports a *probabilistic* `(ε, δ)` statement, not a
    /// worst-case bound, so it answers `false` here.
    pub fn has_regret_guarantee(self) -> bool {
        matches!(
            self,
            Algorithm::TwoDRrm | Algorithm::Hdrrm | Algorithm::Mdrrr | Algorithm::BruteForce
        )
    }

    /// Can the algorithm handle a restricted utility space (the "Suitable
    /// for RRRM" row of Table III)?
    pub fn supports_restricted_space(self) -> bool {
        matches!(
            self,
            Algorithm::TwoDRrm
                | Algorithm::Hdrrm
                | Algorithm::MdrrrR
                | Algorithm::Mdrms
                | Algorithm::BruteForce
                | Algorithm::Sampled
        )
    }

    /// Is the algorithm an anytime bound-and-prune search that honours
    /// the [`Budget`] stop rule (time limit, gap target, work counters)?
    /// These are the hard HD solvers: when cut mid-search they return
    /// their best incumbent with certified [`Bounds`] instead of
    /// failing, so a serving deadline yields a partial answer with a
    /// gap rather than `deadline_exceeded`.
    ///
    /// [`Budget`]: crate::solver::Budget
    pub fn is_cuttable(self) -> bool {
        matches!(self, Algorithm::Hdrrm | Algorithm::Mdrrr | Algorithm::MdrrrR | Algorithm::Mdrc)
    }

    /// Dataset dimensionalities the algorithm accepts: the 2D algorithms
    /// are exact-but-planar, everything else needs `d ≥ 2`, and brute
    /// force works from `d = 1` up (on tiny inputs).
    pub fn supported_dims(self) -> DimRange {
        match self {
            Algorithm::TwoDRrm | Algorithm::TwoDRrr => DimRange::exactly(2),
            Algorithm::BruteForce => DimRange::at_least(1),
            _ => DimRange::at_least(2),
        }
    }

    /// Uniform capability check against Table III: dimensionality and
    /// space restrictions. Every [`Solver::prepare`] runs it first, so each
    /// capability mismatch surfaces as the same graceful
    /// [`RrmError::Unsupported`] (or [`RrmError::DimensionMismatch`] when
    /// the space and the data disagree) and algorithm bodies need no
    /// checks of their own.
    ///
    /// [`Solver::prepare`]: crate::Solver::prepare
    pub fn ensure_supported(
        self,
        data: &Dataset,
        space: &dyn UtilitySpace,
    ) -> Result<(), RrmError> {
        let dims = self.supported_dims();
        if !dims.contains(data.dim()) {
            return Err(RrmError::Unsupported(format!(
                "{self} requires {dims}, got d = {}",
                data.dim()
            )));
        }
        if space.dim() != data.dim() {
            return Err(RrmError::DimensionMismatch { expected: data.dim(), got: space.dim() });
        }
        if !space.is_full() && !self.supports_restricted_space() {
            return Err(RrmError::Unsupported(format!(
                "{self} does not support restricted utility spaces (Table III)"
            )));
        }
        Ok(())
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A representative set chosen by a solver.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Selected tuple indices, sorted ascending, deduplicated.
    pub indices: Vec<u32>,
    /// A rank-regret value the solver *certifies* for its output, when it
    /// has one:
    /// * 2DRRM — the exact `∇U(S)` (optimal);
    /// * HDRRM — `∇D(S)` over the discretized vector set (Theorem 10 (1));
    /// * MDRRR — the threshold `k` met over all enumerated k-sets;
    /// * baselines without guarantees — `None`.
    pub certified_regret: Option<usize>,
    /// Which algorithm produced this solution.
    pub algorithm: Algorithm,
    /// Anytime bounds on the optimal rank-regret within the solver's
    /// frame, when the solver tracks them (the cuttable HD solvers);
    /// `None` for the exact / heuristic solvers that don't.
    pub bounds: Option<Bounds>,
    /// Why the solve returned ([`TerminatedBy::Completed`] unless a
    /// budget limit stopped it).
    pub terminated_by: TerminatedBy,
    /// Anytime search statistics (nodes, prunes, gap-vs-time curve).
    /// Wall-clock data — deliberately excluded from `PartialEq` so
    /// parity tests compare answers, not timings.
    pub report: Option<Arc<SearchReport>>,
}

/// Equality compares the answer (indices, certificate, algorithm) and
/// its deterministic anytime annotations (bounds, termination reason),
/// but *not* the wall-clock [`SearchReport`].
impl PartialEq for Solution {
    fn eq(&self, other: &Self) -> bool {
        self.indices == other.indices
            && self.certified_regret == other.certified_regret
            && self.algorithm == other.algorithm
            && self.bounds == other.bounds
            && self.terminated_by == other.terminated_by
    }
}

impl Solution {
    /// Normalize and validate a raw index list against a dataset.
    ///
    /// A violation (empty output, out-of-range index) is a solver bug; it
    /// surfaces as [`RrmError::Internal`] so a misbehaving baseline
    /// reports an error through the facade instead of crashing it.
    pub fn new(
        mut indices: Vec<u32>,
        certified_regret: Option<usize>,
        algorithm: Algorithm,
        data: &Dataset,
    ) -> Result<Self, RrmError> {
        if indices.is_empty() {
            return Err(RrmError::Internal(format!(
                "{algorithm} returned an empty representative set"
            )));
        }
        indices.sort_unstable();
        indices.dedup();
        let n = data.n() as u32;
        if let Some(&bad) = indices.iter().find(|&&i| i >= n) {
            return Err(RrmError::Internal(format!(
                "{algorithm} returned tuple index {bad}, out of range for n = {n}"
            )));
        }
        Ok(Self {
            indices,
            certified_regret,
            algorithm,
            bounds: None,
            terminated_by: TerminatedBy::Completed,
            report: None,
        })
    }

    /// Attach anytime bounds (builder style).
    pub fn with_bounds(mut self, bounds: Bounds) -> Self {
        self.bounds = Some(bounds);
        self
    }

    /// Record why the solve returned (builder style).
    pub fn with_termination(mut self, terminated_by: TerminatedBy) -> Self {
        self.terminated_by = terminated_by;
        self
    }

    /// Attach the search report (builder style).
    pub fn with_report(mut self, report: SearchReport) -> Self {
        self.report = Some(Arc::new(report));
        self
    }

    /// The relative optimality gap certified by [`Solution::bounds`]
    /// (`Some(0.0)` = proven optimal within the solver's frame; `None`
    /// when the solver tracks no bounds).
    pub fn gap(&self) -> Option<f64> {
        self.bounds.map(|b| b.gap())
    }

    /// Number of tuples in the representative set.
    pub fn size(&self) -> usize {
        self.indices.len()
    }

    /// The selected tuples as a standalone dataset (e.g. for display).
    pub fn materialize(&self, data: &Dataset) -> Dataset {
        data.subset(&self.indices)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset::from_rows(&[[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]]).unwrap()
    }

    #[test]
    fn solution_normalizes_indices() {
        let s = Solution::new(vec![2, 0, 2], Some(1), Algorithm::TwoDRrm, &data()).unwrap();
        assert_eq!(s.indices, vec![0, 2]);
        assert_eq!(s.size(), 2);
        assert_eq!(s.algorithm.name(), "2DRRM");
    }

    #[test]
    fn solution_rejects_bad_index() {
        let err = Solution::new(vec![5], None, Algorithm::Mdrc, &data()).unwrap_err();
        assert!(matches!(&err, RrmError::Internal(msg) if msg.contains("out of range")), "{err}");
    }

    #[test]
    fn solution_rejects_empty() {
        let err = Solution::new(vec![], None, Algorithm::Mdrc, &data()).unwrap_err();
        assert!(matches!(&err, RrmError::Internal(msg) if msg.contains("empty")), "{err}");
    }

    #[test]
    fn algorithm_names_round_trip() {
        for a in Algorithm::ALL {
            assert_eq!(Algorithm::from_name(a.name()).unwrap(), a);
            assert_eq!(Algorithm::from_name(&a.name().to_lowercase()).unwrap(), a);
        }
        assert_eq!(Algorithm::from_name("mdrrr-r").unwrap(), Algorithm::MdrrrR);
        assert_eq!(Algorithm::from_name("brute_force").unwrap(), Algorithm::BruteForce);
        let err = Algorithm::from_name("mdrx").unwrap_err();
        assert!(err.to_string().contains("valid names"), "{err}");
        assert!(err.to_string().contains("MDRC"), "{err}");
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, a) in Algorithm::ALL.into_iter().enumerate() {
            assert_eq!(a.index(), i, "{a}");
        }
    }

    #[test]
    fn supported_dims_match_table() {
        assert!(Algorithm::TwoDRrm.supported_dims().contains(2));
        assert!(!Algorithm::TwoDRrm.supported_dims().contains(3));
        assert!(Algorithm::Hdrrm.supported_dims().contains(6));
        assert!(!Algorithm::Hdrrm.supported_dims().contains(1));
        assert!(Algorithm::BruteForce.supported_dims().contains(1));
        assert!(Algorithm::Sampled.supported_dims().contains(8));
        assert!(!Algorithm::Sampled.supported_dims().contains(1));
    }

    #[test]
    fn materialize() {
        let s = Solution::new(vec![1], Some(3), Algorithm::Hdrrm, &data()).unwrap();
        let m = s.materialize(&data());
        assert_eq!(m.n(), 1);
        assert_eq!(m.row(0), &[0.5, 0.5]);
    }

    #[test]
    fn table_iii_capability_matrix() {
        // "Guarantee on rank-regret": MDRRR yes, MDRRRr no, MDRC no, HDRRM yes.
        assert!(Algorithm::Mdrrr.has_regret_guarantee());
        assert!(!Algorithm::MdrrrR.has_regret_guarantee());
        assert!(!Algorithm::Mdrc.has_regret_guarantee());
        assert!(Algorithm::Hdrrm.has_regret_guarantee());
        // "Suitable for RRRM": MDRRR no, MDRRRr yes, MDRC no, HDRRM yes.
        assert!(!Algorithm::Mdrrr.supports_restricted_space());
        assert!(Algorithm::MdrrrR.supports_restricted_space());
        assert!(!Algorithm::Mdrc.supports_restricted_space());
        assert!(Algorithm::Hdrrm.supports_restricted_space());
        // The sampled tier: restricted spaces yes (it samples whatever
        // space the request names), worst-case guarantee no (its
        // certificate is the probabilistic (ε, δ) statement).
        assert!(Algorithm::Sampled.supports_restricted_space());
        assert!(!Algorithm::Sampled.has_regret_guarantee());
        assert!(!Algorithm::Sampled.is_cuttable());
    }

    #[test]
    fn cuttable_set_is_the_hard_hd_solvers() {
        let cuttable: Vec<Algorithm> =
            Algorithm::ALL.into_iter().filter(|a| a.is_cuttable()).collect();
        assert_eq!(
            cuttable,
            vec![Algorithm::Hdrrm, Algorithm::Mdrrr, Algorithm::MdrrrR, Algorithm::Mdrc]
        );
    }

    #[test]
    fn solution_equality_ignores_the_search_report() {
        let base = Solution::new(vec![1], Some(3), Algorithm::Hdrrm, &data()).unwrap();
        let with_report = base.clone().with_report(SearchReport {
            nodes: 42,
            pruned_probes: 7,
            first_incumbent_seconds: Some(0.001),
            curve: vec![(0.001, Bounds { lower: 1, upper: 3 })],
        });
        assert_eq!(base, with_report, "wall-clock report must not affect equality");
        let with_bounds = base.clone().with_bounds(Bounds { lower: 1, upper: 3 });
        assert_ne!(base, with_bounds, "bounds are part of the answer");
        let cut = base.clone().with_termination(TerminatedBy::Counter);
        assert_ne!(base, cut, "termination reason is part of the answer");
        assert_eq!(with_bounds.gap(), Some(Bounds { lower: 1, upper: 3 }.gap()));
        assert_eq!(base.gap(), None);
    }
}
