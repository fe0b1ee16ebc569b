//! Core datatypes and ranking primitives for rank-regret minimization.
//!
//! This crate defines the vocabulary shared by every algorithm in the
//! workspace, mirroring Section II of *Rank-Regret Minimization*
//! (Xiao & Li, ICDE 2022):
//!
//! * [`Dataset`] — `n` tuples over `d` numeric attributes, larger preferred;
//! * utility vectors and batch scoring ([`utility`]);
//! * ranks, top-k sets `Φk(u, D)` and the k-th score `w_k(u, D)` ([`rank`]);
//! * utility *spaces*: the full non-negative orthant `L` and restricted
//!   convex spaces `U` for the RRRM problem ([`space`]);
//! * the boundary-tuple basis `B` used by HDRRM ([`basis`]);
//! * problem statements and solver outputs ([`problem`]).
//!
//! # Conventions
//!
//! Tuples are addressed by `u32` indices into their [`Dataset`]. Ranks are
//! 1-based (`rank 1` = best), exactly as in the paper. All scoring uses
//! linear utility functions `w(u, t) = Σ u[i]·t[i]` with `u ≥ 0`.
//!
//! ```
//! use rrm_core::{Dataset, rank::rank_regret_of_set};
//!
//! // Table I of the paper.
//! let d = Dataset::from_rows(&[
//!     [0.0, 1.0], [0.4, 0.95], [0.57, 0.75], [0.79, 0.6],
//!     [0.2, 0.5], [0.35, 0.3], [1.0, 0.0],
//! ]).unwrap();
//! // For u = (0.25, 0.75), t2 outranks t1 (dual-space reading of Fig. 4).
//! let u = [0.25, 0.75];
//! assert_eq!(rank_regret_of_set(&d, &u, &[0]), 2); // {t1} has rank 2
//! assert_eq!(rank_regret_of_set(&d, &u, &[1]), 1); // {t2} has rank 1
//! ```

pub mod anytime;
pub mod approx;
pub mod basis;
pub mod dataset;
pub mod error;
pub mod exec;
pub mod kernel;
pub mod memo;
pub mod problem;
pub mod rank;
pub mod sampling;
pub mod solver;
pub mod space;
pub mod update;
pub mod utility;

pub use anytime::{
    threshold_search, AnytimeSearch, Bounds, Incumbent, SearchReport, TerminatedBy,
    ThresholdOutcome,
};
pub use approx::{hoeffding_directions, reduce, ApproxSpec, Fidelity, Reduced};
pub use basis::basis_indices;
pub use dataset::Dataset;
pub use error::RrmError;
pub use exec::{ExecPolicy, Parallelism};
pub use kernel::{ScoreScratch, Soa};
pub use memo::{Memo, PREPARED_CACHE_CAP, PROBE_CACHE_CAP};
pub use problem::{Algorithm, Solution};
pub use solver::{BruteForceSolver, Budget, DimRange, PreparedBruteForce, PreparedSolver, Solver};
pub use space::{
    BiasedOrthantSpace, BoxSpace, ConeSpace, FullSpace, SphereCap, UtilitySpace, WeakRankingSpace,
};
pub use update::{apply_updates, AppliedUpdate, UpdateOp};
