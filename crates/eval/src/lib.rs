//! Output-quality evaluation for rank-regret solvers.
//!
//! The paper measures output quality by drawing 100 000 utility functions
//! uniformly at random and reporting the worst rank of each algorithm's
//! set ("Computing the exact rank-regret of a set is not scalable to the
//! large settings", Section VI). This crate provides:
//!
//! * [`rank_regret`] — that estimator, parallelized across threads, plus a
//!   single-threaded deterministic variant;
//! * [`exact2d`] — an *exact* 2D evaluator via the dual arrangement
//!   (usable wherever `d = 2`, and as ground truth in tests);
//! * [`regret_ratio`] — the RMS objective, for the MDRMS comparison and
//!   the shift-invariance demonstrations;
//! * [`solver_report`] — query any prepared [`rrm_core::Solver`] handle
//!   and report time, size, certificate and estimated regret in one call;
//! * [`report`] — small table/series printing helpers shared by the
//!   experiment harness.

pub mod exact2d;
pub mod profile;
pub mod rank_regret;
pub mod regret_ratio;
pub mod report;
pub mod solver_report;

pub use exact2d::exact_rank_regret_2d;
pub use profile::{coverage_ratio, rank_profile, RankProfile};
pub use rank_regret::{estimate_rank_regret, estimate_rank_regret_seq, RegretEstimate};
pub use regret_ratio::{estimate_regret_ratio, RatioEstimate};
pub use solver_report::{evaluate_rrm, SolverReport};
