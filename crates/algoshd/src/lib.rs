//! High-dimensional rank-regret algorithms (paper Section V) and the
//! competitor algorithms it evaluates against.
//!
//! | Module | Algorithm | Guarantee on rank-regret | RRRM | Scalable |
//! |--------|-----------|--------------------------|------|----------|
//! | [`mod@hdrrm`] | **HDRRM** (this paper) | yes (over the discretized set `D`, Theorems 6–10) | yes | yes |
//! | [`mod@mdrrr`] | MDRRR (Asudeh et al.) | yes (exact k-set enumeration) | no | no (few hundred tuples) |
//! | [`mod@mdrrr_r`] | MDRRRr (randomized) | no | yes | limited |
//! | [`mod@mdrc`] | MDRC (space partitioning) | no | no | yes |
//! | [`mod@mdrms`] | MDRMS (regret-ratio / RMS) | no (wrong objective) | yes | yes |
//!
//! This is Table III of the paper, encoded in `rrm_core::Algorithm`: every
//! solver's `prepare` runs `Algorithm::ensure_supported`, which rejects
//! restricted spaces for MDRRR and MDRC, and only HDRRM and MDRRR certify
//! a rank-regret for their output. Each algorithm's queries run on the
//! handle its [`solver`]'s `prepare` returns.
//!
//! [`mod@sampled`] holds the sampled-ε tier's solver (`Algorithm::Sampled`):
//! a greedy cover of Hoeffding-sized sampled directions, certified over
//! that sample.
//!
//! Every direction-sampling cover solver here shares one greedy cover,
//! `rrm_setcover::greedy_set_cover_csr`, and one doubling-then-binary
//! threshold search. HDRRM and MDRRRr also share one anytime cover search
//! (basis, candidate mask and k-set step are its inputs); MDRRR runs
//! ASMS's cover over its enumerated k-sets.

pub(crate) mod anytime;
pub mod asms;
pub mod common;
pub mod discretize;
pub mod hdrrm;
pub mod ksets;
pub mod mdrc;
pub mod mdrms;
pub mod mdrrr;
pub mod mdrrr_r;
pub mod sampled;
pub mod solver;

pub use asms::asms;
pub use discretize::{build_vector_set, paper_sample_size, Discretization};
pub use hdrrm::{HdrrmOptions, PreparedHdrrm};
pub use ksets::{enumerate_ksets, KsetEnumeration, KsetLimits};
pub use mdrms::MdrmsOptions;
pub use mdrrr_r::MdrrrROptions;
pub use sampled::SampledSolver;
pub use solver::{HdrrmSolver, MdrcSolver, MdrmsSolver, MdrrrRSolver, MdrrrSolver};
