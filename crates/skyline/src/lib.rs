//! Skyline and restricted-skyline operators.
//!
//! Theorem 3 of the paper: the solution of RRRM can always be drawn from
//! the *U-skyline* `Sky_U(D)` (Ciaccia & Martinenghi's restricted skyline),
//! and the solution of RRM from the classic skyline `Sky(D)`. Every solver
//! in this workspace prunes its candidate set with these operators.
//!
//! * [`dominance`] — pairwise dominance and LP-based U-dominance tests;
//! * [`sky2d`] — `O(n log n)` sort-and-sweep skyline for `d = 2`;
//! * [`skyhd`] — sort-filter skyline (SFS) for arbitrary `d`;
//! * [`restricted`] — `Sky_U(D)` for polyhedral spaces (exact, via LP, with
//!   an `O(n log n)` specialization for 2D cones);
//! * [`incremental`] — a skyline kept current under insert/delete batches
//!   via a dominated-by-one buffer, for `Session::update`.

pub mod dominance;
pub mod incremental;
pub mod restricted;
pub mod sky2d;
pub mod skyhd;

pub use dominance::{dominates, u_dominates};
pub use incremental::IncrementalSkyline;
pub use restricted::u_skyline;
pub use sky2d::skyline_2d;
pub use skyhd::skyline;
