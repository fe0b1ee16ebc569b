//! Geometry substrate for the rank-regret algorithms.
//!
//! Two families of machinery live here:
//!
//! * **2D dual space** (paper Section IV): each tuple `t = (t[1], t[2])`
//!   maps to the line `y = t[1]·x + t[2]·(1-x)` over `x ∈ [0, 1]`; a
//!   normalized utility vector `(c, 1-c)` maps to the vertical line `x = c`,
//!   and "tuple a outranks tuple b at `u`" becomes "line a is above line b
//!   at `x = c`". [`dual`] builds the transform, [`events`] enumerates the
//!   crossings where ranks change, [`sweep`] implements the paper-faithful
//!   full arrangement sweep, and [`chain`] provides the persistent convex
//!   chains stored in 2DRRM's matrix `M`.
//!
//! * **d-dimensional polar coordinates** (paper Section V-A): conversion
//!   between angle vectors and unit utility vectors, and the polar grid
//!   `Db` of `(γ+1)^(d-1)` directions used by HDRRM's discretization.
//!   See [`polar`].

pub mod chain;
mod counting;
pub mod dual;
pub mod envelope;
pub mod events;
pub mod polar;
pub mod sweep;

pub use chain::{chain_to_vec, ChainNode};
pub use dual::DualLine;
pub use envelope::{envelope_lines, upper_envelope, EnvelopeSegment};
pub use events::{crossings_with_tracked, crossings_with_tracked_capped, Crossing};
pub use polar::{angles_to_direction, direction_to_angles, polar_grid};
