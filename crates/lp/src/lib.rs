//! Dense two-phase simplex solver.
//!
//! The rank-regret algorithms need linear programming in three places:
//!
//! 1. **U-dominance tests** for the restricted skyline (`Sky_U(D)`,
//!    Definition 5 of the paper): deciding whether `w(u,t) ≥ w(u,t')` for
//!    every `u` in a convex polyhedral cone `U`.
//! 2. **k-set region feasibility** inside MDRRR: deciding whether a
//!    candidate top-k set is realized by some utility vector — the
//!    `LP(d,n)` term in the paper's complexity analysis.
//! 3. Validity checks for user-supplied restricted spaces.
//!
//! All of these are small (a handful of variables, up to a few thousand
//! constraints), so a dense tableau simplex is the right tool. The solver
//! implements the classic two-phase method with Bland's anti-cycling rule as
//! a fallback after a fixed number of Dantzig pivots.
//!
//! Phase one needs an artificial column only for `=` rows and for `≥` rows
//! with a positive right-hand side; every other row starts with its slack
//! in the basis. The homogeneous systems above (`A u ≥ 0` beside the
//! slice `Σu = 1`), a k-set region LP among them, thus have one artificial
//! column. Round-off that leaves a program undecided is
//! [`LpOutcome::Numerical`], never "infeasible".
//!
//! # Example
//!
//! ```
//! use rrm_lp::{LinearProgram, Relation, LpOutcome};
//!
//! // maximize x + y  s.t.  x + 2y <= 4,  3x + y <= 6,  x,y >= 0
//! let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
//! lp.constrain(&[1.0, 2.0], Relation::Le, 4.0);
//! lp.constrain(&[3.0, 1.0], Relation::Le, 6.0);
//! match lp.solve() {
//!     LpOutcome::Optimal(sol) => {
//!         assert!((sol.objective - 2.8).abs() < 1e-9);
//!     }
//!     other => panic!("unexpected outcome: {other:?}"),
//! }
//! ```

mod simplex;
mod types;

pub mod cone;

pub use simplex::solve_standard_form;
pub use types::{Constraint, LinearProgram, LpOutcome, LpSolution, NumericalFailure, Relation};

#[cfg(test)]
mod tests;
