//! Helpers for polyhedral cones of utility vectors.
//!
//! A restricted utility space `U` is represented by homogeneous rows
//! `A u ≥ 0` intersected with the non-negative orthant. Because rank-regret
//! only depends on the *direction* of a utility vector, every question about
//! `U` can be normalized onto the simplex slice `Σ u[i] = 1`, which turns
//! cone questions into bounded LPs.

use crate::types::{LinearProgram, LpOutcome, NumericalFailure, Relation};

/// Minimum of `delta · u` over `{u ≥ 0, Σu = 1, A u ≥ 0}`.
///
/// Returns `None` when the region is empty (a degenerate cone), or when
/// round-off leaves the program undecided ([`LpOutcome::Numerical`]).
pub fn min_dot(delta: &[f64], cone_rows: &[Vec<f64>]) -> Option<f64> {
    extremal_dot(delta, cone_rows, false)
}

/// Maximum of `delta · u` over `{u ≥ 0, Σu = 1, A u ≥ 0}`; `None` as
/// for [`min_dot`].
pub fn max_dot(delta: &[f64], cone_rows: &[Vec<f64>]) -> Option<f64> {
    extremal_dot(delta, cone_rows, true)
}

fn extremal_dot(delta: &[f64], cone_rows: &[Vec<f64>], maximize: bool) -> Option<f64> {
    let d = delta.len();
    let mut lp =
        if maximize { LinearProgram::maximize(delta) } else { LinearProgram::minimize(delta) };
    lp.constrain(&vec![1.0; d], Relation::Eq, 1.0);
    for row in cone_rows {
        lp.constrain(row, Relation::Ge, 0.0);
    }
    lp.solve().optimal().map(|s| s.objective)
}

/// Does the cone `{u ≥ 0, A u ≥ 0}` contain a non-zero vector?
pub fn cone_nonempty(d: usize, cone_rows: &[Vec<f64>]) -> bool {
    let lp_rows: Vec<Vec<f64>> = cone_rows.to_vec();
    // Any non-zero cone member can be scaled onto the simplex slice.
    min_dot(&vec![0.0; d], &lp_rows).is_some()
}

/// Maximum strict-feasibility margin of a system of homogeneous constraints.
///
/// Finds `max z ≥ 0` such that some `u` with `u ≥ 0`, `Σu = 1`,
/// `A u ≥ 0` (cone rows) satisfies `row · u ≥ z` for every `row` in
/// `strict_rows`. Returns:
///
/// * `Ok(None)` — no `u` satisfies even the weak system (`z = 0`);
/// * `Ok(Some(z*))` — the best margin; the system is *strictly* feasible
///   (an open region, e.g. a k-set's interior) iff `z* > tol` for a small
///   tolerance chosen by the caller;
/// * `Ok(Some(f64::INFINITY))` — phase one proved the weak system
///   feasible, then round-off lost the bound on `z` (which is at most
///   `max |row·u|`), so the margin is unknown;
/// * `Err(NumericalFailure)` — round-off left even the weak system
///   undecided, so the region may or may not be empty.
///
/// Every row but `Σu = 1` is homogeneous, so the simplex starts with one
/// artificial column whatever the number of rows.
pub fn strict_feasibility_margin(
    d: usize,
    strict_rows: &[Vec<f64>],
    cone_rows: &[Vec<f64>],
) -> Result<Option<f64>, NumericalFailure> {
    match margin_program(d, strict_rows, cone_rows).solve() {
        LpOutcome::Optimal(sol) => Ok(Some(sol.objective)),
        LpOutcome::Infeasible => Ok(None),
        LpOutcome::Unbounded => Ok(Some(f64::INFINITY)),
        LpOutcome::Numerical => Err(NumericalFailure),
    }
}

/// A witness direction attaining a margin above `tol`, if one exists and
/// the program is decided.
///
/// Same system as [`strict_feasibility_margin`] but returns the utility
/// vector (normalized to the simplex slice) rather than the margin.
pub fn strict_feasibility_witness(
    d: usize,
    strict_rows: &[Vec<f64>],
    cone_rows: &[Vec<f64>],
    tol: f64,
) -> Option<Vec<f64>> {
    match margin_program(d, strict_rows, cone_rows).solve() {
        LpOutcome::Optimal(sol) if sol.objective > tol => Some(sol.x[..d].to_vec()),
        _ => None,
    }
}

/// `max z  s.t.  Σu = 1,  row·u − z ≥ 0 (strict rows),  row·u ≥ 0 (cone
/// rows)` over `u ≥ 0, z ≥ 0`.
fn margin_program(d: usize, strict_rows: &[Vec<f64>], cone_rows: &[Vec<f64>]) -> LinearProgram {
    let mut obj = vec![0.0; d + 1];
    obj[d] = 1.0;
    let mut lp = LinearProgram::maximize(&obj);
    let mut simplex_row = vec![1.0; d + 1];
    simplex_row[d] = 0.0;
    lp.constrain(&simplex_row, Relation::Eq, 1.0);
    for (rows, z) in [(strict_rows, -1.0), (cone_rows, 0.0)] {
        for row in rows {
            debug_assert_eq!(row.len(), d);
            let mut c = Vec::with_capacity(d + 1);
            c.extend_from_slice(row);
            c.push(z);
            lp.constrain(&c, Relation::Ge, 0.0);
        }
    }
    lp
}
