//! Unit tests for the simplex solver and cone helpers.

use crate::cone;
use crate::{LinearProgram, LpOutcome, Relation};

fn assert_optimal(outcome: &LpOutcome, expect_obj: f64) {
    match outcome {
        LpOutcome::Optimal(sol) => {
            assert!(
                (sol.objective - expect_obj).abs() < 1e-7,
                "objective {} != expected {expect_obj}",
                sol.objective
            );
        }
        other => panic!("expected optimal({expect_obj}), got {other:?}"),
    }
}

#[test]
fn maximize_basic_le() {
    // max 3x + 2y s.t. x + y <= 4, x + 3y <= 6 => x=4, y=0, obj=12
    let mut lp = LinearProgram::maximize(&[3.0, 2.0]);
    lp.constrain(&[1.0, 1.0], Relation::Le, 4.0);
    lp.constrain(&[1.0, 3.0], Relation::Le, 6.0);
    assert_optimal(&lp.solve(), 12.0);
}

#[test]
fn maximize_interior_vertex() {
    // max x + y s.t. x + 2y <= 4, 3x + y <= 6 => vertex (1.6, 1.2), obj 2.8
    let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
    lp.constrain(&[1.0, 2.0], Relation::Le, 4.0);
    lp.constrain(&[3.0, 1.0], Relation::Le, 6.0);
    let out = lp.solve();
    assert_optimal(&out, 2.8);
    let sol = out.optimal().unwrap();
    assert!((sol.x[0] - 1.6).abs() < 1e-7);
    assert!((sol.x[1] - 1.2).abs() < 1e-7);
}

#[test]
fn minimize_with_ge_needs_phase_one() {
    // min 2x + 3y s.t. x + y >= 10, x >= 2 => (8, 2)? obj = 16+6 = 22
    // actually y=0 allowed: x>=10? x+y>=10 with y=0 -> x=10, obj=20 < 22.
    let mut lp = LinearProgram::minimize(&[2.0, 3.0]);
    lp.constrain(&[1.0, 1.0], Relation::Ge, 10.0);
    lp.constrain(&[1.0, 0.0], Relation::Ge, 2.0);
    assert_optimal(&lp.solve(), 20.0);
}

#[test]
fn equality_constraint() {
    // max x + 2y s.t. x + y = 3, y <= 2 => (1,2), obj 5
    let mut lp = LinearProgram::maximize(&[1.0, 2.0]);
    lp.constrain(&[1.0, 1.0], Relation::Eq, 3.0);
    lp.constrain(&[0.0, 1.0], Relation::Le, 2.0);
    assert_optimal(&lp.solve(), 5.0);
}

#[test]
fn infeasible_detected() {
    let mut lp = LinearProgram::maximize(&[1.0]);
    lp.constrain(&[1.0], Relation::Le, 1.0);
    lp.constrain(&[1.0], Relation::Ge, 2.0);
    assert_eq!(lp.solve(), LpOutcome::Infeasible);
}

#[test]
fn infeasible_equalities() {
    let mut lp = LinearProgram::minimize(&[1.0, 1.0]);
    lp.constrain(&[1.0, 1.0], Relation::Eq, 1.0);
    lp.constrain(&[1.0, 1.0], Relation::Eq, 2.0);
    assert_eq!(lp.solve(), LpOutcome::Infeasible);
}

#[test]
fn unbounded_detected() {
    let mut lp = LinearProgram::maximize(&[1.0, 0.0]);
    lp.constrain(&[0.0, 1.0], Relation::Le, 1.0);
    assert_eq!(lp.solve(), LpOutcome::Unbounded);
}

#[test]
fn negative_rhs_is_normalized() {
    // x - y <= -1 with x,y >= 0 means y >= x + 1.
    // max x + y s.t. x - y <= -1, x + y <= 5 => x=2, y=3.
    let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
    lp.constrain(&[1.0, -1.0], Relation::Le, -1.0);
    lp.constrain(&[1.0, 1.0], Relation::Le, 5.0);
    let out = lp.solve();
    assert_optimal(&out, 5.0);
}

#[test]
fn degenerate_vertex_no_cycle() {
    // Classic degenerate example; must terminate and find obj = 1 at x3 = 1.
    let mut lp = LinearProgram::maximize(&[0.75, -150.0, 0.02, -6.0]);
    lp.constrain(&[0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0);
    lp.constrain(&[0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0);
    lp.constrain(&[0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0);
    assert_optimal(&lp.solve(), 0.05);
}

#[test]
fn redundant_equality_rows() {
    // Duplicate equality rows create a redundant row in phase one.
    let mut lp = LinearProgram::maximize(&[1.0, 1.0]);
    lp.constrain(&[1.0, 1.0], Relation::Eq, 2.0);
    lp.constrain(&[2.0, 2.0], Relation::Eq, 4.0);
    assert_optimal(&lp.solve(), 2.0);
}

#[test]
fn standard_form_fast_path() {
    let out = crate::solve_standard_form(
        &[3.0, 5.0],
        &[vec![1.0, 0.0], vec![0.0, 2.0], vec![3.0, 2.0]],
        &[4.0, 12.0, 18.0],
    );
    assert_optimal(&out, 36.0);
}

#[test]
fn solution_satisfies_all_constraints() {
    let mut lp = LinearProgram::maximize(&[2.0, 1.0, 3.0]);
    lp.constrain(&[1.0, 1.0, 1.0], Relation::Le, 10.0);
    lp.constrain(&[1.0, 0.0, 2.0], Relation::Le, 8.0);
    lp.constrain(&[0.0, 1.0, 0.0], Relation::Ge, 1.0);
    let out = lp.solve();
    let sol = out.optimal().expect("feasible");
    for c in lp.constraints() {
        assert!(c.satisfied_by(&sol.x, 1e-7), "violated: {c:?} at {:?}", sol.x);
    }
}

// ---------------------------------------------------------------- cone ----

#[test]
fn cone_min_dot_full_orthant() {
    // Over the simplex in the full orthant, min of (1, 3) . u is 1 at e1.
    let v = cone::min_dot(&[1.0, 3.0], &[]).unwrap();
    assert!((v - 1.0).abs() < 1e-7);
    let v = cone::max_dot(&[1.0, 3.0], &[]).unwrap();
    assert!((v - 3.0).abs() < 1e-7);
}

#[test]
fn cone_min_dot_weak_ranking() {
    // U = {u1 >= u2}: simplex slice is u1 in [0.5, 1].
    // min of (0, 1)·u = u2 is 0 (u = (1,0)); max is 0.5 (u = (.5,.5)).
    let rows = vec![vec![1.0, -1.0]];
    let lo = cone::min_dot(&[0.0, 1.0], &rows).unwrap();
    let hi = cone::max_dot(&[0.0, 1.0], &rows).unwrap();
    assert!(lo.abs() < 1e-7);
    assert!((hi - 0.5).abs() < 1e-7);
}

#[test]
fn cone_nonempty_checks() {
    assert!(cone::cone_nonempty(3, &[]));
    assert!(cone::cone_nonempty(2, &[vec![1.0, -1.0]]));
    // u1 >= u2 + something impossible in the orthant: u1 <= -1 (as -u1 >= 1
    // cannot be expressed homogeneously; use contradictory rows instead):
    // u1 - u2 >= 0 and u2 - u1 >= 0 forces u1 = u2: still non-empty.
    assert!(cone::cone_nonempty(2, &[vec![1.0, -1.0], vec![-1.0, 1.0]]));
    // -u1 >= 0 and -u2 >= 0 forces u = 0: empty on the simplex slice.
    assert!(!cone::cone_nonempty(2, &[vec![-1.0, 0.0], vec![0.0, -1.0]]));
}

#[test]
fn strict_margin_separable() {
    // Need u with u·(1,0) > u·(0,1): margin row (1,-1). Best margin on the
    // simplex is 1 at u = (1, 0).
    let z = cone::strict_feasibility_margin(2, &[vec![1.0, -1.0]], &[]).unwrap().unwrap();
    assert!((z - 1.0).abs() < 1e-7);
}

#[test]
fn strict_margin_infeasible_pair() {
    // Rows (1,-1) and (-1,1) can both be >= z only for z <= 0.
    let z = cone::strict_feasibility_margin(2, &[vec![1.0, -1.0], vec![-1.0, 1.0]], &[])
        .unwrap()
        .unwrap();
    assert!(z.abs() < 1e-7, "boundary-only feasibility should give margin 0, got {z}");
}

#[test]
fn strict_witness_respects_cone() {
    // Witness for "first attribute strictly better" restricted to u2 >= u1:
    // impossible (u1 - u2 >= z > 0 contradicts u2 - u1 >= 0).
    let w = cone::strict_feasibility_witness(2, &[vec![1.0, -1.0]], &[vec![-1.0, 1.0]], 1e-7);
    assert!(w.is_none());
    // Without the cone restriction a witness exists and favours attr 1.
    let w = cone::strict_feasibility_witness(2, &[vec![1.0, -1.0]], &[], 1e-7).unwrap();
    assert!(w[0] > w[1]);
}

#[test]
fn extreme_cone_rows_are_undecided_not_a_panic() {
    // Entries near f64::MAX beside a 1e-300 one: round-off drives phase
    // one into a ray, which once hit an `unreachable!`.
    let delta = [-1e-300, 1.0, 1e200];
    let rows = [vec![-1.0, 1.7e308, -1e308]];
    assert_eq!(cone::max_dot(&delta, &rows), None);
    let mut lp = LinearProgram::maximize(&delta);
    lp.constrain(&[1.0; 3], Relation::Eq, 1.0);
    lp.constrain(&rows[0], Relation::Ge, 0.0);
    assert_eq!(lp.solve(), LpOutcome::Numerical);
    assert!(!lp.is_feasible());
}
