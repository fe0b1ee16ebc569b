//! Property-based tests of the simplex solver: on randomly generated
//! programs with a known feasible point, the solver must (a) terminate,
//! (b) never report infeasible, (c) return a constraint-satisfying point
//! at least as good as the witness.

use proptest::prelude::*;
use rrm_lp::{LinearProgram, LpOutcome, Relation};

const TOL: f64 = 1e-6;

/// A random LP built around a known feasible witness `x0 ≥ 0`: every
/// constraint `a·x REL b` holds at `x0`.
#[derive(Debug, Clone)]
struct Instance {
    c: Vec<f64>,
    rows: Vec<(Vec<f64>, Relation, f64)>,
    x0: Vec<f64>,
}

impl Instance {
    fn program(&self, maximize: bool) -> LinearProgram {
        let mut lp = if maximize {
            LinearProgram::maximize(&self.c)
        } else {
            LinearProgram::minimize(&self.c.iter().map(|v| -v).collect::<Vec<_>>())
        };
        for (row, rel, b) in &self.rows {
            lp.constrain(row, *rel, *b);
        }
        lp
    }
}

fn dot(a: &[f64], x: &[f64]) -> f64 {
    a.iter().zip(x).map(|(a, x)| a * x).sum()
}

fn tenths(v: Vec<i32>) -> Vec<f64> {
    v.into_iter().map(|v| v as f64 / 10.0).collect()
}

/// Programs of `≤` rows only: `a·x ≤ a·x0 + slack` with `slack ≥ 0`.
fn instance() -> impl Strategy<Value = Instance> {
    (2usize..5, 1usize..8)
        .prop_flat_map(|(nvars, nrows)| {
            let coeff = -50i32..50;
            let pos = 0i32..50;
            (
                proptest::collection::vec(coeff.clone(), nvars),
                proptest::collection::vec(proptest::collection::vec(coeff, nvars), nrows),
                proptest::collection::vec(pos.clone(), nrows),
                proptest::collection::vec(pos, nvars),
            )
        })
        .prop_map(|(c, rows, slack, x0)| {
            let x0 = tenths(x0);
            let rows = rows
                .into_iter()
                .zip(&slack)
                .map(|(row, &s)| {
                    let row = tenths(row);
                    let b = dot(&row, &x0) + s as f64 / 10.0;
                    (row, Relation::Le, b)
                })
                .collect();
            Instance { c: tenths(c), rows, x0 }
        })
}

/// Programs mixing every row kind the solver orients differently, each
/// holding at `x0`: `≤` rows, `≥` rows `a·x ≥ a·x0 − slack` (whose rhs may
/// be negative, zero or positive), homogeneous `a·x ≥ 0` rows (negated
/// where `a·x0 < 0`), and `=` rows through `x0`.
fn mixed_instance() -> impl Strategy<Value = Instance> {
    (2usize..5, 1usize..10)
        .prop_flat_map(|(nvars, nrows)| {
            let coeff = -50i32..50;
            let pos = 0i32..50;
            (
                proptest::collection::vec(coeff.clone(), nvars),
                proptest::collection::vec(proptest::collection::vec(coeff, nvars), nrows),
                proptest::collection::vec((0u8..4, pos.clone()), nrows),
                proptest::collection::vec(pos, nvars),
            )
        })
        .prop_map(|(c, rows, kinds, x0)| {
            let x0 = tenths(x0);
            let rows = rows
                .into_iter()
                .zip(&kinds)
                .map(|(row, &(kind, s))| {
                    let mut row = tenths(row);
                    let lhs = dot(&row, &x0);
                    let s = s as f64 / 10.0;
                    match kind {
                        0 => (row, Relation::Le, lhs + s),
                        1 => (row, Relation::Ge, lhs - s),
                        2 => {
                            if lhs < 0.0 {
                                row.iter_mut().for_each(|v| *v = -*v);
                            }
                            (row, Relation::Ge, 0.0)
                        }
                        _ => (row, Relation::Eq, lhs),
                    }
                })
                .collect();
            Instance { c: tenths(c), rows, x0 }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Each case checks a `≤`-only program and a mixed one.
    #[test]
    fn solver_dominates_known_witness(le in instance(), mixed in mixed_instance()) {
        for inst in [le, mixed] {
            let lp = inst.program(true);
            match lp.solve() {
                LpOutcome::Optimal(sol) => {
                    // Feasible...
                    for c in lp.constraints() {
                        prop_assert!(
                            c.satisfied_by(&sol.x, TOL),
                            "violated {c:?} at {:?}",
                            sol.x
                        );
                    }
                    prop_assert!(sol.x.iter().all(|&v| v >= -TOL), "negative var: {:?}", sol.x);
                    // ...and at least as good as the witness.
                    let witness_obj = dot(&inst.c, &inst.x0);
                    prop_assert!(
                        sol.objective >= witness_obj - TOL,
                        "objective {} below witness {witness_obj}",
                        sol.objective
                    );
                }
                LpOutcome::Unbounded => {
                    // Legitimate when some improving ray exists; nothing to
                    // check beyond termination.
                }
                LpOutcome::Infeasible => {
                    prop_assert!(false, "program with witness {:?} called infeasible", inst.x0);
                }
                LpOutcome::Numerical => {
                    prop_assert!(false, "program with witness {:?} left undecided", inst.x0);
                }
            }
        }
    }

    /// Minimization mirrors maximization through negation.
    #[test]
    fn min_max_duality(le in instance(), mixed in mixed_instance()) {
        for inst in [le, mixed] {
            match (inst.program(true).solve(), inst.program(false).solve()) {
                (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => {
                    prop_assert!(
                        (a.objective + b.objective).abs() < 1e-5,
                        "max {} vs -min {}",
                        a.objective,
                        -b.objective
                    );
                }
                (LpOutcome::Unbounded, LpOutcome::Unbounded) => {}
                (a, b) => prop_assert!(false, "outcome mismatch: {a:?} vs {b:?}"),
            }
        }
    }
}
