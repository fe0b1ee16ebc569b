//! Dense two-phase simplex on an explicit tableau.
//!
//! The implementation favours robustness over raw speed: the programs solved
//! in this workspace have at most a dozen variables, so numerical stability
//! (tolerances, Bland's rule fallback) matters far more than pivot cost.
//!
//! Every row is oriented so its right-hand side is non-negative. A `≤` row
//! then starts with its slack in the basis, and so does a `≥` row with rhs
//! 0, negated into `-a·x ≤ 0`. Only `=` rows and `≥` rows with a positive
//! rhs get an artificial column for phase one to drive out. A k-set region
//! LP (`Σu = 1` beside `k·(n−k)` homogeneous rows) therefore has one
//! artificial column, however many rows it has.
//!
//! Phase one is bounded below by 0, so a ray there, an exhausted pivot
//! budget, or a non-finite value is round-off, reported as
//! [`LpOutcome::Numerical`], never as infeasibility.

use crate::types::{LinearProgram, LpOutcome, LpSolution, Relation};

const EPS: f64 = 1e-9;
/// After this many Dantzig pivots we switch to Bland's rule, which cannot
/// cycle; the bound is generous for the tiny programs we solve.
const DANTZIG_LIMIT: usize = 10_000;
const TOTAL_LIMIT: usize = 100_000;

/// Solve `max c·x  s.t.  A x ≤ b, x ≥ 0` where every entry of `b` is
/// non-negative (so the slack basis is feasible and no phase one is needed).
///
/// This fast path is used by callers that build standard-form programs
/// directly (for instance the set-cover LP relaxation in ablations).
pub fn solve_standard_form(c: &[f64], a: &[Vec<f64>], b: &[f64]) -> LpOutcome {
    debug_assert_eq!(a.len(), b.len());
    debug_assert!(b.iter().all(|&v| v >= -EPS), "standard form requires b >= 0");
    let mut lp = LinearProgram::maximize(c);
    for (row, &rhs) in a.iter().zip(b) {
        lp.constrain(row, Relation::Le, rhs);
    }
    lp.solve()
}

/// Internal tableau. Column layout: `n` decision vars, then slack/surplus
/// vars, then artificial vars, then the RHS column.
struct Tableau {
    /// `m + 1` rows (constraints then objective), each `cols + 1` wide.
    rows: Vec<Vec<f64>>,
    /// Basic variable (column index) of each constraint row.
    basis: Vec<usize>,
    /// Total number of structural + slack + artificial columns.
    cols: usize,
    /// Columns `[art_start, cols)` are artificial.
    art_start: usize,
}

impl Tableau {
    fn rhs(&self, row: usize) -> f64 {
        self.rows[row][self.cols]
    }

    fn pivot(&mut self, prow: usize, pcol: usize) {
        let piv = self.rows[prow][pcol];
        debug_assert!(piv.abs() > EPS, "pivot element too small");
        let inv = 1.0 / piv;
        for v in self.rows[prow].iter_mut() {
            *v *= inv;
        }
        let pivot_row = self.rows[prow].clone();
        for (r, row) in self.rows.iter_mut().enumerate() {
            if r == prow {
                continue;
            }
            let factor = row[pcol];
            if factor.abs() <= EPS {
                row[pcol] = 0.0;
                continue;
            }
            for (v, p) in row.iter_mut().zip(&pivot_row) {
                *v -= factor * p;
            }
            row[pcol] = 0.0; // exact zero to avoid drift
        }
        self.basis[prow] = pcol;
    }

    /// Run the simplex iterations on the current objective row (last row,
    /// expressed for a minimization problem: we stop when all reduced costs
    /// are ≥ -EPS). `allowed` limits the entering columns (used to keep
    /// artificial variables out during phase two).
    fn iterate(&mut self, allowed: usize) -> SimplexStatus {
        let m = self.basis.len();
        for iter in 0..TOTAL_LIMIT {
            let bland = iter >= DANTZIG_LIMIT;
            let obj = self.rows[m].clone();
            // Entering variable: most negative reduced cost (Dantzig) or the
            // first negative one (Bland).
            let mut enter: Option<usize> = None;
            let mut best = -EPS;
            for (j, &cost) in obj.iter().enumerate().take(allowed) {
                if cost < best {
                    enter = Some(j);
                    if bland {
                        break;
                    }
                    best = cost;
                }
            }
            let Some(pcol) = enter else {
                return SimplexStatus::Optimal;
            };
            // Leaving variable: minimum ratio test. Ties broken by the
            // smallest basis index (part of Bland's rule; harmless always).
            let mut prow: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for r in 0..m {
                let a = self.rows[r][pcol];
                if a > EPS {
                    let ratio = self.rhs(r) / a;
                    let better = ratio < best_ratio - EPS
                        || (ratio < best_ratio + EPS
                            && prow.is_some_and(|p| self.basis[r] < self.basis[p]));
                    if better {
                        best_ratio = ratio;
                        prow = Some(r);
                    }
                }
            }
            let Some(prow) = prow else {
                return SimplexStatus::Unbounded;
            };
            self.pivot(prow, pcol);
        }
        SimplexStatus::IterationLimit
    }
}

#[derive(Debug, PartialEq, Eq)]
enum SimplexStatus {
    Optimal,
    Unbounded,
    IterationLimit,
}

pub(crate) fn solve(lp: &LinearProgram) -> LpOutcome {
    let n = lp.num_vars();
    let m = lp.constraints.len();

    // Orient every row so its RHS is non-negative, and count the extra
    // columns we need. A `≥` row with rhs 0 is negated too, so its slack
    // starts in the basis at value 0 and it needs no artificial column.
    let mut slack_count = 0usize;
    let mut art_count = 0usize;
    // (coeffs, rhs, slack_sign: -1/0/+1, needs_artificial)
    let mut rows: Vec<(Vec<f64>, f64, i8, bool)> = Vec::with_capacity(m);
    for c in &lp.constraints {
        let mut coeffs = c.coeffs.clone();
        let mut rhs = c.rhs;
        let mut rel = c.relation;
        if rhs < 0.0 || (rhs == 0.0 && rel == Relation::Ge) {
            for v in &mut coeffs {
                *v = -*v;
            }
            rhs = rhs.abs();
            rel = match rel {
                Relation::Le => Relation::Ge,
                Relation::Ge => Relation::Le,
                Relation::Eq => Relation::Eq,
            };
        }
        let (sign, art) = match rel {
            Relation::Le => (1i8, false),
            Relation::Ge => (-1i8, true),
            Relation::Eq => (0i8, true),
        };
        if sign != 0 {
            slack_count += 1;
        }
        if art {
            art_count += 1;
        }
        rows.push((coeffs, rhs, sign, art));
    }
    let art_start = n + slack_count;
    let cols = art_start + art_count;

    let mut t = Tableau {
        rows: vec![vec![0.0; cols + 1]; m + 1],
        basis: vec![usize::MAX; m],
        cols,
        art_start,
    };

    let mut next_slack = n;
    let mut next_art = art_start;
    for (r, (coeffs, rhs, sign, art)) in rows.iter().enumerate() {
        for (j, &v) in coeffs.iter().enumerate() {
            t.rows[r][j] = v;
        }
        t.rows[r][cols] = *rhs;
        if *sign != 0 {
            t.rows[r][next_slack] = f64::from(*sign);
            if *sign > 0 {
                t.basis[r] = next_slack;
            }
            next_slack += 1;
        }
        if *art {
            t.rows[r][next_art] = 1.0;
            t.basis[r] = next_art;
            next_art += 1;
        }
        debug_assert_ne!(t.basis[r], usize::MAX);
    }

    // Phase one: minimize the sum of artificial variables. The objective row
    // is the (negated) sum of the rows whose basic variable is artificial.
    if art_count > 0 {
        for j in 0..=cols {
            let mut v = 0.0;
            for r in 0..m {
                if t.basis[r] >= art_start {
                    v += t.rows[r][j];
                }
            }
            t.rows[m][j] = -v;
        }
        for j in art_start..cols {
            t.rows[m][j] = 0.0;
        }
        match t.iterate(cols) {
            SimplexStatus::Optimal => {}
            // Phase one is bounded below by 0, so a ray is round-off (rows
            // whose entries overflow or cancel); neither status proves the
            // program infeasible.
            SimplexStatus::Unbounded | SimplexStatus::IterationLimit => {
                return LpOutcome::Numerical;
            }
        }
        // -rhs of the objective row is the phase-one minimum.
        let infeasibility = -t.rows[m][cols];
        if !infeasibility.is_finite() {
            return LpOutcome::Numerical;
        }
        if infeasibility > 1e-7 {
            return LpOutcome::Infeasible;
        }
        // Drive any artificial variable that is still basic (at value 0) out
        // of the basis so phase two never re-enters it.
        for r in 0..m {
            if t.basis[r] >= art_start {
                let pcol = (0..art_start).find(|&j| t.rows[r][j].abs() > EPS);
                match pcol {
                    Some(j) => t.pivot(r, j),
                    // Redundant row: every structural coefficient is zero.
                    None => t.rows[r][cols] = 0.0,
                }
            }
        }
    }

    // Phase two: minimize -c·x (for a maximization) or c·x. Build the
    // reduced-cost row for the current basis.
    let sign = if lp.maximize { -1.0 } else { 1.0 };
    for j in 0..=cols {
        t.rows[m][j] = 0.0;
    }
    for (j, &c) in lp.objective.iter().enumerate() {
        t.rows[m][j] = sign * c;
    }
    // Substitute out the basic variables from the objective row.
    for r in 0..m {
        let b = t.basis[r];
        let factor = t.rows[m][b];
        if factor.abs() > EPS {
            let row = t.rows[r].clone();
            for (v, p) in t.rows[m].iter_mut().zip(&row) {
                *v -= factor * p;
            }
            t.rows[m][b] = 0.0;
        }
    }

    match t.iterate(t.art_start) {
        SimplexStatus::Optimal => {}
        SimplexStatus::Unbounded => return LpOutcome::Unbounded,
        SimplexStatus::IterationLimit => {
            // Extremely defensive: report the best feasible point found.
        }
    }

    let mut x = vec![0.0; n];
    for r in 0..m {
        if t.basis[r] < n {
            x[t.basis[r]] = t.rhs(r);
        }
    }
    let objective: f64 = lp.objective.iter().zip(&x).map(|(c, v)| c * v).sum();
    if !objective.is_finite() || x.iter().any(|v| !v.is_finite()) {
        return LpOutcome::Numerical;
    }
    LpOutcome::Optimal(LpSolution { x, objective })
}
