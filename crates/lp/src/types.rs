//! Public problem-description types for the simplex solver.

/// Relation of a linear constraint `a·x REL b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// A single linear constraint `coeffs · x REL rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    pub coeffs: Vec<f64>,
    pub relation: Relation,
    pub rhs: f64,
}

impl Constraint {
    pub fn new(coeffs: &[f64], relation: Relation, rhs: f64) -> Self {
        Self { coeffs: coeffs.to_vec(), relation, rhs }
    }

    /// Evaluate the left-hand side at `x`.
    pub fn lhs(&self, x: &[f64]) -> f64 {
        self.coeffs.iter().zip(x).map(|(a, v)| a * v).sum()
    }

    /// Whether `x` satisfies this constraint within tolerance `tol`.
    pub fn satisfied_by(&self, x: &[f64], tol: f64) -> bool {
        let lhs = self.lhs(x);
        match self.relation {
            Relation::Le => lhs <= self.rhs + tol,
            Relation::Ge => lhs >= self.rhs - tol,
            Relation::Eq => (lhs - self.rhs).abs() <= tol,
        }
    }
}

/// Optimal solution of a linear program.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal assignment of the decision variables (all non-negative).
    pub x: Vec<f64>,
    /// Objective value at `x`, in the original orientation (a maximum for
    /// [`LinearProgram::maximize`], a minimum for [`LinearProgram::minimize`]).
    pub objective: f64,
}

/// Outcome of solving a linear program.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    Optimal(LpSolution),
    Infeasible,
    Unbounded,
    /// Round-off decided nothing: phase one found a ray or ran out of
    /// pivots, or a value overflowed. Finite but extreme coefficients
    /// (entries near `f64::MAX` beside tiny ones) get here. The program
    /// may be feasible or not.
    Numerical,
}

/// The simplex could not decide a program ([`LpOutcome::Numerical`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NumericalFailure;

impl std::fmt::Display for NumericalFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("round-off left the linear program undecided")
    }
}

impl std::error::Error for NumericalFailure {}

impl LpOutcome {
    /// Whether the solver proved the program feasible.
    pub fn is_feasible(&self) -> bool {
        matches!(self, LpOutcome::Optimal(_) | LpOutcome::Unbounded)
    }

    /// The optimal solution, if one exists.
    pub fn optimal(&self) -> Option<&LpSolution> {
        match self {
            LpOutcome::Optimal(sol) => Some(sol),
            _ => None,
        }
    }
}

/// A linear program over non-negative decision variables.
///
/// The canonical form solved here is
/// `opt c·x  s.t.  each constraint,  x ≥ 0`.
/// Variables are implicitly non-negative, which matches every use in this
/// workspace (utility vectors live in the non-negative orthant).
#[derive(Debug, Clone)]
pub struct LinearProgram {
    pub(crate) objective: Vec<f64>,
    pub(crate) maximize: bool,
    pub(crate) constraints: Vec<Constraint>,
}

impl LinearProgram {
    /// Maximize `objective · x` subject to the constraints added later.
    pub fn maximize(objective: &[f64]) -> Self {
        Self { objective: objective.to_vec(), maximize: true, constraints: Vec::new() }
    }

    /// Minimize `objective · x` subject to the constraints added later.
    pub fn minimize(objective: &[f64]) -> Self {
        Self { objective: objective.to_vec(), maximize: false, constraints: Vec::new() }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Add a constraint `coeffs · x REL rhs`.
    ///
    /// # Panics
    /// Panics when `coeffs.len()` differs from the number of variables.
    pub fn constrain(&mut self, coeffs: &[f64], relation: Relation, rhs: f64) -> &mut Self {
        assert_eq!(
            coeffs.len(),
            self.objective.len(),
            "constraint arity must match the objective arity"
        );
        self.constraints.push(Constraint::new(coeffs, relation, rhs));
        self
    }

    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Solve the program with the two-phase simplex method.
    pub fn solve(&self) -> LpOutcome {
        crate::simplex::solve(self)
    }

    /// Convenience: is the feasible region provably non-empty?
    pub fn is_feasible(&self) -> bool {
        // Feasibility does not depend on the objective; phase one decides it.
        self.solve().is_feasible()
    }
}
