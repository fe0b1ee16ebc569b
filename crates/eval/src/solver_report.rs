//! Trait-driven solver evaluation: query any [`PreparedSolver`] and
//! measure what it actually delivers over a utility space — wall-clock,
//! output size, the solver's own certificate, and the sampled rank-regret
//! estimate the paper reports. The bench harness's `measure_solver` is a
//! thin adapter over this, so "evaluate an algorithm" is one call
//! regardless of which algorithm it is.

use std::time::Instant;

use rrm_core::{Algorithm, Budget, Dataset, PreparedSolver, RrmError, UtilitySpace};

use crate::rank_regret::estimate_rank_regret;

/// What one solver run delivered.
#[derive(Debug, Clone, PartialEq)]
pub struct SolverReport {
    pub algorithm: Algorithm,
    /// Representative set size.
    pub size: usize,
    /// The solver's own certificate, when its algorithm provides one.
    pub certified_regret: Option<usize>,
    /// Sampled worst rank over the space (the paper's estimator).
    pub estimated_regret: usize,
    /// `estimated_regret` as a percentage of `n` (the paper's
    /// cross-dataset normalization).
    pub estimated_regret_percent: f64,
    /// Wall-clock seconds spent inside the solver.
    pub seconds: f64,
}

fn report(
    sol: &rrm_core::Solution,
    data: &Dataset,
    space: &dyn UtilitySpace,
    eval_samples: usize,
    seed: u64,
    seconds: f64,
) -> SolverReport {
    let estimated = estimate_rank_regret(data, &sol.indices, space, eval_samples, seed).max_rank;
    SolverReport {
        algorithm: sol.algorithm,
        size: sol.size(),
        certified_regret: sol.certified_regret,
        estimated_regret: estimated,
        estimated_regret_percent: 100.0 * estimated as f64 / data.n() as f64,
        seconds,
    }
}

/// Run an RRM query through a prepared handle and evaluate the result.
/// `seconds` covers only the query — preparation happened earlier and is
/// the caller's to time (the amortization benches report both).
pub fn evaluate_rrm(
    prepared: &dyn PreparedSolver,
    r: usize,
    space: &dyn UtilitySpace,
    budget: &Budget,
    eval_samples: usize,
    seed: u64,
) -> Result<SolverReport, RrmError> {
    let start = Instant::now();
    let sol = prepared.solve_rrm(r, budget)?;
    let seconds = start.elapsed().as_secs_f64();
    Ok(report(&sol, prepared.dataset(), space, eval_samples, seed, seconds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{BruteForceSolver, ExecPolicy, FullSpace, Solver};

    fn tiny() -> Dataset {
        Dataset::from_rows(&[[0.0, 1.0], [0.57, 0.75], [1.0, 0.0]]).unwrap()
    }

    fn brute(data: &Dataset) -> Box<dyn PreparedSolver> {
        BruteForceSolver.prepare(data, &FullSpace::new(2), ExecPolicy::default()).unwrap()
    }

    #[test]
    fn brute_force_report_on_a_tiny_dataset() {
        let prepared = brute(&tiny());
        let rep =
            evaluate_rrm(prepared.as_ref(), 1, &FullSpace::new(2), &Budget::default(), 2_000, 7)
                .unwrap();
        assert_eq!(rep.algorithm, Algorithm::BruteForce);
        assert_eq!(rep.size, 1);
        assert!(rep.estimated_regret >= 1 && rep.estimated_regret <= 3);
        assert!(rep.estimated_regret_percent <= 100.0);
        assert!(rep.seconds >= 0.0);
        // The certificate and the estimate agree on this trivial input.
        assert_eq!(rep.certified_regret.unwrap(), rep.estimated_regret);
    }

    #[test]
    fn prepared_report_matches_one_shot_report() {
        // A warm handle reports exactly what a fresh one does, except
        // wall-clock.
        let space = FullSpace::new(2);
        let warm = brute(&tiny());
        evaluate_rrm(warm.as_ref(), 2, &space, &Budget::default(), 2_000, 7).unwrap();
        let rep = evaluate_rrm(warm.as_ref(), 1, &space, &Budget::default(), 2_000, 7).unwrap();
        let fresh =
            evaluate_rrm(brute(&tiny()).as_ref(), 1, &space, &Budget::default(), 2_000, 7).unwrap();
        assert_eq!(rep.algorithm, fresh.algorithm);
        assert_eq!(rep.size, fresh.size);
        assert_eq!(rep.certified_regret, fresh.certified_regret);
        assert_eq!(rep.estimated_regret, fresh.estimated_regret);
    }

    #[test]
    fn errors_pass_through_untouched() {
        let prepared = brute(&tiny());
        let err =
            evaluate_rrm(prepared.as_ref(), 0, &FullSpace::new(2), &Budget::default(), 100, 7)
                .unwrap_err();
        assert!(matches!(err, RrmError::OutputSizeTooSmall { .. }));
    }
}
