//! [`Solver`] implementations for the 2D algorithms: the paper's exact
//! dynamic program (2DRRM) and the interval-cover baseline of Asudeh et
//! al. (2DRRR).
//!
//! Both are planar (`d = 2` exactly); [`Algorithm::supported_dims`]
//! advertises that, and `prepare` turns it into a uniform
//! `RrmError::Unsupported` before building any state.

use rrm_core::{Algorithm, Dataset, ExecPolicy, PreparedSolver, RrmError, Solver, UtilitySpace};

use crate::rrm2d::Prepared2d;
use crate::rrr2d::PreparedRrr2d;

/// **2DRRM** (paper Section IV): exact RRM/RRRM via the dual-line sweep,
/// exact RRR via binary search on the DP.
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoDRrmSolver;

impl Solver for TwoDRrmSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::TwoDRrm
    }

    fn prepare(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.algorithm().ensure_supported(data, space)?;
        Ok(Box::new(Prepared2d::new(data, space, exec)?))
    }
}

/// **2DRRR** (Asudeh et al.): native RRR via rank-window interval cover
/// (size ≤ optimal, regret ≤ 2k−1), adapted to RRM with doubling + binary
/// search. No certificate tight enough to count as a guarantee, and no
/// restricted-space mode (Table III).
#[derive(Debug, Clone, Copy, Default)]
pub struct TwoDRrrSolver;

impl Solver for TwoDRrrSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::TwoDRrr
    }

    fn prepare(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.algorithm().ensure_supported(data, space)?;
        Ok(Box::new(PreparedRrr2d::new(data, space, exec)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::{Budget, FullSpace, WeakRankingSpace};

    fn table1() -> Dataset {
        Dataset::from_rows(&[
            [0.0, 1.0],
            [0.4, 0.95],
            [0.57, 0.75],
            [0.79, 0.6],
            [0.2, 0.5],
            [0.35, 0.3],
            [1.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn trait_and_function_agree() {
        // The boxed trait handle answers exactly like the prepared type
        // built directly.
        let solver = TwoDRrmSolver;
        let space = FullSpace::new(2);
        let via_trait = solver
            .prepare(&table1(), &space, ExecPolicy::default())
            .unwrap()
            .solve_rrm(2, &Budget::default())
            .unwrap();
        let direct = Prepared2d::new(&table1(), &space, ExecPolicy::default())
            .unwrap()
            .solve_rrm(2, &Budget::default())
            .unwrap();
        assert_eq!(via_trait, direct);
        assert_eq!(solver.algorithm(), Algorithm::TwoDRrm);
        assert!(solver.algorithm().has_regret_guarantee());
    }

    #[test]
    fn two_d_solvers_reject_hd_data() {
        let data = Dataset::from_rows(&[[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]]).unwrap();
        let Err(err) = TwoDRrrSolver.prepare(&data, &FullSpace::new(3), ExecPolicy::default())
        else {
            panic!("2DRRR must refuse d = 3");
        };
        assert!(matches!(err, RrmError::Unsupported(_)), "{err}");
    }

    #[test]
    fn two_d_rrr_solver_covers_threshold() {
        let solver = TwoDRrrSolver;
        let sol = solver
            .prepare(&table1(), &FullSpace::new(2), ExecPolicy::default())
            .unwrap()
            .solve_rrr(2, &Budget::default())
            .unwrap();
        assert!(sol.certified_regret.unwrap() <= 3); // 2k-1
        assert_eq!(sol.algorithm, Algorithm::TwoDRrr);
        assert!(!solver.algorithm().supports_restricted_space());
        let restricted =
            solver.prepare(&table1(), &WeakRankingSpace::new(2, 1), Default::default());
        assert!(matches!(restricted, Err(RrmError::Unsupported(_))));
    }
}
