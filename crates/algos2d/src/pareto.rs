//! Size/regret trade-off curve of the exact 2D solver: "best achievable
//! rank-regret per size budget" for every budget at once, from replays
//! over one prepared sweep. (The exact RRR solver — "find the minimum set
//! with rank-regret ≤ k" — is [`Prepared2d`]'s binary search, after the
//! paper's remark that 2DRRM adapts to RRR that way.)

use rrm_core::{Algorithm, Dataset, RrmError, UtilitySpace};

use crate::rrm2d::{Prepared2d, Rrm2dOptions};

/// One point of the trade-off curve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParetoPoint {
    /// Size budget `r`.
    pub r: usize,
    /// Optimal rank-regret among sets of at most `r` candidate tuples.
    pub regret: usize,
}

/// The optimal rank-regret for every size budget `1..=max_r` (clamped to
/// the candidate-set size). Increasing `r` never worsens the regret.
pub fn pareto_frontier(
    data: &Dataset,
    max_r: usize,
    space: &dyn UtilitySpace,
    options: Rrm2dOptions,
) -> Result<Vec<ParetoPoint>, RrmError> {
    // One DP replay per budget over shared prepared state: the skyline,
    // event stream and initial ranks are computed once for the whole curve.
    // (A single run with r = max_r would fill all columns, but the final
    // fold state of lower columns is only valid for the *last* event, so
    // per-budget replays are the straightforward correct choice — and
    // being independent, they fill the memo concurrently under the
    // options' exec policy.)
    Algorithm::TwoDRrm.ensure_supported(data, space)?;
    let prepared = Prepared2d::new(data, space, options)?;
    // Budgets at or past the candidate count answer with the whole
    // candidate set (regret 1) — no replay needed.
    let replay_max = max_r.min(prepared.candidates());
    // Doubling waves ([1,1], [2,3], [4,7], ...) keep the old early exit —
    // once a wave reaches regret 1, larger budgets are never replayed —
    // while each wave's replays fill the memo concurrently. At most 2x
    // the early-exit point's work, instead of all of `replay_max`.
    let mut out = Vec::with_capacity(max_r);
    let mut prev = usize::MAX;
    let mut next = 1usize;
    'waves: while next <= replay_max {
        let hi = (2 * next - 1).min(replay_max);
        let rs: Vec<usize> = (next..=hi).collect();
        let solutions = prepared.solve_rrm_many(&rs)?;
        for (r, sol) in rs.iter().zip(&solutions) {
            let k = sol.certified_regret.expect("2DRRM always certifies");
            debug_assert!(k <= prev, "frontier must be monotone");
            prev = k;
            out.push(ParetoPoint { r: *r, regret: k });
            if k == 1 {
                break 'waves;
            }
        }
        next = hi + 1;
    }
    // Larger budgets cannot improve on rank-regret 1 (and the whole
    // candidate set always achieves it).
    for r in out.len() + 1..=max_r {
        out.push(ParetoPoint { r, regret: 1 });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rrm_core::{Budget, FullSpace, PreparedSolver, Solution};

    /// Exact RRR through a fresh 2DRRM handle.
    fn rrr(data: &Dataset, k: usize) -> Result<Solution, RrmError> {
        let space = FullSpace::new(2);
        Prepared2d::new(data, &space, Rrm2dOptions::default())?.solve_rrr(k, &Budget::UNLIMITED)
    }

    fn random_dataset(n: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<[f64; 2]> =
            (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
        Dataset::from_rows(&rows).unwrap()
    }

    #[test]
    fn frontier_is_monotone_and_hits_one() {
        let d = random_dataset(150, 1);
        let f = pareto_frontier(&d, 12, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        assert_eq!(f.len(), 12);
        for w in f.windows(2) {
            assert!(w[1].regret <= w[0].regret);
        }
        // A large enough budget always reaches regret 1 (the skyline).
        let d_small = random_dataset(20, 2);
        let f = pareto_frontier(&d_small, 20, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        assert_eq!(f.last().unwrap().regret, 1);
    }

    #[test]
    fn rrr_exact_matches_frontier() {
        let d = random_dataset(80, 3);
        let f = pareto_frontier(&d, 15, &FullSpace::new(2), Rrm2dOptions::default()).unwrap();
        for k in [1usize, 2, 3, 5, 8] {
            let expected_size = f.iter().find(|p| p.regret <= k).map(|p| p.r);
            let sol = rrr(&d, k);
            match expected_size {
                Some(sz) => {
                    let sol = sol.unwrap();
                    assert_eq!(sol.size(), sz, "k={k}");
                    assert!(sol.certified_regret.unwrap() <= k);
                }
                None => {
                    // Threshold needs more than 15 tuples — solver must
                    // still succeed with a bigger set.
                    let sol = sol.unwrap();
                    assert!(sol.size() > 15);
                }
            }
        }
    }

    #[test]
    fn rrr_threshold_one_returns_skyline_size() {
        let d = random_dataset(60, 4);
        let sol = rrr(&d, 1).unwrap();
        let sky = rrm_skyline::skyline(&d);
        // Rank-regret 1 requires containing the top-1 for every direction:
        // exactly the set of tuples that are top-1 somewhere (the convex
        // hull part of the skyline), so size ≤ |skyline|.
        assert!(sol.size() <= sky.len());
        assert_eq!(sol.certified_regret, Some(1));
    }

    #[test]
    fn rrr_rejects_zero_threshold() {
        let d = random_dataset(10, 5);
        assert!(rrr(&d, 0).is_err());
    }
}
