//! Cross-algorithm quality checks in HD, mirroring the qualitative
//! findings of the paper's Figures 13–21: HDRRM certifies its regret and
//! beats the no-guarantee baselines; MDRMS optimizes the wrong objective.

use rank_regret::{
    Budget, Dataset, ExecPolicy, FullSpace, RrmError, Solution, Solver, UtilitySpace,
    WeakRankingSpace,
};
use rrm_data::synthetic::{anticorrelated, independent};
use rrm_eval::{estimate_rank_regret, estimate_regret_ratio};
use rrm_hd::{HdrrmSolver, MdrcSolver, MdrmsOptions, MdrmsSolver, MdrrrROptions, MdrrrRSolver};

/// One RRM query through a fresh prepared handle — what `Engine::run`
/// does for a fixed algorithm.
fn run_rrm(
    solver: &dyn Solver,
    data: &Dataset,
    r: usize,
    space: &dyn UtilitySpace,
) -> Result<Solution, RrmError> {
    solver.prepare(data, space, ExecPolicy::default())?.solve_rrm(r, &Budget::UNLIMITED)
}

/// One HDRRM query on `m` sampled directions through a fresh handle.
fn run_hdrrm(data: &Dataset, r: usize, space: &dyn UtilitySpace, m: usize) -> Solution {
    let prepared = HdrrmSolver::default().prepare(data, space, ExecPolicy::default()).unwrap();
    prepared.solve_rrm(r, &Budget::with_samples(m)).unwrap()
}

const SAMPLES: usize = 30_000;

fn measured_regret(data: &Dataset, set: &[u32], seed: u64) -> usize {
    estimate_rank_regret(data, set, &FullSpace::new(data.dim()), SAMPLES, seed).max_rank
}

#[test]
fn hdrrm_beats_heuristics_on_anticorrelated() {
    // The paper's headline quality ordering: HDRRM lowest rank-regret,
    // MDRC / MDRMS worst. Randomness means we assert the robust version:
    // HDRRM is no worse than either heuristic.
    let data = anticorrelated(2_000, 4, 404);
    let r = 10;
    // Paper-grade sample budget (the Theorem 10 formula, ~36K directions
    // here): a starved discretization loses the quality edge the figures
    // show.
    let h = run_rrm(&HdrrmSolver::default(), &data, r, &FullSpace::new(4)).unwrap();
    let c = run_rrm(&MdrcSolver, &data, r, &FullSpace::new(4)).unwrap();
    let m = run_rrm(&MdrmsSolver::default(), &data, r, &FullSpace::new(4)).unwrap();

    let kh = measured_regret(&data, &h.indices, 1);
    let kc = measured_regret(&data, &c.indices, 1);
    let km = measured_regret(&data, &m.indices, 1);
    assert!(kh <= kc, "HDRRM {kh} vs MDRC {kc}");
    assert!(kh <= km, "HDRRM {kh} vs MDRMS {km}");
    // And the losers lose big on this distribution (the figures show
    // 1–2 orders of magnitude; require a decisive factor).
    assert!(kc.max(km) >= 3 * kh.max(1), "HDRRM {kh}, MDRC {kc}, MDRMS {km}");
}

#[test]
fn hdrrm_certificate_close_to_measured() {
    // Figures 13–28 plot the certified k (red cross) against the measured
    // regret over L (red squares) and find "the two lines basically fit".
    let data = independent(3_000, 4, 405);
    let sol = run_hdrrm(&data, 10, &FullSpace::new(4), 4_000);
    let certified = sol.certified_regret.unwrap();
    let measured = measured_regret(&data, &sol.indices, 2);
    // The discretization can miss directions (measured may exceed
    // certified) and the estimator is a lower bound (measured may fall
    // short); they must agree within a small factor.
    assert!(
        measured <= 3 * certified.max(3) && certified <= 3 * measured.max(3),
        "certified {certified} vs measured {measured}"
    );
}

#[test]
fn mdrms_good_ratio_bad_rank() {
    // Section II: minimizing regret-ratio does not minimize rank-regret.
    let data = anticorrelated(2_000, 4, 406);
    let r = 10;
    let rms =
        run_rrm(&MdrmsSolver::new(MdrmsOptions { samples: 8_000 }), &data, r, &FullSpace::new(4))
            .unwrap();
    let h = run_rrm(&HdrrmSolver::default(), &data, r, &FullSpace::new(4)).unwrap();
    let ratio_rms =
        estimate_regret_ratio(&data, &rms.indices, &FullSpace::new(4), SAMPLES, 3).max_ratio;
    let rank_rms = measured_regret(&data, &rms.indices, 4);
    let rank_h = measured_regret(&data, &h.indices, 4);
    // MDRMS does its own job adequately (a competitive worst ratio)...
    assert!(ratio_rms <= 0.25, "greedy RMS ratio unexpectedly weak: {ratio_rms}");
    // ...but loses on the rank objective, which is the paper's point.
    assert!(rank_h <= rank_rms, "HDRRM rank {rank_h} vs RMS {rank_rms}");
}

#[test]
fn rrrm_restriction_improves_quality() {
    // Figures 25–26: with U restricted (weak ranking, c = 2), outputs
    // serve U's users better than the full-space solution does.
    let data = anticorrelated(3_000, 4, 407);
    let space = WeakRankingSpace::new(4, 2);
    let r = 10;
    let restricted = run_hdrrm(&data, r, &space, 2_500);
    let full = run_hdrrm(&data, r, &FullSpace::new(4), 2_500);
    let k_restricted =
        estimate_rank_regret(&data, &restricted.indices, &space, SAMPLES, 5).max_rank;
    let k_full_on_u = estimate_rank_regret(&data, &full.indices, &space, SAMPLES, 5).max_rank;
    assert!(
        k_restricted <= k_full_on_u,
        "restricted {k_restricted} vs full-space solution on U {k_full_on_u}"
    );
}

#[test]
fn mdrrr_r_quality_between_hdrrm_and_heuristics() {
    // MDRRRr with a healthy sample budget lands near HDRRM's quality but
    // without a certificate; with a starved budget it degrades.
    let data = anticorrelated(2_000, 3, 408);
    let r = 8;
    let h = run_hdrrm(&data, r, &FullSpace::new(3), 2_000);
    let healthy = run_rrm(
        &MdrrrRSolver::new(MdrrrROptions { samples: 8_000, seed: 9, ..Default::default() }),
        &data,
        r,
        &FullSpace::new(3),
    )
    .unwrap();
    let starved = run_rrm(
        &MdrrrRSolver::new(MdrrrROptions { samples: 10, seed: 9, ..Default::default() }),
        &data,
        r,
        &FullSpace::new(3),
    )
    .unwrap();
    let kh = measured_regret(&data, &h.indices, 6);
    let k_healthy = measured_regret(&data, &healthy.indices, 6);
    let k_starved = measured_regret(&data, &starved.indices, 6);
    assert!(k_healthy <= 4 * kh.max(2), "healthy MDRRRr {k_healthy} vs HDRRM {kh}");
    assert!(k_starved >= k_healthy, "starving samples should not help");
}
