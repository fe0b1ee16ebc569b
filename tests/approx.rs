//! Contract tests for the sampled-ε approximate tier (ISSUE 10): seeded
//! coverage trials across the scenario matrix's workload shapes — the
//! `(ε, δ)` statement checked as an empirical pass rate, not taken on
//! faith — plus bit-identity of sampled answers at 1, 2, and 7 threads
//! through both the `Engine` and `Session` paths, and the fidelity
//! routing that makes `Request::approx` answer as `Sampled` everywhere.

use rank_regret::prelude::*;
use rank_regret::rrm_core::approx::{
    hoeffding_directions, sample_directions, solve_rrm_sampled_with,
};
use rank_regret::rrm_core::kernel;
use rank_regret::rrm_data::scenario::{matrix, Region};
use rank_regret::{ApproxSpec, Fidelity, TerminatedBy};

/// Worst rank of `indices` over an independent direction sample — the
/// audit the certificate's `(ε, δ)` statement is checked against.
fn audited_violation_fraction(
    data: &Dataset,
    space: &dyn UtilitySpace,
    indices: &[u32],
    k_hat: usize,
    eval_dirs: usize,
    eval_seed: u64,
) -> f64 {
    let dirs = sample_directions(space, eval_dirs, eval_seed);
    let soa = data.soa();
    let mut scores = Vec::new();
    let mut violations = 0usize;
    for u in &dirs {
        kernel::scores_into(soa, u, &mut scores);
        let best = indices.iter().map(|&i| scores[i as usize]).fold(f64::NEG_INFINITY, f64::max);
        let rank = 1 + scores.iter().filter(|&&s| s > best).count();
        if rank > k_hat {
            violations += 1;
        }
    }
    violations as f64 / dirs.len() as f64
}

#[test]
fn coverage_holds_at_rate_one_minus_delta_across_scenario_shapes() {
    // Every workload shape at d = 4 under the full space: repeated sampled
    // solves under fresh seeds, each certificate audited on an independent
    // direction sample. A trial passes when the audited violation fraction
    // stays within ε; the pass rate must reach 1 − δ per shape.
    let spec = ApproxSpec { eps: 0.15, delta: 0.1 };
    let (n, r, trials, eval_dirs) = (300usize, 4usize, 12usize, 600usize);
    for cell in matrix().into_iter().filter(|c| c.d == 4 && c.region == Region::Full) {
        let data = cell.dataset(n);
        let space = cell.space();
        let mut passes = 0usize;
        for t in 0..trials {
            let seed = 0xBEEF_0000 + cell.seed + 31 * t as u64;
            let sol = solve_rrm_sampled_with(
                &data,
                r,
                space.as_ref(),
                spec,
                None,
                seed,
                ExecPolicy::default(),
            )
            .unwrap();
            let k_hat = sol.certified_regret.expect("sampled tier certifies over its sample");
            let frac = audited_violation_fraction(
                &data,
                space.as_ref(),
                &sol.indices,
                k_hat,
                eval_dirs,
                seed ^ 0x0DD5_EED5,
            );
            if frac <= spec.eps {
                passes += 1;
            }
        }
        let rate = passes as f64 / trials as f64;
        assert!(
            rate >= 1.0 - spec.delta,
            "{}: coverage {rate:.3} below 1 - delta ({passes}/{trials} within eps)",
            cell.name()
        );
    }
}

#[test]
fn sampled_answers_are_bit_identical_at_1_2_and_7_threads_via_engine() {
    // Parallelism is a pure speed knob for the sampled tier: the seeded
    // direction draw, ordered chunk merge, and strict-total-order greedy
    // cover make the answer a function of the request alone.
    for cell in matrix().into_iter().filter(|c| c.d == 4) {
        let data = cell.dataset(400);
        let space = cell.space();
        let request = Request::minimize(5).approx(0.1, 0.05);
        let baseline = Engine::new()
            .with_exec(ExecPolicy::threads(1))
            .run(&data, space.as_ref(), &request)
            .unwrap();
        assert!(matches!(baseline.terminated_by, TerminatedBy::Sampled { .. }));
        for threads in [2usize, 7] {
            let engine = Engine::new().with_exec(ExecPolicy::threads(threads));
            let sol = engine.run(&data, space.as_ref(), &request).unwrap();
            assert_eq!(sol, baseline, "{}, {threads} threads", cell.name());
        }
    }
}

#[test]
fn sampled_answers_are_bit_identical_at_1_2_and_7_threads_via_session() {
    let cell = matrix()
        .into_iter()
        .find(|c| c.d == 4 && c.region == Region::Full)
        .expect("matrix has d=4 full-space cells");
    let data = cell.dataset(400);
    let request = Request::minimize(5).approx(0.1, 0.05);
    let baseline = Session::new(data.clone()).exec(ExecPolicy::threads(1)).run(&request).unwrap();
    for threads in [2usize, 7] {
        let session = Session::new(data.clone()).exec(ExecPolicy::threads(threads));
        let got = session.run(&request).unwrap();
        assert_eq!(got.solution, baseline.solution, "{threads} threads");
    }
}

#[test]
fn approx_requests_answer_at_sampled_fidelity_through_engine_and_session() {
    let cell = matrix()
        .into_iter()
        .find(|c| c.d == 4 && c.region == Region::Full)
        .expect("matrix has d=4 full-space cells");
    let data = cell.dataset(300);
    let space = cell.space();
    // The second request asks for fewer directions than its (ε, δ)
    // needs: the override may add directions, never weaken the statement.
    for (request, (want_eps, want_delta)) in [
        (Request::minimize(4).approx(0.1, 0.05), (0.1, 0.05)),
        (Request::minimize(4).approx(0.05, 0.05).samples(16), (0.05, 0.05)),
    ] {
        assert_eq!(request.fidelity, Fidelity::Approx { eps: want_eps, delta: want_delta });
        let via_engine = Engine::new().run(&data, space.as_ref(), &request).unwrap();
        let via_session = Session::new(data.clone()).run(&request).unwrap();
        for sol in [&via_engine, &via_session.solution] {
            assert_eq!(sol.algorithm, Algorithm::Sampled);
            match sol.terminated_by {
                TerminatedBy::Sampled { eps, delta, directions } => {
                    assert_eq!((eps, delta), (want_eps, want_delta));
                    assert!(
                        directions >= hoeffding_directions(eps, delta),
                        "{directions} directions cannot certify ({eps}, {delta})"
                    );
                }
                ref other => panic!("expected Sampled termination, got {other:?}"),
            }
            // A fidelity statement is not an early stop: sampled answers
            // are complete answers under a weaker (stated) guarantee.
            assert!(!sol.terminated_by.is_early_stop());
        }
        // Same seed, same request: the two paths agree bit for bit.
        assert_eq!(via_engine, via_session.solution);
    }
}

#[test]
fn weak_ranking_cells_are_served_and_certified_inside_the_region() {
    // The constrained-region cells of the matrix route through the same
    // sampled tier; the certificate is over directions drawn from the
    // restricted space, so the audit must sample that space too.
    for cell in matrix().into_iter().filter(|c| matches!(c.region, Region::WeakRanking(_))) {
        let data = cell.dataset(250);
        let space = cell.space();
        let sol = Engine::new()
            .run(&data, space.as_ref(), &Request::minimize(4).approx(0.15, 0.1))
            .unwrap();
        let k_hat = sol.certified_regret.expect("certifies in restricted regions too");
        let frac = audited_violation_fraction(
            &data,
            space.as_ref(),
            &sol.indices,
            k_hat,
            400,
            cell.seed ^ 0xFEED_F00D,
        );
        assert!(
            frac <= 0.15 + 0.1,
            "{}: audited violation fraction {frac:.3} far outside the stated eps",
            cell.name()
        );
    }
}
