//! Session parity: a warm prepared handle — a [`Session`]'s, queried many
//! times and out of order — must return *exactly* what a fresh handle
//! returns (`Engine::run` prepares one per call) — for every registered
//! algorithm, across repeated queries with varying `r`/`k`, over seeded
//! random datasets, and under concurrent access to a shared [`Session`].
//!
//! Cached state is a performance contract, never an approximation; these
//! tests are the enforcement.

use rank_regret::prelude::*;
use rank_regret::rrm_2d::full_sweep_rrm;
use rank_regret::rrm_data::synthetic::{anticorrelated, independent};
use rank_regret::{Bounds, TaskKind, Tuning};

/// Budget shared by both handles: sample counts keep the randomized
/// solvers fast, the enumeration/LP caps keep MDRRR's exact k-set
/// enumeration bounded in debug builds, and — being part of the request —
/// the budget exercises the per-budget caching of the warm handle. Parity
/// is unaffected: both handles see the identical caps.
fn budget() -> Budget {
    Budget {
        samples: Some(500),
        max_enumerations: Some(500),
        // Debug-profile LPs cost ~50ms each at these sizes; a tight cap
        // keeps MDRRR's enumeration bounded. Completeness is not under
        // test here — parity is, and both handles see the identical cap.
        max_lp_calls: Some(150),
        ..Budget::UNLIMITED
    }
}

/// A fresh handle's answer via the engine, as `Result` so error parity is
/// checked alongside solution parity.
fn fresh(engine: &Engine, data: &Dataset, request: &Request) -> Result<Solution, RrmError> {
    engine.run(data, &FullSpace::new(data.dim()), request)
}

#[test]
fn prepared_path_matches_one_shot_for_all_algorithms_2d() {
    // d = 2 is the one dimensionality every algorithm supports (brute
    // force caps n at 20), so this covers the full registry.
    let engine = Engine::new();
    for seed in 0..2u64 {
        let data = independent(16, 2, seed);
        let session = Session::new(data.clone());
        for algo in Algorithm::ALL {
            for request in [
                Request::minimize(1).algo(algo).budget(budget()),
                Request::minimize(2).algo(algo).budget(budget()),
                Request::minimize(4).algo(algo).budget(budget()),
                Request::represent(1).algo(algo).budget(budget()),
                Request::represent(3).algo(algo).budget(budget()),
            ] {
                let expected = fresh(&engine, &data, &request);
                let got = session.run(&request).map(|resp| resp.solution);
                assert_eq!(got, expected, "seed {seed}, {algo}, {request:?}");
            }
        }
    }
}

#[test]
fn prepared_path_matches_one_shot_in_higher_dimensions() {
    let engine = Engine::new();
    for seed in [7u64] {
        let data = independent(20, 3, seed);
        let session = Session::new(data.clone());
        for algo in [Algorithm::Hdrrm, Algorithm::MdrrrR, Algorithm::Mdrc, Algorithm::Mdrms] {
            for request in [
                Request::minimize(4).algo(algo).budget(budget()),
                Request::minimize(7).algo(algo).budget(budget()),
                Request::represent(3).algo(algo).budget(budget()),
                Request::represent(8).algo(algo).budget(budget()),
            ] {
                let expected = fresh(&engine, &data, &request);
                let got = session.run(&request).map(|resp| resp.solution);
                assert_eq!(got, expected, "seed {seed}, {algo}, {request:?}");
            }
        }
        // MDRRR separately, on a smaller instance: its LP cost per
        // feasibility check grows with k·(n−k) rows and the fresh side of
        // this comparison re-enumerates per probe.
        let data = independent(13, 3, seed);
        let session = Session::new(data.clone());
        for request in [
            Request::minimize(4).algo(Algorithm::Mdrrr).budget(budget()),
            Request::minimize(6).algo(Algorithm::Mdrrr).budget(budget()),
            Request::represent(2).algo(Algorithm::Mdrrr).budget(budget()),
            Request::represent(5).algo(Algorithm::Mdrrr).budget(budget()),
        ] {
            let expected = fresh(&engine, &data, &request);
            let got = session.run(&request).map(|resp| resp.solution);
            assert_eq!(got, expected, "seed {seed}, MDRRR, {request:?}");
        }
    }
}

#[test]
fn one_prepared_handle_answers_many_parameters() {
    // A single PreparedSolver queried with a sweep of r and k values must
    // track fresh handles at every point — out of order, repeated, and
    // interleaved between the two problem directions.
    let engine = Engine::new();
    let data = independent(120, 2, 42);
    let prepared = engine.prepare(Algorithm::TwoDRrm, &data, &FullSpace::new(2)).unwrap();
    let b = Budget::UNLIMITED;
    for r in [5usize, 1, 3, 5, 2] {
        let expected =
            fresh(&engine, &data, &Request::minimize(r).algo(Algorithm::TwoDRrm)).unwrap();
        assert_eq!(prepared.solve_rrm(r, &b).unwrap(), expected, "r={r}");
    }
    for k in [4usize, 1, 2, 4] {
        let expected =
            fresh(&engine, &data, &Request::represent(k).algo(Algorithm::TwoDRrm)).unwrap();
        assert_eq!(prepared.solve_rrr(k, &b).unwrap(), expected, "k={k}");
    }
}

#[test]
fn minimize_matches_the_full_sweep_across_updates() {
    // `full_sweep_rrm` replays the whole arrangement, the paper's own
    // event machinery, where a session's 2DRRM handle replays K-bands.
    // Their answers must agree, both on the prepared handle and on the
    // one an update patches.
    let session = Session::new(anticorrelated(60, 2, 9));
    let check = |epoch: &str| {
        let data = session.data();
        for r in [4, 2, 3] {
            let request = Request::minimize(r).algo(Algorithm::TwoDRrm);
            assert_eq!(
                session.run(&request).unwrap().solution,
                full_sweep_rrm(&data, &FullSpace::new(2), r).unwrap(),
                "{epoch}: r={r}"
            );
        }
    };
    check("epoch 0");
    session
        .update(&[UpdateOp::Delete(5), UpdateOp::Insert(vec![0.45, 0.55]), UpdateOp::Delete(17)])
        .unwrap();
    check("epoch 1");
    assert_eq!(session.prepare_misses(), 1, "the update patched the handle");
}

#[test]
fn minimize_past_the_candidate_count_answers_like_a_fresh_handle() {
    // A 2DRRM handle memoizes budgets below its candidate count only, so
    // a stream of distinct budgets cannot grow a session; each answer is
    // still a fresh handle's.
    let data = independent(2_000, 2, 21);
    let candidates = rank_regret::rrm_skyline::skyline(&data).len();
    let session = rank_regret::session(&data);
    let engine = Engine::new();
    for r in (1..=10 * candidates).rev().chain([2, 1]) {
        let request = Request::minimize(r).algo(Algorithm::TwoDRrm);
        assert_eq!(
            session.run(&request).unwrap().solution,
            fresh(&engine, &data, &request).unwrap(),
            "r={r}"
        );
    }
}

#[test]
fn batch_equals_individual_runs() {
    let data = independent(60, 3, 17);
    let session = rank_regret::session(&data);
    let requests: Vec<Request> = vec![
        Request::minimize(5).budget(budget()),
        Request::minimize(8).budget(budget()),
        Request::represent(6).budget(budget()),
        Request::minimize(5).algo(Algorithm::Mdrms).budget(budget()),
        Request::minimize(0).budget(budget()), // typed failure mid-batch
        Request::represent(2).budget(budget()),
    ];
    let batched = session.run_batch(&requests);
    assert_eq!(batched.len(), requests.len());
    for (request, result) in requests.iter().zip(&batched) {
        let individual = session.run(request);
        match (result, &individual) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.solution, b.solution, "{request:?}");
                assert_eq!(&a.request, request);
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{request:?}"),
            other => panic!("batch/individual disagree for {request:?}: {other:?}"),
        }
    }
    assert!(matches!(batched[4], Err(RrmError::OutputSizeTooSmall { .. })));
}

#[test]
fn concurrent_queries_over_a_shared_session() {
    // The Send + Sync contract: one Session, many threads, read-only
    // queries — every thread must see exactly the sequential answers.
    let data = independent(150, 2, 99);
    let session = Session::new(data);
    let requests: Vec<Request> = (1..=4)
        .flat_map(|r| {
            [
                Request::minimize(r),
                Request::minimize(r).algo(Algorithm::TwoDRrr),
                Request::represent(r).budget(budget()),
                Request::minimize(r).algo(Algorithm::Mdrms).budget(budget()),
            ]
        })
        .collect();
    // Sequential ground truth first (also warms the prepared handles —
    // the threads below then exercise the shared-read path).
    let expected: Vec<Result<Solution, RrmError>> =
        requests.iter().map(|q| session.run(q).map(|resp| resp.solution)).collect();

    std::thread::scope(|scope| {
        for t in 0..4 {
            let session = &session;
            let requests = &requests;
            let expected = &expected;
            scope.spawn(move || {
                // Each thread walks the batch from a different offset so
                // lock orders interleave.
                for i in 0..requests.len() {
                    let idx = (i + t * 3) % requests.len();
                    let got = session.run(&requests[idx]).map(|resp| resp.solution);
                    assert_eq!(got, expected[idx], "thread {t}, request {idx}");
                }
            });
        }
    });
}

#[test]
fn cold_session_prepares_exactly_once_under_a_thundering_herd() {
    // Eight threads hit a cold Session with the same fixed-algorithm
    // request at once. The per-slot OnceLock must collapse the herd to a
    // single prepare — every other thread blocks on it and records a hit.
    let data = independent(150, 3, 23);
    let request = Request::minimize(5).algo(Algorithm::Hdrrm).budget(budget());
    // Ground truth from a separate session, so the one under test stays
    // genuinely cold until the herd hits it.
    let expected = Session::new(data.clone()).run(&request).map(|resp| resp.solution);
    let session = Session::new(data);
    assert_eq!(session.prepare_misses(), 0);
    assert_eq!(session.prepare_hits(), 0);

    std::thread::scope(|scope| {
        for t in 0..8 {
            let session = &session;
            let request = &request;
            let expected = &expected;
            scope.spawn(move || {
                let got = session.run(request).map(|resp| resp.solution);
                assert_eq!(&got, expected, "thread {t}");
            });
        }
    });

    assert_eq!(session.prepare_misses(), 1, "exactly one thread may run prepare");
    assert_eq!(session.prepare_hits(), 7, "the other seven reuse the handle");
}

#[test]
fn batch_isolates_unsupported_capability_errors() {
    // A request the chosen algorithm cannot serve on this dataset (2-D
    // solvers on 3-D data) must fail alone: per-item error, neighbouring
    // results intact, and the session not poisoned for later use.
    let data = independent(60, 3, 31);
    let session = rank_regret::session(&data);
    let requests: Vec<Request> = vec![
        Request::minimize(5).algo(Algorithm::Hdrrm).budget(budget()),
        Request::minimize(5).algo(Algorithm::TwoDRrm).budget(budget()), // d=3: unsupported
        Request::represent(4).algo(Algorithm::TwoDRrr).budget(budget()), // d=3: unsupported
        Request::minimize(5).algo(Algorithm::Mdrms).budget(budget()),
    ];
    let batched = session.run_batch(&requests);
    assert_eq!(batched.len(), 4);
    assert!(batched[0].is_ok(), "{:?}", batched[0]);
    assert!(matches!(batched[1], Err(RrmError::Unsupported(_))), "{:?}", batched[1]);
    assert!(matches!(batched[2], Err(RrmError::Unsupported(_))), "{:?}", batched[2]);
    assert!(batched[3].is_ok(), "{:?}", batched[3]);

    // Not poisoned: the same session still answers fresh runs, and they
    // agree with the batch results.
    let again = session.run(&requests[0]).expect("session survives the failed items");
    assert_eq!(&again.solution, &batched[0].as_ref().unwrap().solution);
    let again = session.run(&requests[1]);
    assert!(matches!(again, Err(RrmError::Unsupported(_))));
}

#[test]
fn facade_builders_ride_the_session_path() {
    // The `session()` facade binds a plain Session; its answers equal the
    // engine's fresh handles.
    let data = independent(80, 2, 5);
    let engine = Engine::new();
    let session = rank_regret::session(&data);
    for request in [Request::minimize(3), Request::represent(2)] {
        let via_facade = session.run(&request).unwrap().solution;
        assert_eq!(Ok(via_facade), fresh(&engine, &data, &request), "{request:?}");
    }
}

/// The deterministic part of an answer's search report: its nodes, its
/// pruned probes and each curve point's bounds, without their times.
fn search_work(solution: &Solution) -> Option<(u64, u64, Vec<Bounds>)> {
    solution
        .report
        .as_ref()
        .map(|r| (r.nodes, r.pruned_probes, r.curve.iter().map(|&(_, bounds)| bounds).collect()))
}

/// Run `requests` in order on `session`'s warm handle and each on a fresh
/// handle of `engine` over the session's current rows: the answers and
/// their search work must agree.
fn assert_warm_work_matches_fresh(
    session: &Session,
    engine: &Engine,
    requests: &[Request],
    ctx: &str,
) {
    let data = session.data();
    for request in requests {
        let got = session.run(request).unwrap().solution;
        let want = fresh(engine, &data, request).unwrap();
        assert_eq!(got, want, "{ctx}: {request:?}");
        assert_eq!(search_work(&got), search_work(&want), "{ctx}: {request:?}");
        if request.kind() == TaskKind::Minimize {
            assert!(search_work(&got).is_some(), "{ctx}: a cover search reports its work");
        }
    }
}

#[test]
fn warm_cover_searches_report_the_work_of_fresh_ones() {
    // HDRRM and MDRRRr queries on a warm handle read the top-k lists an
    // earlier query kept, for the coarse pass and the incumbents' bounds
    // alike. Their search nodes, pruned probes and bounds curve must be a
    // fresh handle's, not only their answers. The frames hold more than
    // 256 directions, so each search runs its coarse pass; the probe cap
    // of the limited budget makes the search offer its fallback first and
    // stop early.
    let data = anticorrelated(400, 4, 3);
    let hd = |samples| Budget { samples: Some(samples), ..Budget::UNLIMITED };
    let limited = |samples| Budget { max_enumerations: Some(3), ..hd(samples) };
    let requests = |algo: Algorithm, samples: usize| {
        vec![
            Request::minimize(8).algo(algo).budget(hd(samples)),
            Request::minimize(5).algo(algo).budget(hd(samples)),
            Request::represent(60).algo(algo).budget(hd(samples)),
            Request::minimize(12).algo(algo).budget(hd(samples)),
            Request::minimize(5).algo(algo).budget(limited(samples)),
            Request::minimize(6).algo(algo).budget(hd(samples)),
        ]
    };
    let tuned = |include_basis| {
        let tuning = Tuning {
            hdrrm: rank_regret::rrm_hd::HdrrmOptions { include_basis, ..Default::default() },
            ..Tuning::default()
        };
        (
            Session::with_engine(Engine::with_tuning(&tuning), data.clone()),
            Engine::with_tuning(&tuning),
        )
    };
    let (session, engine) = tuned(false);
    let hdrrm = requests(Algorithm::Hdrrm, 400);
    assert_warm_work_matches_fresh(&session, &engine, &hdrrm, "HDRRM, include_basis off");
    let (session, engine) = tuned(true);
    assert_warm_work_matches_fresh(&session, &engine, &hdrrm, "HDRRM");
    assert_warm_work_matches_fresh(&session, &engine, &requests(Algorithm::MdrrrR, 500), "MDRRRr");
    // After an update batch the HDRRM handle reads its patched lists.
    let ops =
        [UpdateOp::Delete(3), UpdateOp::Insert(vec![0.9, 0.1, 0.2, 0.8]), UpdateOp::Delete(40)];
    session.update(&ops).unwrap();
    assert_warm_work_matches_fresh(&session, &engine, &hdrrm, "HDRRM after an update");
    assert_eq!(session.prepare_misses(), 2, "the update patched the HDRRM handle");
}
