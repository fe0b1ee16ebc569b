//! Contract tests for the anytime bound-and-prune machinery of the hard
//! HD solvers (ISSUE 8): deterministic counter cutoffs are bit-identical
//! at any thread count, the certified gap shrinks monotonically as the
//! budget grows, a generous counter budget reproduces the uncut answer
//! exactly (gap 0), and a served deadline that expires mid-solve comes
//! back as a `"partial": true` answer with a certified gap instead of a
//! `deadline_exceeded` error.

use rank_regret::prelude::*;
use rank_regret::rrm_data::synthetic::{anticorrelated, independent};
use rank_regret::TerminatedBy;
use rrm_serve::{Client, Json, ServerConfig, ServerHandle, SyntheticKind, TenantSpec};

/// A counter budget so tight (one probe) that no threshold search can
/// converge inside it: every cuttable solver must stop early with its
/// incumbent, deterministically.
fn one_probe() -> Budget {
    Budget {
        samples: Some(400),
        max_enumerations: Some(1),
        max_lp_calls: Some(1),
        ..Budget::UNLIMITED
    }
}

fn counter_budget(probes: usize) -> Budget {
    Budget {
        samples: Some(400),
        max_enumerations: Some(probes),
        max_lp_calls: Some(probes),
        ..Budget::UNLIMITED
    }
}

const CUTTABLE: [Algorithm; 4] =
    [Algorithm::Hdrrm, Algorithm::Mdrrr, Algorithm::MdrrrR, Algorithm::Mdrc];

#[test]
fn counter_cut_answers_are_bit_identical_at_1_2_and_7_threads() {
    // The counter cutoff depends only on probe counts, never wall clock,
    // so a cut-short answer obeys the same determinism contract as a
    // full solve: bit-identical Solutions (indices, bounds, gap,
    // termination reason — Solution's PartialEq covers them all) at any
    // parallelism. MDRRR runs on a smaller instance to bound LP cost.
    for (algo, data) in [
        (Algorithm::Hdrrm, anticorrelated(400, 3, 21)),
        (Algorithm::MdrrrR, anticorrelated(400, 3, 21)),
        (Algorithm::Mdrc, anticorrelated(400, 3, 21)),
        (Algorithm::Mdrrr, independent(13, 3, 21)),
    ] {
        let sequential = Session::new(data.clone()).exec(ExecPolicy::sequential());
        let request = Request::minimize(5).algo(algo).budget(one_probe());
        let baseline = sequential.run(&request).expect("cut solve succeeds").solution;
        assert_eq!(
            baseline.terminated_by,
            TerminatedBy::Counter,
            "{algo}: one probe must not be enough to complete"
        );
        // MDRC's probes say nothing about cell interiors, so it is the
        // one cuttable solver that attaches no rank bounds (mdrc.rs).
        if algo != Algorithm::Mdrc {
            assert!(baseline.bounds.is_some(), "{algo}: cut answers certify bounds");
        }
        for threads in [2usize, 7] {
            let session = Session::new(data.clone()).exec(ExecPolicy::threads(threads));
            let got = session.run(&request).expect("cut solve succeeds").solution;
            assert_eq!(got, baseline, "{algo} at {threads} threads");
        }
    }
    // The table above is exactly the cuttable set.
    assert!(CUTTABLE.iter().all(|a| a.is_cuttable()));
}

#[test]
fn gap_shrinks_monotonically_as_the_counter_budget_grows() {
    let data = anticorrelated(400, 3, 22);
    let session = Session::new(data).exec(ExecPolicy::sequential());
    let mut last_gap = f64::INFINITY;
    let mut completed = false;
    for probes in [1usize, 2, 4, 8, 16, 32, 64, 128] {
        let request = Request::minimize(5).algo(Algorithm::Hdrrm).budget(counter_budget(probes));
        let solution = session.run(&request).expect("solve succeeds").solution;
        let gap = solution.gap().expect("every anytime answer reports a gap");
        assert!(
            gap <= last_gap + 1e-12,
            "gap must not grow with budget: {gap} after {last_gap} at {probes} probes"
        );
        last_gap = gap;
        if solution.terminated_by == TerminatedBy::Completed {
            assert_eq!(gap, 0.0, "a completed search certifies gap 0");
            completed = true;
            break;
        }
    }
    assert!(completed, "128 probes must be enough to close the gap on n=400");
}

#[test]
fn a_generous_counter_budget_reproduces_the_uncut_answer_exactly() {
    let data = anticorrelated(300, 3, 23);
    let session = Session::new(data).exec(ExecPolicy::sequential());
    for algo in [Algorithm::Hdrrm, Algorithm::MdrrrR] {
        let uncut = session
            .run(
                &Request::minimize(4)
                    .algo(algo)
                    .budget(Budget { samples: Some(400), ..Budget::UNLIMITED }),
            )
            .expect("uncut solve")
            .solution;
        assert_eq!(uncut.terminated_by, TerminatedBy::Completed);
        let generous = session
            .run(&Request::minimize(4).algo(algo).budget(counter_budget(1_000_000)))
            .expect("budgeted solve")
            .solution;
        assert_eq!(generous.terminated_by, TerminatedBy::Completed, "{algo}");
        assert_eq!(generous.gap(), Some(0.0), "{algo}");
        assert_eq!(generous, uncut, "{algo}: a budget that never binds must change nothing");
    }
}

#[test]
fn a_deadline_expiring_mid_solve_is_served_as_a_partial_answer() {
    // Unlike the zero-deadline dispatch test in serve_protocol.rs, this
    // exercises the in-solve time limit that effective_request attaches
    // for cuttable algorithms: the request is *not* aged out in the
    // queue, the search itself runs out of wall clock. n=1500 keeps the
    // HDRRM search far beyond a 10 ms limit, so the limit fires
    // mid-search and the incumbent comes back with a certified gap.
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let spec = TenantSpec::synthetic("big", SyntheticKind::Independent, 1500, 3, 9);
    let server = ServerHandle::start(config, &[spec]).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client
        .call(r#"{"op":"minimize","tenant":"big","param":4,"deadline_ms":10,"id":1}"#)
        .expect("call");
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"), "{resp:?}");
    assert_eq!(resp.get("partial"), Some(&Json::Bool(true)), "{resp:?}");
    assert_eq!(resp.get("size").and_then(Json::as_usize), Some(4), "incumbent set is returned");
    let diagnostics = resp.get("diagnostics").expect("diagnostics attached");
    // The deadline is a time limit and nothing else: no counter is set.
    assert_eq!(diagnostics.get("terminated_by").and_then(Json::as_str), Some("time"));
    let gap = diagnostics.get("gap").and_then(Json::as_f64).expect("gap reported");
    assert!((0.0..=1.0).contains(&gap), "gap {gap} out of range");

    let stats = server.stats_json();
    let tenant = stats.get("tenants").and_then(|t| t.get("big")).expect("tenant stats");
    assert_eq!(tenant.get("completed").and_then(Json::as_usize), Some(1));
    assert_eq!(tenant.get("partial_answers").and_then(Json::as_usize), Some(1));
    assert_eq!(tenant.get("deadline_exceeded").and_then(Json::as_usize), Some(0));
    server.shutdown();
}
