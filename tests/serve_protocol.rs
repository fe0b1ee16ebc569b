//! End-to-end wire-protocol tests for `rrm_serve`: malformed input,
//! unknown tenants, deterministic overload rejection, deadline
//! enforcement, and concurrent clients checked bit-for-bit against an
//! in-process [`Session`].
//!
//! Overload tests use `workers: 0` — admission and `stats` still answer
//! on the reader threads, but no query ever dispatches, so which request
//! gets rejected is exact, not timing-dependent.

use rank_regret::{Algorithm, ApproxSpec, ExecPolicy, Session, UpdateOp};
use rrm_serve::{
    effective_request, parse_request, Client, Json, ServerConfig, ServerHandle, SyntheticKind,
    TenantSpec,
};

fn test_config() -> ServerConfig {
    ServerConfig { workers: 1, ..ServerConfig::default() }
}

fn small_tenant(name: &str) -> TenantSpec {
    TenantSpec::synthetic(name, SyntheticKind::Independent, 300, 3, 7)
}

fn str_field<'j>(json: &'j Json, key: &str) -> &'j str {
    json.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} missing in {json:?}"))
}

#[test]
fn malformed_input_gets_bad_request_and_connection_survives() {
    let server = ServerHandle::start(test_config(), &[small_tenant("t")]).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Not JSON at all.
    let resp = client.call("{not json").expect("call");
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(str_field(&resp, "error"), "bad_request");

    // Valid JSON, but not a request: unknown key, missing op, zero param.
    for (line, expect_in_message) in [
        (r#"{"op":"minimize","tenant":"t","param":3,"bogus":1}"#, "bogus"),
        (r#"{"tenant":"t","param":3}"#, "op"),
        (r#"{"op":"minimize","tenant":"t","param":0,"id":9}"#, "param"),
    ] {
        let resp = client.call(line).expect("call");
        assert_eq!(str_field(&resp, "status"), "error", "{line}");
        assert_eq!(str_field(&resp, "error"), "bad_request", "{line}");
        let message = str_field(&resp, "message");
        assert!(message.contains(expect_in_message), "{line} -> {message}");
    }
    // The id is echoed even on a rejected request when it can be parsed.
    let resp = client.call(r#"{"op":"minimize","tenant":"t","param":0,"id":9}"#).expect("call");
    assert_eq!(resp.get("id").and_then(Json::as_usize), Some(9));

    // The same connection still serves real queries afterwards.
    let resp = client
        .call(r#"{"op":"minimize","tenant":"t","param":5,"algo":"hdrrm","samples":64,"id":1}"#)
        .expect("call");
    assert_eq!(str_field(&resp, "status"), "ok");
    assert_eq!(resp.get("id").and_then(Json::as_usize), Some(1));
    server.shutdown();
}

#[test]
fn unknown_tenant_is_a_structured_error() {
    let server = ServerHandle::start(test_config(), &[small_tenant("t")]).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client.call(r#"{"op":"minimize","tenant":"nope","param":3,"id":42}"#).expect("call");
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(str_field(&resp, "error"), "unknown_tenant");
    assert_eq!(resp.get("id").and_then(Json::as_usize), Some(42));
    assert!(str_field(&resp, "message").contains("nope"));
    server.shutdown();
}

#[test]
fn zero_deadline_on_a_cuttable_algorithm_returns_a_partial_answer() {
    let server = ServerHandle::start(test_config(), &[small_tenant("t")]).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    // deadline_ms:0 has always already elapsed by dispatch time. The
    // auto policy on a 3-D tenant resolves to HDRRM, which is cuttable:
    // instead of a deadline_exceeded error, the solver runs with no time
    // left and answers with its first incumbent.
    let resp = client
        .call(r#"{"op":"minimize","tenant":"t","param":3,"deadline_ms":0,"id":7}"#)
        .expect("call");
    assert_eq!(str_field(&resp, "status"), "ok", "{resp:?}");
    assert_eq!(resp.get("id").and_then(Json::as_usize), Some(7));
    assert_eq!(resp.get("partial"), Some(&Json::Bool(true)), "{resp:?}");
    assert_eq!(resp.get("size").and_then(Json::as_usize), Some(3), "best-so-far set is returned");
    let diagnostics = resp.get("diagnostics").expect("diagnostics attached");
    assert_eq!(diagnostics.get("terminated_by").and_then(Json::as_str), Some("time"));
    let gap = diagnostics.get("gap").and_then(Json::as_f64).expect("gap reported");
    assert!((0.0..=1.0).contains(&gap), "gap {gap} out of range");
    let bounds = diagnostics.get("bounds").expect("HDRRM certifies bounds");
    let lower = bounds.get("lower").and_then(Json::as_usize).expect("lower");
    let upper = bounds.get("upper").and_then(Json::as_usize).expect("upper");
    assert!(lower <= upper, "bounds [{lower}, {upper}] inverted");

    let stats = server.stats_json();
    let tenant = stats.get("tenants").and_then(|t| t.get("t")).expect("tenant stats");
    assert_eq!(tenant.get("deadline_exceeded").and_then(Json::as_usize), Some(0));
    assert_eq!(tenant.get("completed").and_then(Json::as_usize), Some(1));
    assert_eq!(tenant.get("partial_answers").and_then(Json::as_usize), Some(1));
    server.shutdown();
}

#[test]
fn zero_deadline_on_a_non_cuttable_algorithm_is_rejected_at_dispatch() {
    let server = ServerHandle::start(test_config(), &[small_tenant("t")]).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    // MDRMS has no anytime search to cut into, so the aged-out-in-queue
    // path still answers with the structured error and diagnostics.
    let resp = client
        .call(r#"{"op":"minimize","tenant":"t","param":3,"algo":"mdrms","deadline_ms":0,"id":7}"#)
        .expect("call");
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(str_field(&resp, "error"), "deadline_exceeded");
    assert_eq!(resp.get("id").and_then(Json::as_usize), Some(7));
    let diagnostics = resp.get("diagnostics").expect("diagnostics attached");
    assert!(diagnostics.get("queued_micros").and_then(Json::as_usize).is_some());
    assert_eq!(diagnostics.get("deadline_ms").and_then(Json::as_usize), Some(0));

    let stats = server.stats_json();
    let tenant = stats.get("tenants").and_then(|t| t.get("t")).expect("tenant stats");
    assert_eq!(tenant.get("deadline_exceeded").and_then(Json::as_usize), Some(1));
    assert_eq!(tenant.get("completed").and_then(Json::as_usize), Some(0));
    assert_eq!(tenant.get("partial_answers").and_then(Json::as_usize), Some(0));
    server.shutdown();
}

#[test]
fn per_tenant_inflight_cap_rejects_immediately() {
    // workers:0 — accepted queries sit in the queue forever, so the
    // third request on a cap of 2 is rejected with certainty.
    let config = ServerConfig { workers: 0, ..test_config() };
    let specs = [small_tenant("t").max_inflight(2)];
    let server = ServerHandle::start(config, &specs).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    for id in 0..2 {
        client
            .send(&format!(r#"{{"op":"minimize","tenant":"t","param":3,"id":{id}}}"#))
            .expect("send");
    }
    // The only response on this connection is the rejection of id 2.
    let resp = client.call(r#"{"op":"minimize","tenant":"t","param":3,"id":2}"#).expect("call");
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(str_field(&resp, "error"), "overloaded");
    assert_eq!(resp.get("id").and_then(Json::as_usize), Some(2));
    let diagnostics = resp.get("diagnostics").expect("diagnostics attached");
    assert_eq!(diagnostics.get("max_inflight").and_then(Json::as_usize), Some(2));

    // stats is answered inline on the reader thread even while the
    // queue is wedged — that is what makes rejections immediate too.
    let resp = client.call(r#"{"op":"stats","id":3}"#).expect("call");
    assert_eq!(str_field(&resp, "status"), "ok");
    let tenant =
        resp.get("stats").and_then(|s| s.get("tenants")).and_then(|t| t.get("t")).expect("stats");
    assert_eq!(tenant.get("accepted").and_then(Json::as_usize), Some(2));
    assert_eq!(tenant.get("rejected_overload").and_then(Json::as_usize), Some(1));
    assert_eq!(tenant.get("inflight").and_then(Json::as_usize), Some(2));
    server.shutdown();
}

#[test]
fn global_queue_cap_rejects_across_tenants() {
    let config = ServerConfig { workers: 0, queue_cap: 1, ..test_config() };
    let specs = [small_tenant("a").max_inflight(8), small_tenant("b").max_inflight(8)];
    let server = ServerHandle::start(config, &specs).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.send(r#"{"op":"minimize","tenant":"a","param":3,"id":0}"#).expect("send");
    let resp = client.call(r#"{"op":"minimize","tenant":"b","param":3,"id":1}"#).expect("call");
    assert_eq!(str_field(&resp, "error"), "overloaded");
    assert!(str_field(&resp, "message").contains("queue"));
    let diagnostics = resp.get("diagnostics").expect("diagnostics attached");
    assert_eq!(diagnostics.get("queue_cap").and_then(Json::as_usize), Some(1));
    server.shutdown();
}

#[test]
fn concurrent_clients_match_the_in_process_session() {
    let config = ServerConfig { workers: 2, warm: vec![Algorithm::Hdrrm], ..test_config() };
    let spec = small_tenant("t");
    let server = ServerHandle::start(config, std::slice::from_ref(&spec)).expect("start");
    let lines: Vec<String> = (0..4)
        .map(|c| {
            format!(
                r#"{{"op":"minimize","tenant":"t","param":{},"algo":"hdrrm","samples":64,"id":{c}}}"#,
                3 + c
            )
        })
        .collect();
    let responses: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = lines
            .iter()
            .map(|line| {
                scope.spawn(|| {
                    let mut client = Client::connect(server.addr()).expect("connect");
                    client.call(line).expect("call")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client")).collect()
    });

    // Replay each request through a fresh in-process session built from
    // the same spec: bit-identical answers.
    let session = Session::new(spec.source.load().expect("load")).exec(ExecPolicy::sequential());
    let calibration = server.calibration();
    for (line, resp) in lines.iter().zip(&responses) {
        assert_eq!(str_field(resp, "status"), "ok", "{line} -> {resp:?}");
        let wire = parse_request(line).expect("parses");
        let request =
            effective_request(&wire, calibration, session.data().n(), session.data().dim())
                .expect("query");
        let expected = session.run(&request).expect("replay");
        let got: Vec<usize> = match resp.get("indices") {
            Some(Json::Arr(items)) => items.iter().map(|v| v.as_usize().unwrap()).collect(),
            other => panic!("no indices: {other:?}"),
        };
        let want: Vec<usize> = expected.solution.indices.iter().map(|&i| i as usize).collect();
        assert_eq!(got, want, "{line}");
        assert_eq!(
            resp.get("certified_regret").and_then(Json::as_usize),
            expected.solution.certified_regret,
            "{line}"
        );
        assert_eq!(
            resp.get("algorithm").and_then(Json::as_str),
            Some(expected.solution.algorithm.name()),
            "{line}"
        );
    }
    server.shutdown();
}

#[test]
fn update_op_publishes_a_new_epoch_and_queries_follow() {
    let spec = small_tenant("t");
    let server = ServerHandle::start(test_config(), std::slice::from_ref(&spec)).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Epoch 0 is reported per tenant in stats.
    let resp = client.call(r#"{"op":"stats","id":0}"#).expect("call");
    let tenant =
        resp.get("stats").and_then(|s| s.get("tenants")).and_then(|t| t.get("t")).expect("stats");
    assert_eq!(tenant.get("epoch").and_then(Json::as_usize), Some(0));

    // The same deterministic query twice: the second answer comes from
    // the tenant's budget-keyed result cache, bit-identical.
    let q = r#"{"op":"minimize","tenant":"t","param":4,"algo":"hdrrm","samples":64,"id":1}"#;
    let first = client.call(q).expect("call");
    assert_eq!(str_field(&first, "status"), "ok");
    let second = client.call(q).expect("call");
    assert_eq!(second.get("indices"), first.get("indices"));
    let resp = client.call(r#"{"op":"stats","id":2}"#).expect("call");
    let tenant =
        resp.get("stats").and_then(|s| s.get("tenants")).and_then(|t| t.get("t")).expect("stats");
    let cache = tenant.get("result_cache").expect("result_cache block");
    assert_eq!(cache.get("hits").and_then(Json::as_usize), Some(1));
    assert_eq!(cache.get("entries").and_then(Json::as_usize), Some(1));

    // Apply an update batch: 3 deletes + 3 inserts, n stays 300.
    let upd = r#"{"op":"update","tenant":"t","delete":[0,1,2],"insert":[[0.9,0.8,0.7],[0.2,0.3,0.4],[0.99,0.01,0.5]],"id":3}"#;
    let resp = client.call(upd).expect("call");
    assert_eq!(str_field(&resp, "status"), "ok", "{resp:?}");
    assert_eq!(resp.get("epoch").and_then(Json::as_usize), Some(1));
    assert_eq!(resp.get("n").and_then(Json::as_usize), Some(300));

    // The cache was invalidated by the swap and the same query now
    // answers over the new rows — bit-identical to an in-process session
    // that applied the same batch.
    let session = Session::new(spec.source.load().expect("load")).exec(ExecPolicy::sequential());
    session
        .update(&[
            UpdateOp::Delete(0),
            UpdateOp::Delete(1),
            UpdateOp::Delete(2),
            UpdateOp::Insert(vec![0.9, 0.8, 0.7]),
            UpdateOp::Insert(vec![0.2, 0.3, 0.4]),
            UpdateOp::Insert(vec![0.99, 0.01, 0.5]),
        ])
        .expect("in-process update");
    let resp = client.call(q).expect("call");
    assert_eq!(str_field(&resp, "status"), "ok");
    let wire = parse_request(q).expect("parses");
    let request =
        effective_request(&wire, server.calibration(), session.data().n(), session.data().dim())
            .expect("query");
    let expected = session.run(&request).expect("replay");
    let got: Vec<usize> = match resp.get("indices") {
        Some(Json::Arr(items)) => items.iter().map(|v| v.as_usize().unwrap()).collect(),
        other => panic!("no indices: {other:?}"),
    };
    let want: Vec<usize> = expected.solution.indices.iter().map(|&i| i as usize).collect();
    assert_eq!(got, want, "post-update wire answer must match the in-process session");

    // An invalid batch is rejected atomically: error out, epoch unmoved.
    let resp = client.call(r#"{"op":"update","tenant":"t","delete":[999999],"id":4}"#).expect("c");
    assert_eq!(str_field(&resp, "status"), "error");
    let resp = client.call(r#"{"op":"stats","id":5}"#).expect("call");
    let tenant =
        resp.get("stats").and_then(|s| s.get("tenants")).and_then(|t| t.get("t")).expect("stats");
    assert_eq!(tenant.get("epoch").and_then(Json::as_usize), Some(1));
    assert_eq!(tenant.get("updates_applied").and_then(Json::as_usize), Some(1));
    server.shutdown();
}

#[test]
fn gap_cutoff_queries_answer_over_the_wire() {
    let server = ServerHandle::start(test_config(), &[small_tenant("t")]).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    // A generous gap target on a cuttable algorithm: the solve stops at
    // the certified gap, deterministically, and still answers ok.
    let resp = client
        .call(r#"{"op":"minimize","tenant":"t","param":4,"algo":"hdrrm","samples":64,"gap":0.9,"id":1}"#)
        .expect("call");
    assert_eq!(str_field(&resp, "status"), "ok", "{resp:?}");
    assert_eq!(resp.get("size").and_then(Json::as_usize), Some(4));
    // A gap and a deadline compose: the trivially met gap target stops
    // the search long before the minute is up.
    let resp = client
        .call(r#"{"op":"minimize","tenant":"t","param":4,"algo":"hdrrm","gap":1.0,"deadline_ms":60000,"id":2}"#)
        .expect("call");
    assert_eq!(str_field(&resp, "status"), "ok", "{resp:?}");
    assert_eq!(resp.get("partial"), Some(&Json::Bool(true)), "{resp:?}");
    let diagnostics = resp.get("diagnostics").expect("diagnostics attached");
    assert_eq!(diagnostics.get("terminated_by").and_then(Json::as_str), Some("gap"));
    server.shutdown();
}

#[test]
fn approx_queries_answer_at_sampled_fidelity_over_the_wire() {
    let server = ServerHandle::start(test_config(), &[small_tenant("t")]).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    // An approx request with no explicit algorithm routes to the sampled
    // tier, answers ok (not partial — a fidelity statement is not an
    // early stop), and echoes its confidence parameters.
    let resp = client
        .call(
            r#"{"op":"minimize","tenant":"t","param":4,"approx":{"eps":0.1,"delta":0.05},"id":1}"#,
        )
        .expect("call");
    assert_eq!(str_field(&resp, "status"), "ok", "{resp:?}");
    assert_eq!(str_field(&resp, "algorithm"), "Sampled");
    assert_eq!(str_field(&resp, "fidelity"), "approx");
    assert!(resp.get("partial").is_none(), "sampled answers are complete: {resp:?}");
    let confidence = resp.get("confidence").expect("confidence block");
    assert_eq!(confidence.get("eps").and_then(Json::as_f64), Some(0.1));
    assert_eq!(confidence.get("delta").and_then(Json::as_f64), Some(0.05));
    assert!(confidence.get("directions").and_then(Json::as_usize).unwrap() >= 1);

    // Sampled answers are seeded and deterministic, so the identical
    // repeat is a result-cache hit; an exact request is a distinct key.
    let repeat = client
        .call(
            r#"{"op":"minimize","tenant":"t","param":4,"approx":{"eps":0.1,"delta":0.05},"id":2}"#,
        )
        .expect("call");
    assert_eq!(repeat.get("indices"), resp.get("indices"));
    let exact = client
        .call(r#"{"op":"minimize","tenant":"t","param":4,"algo":"hdrrm","samples":64,"id":3}"#)
        .expect("call");
    assert_eq!(str_field(&exact, "fidelity"), "exact");
    assert!(exact.get("confidence").is_none(), "exact answers carry no confidence block");

    drop(client);
    let stats = server.shutdown();
    let tenant = stats.get("tenants").and_then(|t| t.get("t")).expect("tenant stats");
    assert_eq!(tenant.get("completed").and_then(Json::as_usize), Some(3));
    // Both sampled answers count — the fresh solve and the cached repeat
    // (it re-serves a Sampled solution) — but the exact query does not.
    assert_eq!(tenant.get("approx_answers").and_then(Json::as_usize), Some(2));
    let cache = tenant.get("result_cache").expect("result_cache block");
    assert_eq!(cache.get("hits").and_then(Json::as_usize), Some(1));
}

#[test]
fn a_deadline_never_changes_an_approx_answer() {
    let server = ServerHandle::start(test_config(), &[small_tenant("t")]).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    let base = r#"{"op":"minimize","tenant":"t","param":4,"approx":{"eps":0.05}"#;
    let plain = client.call(&format!(r#"{base},"id":1}}"#)).expect("call");
    assert_eq!(str_field(&plain, "status"), "ok", "{plain:?}");
    let confidence = plain.get("confidence").expect("confidence block");
    let directions = confidence.get("directions").and_then(Json::as_usize);
    assert_eq!(directions, Some(ApproxSpec { eps: 0.05, delta: 0.05 }.directions()));
    // A deadline is at most a time limit, and the sampled tier cannot be
    // cut: the frame, and so the answer, stay those of the plain request.
    // A samples override below the Hoeffding count cannot shrink the
    // frame either.
    for extra in [r#""deadline_ms":60000"#, r#""samples":16"#] {
        let resp = client.call(&format!(r#"{base},{extra},"id":2}}"#)).expect("call");
        assert_eq!(str_field(&resp, "status"), "ok", "{extra}: {resp:?}");
        assert_eq!(resp.get("indices"), plain.get("indices"), "{extra}");
        assert_eq!(resp.get("confidence"), plain.get("confidence"), "{extra}");
        assert!(resp.get("partial").is_none(), "{extra}: {resp:?}");
    }
    server.shutdown();
}

#[test]
fn shutdown_returns_final_stats_with_latency_histogram() {
    let server = ServerHandle::start(test_config(), &[small_tenant("t")]).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    for id in 0..3 {
        let resp = client
            .call(&format!(
                r#"{{"op":"minimize","tenant":"t","param":4,"algo":"hdrrm","samples":64,"id":{id}}}"#
            ))
            .expect("call");
        assert_eq!(str_field(&resp, "status"), "ok");
    }
    drop(client);
    let stats = server.shutdown();
    let tenant = stats.get("tenants").and_then(|t| t.get("t")).expect("tenant stats");
    assert_eq!(tenant.get("completed").and_then(Json::as_usize), Some(3));
    assert_eq!(tenant.get("accepted").and_then(Json::as_usize), Some(3));
    let latency = tenant.get("latency").expect("latency block");
    assert_eq!(latency.get("count").and_then(Json::as_usize), Some(3));
    assert!(latency.get("p99_us").and_then(Json::as_usize).unwrap() > 0);
    // The warm/prepare economics show up too: one miss (first query
    // prepared HDRRM lazily); the identical repeats never reach the
    // solver at all — they're answered from the result cache.
    assert_eq!(tenant.get("prepare_misses").and_then(Json::as_usize), Some(1));
    let cache = tenant.get("result_cache").expect("result_cache block");
    assert_eq!(cache.get("hits").and_then(Json::as_usize), Some(2));
}

#[test]
fn a_panicking_solve_answers_solver_error_and_frees_its_worker() {
    // One worker: if the panic killed it, the follow-up query would never
    // be answered.
    let spec = TenantSpec::synthetic("p", SyntheticKind::Independent, 6, 2, 3);
    let server = ServerHandle::start(test_config(), &[spec]).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Finite but extreme rows on which 2DRRR's rank-1 windows leave part
    // of the weight range uncovered, so its solve panics.
    let upd = r#"{"op":"update","tenant":"p","delete":[0,1,2,3,4,5],"insert":[[9.989659597076642e299,6.140037903182327e-152],[7.358657650148254e-151,6.155193684323095e-151],[2.1950833824164915e149,7.682646557113694e299]],"id":1}"#;
    let resp = client.call(upd).expect("call");
    assert_eq!(str_field(&resp, "status"), "ok", "{resp:?}");
    assert_eq!(resp.get("n").and_then(Json::as_usize), Some(3));

    let resp = client
        .call(r#"{"op":"represent","tenant":"p","param":1,"algo":"2drrr","id":2}"#)
        .expect("c");
    assert_eq!(str_field(&resp, "status"), "error", "{resp:?}");
    assert_eq!(str_field(&resp, "error"), "solver_error");
    assert_eq!(resp.get("id").and_then(Json::as_usize), Some(2));

    let resp = client
        .call(r#"{"op":"minimize","tenant":"p","param":2,"algo":"bruteforce","id":3}"#)
        .expect("call");
    assert_eq!(str_field(&resp, "status"), "ok", "{resp:?}");

    // Shutdown joins the worker, so every slot release has happened: the
    // panicked query's slot is back.
    let stats = server.shutdown();
    let tenant = stats.get("tenants").and_then(|t| t.get("p")).expect("tenant stats");
    assert_eq!(tenant.get("errored").and_then(Json::as_usize), Some(1));
    assert_eq!(tenant.get("completed").and_then(Json::as_usize), Some(1));
    assert_eq!(tenant.get("inflight").and_then(Json::as_usize), Some(0));
}

#[test]
fn mdrrr_r_with_zero_samples_answers_unsupported() {
    // The wire accepts `"samples":0`; MDRRRr then has no direction to
    // cover and must say so as a typed error, not a caught panic.
    let spec = TenantSpec::synthetic("z", SyntheticKind::Independent, 200, 3, 5);
    let server = ServerHandle::start(test_config(), &[spec]).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    for (id, op) in [(1, "minimize"), (2, "represent")] {
        let line = format!(
            r#"{{"op":"{op}","tenant":"z","param":4,"algo":"mdrrr-r","samples":0,"id":{id}}}"#
        );
        let resp = client.call(&line).expect("call");
        assert_eq!(str_field(&resp, "status"), "error", "{resp:?}");
        assert_eq!(str_field(&resp, "error"), "unsupported", "{resp:?}");
        assert_eq!(resp.get("id").and_then(Json::as_usize), Some(id));
    }
    server.shutdown();
}

#[test]
fn an_oversized_request_line_is_rejected_and_its_connection_closed() {
    use std::io::{BufRead as _, BufReader, Write as _};
    let server = ServerHandle::start(test_config(), &[small_tenant("t")]).expect("start");

    // One byte past the cap, and no newline ever arrives.
    let mut stream = std::net::TcpStream::connect(server.addr()).expect("connect");
    // Without the cap the server never answers: fail instead of hanging.
    stream.set_read_timeout(Some(std::time::Duration::from_secs(30))).expect("timeout");
    stream.write_all(&vec![b'a'; rrm_serve::MAX_LINE_BYTES + 1]).expect("write");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    let resp = rrm_serve::json::parse(line.trim()).expect("a JSON response line");
    assert_eq!(str_field(&resp, "status"), "error", "{line}");
    assert_eq!(str_field(&resp, "error"), "bad_request", "{line}");
    // The server closed that connection after answering once.
    line.clear();
    assert_eq!(reader.read_line(&mut line).map_err(|_| ()), Ok(0), "{line}");

    // A new connection is served as usual.
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client
        .call(r#"{"op":"minimize","tenant":"t","param":5,"algo":"hdrrm","samples":64,"id":1}"#)
        .expect("call");
    assert_eq!(str_field(&resp, "status"), "ok");
    server.shutdown();
}
