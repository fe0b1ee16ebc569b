//! `repro serve`: the replayed-trace load harness for `rrm_serve`.
//!
//! Starts the server in-process, replays a synthetic mixed
//! minimize/represent trace from real client threads over real TCP, and
//! measures client-observed latency per request. Three scenarios:
//!
//! * `single_tenant_hot` — one warm tenant, synchronous clients
//!   hammering the same handful of requests (prepared-state reuse);
//! * `multi_tenant_mixed` — three tenants, mixed ops/algorithms, every
//!   request under a generous deadline (exercises the time-limit path);
//! * `overload` — a small in-flight limit and queue under a pipelined
//!   burst: admission control must reject immediately while accepted
//!   requests keep a bounded p99.
//!
//! Every `ok` response is then replayed through an in-process [`Session`]
//! built from the same tenant spec, and must match bit-for-bit (indices, certificate, algorithm) — the
//! determinism contract extended over the wire. Results land in
//! `BENCH_serve.json` under the uniform schema/machine header.

use std::collections::HashMap;
use std::time::Instant;

use rank_regret::{Algorithm, ExecPolicy, Session};
use rrm_serve::{
    effective_request, parse_request, Client, Json, ServerConfig, ServerHandle, SyntheticKind,
    TenantSpec,
};

use crate::{bench_meta, Scale};

/// One client-observed exchange: the request line sent, the parsed
/// response, and the observed round-trip in microseconds.
struct Exchange {
    line: String,
    response: Json,
    latency_us: u64,
}

struct ScenarioResult {
    name: &'static str,
    clients: usize,
    requests: usize,
    ok: usize,
    /// `ok` responses flagged `"partial": true` (a budget limit fired).
    partial: usize,
    rejected: usize,
    deadline_exceeded: usize,
    errors: usize,
    parity_checked: usize,
    seconds: f64,
    qps: f64,
    service_p50_us: u64,
    service_p99_us: u64,
    rejection_p50_us: Option<u64>,
    rejection_p99_us: Option<u64>,
}

/// Exact percentile (nearest-rank) over client-observed samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

fn status_of(response: &Json) -> (&str, &str) {
    let status = response.get("status").and_then(Json::as_str).unwrap_or("missing");
    let code = response.get("error").and_then(Json::as_str).unwrap_or("");
    (status, code)
}

/// Run `clients` threads against `server`. Synchronous mode round-trips
/// one request at a time; pipelined mode sends a client's whole burst
/// up front and then correlates responses by id — that is what makes
/// rejection latency measurable while the queue is saturated.
fn drive(
    server: &ServerHandle,
    per_client: &[Vec<String>],
    pipelined: bool,
) -> (Vec<Exchange>, f64) {
    let start = Instant::now();
    let exchanges = std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .iter()
            .map(|lines| {
                scope.spawn(move || {
                    let mut client = Client::connect(server.addr()).expect("connect");
                    let mut out: Vec<Exchange> = Vec::with_capacity(lines.len());
                    if pipelined {
                        let mut sent_at: HashMap<usize, (Instant, &str)> = HashMap::new();
                        for line in lines {
                            let wire = parse_request(line).expect("trace line parses");
                            let id = wire.id.as_ref().and_then(Json::as_usize).expect("trace id");
                            sent_at.insert(id, (Instant::now(), line));
                            client.send(line).expect("send");
                        }
                        for _ in 0..lines.len() {
                            let response = client.recv().expect("recv");
                            let id =
                                response.get("id").and_then(Json::as_usize).expect("echoed id");
                            let (at, line) = sent_at[&id];
                            out.push(Exchange {
                                line: line.to_string(),
                                response,
                                latency_us: at.elapsed().as_micros() as u64,
                            });
                        }
                    } else {
                        for line in lines {
                            let at = Instant::now();
                            let response = client.call(line).expect("call");
                            out.push(Exchange {
                                line: line.clone(),
                                response,
                                latency_us: at.elapsed().as_micros() as u64,
                            });
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread")).collect::<Vec<_>>()
    });
    (exchanges, start.elapsed().as_secs_f64())
}

/// Replay every `ok` response through an in-process [`Session`] built
/// from the same specs; panic on any divergence. Returns how many
/// responses were checked. Partial answers (`"partial": true` — the
/// time limit fired) are skipped: where a wall-clock limit lands is the
/// one thing the determinism contract does not cover.
fn assert_parity(server: &ServerHandle, specs: &[TenantSpec], exchanges: &[Exchange]) -> usize {
    let calibration = server.calibration();
    let sessions: HashMap<&str, Session> = specs
        .iter()
        .map(|s| {
            (
                s.name.as_str(),
                Session::new(s.source.load().expect("load")).exec(ExecPolicy::sequential()),
            )
        })
        .collect();
    let mut expected_cache: HashMap<String, rank_regret::Response> = HashMap::new();
    let mut checked = 0usize;
    for ex in exchanges {
        if status_of(&ex.response).0 != "ok" || ex.response.get("partial").is_some() {
            continue;
        }
        let wire = parse_request(&ex.line).expect("trace line parses");
        let tenant = wire.tenant.clone().expect("query has tenant");
        let session = &sessions[tenant.as_str()];
        // Cache by everything except the id — identical requests must
        // produce identical answers, so one replay covers the class.
        let key = format!(
            "{tenant}|{:?}|{:?}|{:?}|{:?}",
            wire.op, wire.algo, wire.deadline_ms, wire.samples
        );
        let expected = expected_cache.entry(key).or_insert_with(|| {
            let request =
                effective_request(&wire, calibration, session.data().n(), session.data().dim())
                    .expect("query op");
            session.run(&request).expect("replay succeeds")
        });
        let got_indices: Vec<usize> = match ex.response.get("indices") {
            Some(Json::Arr(items)) => items.iter().map(|v| v.as_usize().expect("index")).collect(),
            other => panic!("ok response without indices: {other:?}"),
        };
        let want_indices: Vec<usize> =
            expected.solution.indices.iter().map(|&i| i as usize).collect();
        assert_eq!(got_indices, want_indices, "served indices diverged on {}", ex.line);
        let got_cert = ex.response.get("certified_regret").and_then(Json::as_usize);
        assert_eq!(
            got_cert, expected.solution.certified_regret,
            "served certificate diverged on {}",
            ex.line
        );
        assert_eq!(
            ex.response.get("algorithm").and_then(Json::as_str),
            Some(expected.solution.algorithm.name()),
            "served algorithm diverged on {}",
            ex.line
        );
        checked += 1;
    }
    checked
}

fn summarize(
    name: &'static str,
    clients: usize,
    exchanges: &[Exchange],
    seconds: f64,
    parity_checked: usize,
) -> ScenarioResult {
    let mut service: Vec<u64> = Vec::new();
    let mut rejection: Vec<u64> = Vec::new();
    let (mut ok, mut partial, mut rejected, mut deadline_exceeded, mut errors) =
        (0usize, 0usize, 0usize, 0usize, 0usize);
    for ex in exchanges {
        match status_of(&ex.response) {
            ("ok", _) => {
                ok += 1;
                if ex.response.get("partial").is_some() {
                    partial += 1;
                }
                service.push(ex.latency_us);
            }
            (_, "overloaded") => {
                rejected += 1;
                rejection.push(ex.latency_us);
            }
            (_, "deadline_exceeded") => deadline_exceeded += 1,
            _ => errors += 1,
        }
    }
    service.sort_unstable();
    rejection.sort_unstable();
    assert!(ok > 0, "{name}: no request succeeded");
    ScenarioResult {
        name,
        clients,
        requests: exchanges.len(),
        ok,
        partial,
        rejected,
        deadline_exceeded,
        errors,
        parity_checked,
        seconds,
        qps: ok as f64 / seconds.max(1e-9),
        service_p50_us: percentile(&service, 50.0),
        service_p99_us: percentile(&service, 99.0),
        rejection_p50_us: (!rejection.is_empty()).then(|| percentile(&rejection, 50.0)),
        rejection_p99_us: (!rejection.is_empty()).then(|| percentile(&rejection, 99.0)),
    }
}

fn single_tenant_hot(scale: Scale) -> ScenarioResult {
    let specs =
        [TenantSpec::synthetic("hot", SyntheticKind::Independent, 2_000, 4, 101).max_inflight(32)];
    let config =
        ServerConfig { workers: 2, warm: vec![Algorithm::Hdrrm], ..ServerConfig::default() };
    let server = ServerHandle::start(config, &specs).expect("start server");
    let per_request = match scale {
        Scale::Quick => 10usize,
        Scale::Full => 50,
    };
    let clients = 4;
    let per_client: Vec<Vec<String>> = (0..clients)
        .map(|c| {
            (0..per_request)
                .map(|i| {
                    let param = 8 + (i % 3) * 2;
                    format!(
                        "{{\"op\":\"minimize\",\"tenant\":\"hot\",\"param\":{param},\
                         \"algo\":\"hdrrm\",\"samples\":150,\"id\":{}}}",
                        c * 100_000 + i
                    )
                })
                .collect()
        })
        .collect();
    let (exchanges, seconds) = drive(&server, &per_client, false);
    let parity = assert_parity(&server, &specs, &exchanges);
    let result = summarize("single_tenant_hot", clients, &exchanges, seconds, parity);
    server.shutdown();
    result
}

fn multi_tenant_mixed(scale: Scale) -> ScenarioResult {
    let specs = [
        TenantSpec::synthetic("hot", SyntheticKind::Independent, 2_000, 4, 101).max_inflight(16),
        TenantSpec::synthetic("corr", SyntheticKind::Correlated, 1_500, 3, 102).max_inflight(16),
        TenantSpec::synthetic("anti", SyntheticKind::Anticorrelated, 1_000, 4, 103)
            .max_inflight(16),
    ];
    let config = ServerConfig {
        workers: 2,
        warm: vec![Algorithm::Hdrrm, Algorithm::Mdrc, Algorithm::Mdrms],
        ..ServerConfig::default()
    };
    let server = ServerHandle::start(config, &specs).expect("start server");
    let per_request = match scale {
        Scale::Quick => 12usize,
        Scale::Full => 60,
    };
    let clients = 4;
    let tenants = ["hot", "corr", "anti"];
    let algos = ["hdrrm", "mdrc", "mdrms"];
    let per_client: Vec<Vec<String>> = (0..clients)
        .map(|c| {
            (0..per_request)
                .map(|i| {
                    let tenant = tenants[(c + i) % tenants.len()];
                    let param = 6 + (i % 4);
                    // Represent stays on HDRRM (binary search over r is
                    // budget-bounded); minimize rotates the HD roster.
                    let (op, algo) = if i % 3 == 2 {
                        ("represent", "hdrrm")
                    } else {
                        ("minimize", algos[i % algos.len()])
                    };
                    format!(
                        "{{\"op\":\"{op}\",\"tenant\":\"{tenant}\",\"param\":{param},\
                         \"algo\":\"{algo}\",\"samples\":150,\"deadline_ms\":5000,\"id\":{}}}",
                        c * 100_000 + i
                    )
                })
                .collect()
        })
        .collect();
    let (exchanges, seconds) = drive(&server, &per_client, false);
    let parity = assert_parity(&server, &specs, &exchanges);
    let result = summarize("multi_tenant_mixed", clients, &exchanges, seconds, parity);
    server.shutdown();
    result
}

fn overload(scale: Scale) -> ScenarioResult {
    let specs =
        [TenantSpec::synthetic("slow", SyntheticKind::Anticorrelated, 3_000, 4, 104)
            .max_inflight(4)];
    let config = ServerConfig {
        workers: 1,
        queue_cap: 8,
        warm: vec![Algorithm::Hdrrm],
        ..ServerConfig::default()
    };
    let server = ServerHandle::start(config, &specs).expect("start server");
    let burst = match scale {
        Scale::Quick => 6usize,
        Scale::Full => 10,
    };
    let clients = 6;
    let per_client: Vec<Vec<String>> = (0..clients)
        .map(|c| {
            (0..burst)
                .map(|i| {
                    format!(
                        "{{\"op\":\"minimize\",\"tenant\":\"slow\",\"param\":10,\
                         \"algo\":\"hdrrm\",\"samples\":400,\"id\":{}}}",
                        c * 100_000 + i
                    )
                })
                .collect()
        })
        .collect();
    let (exchanges, seconds) = drive(&server, &per_client, true);
    let parity = assert_parity(&server, &specs, &exchanges);
    let result = summarize("overload", clients, &exchanges, seconds, parity);
    // The admission-control acceptance criteria, asserted in-run: with 6
    // clients bursting at a 4-deep in-flight limit, rejections must
    // happen, and they must come back much faster than served queries.
    assert!(result.rejected > 0, "overload scenario produced no rejections");
    let rejection_p99 = result.rejection_p99_us.expect("rejections measured");
    assert!(
        rejection_p99 < result.service_p99_us,
        "rejections (p99 {}us) were not faster than service (p99 {}us)",
        rejection_p99,
        result.service_p99_us
    );
    server.shutdown();
    result
}

/// Entry point for `repro serve`.
pub fn run(scale: Scale) {
    let results = [single_tenant_hot(scale), multi_tenant_mixed(scale), overload(scale)];

    println!(
        "{:<20} {:>3} {:>5} {:>5} {:>5} {:>5} {:>9} {:>9} {:>9} {:>8}",
        "scenario", "cl", "req", "ok", "rej", "ddl", "p50(us)", "p99(us)", "rej99", "QPS"
    );
    for r in &results {
        println!(
            "{:<20} {:>3} {:>5} {:>5} {:>5} {:>5} {:>9} {:>9} {:>9} {:>8.1}",
            r.name,
            r.clients,
            r.requests,
            r.ok,
            r.rejected,
            r.deadline_exceeded,
            r.service_p50_us,
            r.service_p99_us,
            r.rejection_p99_us.map_or("-".to_string(), |v| v.to_string()),
            r.qps,
        );
        assert_eq!(
            r.parity_checked,
            r.ok - r.partial,
            "{}: every complete ok response must be parity-checked",
            r.name
        );
        assert_eq!(r.errors, 0, "{}: unexpected error responses", r.name);
    }

    // Hand-rolled JSON (no serde in the offline container).
    let mut json = format!("{{{},\"scenarios\":[\n", bench_meta("serve"));
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |x| x.to_string());
        json.push_str(&format!(
            "  {{\"name\":\"{}\",\"clients\":{},\"requests\":{},\"ok\":{},\
             \"partial\":{},\"rejected\":{},\"deadline_exceeded\":{},\"errors\":{},\
             \"parity_checked\":{},\"seconds\":{:.6},\"qps\":{:.1},\
             \"service_p50_us\":{},\"service_p99_us\":{},\
             \"rejection_p50_us\":{},\"rejection_p99_us\":{}}}{sep}\n",
            r.name,
            r.clients,
            r.requests,
            r.ok,
            r.partial,
            r.rejected,
            r.deadline_exceeded,
            r.errors,
            r.parity_checked,
            r.seconds,
            r.qps,
            r.service_p50_us,
            r.service_p99_us,
            opt(r.rejection_p50_us),
            opt(r.rejection_p99_us),
        ));
    }
    json.push_str("]}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!(
        "wrote BENCH_serve.json (all served responses parity-checked against in-process sessions)"
    );
}
