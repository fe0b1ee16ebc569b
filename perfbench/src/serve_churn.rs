//! `serve_churn`: a closed loop of two TCP clients against an in-process
//! `rrm_serve` with two workers. Each client owns one tenant: HDRRM over
//! independent d=4 rows, and 2DRRM over anti-correlated d=2 rows. Query
//! parameters come from a small set, so most queries hit the result
//! cache; one request in twenty is an `update` (one insert, one delete)
//! that invalidates it and drives incremental skyline, top-k patching and
//! 2D crossing repair. No request carries a deadline, so every answer is
//! deterministic and every served line repeats byte for byte per seed.
//!
//! A round serves each of `VARIANTS` draws of the tenants' rows in turn,
//! each on a fresh server (timed as set-up) with its own request lines.
//! Every round replays the same lines; round 1's responses are re-derived
//! in process and checked, later rounds must repeat them.

use std::collections::{BTreeMap, HashMap};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rank_regret::rrm_core::apply_updates;
use rank_regret::{Algorithm, Dataset, ExecPolicy, Session, Solution, UpdateOp};
use rrm_serve::{
    effective_request, ok_response, parse_request, Calibration, Client, DataSource, Json, Op,
    ServerConfig, ServerHandle, SyntheticKind, TenantSpec,
};

use crate::checks::check;
use crate::inputs::{plane_seed, seed_with_skyline};
use crate::layers;
use crate::outcome::{quantile, Outcome};
use crate::trace::Tracer;
use crate::Args;

const HD_N: usize = 5_000;
const PLANE_N: usize = 20_000;
/// Skyline sizes the tenants' rows are drawn to (see `crate::inputs`).
const HD_SKYLINE: usize = 130;
const PLANE_SKYLINE: usize = 35;
/// Draws of the tenants' rows per run. HD re-solves on one draw can cost
/// half as much again as on another, even at a fixed skyline size, so a
/// run that served one draw would measure its seed's rows more than the
/// server; each round serves four.
const VARIANTS: u64 = 4;
/// Requests per client per variant and round; every `UPDATE_EVERY`-th is
/// an update.
const LINES: usize = 300;
const UPDATE_EVERY: usize = 20;
const HD_SAMPLES: usize = 200;
const MIN_QUERIES: usize = 1_000;
const MIN_UPDATES: usize = 100;

/// Seed of the HD tenant's rows, drawn to a fixed skyline size.
fn hd_seed(seed: u64) -> u64 {
    seed_with_skyline(seed, HD_SKYLINE, 3, |s| {
        rank_regret::rrm_skyline::skyline(&rank_regret::rrm_data::synthetic::independent(
            HD_N, 4, s,
        ))
        .len()
    })
}

fn specs(seed: u64) -> Vec<TenantSpec> {
    vec![
        TenantSpec::synthetic("hd", SyntheticKind::Independent, HD_N, 4, hd_seed(seed ^ 0x4D))
            .max_inflight(4),
        TenantSpec::synthetic(
            "plane",
            SyntheticKind::Anticorrelated,
            PLANE_N,
            2,
            plane_seed(PLANE_N, PLANE_SKYLINE, seed ^ 0x2D),
        )
        .max_inflight(4),
    ]
}

fn config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        warm: vec![Algorithm::Hdrrm, Algorithm::TwoDRrm],
        exec: ExecPolicy::sequential(),
        ..ServerConfig::default()
    }
}

/// One client's request lines for one round: queries from a small
/// parameter set, and an update (one insert, one delete) every
/// `UPDATE_EVERY` lines. Inserted rows come from the tenant's own
/// distribution, so the skyline, and with it the solvers' cost, stays
/// typical as the data churns. Row counts never change, so the delete
/// index is drawn from the tenant's fixed size.
fn lines(seed: u64, spec: &TenantSpec) -> Vec<String> {
    let DataSource::Synthetic { kind, n, d, .. } = spec.source else {
        unreachable!("the tenants are synthetic")
    };
    let tenant = spec.name.as_str();
    let inserts = DataSource::Synthetic { kind, n: LINES / UPDATE_EVERY, d, seed: seed ^ 0x1A5E }
        .load()
        .expect("synthetic rows load");
    let mut rng = StdRng::seed_from_u64(seed);
    let queries: Vec<String> = if tenant == "hd" {
        let q = |op: &str, p: usize| {
            format!("\"op\":\"{op}\",\"tenant\":\"hd\",\"param\":{p},\"algo\":\"hdrrm\",\"samples\":{HD_SAMPLES}")
        };
        [6, 8, 10, 12, 14, 16]
            .map(|r| q("minimize", r))
            .into_iter()
            .chain([16, 32].map(|k| q("represent", k)))
            .collect()
    } else {
        let q = |op: &str, p: usize| {
            format!("\"op\":\"{op}\",\"tenant\":\"plane\",\"param\":{p},\"algo\":\"2drrm\"")
        };
        vec![q("minimize", 4), q("minimize", 8), q("minimize", 12), q("represent", 10)]
    };
    (0..LINES)
        .map(|i| {
            if i % UPDATE_EVERY == UPDATE_EVERY - 1 {
                let row: Vec<String> =
                    inserts.row(i / UPDATE_EVERY).iter().map(|v| v.to_string()).collect();
                let del = rng.random_range(0..n);
                format!("{{\"op\":\"update\",\"tenant\":\"{tenant}\",\"insert\":[[{}]],\"delete\":[{del}],\"id\":{i}}}", row.join(","))
            } else {
                format!("{{{},\"id\":{i}}}", queries[rng.random_range(0..queries.len())])
            }
        })
        .collect()
}

/// One request and what the client saw.
struct Exchange {
    line: String,
    response: Json,
    seconds: f64,
}

/// Both clients' exchanges of one round, in each client's send order.
fn drive(server: &ServerHandle, per_client: &[Vec<String>]) -> Vec<Vec<Exchange>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_client
            .iter()
            .map(|lines| {
                scope.spawn(move || {
                    let mut client =
                        Client::connect(server.addr()).expect("connect to the local server");
                    lines
                        .iter()
                        .map(|line| {
                            let start = Instant::now();
                            let response = client.call(line).unwrap_or(Json::Null);
                            Exchange {
                                line: line.clone(),
                                response,
                                seconds: start.elapsed().as_secs_f64(),
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    })
}

/// A response with its timing fields removed, for byte comparison.
fn timeless(response: &Json) -> String {
    match response {
        Json::Obj(fields) => Json::Obj(
            fields.iter().filter(|(k, _)| k != "micros" && k != "queued_micros").cloned().collect(),
        )
        .render(),
        other => other.render(),
    }
}

fn status_ok(response: &Json) -> bool {
    response.get("status").and_then(Json::as_str) == Some("ok")
}

fn is_update(line: &str) -> bool {
    line.starts_with("{\"op\":\"update\"")
}

/// Add the exact per-tenant counters of one server's stats to `counts`.
fn stat_counts(stats: &Json, counts: &mut BTreeMap<String, u64>) {
    let Some(Json::Obj(tenants)) = stats.get("tenants") else { return };
    for (name, t) in tenants {
        for key in
            ["completed", "prepare_hits", "prepare_misses", "epoch", "updates_applied", "errored"]
        {
            let v = t.get(key).and_then(Json::as_usize).unwrap_or(0);
            *counts.entry(format!("{name}.{key}")).or_default() += v as u64;
        }
        let hits =
            t.get("result_cache").and_then(|c| c.get("hits")).and_then(Json::as_usize).unwrap_or(0);
        *counts.entry(format!("{name}.cache_hits")).or_default() += hits as u64;
    }
}

/// Replay one tenant's exchanges in process, in order, against a session
/// that applies the same updates; every ok answer must match the served
/// one, and every distinct answer's certificate is checked. With a
/// tracer, update and prepare work is timed in spans.
fn verify_tenant(
    tenant: u64,
    spec: &TenantSpec,
    calibration: Calibration,
    exchanges: &[Exchange],
    tr: Option<&Tracer>,
    out: &mut Outcome,
) {
    let data = spec.source.load().expect("synthetic tenants load");
    let span = |name: &'static str, f: &mut dyn FnMut()| match tr {
        Some(tr) => tr.span(name, f),
        None => f(),
    };
    if let Some(tr) = tr {
        layers::candidates(tr, &data);
    }
    let session = Session::new(data).exec(ExecPolicy::sequential());
    span("engine.prepare_s", &mut || {
        session.warm(&config().warm);
    });
    let mut expected: HashMap<(u64, String), Solution> = HashMap::new();
    for (i, ex) in exchanges.iter().enumerate() {
        if let Some(tr) = tr {
            tr.set_query(tenant << 32 | i as u64);
            let t = Instant::now();
            std::hint::black_box(parse_request(&ex.line).is_ok());
            tr.count("_parse.s", t.elapsed().as_secs_f64());
            tr.count("_parse.calls", 1.0);
        }
        if !status_ok(&ex.response) {
            out.fail(&format!("served error for {}: {}", ex.line, ex.response.render()));
            continue;
        }
        let wire = match parse_request(&ex.line) {
            Ok(w) => w,
            Err(e) => {
                out.fail(&format!("request line does not parse: {e}"));
                continue;
            }
        };
        if let Op::Update { insert, delete } = &wire.op {
            let ops: Vec<UpdateOp> = delete
                .iter()
                .map(|&i| UpdateOp::Delete(i))
                .chain(insert.iter().map(|row| UpdateOp::Insert(row.clone())))
                .collect();
            if let Some(tr) = tr {
                let rows = session.data();
                tr.span("core.update.apply_s", || apply_updates(&rows, &ops).map(|_| ()).ok());
            }
            let mut result = Err(rank_regret::RrmError::Internal("update not run".into()));
            span("engine.update_s", &mut || result = session.update(&ops));
            let served = ex.response.get("epoch").and_then(Json::as_usize).map(|e| e as u64);
            if result.ok() != served {
                out.fail(&format!("update epoch diverged on {}", ex.line));
            }
            continue;
        }
        let rows: std::sync::Arc<Dataset> = session.data();
        let Some(request) = effective_request(&wire, calibration, rows.n(), rows.dim()) else {
            out.fail(&format!("not a query: {}", ex.line));
            continue;
        };
        let key =
            (session.epoch(), ex.line.split(",\"id\"").next().unwrap_or_default().to_string());
        if !expected.contains_key(&key) {
            // A warm re-solve on the replayed epoch, timed whole: the
            // prepared caches it reuses cannot be replayed from outside.
            let mut result = None;
            span("engine.query_s", &mut || result = Some(session.run(&request)));
            match result.expect("the span ran the query") {
                Ok(response) => {
                    if let Err(e) = check(&rows, &request, &response.solution) {
                        out.fail(&format!("{}: {e}", ex.line));
                    }
                    expected.insert(key.clone(), response.solution);
                }
                Err(e) => {
                    out.fail(&format!("in-process replay of {} failed: {e}", ex.line));
                    continue;
                }
            }
        }
        let want = &expected[&key];
        if let Some(tr) = tr {
            // The protocol layer's render of this answer, as a worker
            // writes it.
            let response = rank_regret::Response {
                request: request.clone(),
                solution: want.clone(),
                seconds: 0.0,
            };
            let t = Instant::now();
            std::hint::black_box(ok_response(&wire.id, &spec.name, &response, 0, 0).render());
            tr.count("_render.s", t.elapsed().as_secs_f64());
            tr.count("_render.calls", 1.0);
        }
        let got: Option<Vec<usize>> = match ex.response.get("indices") {
            Some(Json::Arr(items)) => items.iter().map(Json::as_usize).collect(),
            _ => None,
        };
        let want_indices: Vec<usize> = want.indices.iter().map(|&i| i as usize).collect();
        if got.as_ref() != Some(&want_indices)
            || ex.response.get("certified_regret").and_then(Json::as_usize) != want.certified_regret
            || ex.response.get("algorithm").and_then(Json::as_str) != Some(want.algorithm.name())
        {
            out.fail(&format!("served answer diverged from in-process replay on {}", ex.line));
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    crate::outcome::release_large_blocks();
    let mut out = Outcome::default();
    // Per variant: the tenants, and each client's request lines.
    let variants: Vec<(Vec<TenantSpec>, Vec<Vec<String>>)> = (0..VARIANTS)
        .map(|v| {
            let seed = args.seed.wrapping_add(v << 32);
            let specs = specs(seed);
            let per_client = specs
                .iter()
                .enumerate()
                .map(|(i, s)| lines(seed.wrapping_add(i as u64), s))
                .collect();
            (specs, per_client)
        })
        .collect();
    out.facts.push(("threads".into(), "1".into()));
    out.facts.push(("clients".into(), variants[0].1.len().to_string()));
    out.facts.push(("workers".into(), config().workers.to_string()));
    out.facts.push(("variants".into(), VARIANTS.to_string()));

    // Untimed warm-up: a short prefix of the first variant's lines on a
    // throwaway server.
    let (specs0, lines0) = &variants[0];
    let server = ServerHandle::start(config(), specs0).expect("start the server");
    let prefix: Vec<Vec<String>> = lines0.iter().map(|l| l[..LINES / 6].to_vec()).collect();
    drive(&server, &prefix);
    server.shutdown();

    let budget = Duration::from_secs_f64(args.seconds);
    let mut timed = Duration::ZERO;
    let mut reference: Option<Vec<Vec<Vec<String>>>> = None;
    let mut first_round: Vec<(Calibration, Vec<Vec<Exchange>>)> = Vec::new();
    let mut last_round = Duration::ZERO;
    while out.rounds == 0
        || timed + last_round / 2 < budget
        || out.query_ms.len() < MIN_QUERIES
        || out.update_ms.len() < MIN_UPDATES
    {
        let mut counts = BTreeMap::new();
        let mut responses = Vec::new();
        last_round = Duration::ZERO;
        for (specs, per_client) in &variants {
            let t = Instant::now();
            let server = ServerHandle::start(config(), specs).expect("start the server");
            out.setup_s.push(t.elapsed().as_secs_f64());
            let t = Instant::now();
            let exchanges = drive(&server, per_client);
            last_round += t.elapsed();
            stat_counts(&server.stats_json(), &mut counts);
            for ex in exchanges.iter().flatten() {
                out.attempted += 1;
                if is_update(&ex.line) {
                    out.update_ms.push(ex.seconds * 1e3);
                } else {
                    out.query_ms.push(ex.seconds * 1e3);
                }
            }
            responses.push(
                exchanges
                    .iter()
                    .map(|c| c.iter().map(|ex| timeless(&ex.response)).collect())
                    .collect::<Vec<Vec<String>>>(),
            );
            if out.rounds == 0 {
                first_round.push((server.calibration(), exchanges));
            }
            server.shutdown();
        }
        timed += last_round;
        out.end_round(&counts);
        match &reference {
            None => reference = Some(responses),
            Some(want) if *want != responses => out.fail("served responses changed between rounds"),
            Some(_) => {}
        }
    }
    out.timed_s = timed.as_secs_f64();

    let tracer = args.trace.then(Tracer::new);
    let verify = |tr: Option<&Tracer>, out: &mut Outcome| {
        let t = Instant::now();
        for (v, ((specs, _), (calibration, exchanges))) in
            variants.iter().zip(&first_round).enumerate()
        {
            for (i, (spec, ex)) in specs.iter().zip(exchanges).enumerate() {
                let tenant = (v * specs.len() + i) as u64;
                verify_tenant(tenant, spec, *calibration, ex, tr, out);
            }
        }
        t.elapsed().as_secs_f64()
    };
    // The tracing overhead's baseline: the same replay without spans,
    // once before and once after the traced one, averaged.
    let mut plain_s = 0.0;
    if tracer.is_some() {
        plain_s += verify(None, &mut Outcome::default()) / 2.0;
    }
    let traced_s = verify(tracer.as_ref(), &mut out);
    if let Some(tr) = tracer {
        plain_s += verify(None, &mut Outcome::default()) / 2.0;
        let exchanges: Vec<&Exchange> =
            first_round.iter().flat_map(|(_, clients)| clients.iter().flatten()).collect();
        out.layers = serve_layers(&tr, &out.counts, &exchanges);
        out.layers.insert("trace.overhead_frac".into(), (traced_s - plain_s) / plain_s);
        let path = tr.write(&args.workload, args.seed);
        out.facts.push(("spans".into(), format!("\"{}\"", path.display())));
    }
    out
}

/// Per-layer metrics of the serving path, measured from outside: queue
/// wait and service time as each response reports them, the transport
/// remainder of each round trip, the protocol layer's parse and render per
/// call, and the result cache's hit ratio. Coverage is the share of the
/// round trips that queue wait, service, parse and render explain.
fn serve_layers(
    tr: &Tracer,
    counts: &BTreeMap<String, u64>,
    exchanges: &[&Exchange],
) -> BTreeMap<String, f64> {
    let parse_s = tr.counter("_parse.s") / tr.counter("_parse.calls").max(1.0);
    let render_s = tr.counter("_render.s") / tr.counter("_render.calls").max(1.0);
    let (mut queue, mut service, mut transport) = (Vec::new(), Vec::new(), Vec::new());
    let (mut explained, mut round_trip) = (0.0, 0.0);
    for ex in exchanges.iter().filter(|ex| !is_update(&ex.line)) {
        let q = ex.response.get("queued_micros").and_then(Json::as_f64).unwrap_or(0.0) / 1e6;
        let s = ex.response.get("micros").and_then(Json::as_f64).unwrap_or(0.0) / 1e6;
        queue.push(q * 1e3);
        service.push(s * 1e3);
        transport.push((ex.seconds - q - s).max(0.0) * 1e3);
        explained += q + s + parse_s + render_s;
        round_trip += ex.seconds;
    }
    let sorted = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v
    };
    let (queue, service, transport) = (sorted(queue), sorted(service), sorted(transport));
    let mut out = tr.report();
    let mut put = |k: &str, v: Option<f64>| {
        out.insert(k.to_string(), v.unwrap_or(0.0));
    };
    put("serve.server.queue_wait_ms.p50", quantile(&queue, 0.5));
    put("serve.server.queue_wait_ms.p99", quantile(&queue, 0.99));
    put("serve.server.service_ms.p50", quantile(&service, 0.5));
    put("serve.server.service_ms.p99", quantile(&service, 0.99));
    put("serve.transport_ms.p50", quantile(&transport, 0.5));
    put("serve.protocol.parse_us", Some(parse_s * 1e6));
    put("serve.protocol.render_us", Some(render_s * 1e6));
    put("trace.coverage", Some(explained / round_trip.max(1e-12)));
    let sum = |suffix: &str| {
        counts.iter().filter(|(k, _)| k.ends_with(suffix)).map(|(_, v)| *v as f64).sum::<f64>()
    };
    put("serve.registry.cache_hit_ratio", Some(sum(".cache_hits") / sum(".completed").max(1.0)));
    let (hits, misses) = (sum(".prepare_hits"), sum(".prepare_misses"));
    put("engine.prepare_hit_ratio", Some(hits / (hits + misses).max(1.0)));
    out
}
