//! `repro incremental`: measures [`Session::update`] against naive
//! re-prepare under sustained churn and writes `BENCH_incremental.json`.
//!
//! The workload the epoch machinery exists for: one long-lived session, a
//! concurrent query stream, and a steady drip of 1% churn batches (n/200
//! deletes + n/200 inserts, n constant). Per batch, two paths answer the
//! same post-update queries, with maintenance and query costs timed in
//! *separate* regions so the shared query cannot pollute the maintenance
//! comparison:
//!
//! * **incremental** — `session.update(&ops)` advances the warm prepared
//!   handles (a fresh dominance-grid prepare for 2DRRM, the maintained
//!   skyline and patched top-k lists for HDRRM) and publishes a new epoch. The update is timed alone
//!   (`update_seconds`); the post-update query is timed alone right after
//!   (`query_seconds`), so lazily-deferred maintenance cannot hide — it
//!   lands in the query region and is reported, just not misattributed.
//! * **naive** — a fresh `Session` over the post-update rows: prepare
//!   from scratch timed alone (`prepare_seconds`), then its first query
//!   timed alone (`query_seconds`).
//!
//! The updates/sec rates and the speedup gate compare maintenance only:
//! update-only vs. fresh-prepare-only. Beside them the table prints the
//! end-to-end ratio, (fresh prepare + first query) / (update + query
//! after update), which maintenance deferred into the next query cannot
//! raise.
//!
//! After every batch, outside all timed regions, the two sessions'
//! answers are asserted bit-identical — the incremental path is only
//! allowed to be faster, never different. A concurrent reader thread
//! queries the incremental session the whole time (updates never block
//! readers; its completed-query count is reported).
//!
//! The acceptance gate asserted in-run: at n = 100K with 1% churn, at
//! least one algorithm sustains >= 10x the naive path's updates/sec.
//!
//! [`Session::update`]: rank_regret::Session::update

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rank_regret::{apply_updates, Engine, Request, Session, Tuning, UpdateOp};
use rrm_core::{Algorithm, Budget, Dataset, ExecPolicy};

use crate::{bench_meta, timed, Scale};

struct ChurnResult {
    algorithm: &'static str,
    n: usize,
    d: usize,
    batches: usize,
    ops_per_batch: usize,
    /// `session.update(&ops)` alone — the maintenance cost under test.
    incremental_update_seconds: f64,
    /// The post-update query on the warm session, timed separately so
    /// lazily-deferred maintenance shows up here instead of hiding.
    incremental_query_seconds: f64,
    /// Fresh-session prepare alone — the maintenance cost it replaces.
    naive_prepare_seconds: f64,
    /// The fresh session's first query, timed separately (symmetric with
    /// the incremental side).
    naive_query_seconds: f64,
    incremental_updates_per_sec: f64,
    naive_updates_per_sec: f64,
    /// Maintenance-only speedup: update-only vs. fresh-prepare-only.
    speedup: f64,
    concurrent_queries: usize,
}

impl ChurnResult {
    /// End to end: fresh prepare plus first query against update plus the
    /// query after it.
    fn end_to_end(&self) -> f64 {
        (self.naive_prepare_seconds + self.naive_query_seconds)
            / (self.incremental_update_seconds + self.incremental_query_seconds).max(1e-9)
    }
}

/// One churn batch against pre-batch size `n`: `half` distinct random
/// deletes plus `half` random inserts, deterministic in `seed`.
fn churn_ops(n: usize, d: usize, half: usize, seed: u64) -> Vec<UpdateOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut picked: HashSet<usize> = HashSet::with_capacity(half);
    while picked.len() < half {
        picked.insert(rng.random_range(0..n));
    }
    let mut deletes: Vec<usize> = picked.into_iter().collect();
    deletes.sort_unstable();
    let mut ops: Vec<UpdateOp> = deletes.into_iter().map(UpdateOp::Delete).collect();
    for _ in 0..half {
        ops.push(UpdateOp::Insert((0..d).map(|_| rng.random::<f64>()).collect()));
    }
    ops
}

/// Run `batches` churn batches through one warm session (incremental
/// path) and through per-batch fresh sessions (naive path), with a
/// concurrent query stream on the incremental side, asserting answer
/// parity after every batch. Both paths run their kernels on one thread.
fn churn(
    algorithm: Algorithm,
    tuning: &Tuning,
    data: Dataset,
    r: usize,
    budget: &Budget,
    batches: usize,
    seed: u64,
) -> ChurnResult {
    let n = data.n();
    let d = data.dim();
    let half = n / 200;
    let request = Request::minimize(r).algo(algorithm).budget(budget.clone());
    let engine = || Engine::with_tuning(tuning).with_exec(ExecPolicy::sequential());

    let session = Session::with_engine(engine(), data.clone());
    session.run(&request).expect("warm query"); // prepare once, untimed

    let stop = AtomicBool::new(false);
    let served = AtomicUsize::new(0);
    let mut incremental_update_seconds = 0.0;
    let mut incremental_query_seconds = 0.0;
    let mut naive_prepare_seconds = 0.0;
    let mut naive_query_seconds = 0.0;
    std::thread::scope(|scope| {
        scope.spawn(|| {
            // The concurrent reader: pins whatever epoch is current per
            // query, never blocks an update, never torn.
            while !stop.load(Ordering::Relaxed) {
                session.run(&request).expect("concurrent query");
                served.fetch_add(1, Ordering::Relaxed);
            }
        });
        let mut rows = data;
        for b in 0..batches {
            let ops = churn_ops(rows.n(), d, half, seed.wrapping_add(b as u64));

            // Incremental: the update alone is the maintenance cost under
            // test; the post-update query is timed in its own region so
            // lazily-deferred maintenance is visible without being
            // charged to the update.
            let (_, s) = timed(|| session.update(&ops).expect("incremental update"));
            incremental_update_seconds += s;
            let (inc_response, s) = timed(|| session.run(&request).expect("post-update query"));
            incremental_query_seconds += s;

            // Naive: a fresh session over the same post-update rows —
            // prepare from scratch alone, then its first query alone.
            rows = apply_updates(&rows, &ops).expect("churn batch applies").new;
            let fresh = Session::with_engine(engine(), rows.clone());
            let (_, s) = timed(|| fresh.prepared(algorithm).expect("fresh prepare"));
            naive_prepare_seconds += s;
            let (fresh_response, s) = timed(|| fresh.run(&request).expect("fresh query"));
            naive_query_seconds += s;

            // Parity gate, outside both timed regions: same rows, same
            // answer, bit for bit.
            assert_eq!(*session.data(), rows, "{algorithm}: incremental rows diverged");
            assert_eq!(
                inc_response.solution, fresh_response.solution,
                "{algorithm}: batch {b} incremental answer diverged from fresh re-prepare"
            );
        }
        assert_eq!(session.epoch(), batches as u64, "one epoch per batch");
        stop.store(true, Ordering::Relaxed);
    });

    let ops_per_batch = 2 * half;
    let total_ops = (batches * ops_per_batch) as f64;
    // Maintenance-only rates: the shared query cost sits in its own
    // fields and pollutes neither side of the comparison.
    let incremental_updates_per_sec = total_ops / incremental_update_seconds.max(1e-9);
    let naive_updates_per_sec = total_ops / naive_prepare_seconds.max(1e-9);
    ChurnResult {
        algorithm: algorithm.name(),
        n,
        d,
        batches,
        ops_per_batch,
        incremental_update_seconds,
        incremental_query_seconds,
        naive_prepare_seconds,
        naive_query_seconds,
        incremental_updates_per_sec,
        naive_updates_per_sec,
        speedup: incremental_updates_per_sec / naive_updates_per_sec.max(1e-9),
        concurrent_queries: served.load(Ordering::Relaxed),
    }
}

/// Entry point for `repro incremental`.
pub fn run(scale: Scale) {
    // HDRRM's queries pin their direction count (`Budget::with_samples`
    // below), so the naive re-prepare cost is the same known quantity at
    // both scales (the paper's δ-derived m at n = 100K is ~38K directions
    // — hours of naive re-prepare per batch).
    let (batches_small, batches_large) = match scale {
        Scale::Quick => (4usize, 2usize),
        Scale::Full => (5, 5),
    };
    let tuning = Tuning { hdrrm: scale.hdrrm_options(), ..Default::default() };
    let r = 8;

    let mut results: Vec<ChurnResult> = Vec::new();
    for &n in &[10_000usize, 100_000] {
        let batches = if n >= 100_000 { batches_large } else { batches_small };
        results.push(churn(
            Algorithm::TwoDRrm,
            &tuning,
            rrm_data::synthetic::independent(n, 2, 93),
            r,
            &Budget::UNLIMITED,
            batches,
            1_000 + n as u64,
        ));
        results.push(churn(
            Algorithm::Hdrrm,
            &tuning,
            rrm_data::synthetic::independent(n, 4, 94),
            r,
            &Budget::with_samples(256),
            batches,
            2_000 + n as u64,
        ));
    }

    println!(
        "1% churn batches (n/200 deletes + n/200 inserts), parity-checked per batch; \
         update/prepare timed apart from the shared query; speedup = prep / upd, \
         e2e = (prep + q-naive) / (upd + q-inc)"
    );
    println!(
        "{:<9} {:>7} {:>2} {:>3} {:>6} {:>10} {:>10} {:>10} {:>10} {:>11} {:>11} {:>8} {:>8} \
         {:>7}",
        "algo",
        "n",
        "d",
        "B",
        "ops/B",
        "upd (s)",
        "q-inc (s)",
        "prep (s)",
        "q-naive(s)",
        "inc up/s",
        "naive up/s",
        "speedup",
        "e2e",
        "queries"
    );
    for res in &results {
        println!(
            "{:<9} {:>7} {:>2} {:>3} {:>6} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>11.0} {:>11.0} \
             {:>7.1}x {:>7.1}x {:>7}",
            res.algorithm,
            res.n,
            res.d,
            res.batches,
            res.ops_per_batch,
            res.incremental_update_seconds,
            res.incremental_query_seconds,
            res.naive_prepare_seconds,
            res.naive_query_seconds,
            res.incremental_updates_per_sec,
            res.naive_updates_per_sec,
            res.speedup,
            res.end_to_end(),
            res.concurrent_queries,
        );
    }
    let best_at_100k =
        results.iter().filter(|r| r.n == 100_000).map(|r| r.speedup).fold(0.0f64, f64::max);
    assert!(
        best_at_100k >= 10.0,
        "acceptance gate: no algorithm sustained >= 10x naive re-prepare at n = 100K \
         (best {best_at_100k:.1}x)"
    );

    // Hand-rolled JSON (no serde in the offline container).
    let mut json =
        format!("{{{},\"churn_fraction\":0.01,\"entries\":[\n", bench_meta("incremental"));
    for (i, e) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        json.push_str(&format!(
            "  {{\"algorithm\":\"{}\",\"n\":{},\"d\":{},\"batches\":{},\"ops_per_batch\":{},\
             \"incremental_update_seconds\":{:.6},\"incremental_query_seconds\":{:.6},\
             \"naive_prepare_seconds\":{:.6},\"naive_query_seconds\":{:.6},\
             \"incremental_updates_per_sec\":{:.1},\"naive_updates_per_sec\":{:.1},\
             \"speedup\":{:.2},\"concurrent_queries\":{}}}{sep}\n",
            e.algorithm,
            e.n,
            e.d,
            e.batches,
            e.ops_per_batch,
            e.incremental_update_seconds,
            e.incremental_query_seconds,
            e.naive_prepare_seconds,
            e.naive_query_seconds,
            e.incremental_updates_per_sec,
            e.naive_updates_per_sec,
            e.speedup,
            e.concurrent_queries,
        ));
    }
    json.push_str("]}\n");
    std::fs::write("BENCH_incremental.json", &json).expect("write BENCH_incremental.json");
    println!(
        "wrote BENCH_incremental.json (incremental-vs-fresh answers asserted bit-identical in-run)"
    );
}
