//! Prepare once, query many: the [`Session`] API.
//!
//! ```text
//! cargo run --release --example session_reuse
//! ```
//!
//! A session binds the engine to one dataset, front-loads the per-dataset
//! work (skyline, dual arrangement, discretization grids, ...) on first
//! use, and then answers a stream of typed requests cheaply — the shape
//! of a server handling many users' queries over one catalog. Prepared
//! handles are `Send + Sync`, so the same session serves threads
//! concurrently.

use std::time::Instant;

use rank_regret::prelude::*;

fn main() -> Result<(), RrmError> {
    // A mid-sized 2D catalog; `Auto` picks the exact 2D solver.
    let data = rank_regret::rrm_data::synthetic::anticorrelated(2_000, 2, 7);

    // -------- one-shot baseline: every query re-derives everything ----
    let engine = Engine::new();
    let space = FullSpace::new(2);
    let start = Instant::now();
    for r in [2usize, 5, 10, 2, 5, 10] {
        let _ = engine.run(&data, &space, &Request::minimize(r))?;
    }
    let one_shot = start.elapsed().as_secs_f64();

    // -------- session: bind once, then the same stream ----------------
    let session = rank_regret::session(&data);
    let start = Instant::now();
    let batch: Vec<Request> =
        [2usize, 5, 10, 2, 5, 10].iter().map(|&r| Request::minimize(r)).collect();
    let responses = session.run_batch(&batch);
    let prepared = start.elapsed().as_secs_f64();
    for result in &responses {
        let resp = result.as_ref().expect("feasible request");
        println!(
            "r = {:>2} -> {} tuples, certified rank-regret {:?} ({:.4}s)",
            resp.request.param(),
            resp.solution.size(),
            resp.solution.certified_regret,
            resp.seconds,
        );
    }
    println!("one-shot stream: {one_shot:.3}s; session stream: {prepared:.3}s");

    // -------- mixed directions and algorithms against one session -----
    let rrr = session.run(&Request::represent(25))?;
    println!(
        "threshold 25 -> {} tuples (exact RRR, reusing the same sweep cache)",
        rrr.solution.size()
    );
    let baseline = session
        .run(&Request::minimize(5).algo(Algorithm::Mdrms).budget(Budget::with_samples(500)))?;
    println!("MDRMS baseline picked {:?}", baseline.solution.indices);

    // -------- concurrent queries over a shared session -----------------
    // Prepared handles are Send + Sync: scoped threads borrow the session
    // and answer read-only queries in parallel.
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..4u32 {
            let session = &session;
            scope.spawn(move || {
                let r = 2 + (t as usize % 3) * 4;
                let resp = session.run(&Request::minimize(r)).expect("feasible");
                println!(
                    "thread {t}: r = {r} -> regret {:?} in {:.4}s",
                    resp.solution.certified_regret, resp.seconds
                );
            });
        }
    });
    println!("4 concurrent queries finished in {:.4}s total", t0.elapsed().as_secs_f64());
    Ok(())
}
