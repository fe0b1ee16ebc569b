//! Planning with the size/regret trade-off curve.
//!
//! A product team wants to know: how many items must the landing page
//! show so every visitor sees something in their personal top-k? The
//! Pareto frontier from one family of exact 2D runs answers every such
//! question at once; the RRR solver answers a single threshold directly.
//!
//! Run with: `cargo run --release --example threshold_planning`

use rank_regret::prelude::*;
use rrm_2d::pareto_frontier;
use rrm_data::real_sim::island_sim;

fn main() -> Result<(), RrmError> {
    // Island-like geographic data (simulated stand-in; see DESIGN.md).
    let data = island_sim(10_000, 3);
    println!("dataset: {} tuples (island-like, 2D)\n", data.n());

    let frontier = pareto_frontier(&data, 12, &FullSpace::new(2), ExecPolicy::default())?;
    println!("{:>5} {:>18}", "size", "best worst-rank");
    for p in &frontier {
        println!("{:>5} {:>18}", p.r, p.regret);
    }

    // Direct threshold queries (exact RRR), on one prepared session.
    let session = Session::new(data);
    for k in [1usize, 5, 20] {
        let sol = session.run(&Request::represent(k))?.solution;
        println!("\nguarantee top-{k} for everyone -> {} tuples: {:?}", sol.size(), sol.indices);
        // Consistency with the frontier: the minimal size whose frontier
        // regret meets the threshold.
        if let Some(p) = frontier.iter().find(|p| p.regret <= k) {
            assert!(sol.size() <= p.r, "RRR must not exceed the frontier answer");
        }
    }
    Ok(())
}
