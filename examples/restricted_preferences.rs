//! RRRM: when something is known about user preferences, restricting the
//! utility space yields representatives with strictly better guarantees
//! (Section I: "The solution for RRRM usually has a lower regret level and
//! can better serve the specific preferences of some users").
//!
//! Three restriction styles from the literature the paper cites:
//! * weak rankings  — "attribute 1 matters at least as much as 2, 2 ≥ 3";
//! * weight boxes   — a mined weight vector expanded by a tolerance;
//! * spherical caps — directions within an angle of an estimate.
//!
//! Run with: `cargo run --release --example restricted_preferences`

use rank_regret::prelude::*;
use rrm_data::synthetic::anticorrelated;
use rrm_eval::estimate_rank_regret;

fn main() -> Result<(), RrmError> {
    let data = anticorrelated(5_000, 4, 7);
    let r = 10;
    println!("dataset: {} tuples x {} attrs; budget r = {r}\n", data.n(), data.dim());
    // One session over the full space; each restricted query names its
    // space on the request (RRM becomes RRRM). HDRRM samples 2,000
    // directions per query.
    let session = rank_regret::session(&data);
    let minimize = || Request::minimize(r).samples(2_000);

    // Full space L (plain RRM).
    let full = session.run(&minimize())?.solution;
    report("full space L", &data, &full, &FullSpace::new(4));

    // Weak ranking: u1 >= u2 >= u3 (the paper's RRRM experiment, c = 2).
    let weak = WeakRankingSpace::new(4, 2);
    let sol = session.run(&minimize().within(weak))?.solution;
    report("weak ranking (c=2)", &data, &sol, &weak);

    // Weight box around a mined estimate w = (0.4, 0.3, 0.2, 0.1) +/- 0.1.
    let boxed = BoxSpace::around(&[0.4, 0.3, 0.2, 0.1], 0.1);
    let sol = session.run(&minimize().within(boxed.clone()))?.solution;
    report("weight box +/-0.1", &data, &sol, &boxed);

    // Spherical cap of 15 degrees around the same estimate.
    let cap = SphereCap::new(&[0.4, 0.3, 0.2, 0.1], 15f64.to_radians());
    let sol = session.run(&minimize().within(cap.clone()))?.solution;
    report("15-degree cap", &data, &sol, &cap);

    println!(
        "\nTighter spaces -> smaller worst-case ranks: the representative\n\
         set specializes to the preferences that are actually possible."
    );
    Ok(())
}

fn report(label: &str, data: &Dataset, sol: &Solution, space: &dyn UtilitySpace) {
    // Estimate the regret over the *restricted* space (what its users see).
    let est = estimate_rank_regret(data, &sol.indices, space, 20_000, 99);
    println!(
        "{label:<20} certified(D) = {:>4}   estimated over space = {:>4}   size = {}",
        sol.certified_regret.unwrap_or(0),
        est.max_rank,
        sol.size()
    );
}
