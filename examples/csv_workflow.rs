//! The full file-based workflow the `rrm` CLI automates, step by step:
//! write a raw product table to CSV (mixed units, a smaller-is-better
//! price column), load it, orient and normalize it, profile the rank
//! distribution of a shortlist, and answer a threshold query.
//!
//! Run with: `cargo run --release --example csv_workflow`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rank_regret::prelude::*;
use rank_regret::Tuning;
use rrm_data::csv::{parse_csv, to_csv};
use rrm_eval::profile::{coverage_ratio, rank_profile};

fn main() -> Result<(), RrmError> {
    // 1. A raw laptop catalog: battery hours (more is better), weight in
    //    kg and price in dollars (less is better). Unnormalized units on
    //    purpose — rank-regret doesn't care (Theorem 1), but orientation
    //    does.
    let mut rng = StdRng::seed_from_u64(2024);
    let mut csv = String::from("battery_h,weight_kg,price_usd\n");
    for _ in 0..2_000 {
        let quality: f64 = rng.random();
        let battery = 4.0 + 16.0 * quality + 2.0 * rng.random::<f64>();
        let weight = 2.8 - 1.6 * quality + 0.4 * rng.random::<f64>();
        let price = 400.0 + 2200.0 * quality + 300.0 * rng.random::<f64>();
        csv.push_str(&format!("{battery:.2},{weight:.3},{price:.0}\n"));
    }

    // 2. Load and prepare: negate the smaller-is-better columns, then
    //    normalize every attribute to [0, 1].
    let table = parse_csv(&csv, true)?;
    println!("loaded {} laptops with columns {:?}", table.data.n(), table.headers);
    let data = table.data.negate_attributes(&[1, 2]).normalize();

    // 3. A 8-laptop shortlist that serves every linear preference.
    let tuning = Tuning {
        hdrrm: rrm_hd::HdrrmOptions { delta: 0.1, ..Default::default() },
        ..Default::default()
    };
    let session = Engine::with_tuning(&tuning).session(data.clone());
    let sol = session.run(&Request::minimize(8))?.solution;
    println!(
        "\nshortlist of {} laptops, certified rank-regret {} (of {})",
        sol.size(),
        sol.certified_regret.unwrap(),
        data.n()
    );
    println!("{}", to_csv(&table.headers, &sol.materialize(&table.data)));

    // 4. Beyond the paper: the whole rank distribution, not just the max.
    let profile =
        rank_profile(&data, &sol.indices, &FullSpace::new(3), 20_000, &[0.5, 0.9, 0.99], 7);
    println!(
        "rank profile over 20K preference draws: median {}, p90 {}, p99 {}, worst {}",
        profile.quantile(0.5).unwrap(),
        profile.quantile(0.9).unwrap(),
        profile.quantile(0.99).unwrap(),
        profile.max
    );
    let k = sol.certified_regret.unwrap();
    let cov = coverage_ratio(&data, &sol.indices, &FullSpace::new(3), k, 20_000, 7);
    println!("fraction of users served within the certificate (Rat_k): {:.3}", cov);

    Ok(())
}
