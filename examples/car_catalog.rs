//! The paper's motivating scenario: Alice browses a large car database
//! with a horsepower/fuel-economy trade-off and wants a shortlist that is
//! good for *whatever* her exact weighting turns out to be.
//!
//! We generate an anti-correlated catalog (power costs economy), produce
//! shortlists of several sizes, and report the worst-case rank each
//! shortlist guarantees — both absolutely and as the paper's suggested
//! percentage of the catalog size.
//!
//! Run with: `cargo run --release --example car_catalog`

use rank_regret::prelude::*;
use rrm_data::synthetic::anticorrelated;
use rrm_eval::exact_rank_regret_2d;

fn main() -> Result<(), RrmError> {
    // 20 000 cars, 2 attributes: [0] = HP, [1] = MPG (normalized).
    let catalog = anticorrelated(20_000, 2, 42);
    println!("catalog: {} cars (HP vs MPG, anti-correlated)\n", catalog.n());

    println!("{:>9} {:>12} {:>14} {:>10}", "shortlist", "worst rank", "rank percent", "members");
    let session = rank_regret::session(&catalog);
    for r in [1usize, 2, 3, 5, 8, 12] {
        let sol = session.run(&Request::minimize(r))?.solution;
        let k = sol.certified_regret.unwrap();
        println!(
            "{:>9} {:>12} {:>13.3}% {:>10}",
            r,
            k,
            100.0 * k as f64 / catalog.n() as f64,
            sol.size(),
        );
    }

    // Show what the winning 5-car shortlist looks like and verify its
    // guarantee independently with the exact 2D evaluator.
    let sol = session.run(&Request::minimize(5))?.solution;
    let (exact, witness) = exact_rank_regret_2d(&catalog, &sol.indices, 0.0, 1.0);
    println!("\n5-car shortlist (HP, MPG):");
    for &i in &sol.indices {
        let row = catalog.row(i as usize);
        println!("  car #{:>5}: HP {:.3}, MPG {:.3}", i, row[0], row[1]);
    }
    println!(
        "exact worst-case rank: {exact} (attained near weight {witness:.3} on HP), \
         solver certified {}",
        sol.certified_regret.unwrap()
    );
    assert_eq!(exact, sol.certified_regret.unwrap(), "2DRRM's certificate is exact");

    Ok(())
}
