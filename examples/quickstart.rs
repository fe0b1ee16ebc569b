//! Quickstart: pick a tiny representative set from a dataset so that any
//! user with a linear preference finds a near-top tuple in it.
//!
//! Run with: `cargo run --release --example quickstart`

use rank_regret::prelude::*;

fn main() -> Result<(), RrmError> {
    // The paper's running example (Table I): seven products scored on two
    // criteria, both in [0, 1], larger preferred.
    let data = Dataset::from_rows(&[
        [0.00, 1.00], // t1
        [0.40, 0.95], // t2
        [0.57, 0.75], // t3
        [0.79, 0.60], // t4
        [0.20, 0.50], // t5
        [0.35, 0.30], // t6
        [1.00, 0.00], // t7
    ])?;

    println!("dataset: {} tuples x {} attributes\n", data.n(), data.dim());

    // Bind a session once; every query below reuses its prepared state.
    let session = Session::new(data.clone());

    // RRM: the single best representative for *any* linear preference.
    let sol = session.run(&Request::minimize(1))?.solution;
    println!(
        "best 1-tuple representative: t{} (worst-case rank {} of {})",
        sol.indices[0] + 1,
        sol.certified_regret.unwrap(),
        data.n()
    );

    // Spend a bigger budget and the guarantee tightens.
    for r in 2..=4 {
        let sol = session.run(&Request::minimize(r))?.solution;
        let members: Vec<String> = sol.indices.iter().map(|i| format!("t{}", i + 1)).collect();
        println!(
            "best {r}-tuple representative: {{{}}} (worst-case rank {})",
            members.join(", "),
            sol.certified_regret.unwrap()
        );
    }

    // RRR, the dual question: how few tuples guarantee everyone a top-2
    // tuple?
    let sol = session.run(&Request::represent(2))?.solution;
    println!(
        "\nsmallest set with rank-regret <= 2: {} tuples {:?}",
        sol.size(),
        sol.indices.iter().map(|i| i + 1).collect::<Vec<_>>()
    );

    Ok(())
}
