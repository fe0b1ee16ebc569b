//! Registry parity: every solver registered in the [`Engine`] runs on the
//! paper's Table I dataset through the single dispatch path (a fresh
//! prepared handle per `Engine::run`), and the capability matrix
//! (Table III, on `Algorithm`) is enforced — guarantees are real
//! certificates, restricted spaces either work or fail gracefully.

use rank_regret::prelude::*;

fn table1() -> Dataset {
    Dataset::from_rows(&[
        [0.0, 1.0],
        [0.4, 0.95],
        [0.57, 0.75],
        [0.79, 0.6],
        [0.2, 0.5],
        [0.35, 0.3],
        [1.0, 0.0],
    ])
    .unwrap()
}

/// Sampled direction budget: plenty for n = 7, keeps MDRRRr/MDRMS fast.
fn budget() -> Budget {
    Budget::with_samples(2_000)
}

#[test]
fn every_registered_solver_returns_a_valid_set() {
    let engine = Engine::new();
    let data = table1();
    let r = 3;
    assert_eq!(engine.registry().count(), Algorithm::ALL.len());
    for solver in engine.registry() {
        let algo = solver.algorithm();
        let sol = engine
            .run(&data, &FullSpace::new(2), &Request::minimize(r).algo(algo).budget(budget()))
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        assert_eq!(sol.algorithm, algo, "{algo} mislabeled its solution");
        assert!(sol.size() >= 1 && sol.size() <= r, "{algo}: size {}", sol.size());
        assert!(
            sol.indices.iter().all(|&i| (i as usize) < data.n()),
            "{algo}: out-of-range index in {:?}",
            sol.indices
        );
        // Sorted + deduplicated is part of the Solution contract.
        assert!(sol.indices.windows(2).all(|w| w[0] < w[1]), "{algo}: {:?}", sol.indices);
    }
}

#[test]
fn certified_solvers_never_beat_the_brute_force_optimum() {
    let engine = Engine::new();
    let data = table1();
    let r = 2;
    // Ground truth: the exact optimum over all r-subsets (brute force with
    // a dense direction sample equals the 2D exact DP on this dataset).
    let optimum = engine
        .run(
            &data,
            &FullSpace::new(2),
            &Request::minimize(r).algo(Algorithm::BruteForce).budget(budget()),
        )
        .unwrap()
        .certified_regret
        .unwrap();
    let exact = engine
        .run(
            &data,
            &FullSpace::new(2),
            &Request::minimize(r).algo(Algorithm::TwoDRrm).budget(budget()),
        )
        .unwrap()
        .certified_regret
        .unwrap();
    assert_eq!(optimum, exact, "brute force disagrees with the exact 2D DP");

    for solver in engine.registry() {
        let algo = solver.algorithm();
        let sol = engine
            .run(&data, &FullSpace::new(2), &Request::minimize(r).algo(algo).budget(budget()))
            .unwrap_or_else(|e| panic!("{algo}: {e}"));
        if algo.has_regret_guarantee() {
            let certified = sol
                .certified_regret
                .unwrap_or_else(|| panic!("{algo} claims a guarantee but gave no certificate"));
            assert!(
                certified >= optimum,
                "{algo} certified {certified}, below the optimum {optimum}"
            );
        }
    }
}

#[test]
fn restricted_space_capability_is_enforced_not_panicked() {
    let engine = Engine::new();
    let data = table1();
    for solver in engine.registry() {
        let algo = solver.algorithm();
        let result = engine.run(
            &data,
            &WeakRankingSpace::new(2, 1),
            &Request::minimize(3).algo(algo).budget(budget()),
        );
        if algo.supports_restricted_space() {
            let sol = result.unwrap_or_else(|e| panic!("{algo} should accept RRRM: {e}"));
            assert!(sol.size() <= 3, "{algo}");
        } else {
            assert!(
                matches!(result, Err(RrmError::Unsupported(_))),
                "{algo} should reject RRRM with Unsupported, got {result:?}"
            );
        }
    }
}

#[test]
fn every_algorithm_answers_the_represent_direction() {
    let engine = Engine::new();
    let data = table1();
    for solver in engine.registry() {
        let algo = solver.algorithm();
        let sol = engine
            .run(&data, &FullSpace::new(2), &Request::represent(3).algo(algo).budget(budget()))
            .unwrap_or_else(|e| panic!("{algo} represent: {e}"));
        assert_eq!(sol.algorithm, algo);
        assert!(sol.size() >= 1 && sol.size() <= data.n(), "{algo}");
        // Guaranteed solvers certify a regret within the threshold.
        if algo.has_regret_guarantee() {
            assert!(sol.certified_regret.unwrap() <= 3, "{algo}: {:?}", sol.certified_regret);
        }
    }
}

#[test]
fn every_prepare_enforces_the_capability_matrix() {
    // Capabilities live on `Algorithm` alone: each solver's `prepare` must
    // reject exactly what `Algorithm::ensure_supported` rejects, with the
    // same error, and hand back a handle for everything else.
    let engine = Engine::new();
    let d2 = table1();
    let d3 =
        Dataset::from_rows(&[[0.1, 0.9, 0.5], [0.9, 0.1, 0.5], [0.5, 0.5, 0.9], [0.4, 0.6, 0.3]])
            .unwrap();
    let cases: [(&Dataset, Box<dyn UtilitySpace>); 5] = [
        (&d2, Box::new(FullSpace::new(2))),
        (&d2, Box::new(WeakRankingSpace::new(2, 1))),
        (&d2, Box::new(FullSpace::new(3))),
        (&d3, Box::new(FullSpace::new(3))),
        (&d3, Box::new(WeakRankingSpace::new(3, 1))),
    ];
    for solver in engine.registry() {
        let algo = solver.algorithm();
        for (data, space) in &cases {
            let want = algo.ensure_supported(data, space.as_ref());
            let got = solver
                .prepare(data, space.as_ref(), ExecPolicy::default())
                .map(|prepared| prepared.algorithm());
            let case = format!("{algo} on d = {}, space d = {}", data.dim(), space.dim());
            match (want, got) {
                (Ok(()), Ok(prepared)) => assert_eq!(prepared, algo, "{case}"),
                (Err(want), Err(err)) => assert_eq!(err, want, "{case}"),
                (want, got) => panic!("{case}: ensure_supported {want:?}, prepare {got:?}"),
            }
        }
    }
}
