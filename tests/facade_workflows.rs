//! End-to-end facade workflows: every space type through both query kinds,
//! plus the error paths a downstream user can hit.

use rank_regret::prelude::*;
use rank_regret::Tuning;
use rrm_data::synthetic::{anticorrelated, independent};
use rrm_eval::estimate_rank_regret;
use rrm_hd::HdrrmOptions;

fn quick_hd() -> HdrrmOptions {
    HdrrmOptions { m_override: Some(600), ..Default::default() }
}

/// A session whose HDRRM uses [`quick_hd`].
fn quick(data: &Dataset) -> Session {
    Engine::with_tuning(&Tuning { hdrrm: quick_hd(), ..Default::default() }).session(data.clone())
}

/// One request through a one-off session with the default engine.
fn solve(data: &Dataset, request: &Request) -> Result<Solution, RrmError> {
    rank_regret::session(data).run(request).map(|response| response.solution)
}

#[test]
fn minimize_with_every_space_type() {
    let data = anticorrelated(800, 4, 90);
    let r = 10;
    let spaces: Vec<(&str, Box<dyn UtilitySpace>)> = vec![
        ("full", Box::new(FullSpace::new(4))),
        ("weak", Box::new(WeakRankingSpace::new(4, 2))),
        ("cone", Box::new(ConeSpace::new(4, vec![vec![1.0, 0.0, 0.0, -1.0]]))),
        ("box", Box::new(BoxSpace::around(&[0.4, 0.3, 0.2, 0.1], 0.15))),
        ("cap", Box::new(SphereCap::new(&[1.0, 1.0, 1.0, 1.0], 0.4))),
        ("biased", Box::new(BiasedOrthantSpace::new(&[0.5, 0.3, 0.1, 0.1], 4.0))),
    ];
    for (name, space) in spaces {
        let session = quick(&data).boxed_space(space.clone_box());
        let sol = session
            .run(&Request::minimize(r))
            .map(|response| response.solution)
            .unwrap_or_else(|e| panic!("space {name}: {e}"));
        assert!(sol.size() <= r, "space {name}");
        assert!(sol.certified_regret.is_some(), "space {name}");
        // Sanity: regret over the space is meaningful.
        let est = estimate_rank_regret(&data, &sol.indices, space.as_ref(), 3_000, 91);
        assert!(est.max_rank >= 1 && est.max_rank <= data.n(), "space {name}");
    }
}

#[test]
fn represent_hd_path() {
    let data = independent(600, 3, 92);
    let sol = quick(&data).run(&Request::represent(5)).unwrap().solution;
    assert_eq!(sol.certified_regret, Some(5));
    // Verify over fresh samples with slack (certificate is over D).
    let est = estimate_rank_regret(&data, &sol.indices, &FullSpace::new(3), 10_000, 93);
    assert!(est.max_rank <= 25, "measured {} far above threshold 5", est.max_rank);
}

#[test]
fn solver_choice_is_respected() {
    let data = independent(200, 2, 94);
    let session = quick(&data);
    let exact = session.run(&Request::minimize(4).algo(Algorithm::TwoDRrm)).unwrap().solution;
    assert_eq!(exact.algorithm, Algorithm::TwoDRrm);
    let hd = session.run(&Request::minimize(4).algo(Algorithm::Hdrrm)).unwrap().solution;
    assert_eq!(hd.algorithm, Algorithm::Hdrrm);
    // HDRRM's certified regret can never beat the exact optimum.
    assert!(hd.certified_regret.unwrap() >= exact.certified_regret.unwrap());
}

#[test]
fn error_paths_are_reported() {
    let data = independent(50, 3, 95);
    // Exact solver demanded on 3D data.
    assert!(matches!(
        solve(&data, &Request::minimize(3).algo(Algorithm::TwoDRrm)),
        Err(RrmError::Unsupported(_))
    ));
    // Budget below the basis size.
    assert!(matches!(
        quick(&data).run(&Request::minimize(1)),
        Err(RrmError::OutputSizeTooSmall { .. })
    ));
    // Mismatched space dimension.
    assert!(matches!(
        solve(&data, &Request::minimize(5).within(FullSpace::new(4))),
        Err(RrmError::DimensionMismatch { .. })
    ));
    // Zero threshold for RRR.
    assert!(solve(&data, &Request::represent(0)).is_err());
}

#[test]
fn shift_invariance_through_the_facade() {
    // Theorem 1 at the API level, both solver families.
    let data = independent(300, 2, 96);
    let shifted = data.shift(&[5.0, -2.0]);
    let a = solve(&data, &Request::minimize(3)).unwrap();
    let b = solve(&shifted, &Request::minimize(3)).unwrap();
    assert_eq!(a.indices, b.indices);
    assert_eq!(a.certified_regret, b.certified_regret);

    let data3 = independent(300, 3, 97);
    let shifted3 = data3.shift(&[1.0, 2.0, 3.0]);
    let a = quick(&data3).run(&Request::minimize(8)).unwrap().solution;
    let b = quick(&shifted3).run(&Request::minimize(8)).unwrap().solution;
    // HDRRM samples directions independently of the data, and ranks are
    // shift invariant, so the whole pipeline is deterministic under shift.
    assert_eq!(a.indices, b.indices);
    assert_eq!(a.certified_regret, b.certified_regret);
}
