//! Sequential ↔ parallel parity: the execution policy is a pure speed
//! knob. For every registered algorithm, running under 1, 2 and 7 worker
//! threads must produce **bit-identical** solutions (and identical typed
//! errors) — the determinism contract of the `rrm_par` runtime: fixed
//! chunk boundaries plus ordered merges, never racy reductions.
//!
//! A property test additionally pins the runtime primitive itself:
//! `par_map_reduce` equals the sequential left fold for arbitrary inputs,
//! chunk sizes and thread counts.

use proptest::prelude::*;
use rank_regret::prelude::*;
use rank_regret::rrm_data::synthetic::independent;

/// Budget shared by every path (same rationale as tests/session_parity.rs:
/// keep the randomized solvers fast and MDRRR's LP enumeration bounded;
/// every compared path sees identical caps).
fn budget() -> Budget {
    Budget {
        samples: Some(500),
        max_enumerations: Some(500),
        max_lp_calls: Some(150),
        ..Budget::UNLIMITED
    }
}

/// One session per thread policy over the same data; queries must agree.
fn assert_parity(
    data: &Dataset,
    algos: &[Algorithm],
    requests: impl Fn(Algorithm) -> Vec<Request>,
) {
    let sequential = Session::new(data.clone()).exec(ExecPolicy::sequential());
    let two = Session::new(data.clone()).exec(ExecPolicy::threads(2));
    let seven = Session::new(data.clone()).exec(ExecPolicy::threads(7));
    for &algo in algos {
        for request in requests(algo) {
            let baseline = sequential.run(&request).map(|resp| resp.solution);
            for (threads, session) in [(2usize, &two), (7, &seven)] {
                let got = session.run(&request).map(|resp| resp.solution);
                assert_eq!(got, baseline, "{algo}, {threads} threads, {request:?}");
            }
        }
    }
}

#[test]
fn every_algorithm_is_bit_identical_at_1_2_and_7_threads() {
    // d = 2 is the one dimensionality every algorithm supports (brute
    // force caps n at 20), so this covers the full registry.
    let data = independent(16, 2, 11);
    assert_parity(&data, &Algorithm::ALL, |algo| {
        vec![
            Request::minimize(2).algo(algo).budget(budget()),
            Request::minimize(4).algo(algo).budget(budget()),
            Request::represent(2).algo(algo).budget(budget()),
        ]
    });
}

#[test]
fn hd_algorithms_are_bit_identical_in_higher_dimensions() {
    let data = independent(60, 3, 12);
    assert_parity(
        &data,
        &[Algorithm::Hdrrm, Algorithm::MdrrrR, Algorithm::Mdrc, Algorithm::Mdrms],
        |algo| {
            vec![
                Request::minimize(5).algo(algo).budget(budget()),
                Request::represent(4).algo(algo).budget(budget()),
            ]
        },
    );
    // MDRRR separately on a tiny instance (LP cost per feasibility check).
    let data = independent(13, 3, 12);
    assert_parity(&data, &[Algorithm::Mdrrr], |algo| {
        vec![
            Request::minimize(4).algo(algo).budget(budget()),
            Request::represent(3).algo(algo).budget(budget()),
        ]
    });
}

#[test]
fn one_shot_engine_runs_are_bit_identical_across_thread_counts() {
    // The fresh-handle path (Engine::run, one prepare per call) — not
    // just sessions.
    let data = independent(120, 2, 13);
    let space = FullSpace::new(2);
    let sequential = Engine::new().with_exec(ExecPolicy::sequential());
    for request in [
        Request::minimize(3),
        Request::minimize(6).algo(Algorithm::TwoDRrr),
        Request::represent(4).budget(budget()),
        Request::minimize(5).algo(Algorithm::Mdrms).budget(budget()),
    ] {
        let baseline = sequential.run(&data, &space, &request).unwrap();
        for threads in [2usize, 7] {
            let engine = Engine::new().with_exec(ExecPolicy::threads(threads));
            assert_eq!(
                engine.run(&data, &space, &request).unwrap(),
                baseline,
                "{threads} threads, {request:?}"
            );
        }
    }
}

#[test]
fn capability_errors_are_identical_across_thread_counts() {
    // A 2D-only solver on 3D data must fail with the same typed error at
    // any parallelism (failures are part of the parity contract).
    let data = independent(10, 3, 14);
    for threads in [1usize, 2, 7] {
        let session = Session::new(data.clone()).exec(ExecPolicy::threads(threads));
        let err = session.run(&Request::minimize(1).algo(Algorithm::TwoDRrm)).unwrap_err();
        assert!(matches!(err, RrmError::Unsupported(_)), "{threads} threads: {err}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `par_map_reduce` equals the sequential left fold for arbitrary
    /// items, chunk sizes and thread counts — including non-associative
    /// folds (saturating-sub chains are order sensitive).
    #[test]
    fn par_map_reduce_equals_sequential_fold(
        items in proptest::collection::vec(0u64..1000, 0..200),
        chunk_size in 1usize..40,
        threads in 1usize..9,
    ) {
        let expected = items
            .chunks(chunk_size)
            .map(|c| c.iter().copied().fold(0u64, |a, b| a.wrapping_mul(31) ^ b))
            .reduce(|a, b| a.saturating_sub(b).rotate_left(7) ^ b);
        let got = rrm_par::par_map_reduce(
            &items,
            chunk_size,
            Parallelism::fixed(threads),
            |_, c| c.iter().copied().fold(0u64, |a, b| a.wrapping_mul(31) ^ b),
            |a, b| a.saturating_sub(b).rotate_left(7) ^ b,
        );
        prop_assert_eq!(got, expected);
    }

    /// Floating-point sums — the classic non-associative reduction — are
    /// bit-identical at any thread count under a fixed chunk size.
    #[test]
    fn float_sums_are_bit_identical(
        items in proptest::collection::vec(-1.0e6f64..1.0e6, 1..300),
        chunk_size in 1usize..50,
    ) {
        let reference = rrm_par::par_map_reduce(
            &items,
            chunk_size,
            Parallelism::Sequential,
            |_, c| c.iter().sum::<f64>(),
            |a, b| a + b,
        ).unwrap();
        for threads in [2usize, 3, 8] {
            let got = rrm_par::par_map_reduce(
                &items,
                chunk_size,
                Parallelism::fixed(threads),
                |_, c| c.iter().sum::<f64>(),
                |a, b| a + b,
            ).unwrap();
            prop_assert_eq!(got.to_bits(), reference.to_bits());
        }
    }
}
