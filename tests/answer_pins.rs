//! Answer pins for MDRC, MDRMS and brute force: `minimize` and
//! `represent` through `Engine::run` on fixed inputs, each answer's
//! indices, certificate, bounds and termination written out in full. Any
//! change to these solvers' constants, candidate screens or work splits
//! that moves an answer fails here.

use rank_regret::prelude::*;
use rank_regret::rrm_data::synthetic::{anticorrelated, independent};
use rank_regret::{Bounds, TerminatedBy};

/// One pinned answer: a label, the request, then the answer's indices,
/// certificate, bounds and termination.
type Pin<'a> = (&'a str, Request, &'a [u32], Option<usize>, Option<Bounds>, TerminatedBy);

/// Run every pinned request over `data` in the full space.
fn check(data: &Dataset, pins: &[Pin]) {
    let engine = Engine::new();
    let space = FullSpace::new(data.dim());
    for (label, request, indices, regret, bounds, terminated) in pins {
        let sol = engine.run(data, &space, request).unwrap_or_else(|e| panic!("{label}: {e}"));
        assert_eq!(
            (sol.indices.as_slice(), sol.certified_regret, sol.bounds, sol.terminated_by),
            (*indices, *regret, *bounds, *terminated),
            "{label}"
        );
    }
}

const DONE: TerminatedBy = TerminatedBy::Completed;

#[test]
fn mdrc_answers_are_pinned() {
    let mdrc = |r: Request| r.algo(Algorithm::Mdrc);
    let cut = Budget { max_enumerations: Some(5), ..Budget::UNLIMITED };
    check(
        &independent(400, 3, 75),
        &[
            ("r=1", mdrc(Request::minimize(1)), &[164], None, None, DONE),
            ("r=4", mdrc(Request::minimize(4)), &[7, 167, 334], None, None, DONE),
            ("r=8", mdrc(Request::minimize(8)), &[16, 167, 334], None, None, DONE),
            ("k=20", mdrc(Request::represent(20).samples(128)), &[167, 334], None, None, DONE),
            (
                "r=8 cut",
                mdrc(Request::minimize(8).budget(cut)),
                &[7, 167, 334],
                None,
                None,
                TerminatedBy::Counter,
            ),
        ],
    );
    check(
        &anticorrelated(300, 4, 21),
        &[
            ("r=6", mdrc(Request::minimize(6)), &[17, 173, 190, 193, 272], None, None, DONE),
            (
                "k=40",
                mdrc(Request::represent(40).samples(128)),
                &[17, 46, 55, 173, 190, 193, 250],
                None,
                None,
                DONE,
            ),
        ],
    );
}

#[test]
fn mdrms_answers_are_pinned() {
    let mdrms = |r: Request| r.algo(Algorithm::Mdrms);
    check(
        &independent(500, 3, 81),
        &[
            ("r=1", mdrms(Request::minimize(1)), &[154], None, None, DONE),
            ("r=3", mdrms(Request::minimize(3)), &[23, 32, 154], None, None, DONE),
            ("r=6", mdrms(Request::minimize(6)), &[23, 32, 48, 114, 154, 394], None, None, DONE),
            (
                "k=10",
                mdrms(Request::represent(10).samples(128)),
                &[32, 48, 154, 394],
                None,
                None,
                DONE,
            ),
        ],
    );
    check(
        &anticorrelated(600, 4, 22),
        &[
            (
                "r=8 m=300",
                mdrms(Request::minimize(8).samples(300)),
                &[10, 15, 28, 51, 95, 108, 208, 224],
                None,
                None,
                DONE,
            ),
            (
                "k=30 m=300",
                mdrms(Request::represent(30).samples(300)),
                &[0, 10, 15, 28, 45, 51, 53, 57, 95, 98, 106, 108, 138, 208, 224],
                None,
                None,
                DONE,
            ),
        ],
    );
}

#[test]
fn brute_force_answers_are_pinned() {
    let brute = |r: Request| r.algo(Algorithm::BruteForce);
    check(
        &independent(14, 3, 5),
        &[
            ("r=1", brute(Request::minimize(1)), &[5], Some(6), None, DONE),
            ("r=2", brute(Request::minimize(2)), &[3, 5], Some(2), None, DONE),
            ("r=3", brute(Request::minimize(3)), &[0, 3, 5], Some(2), None, DONE),
            ("k=2", brute(Request::represent(2)), &[3, 5], Some(2), None, DONE),
            ("r=2 m=200", brute(Request::minimize(2).samples(200)), &[3, 5], Some(2), None, DONE),
        ],
    );
    check(
        &anticorrelated(12, 4, 6),
        &[
            ("r=2", brute(Request::minimize(2)), &[6, 10], Some(6), None, DONE),
            ("k=3", brute(Request::represent(3)), &[1, 3, 6, 8, 11], Some(3), None, DONE),
        ],
    );
}
