//! # rank-regret
//!
//! Rank-regret minimizing representatives for multi-criteria
//! decision-making — a Rust implementation of *Rank-Regret Minimization*
//! (Xiao & Li, ICDE 2022), including the paper's exact 2D algorithm
//! (**2DRRM**), its high-dimensional discretize-and-cover algorithm
//! (**HDRRM**), the restricted-space problem variant (**RRRM**), the dual
//! threshold problem (**RRR**), and the baselines it is evaluated against
//! (2DRRR, MDRRR, MDRRRr, MDRC, MDRMS) — all behind one [`Solver`] trait,
//! one [`Request`] type and one [`Engine`] dispatch path.
//!
//! ## The problem
//!
//! Pick `r` tuples from a dataset so that, whatever linear utility
//! function a user has, one of the chosen tuples ranks among the top-`k`
//! of the whole dataset — with `k` (the *rank-regret*) as small as
//! possible. Unlike regret-*ratio* methods (RMS), rank-regret is
//! scale-free and *shift invariant*: translating any attribute leaves the
//! answer unchanged (Theorem 1 of the paper).
//!
//! ## Quickstart: prepare once, query many
//!
//! The recommended way to use this library is a [`Session`]: bind the
//! engine to a dataset once, then answer as many typed [`Request`]s as
//! you like. All per-dataset work — skyline/Pareto filtering, dual
//! arrangements, discretization grids, k-set state — happens at first use
//! and is reused by every later query, so a query stream (the paper's
//! serving workload: one catalog, many users, varying `r`/`k`) runs
//! orders of magnitude faster than re-solving from scratch.
//!
//! ```
//! use rank_regret::prelude::*;
//!
//! // A small car catalog: (miles-per-gallon, horsepower), both scaled.
//! let cars = Dataset::from_rows(&[
//!     [0.0, 1.0], [0.4, 0.95], [0.57, 0.75], [0.79, 0.6],
//!     [0.2, 0.5], [0.35, 0.3], [1.0, 0.0],
//! ]).unwrap();
//!
//! // Bind once. `Auto` picks the exact 2D solver here (d = 2).
//! let session = Session::new(cars);
//!
//! // The best single representative for *any* linear preference.
//! let resp = session.run(&Request::minimize(1)).unwrap();
//! assert_eq!(resp.solution.indices, vec![2]);          // t3 of Table I
//! assert_eq!(resp.solution.certified_regret, Some(3)); // exact rank-regret
//!
//! // More queries against the same prepared state: different sizes, the
//! // dual threshold problem, other algorithms — all cheap now.
//! let batch = [
//!     Request::minimize(2),
//!     Request::represent(2),
//!     Request::minimize(1).algo(Algorithm::BruteForce).budget(Budget::with_samples(2_000)),
//! ];
//! for result in session.run_batch(&batch) {
//!     let resp = result.unwrap();
//!     assert!(resp.solution.size() >= 1);
//! }
//!
//! // Requests are impossible to mis-pair: `minimize` takes the size `r`,
//! // `represent` takes the threshold `k`, bound at construction.
//! assert_eq!(Request::represent(2).param(), 2);
//! ```
//!
//! Prepared handles are `Send + Sync` — share a session across threads
//! and run read-only queries concurrently (see
//! `examples/session_reuse.rs`).
//!
//! ## One-off queries
//!
//! A single ad-hoc query is a [`Session`] used once — the same prepare
//! and query steps, just not kept. Restricted utility spaces (RRRM) ride
//! the request ([`Request::within`]) or the whole session
//! ([`Session::space`]):
//!
//! ```
//! use rank_regret::prelude::*;
//!
//! let cars = Dataset::from_rows(&[
//!     [0.0, 1.0], [0.4, 0.95], [0.57, 0.75], [0.79, 0.6],
//!     [0.2, 0.5], [0.35, 0.3], [1.0, 0.0],
//! ]).unwrap();
//!
//! let session = rank_regret::session(&cars);
//! let sol = session.run(&Request::minimize(1)).unwrap().solution;
//! assert_eq!(sol.indices, vec![2]);
//!
//! // A user who cares about MPG at least as much as HP (RRRM):
//! let weak = Request::minimize(1).within(WeakRankingSpace::new(2, 1));
//! let sol = session.run(&weak).unwrap().solution;
//! assert!(sol.certified_regret.unwrap() <= 3);
//!
//! // Capability mismatches fail gracefully: MDRRR has no RRRM mode
//! // (Table III), so a restricted space is a typed error, not a panic.
//! let err = session.run(&weak.algo(Algorithm::Mdrrr)).unwrap_err();
//! assert!(matches!(err, RrmError::Unsupported(_)));
//! ```
//!
//! ## Approximate solving
//!
//! [`Request::approx`] selects the sampled-ε tier: instead of certifying
//! the answer over *every* direction, the solver certifies it over a
//! Hoeffding-sized direction sample and says so in the result — the
//! reported regret is exceeded on at most an `eps`-fraction of the
//! utility space with probability at least `1 - delta`
//! ([`TerminatedBy::Sampled`] carries the statement). That is a
//! *fidelity* change, not an early stop: the answer is complete under a
//! weaker, stated guarantee, and it is bit-identical at any thread
//! count. `repro approx` measures the trade on the scenario matrix
//! (≥ 5x end-to-end over exact at the paper's scales, coverage asserted
//! in-run).
//!
//! ```
//! use rank_regret::prelude::*;
//! use rank_regret::TerminatedBy;
//!
//! let data = rank_regret::rrm_data::synthetic::independent(400, 4, 7);
//! let session = Session::new(data);
//! let resp = session.run(&Request::minimize(5).approx(0.1, 0.05)).unwrap();
//! match resp.solution.terminated_by {
//!     TerminatedBy::Sampled { eps, delta, directions } => {
//!         assert_eq!((eps, delta), (0.1, 0.05));
//!         assert!(directions >= 150); // ceil(ln(2/δ)/(2ε²))
//!     }
//!     _ => unreachable!("approx answers state their confidence"),
//! }
//! ```
//!
//! The same dimension flows end to end: over the serve wire protocol
//! (`"approx": {"eps": 0.05, "delta": 0.05}` in a request; responses state
//! the answer's `"fidelity"`, [`Solution::fidelity`], and a `"confidence"`
//! block) and on the CLI (`rrm --approx 0.05,0.05 ...`, whose JSON report
//! states them the same way).
//!
//! ## One request type, one solve path
//!
//! [`Request`] is the only query type:
//! `Request::minimize(r).algo(...).budget(...).within(...).approx(...)`.
//! Engine, Session, the serve protocol and the CLI all construct it, and
//! [`Request::resolved_algorithm`] is the one place the `Auto` policy
//! lives. Its [`Budget`] holds the frame (`samples`, `approx`) and one
//! stop rule for the anytime solvers: `time_limit`, `gap`,
//! `max_enumerations` and `max_lp_calls` all apply when set, and the
//! first one reached stops the solve. Every algorithm has one
//! implementation, its [`PreparedSolver`]: a query is always resolve →
//! [`Solver::prepare`] → query, and a [`Session`] only differs in keeping
//! the handle.
//!
//! ## The engine layer
//!
//! [`Engine`] holds one [`Solver`] per [`Algorithm`] variant (indexed by
//! discriminant — lookups are O(1)). Iterate them, query capabilities
//! (Table III lives on [`Algorithm`]), answer a typed request with a fresh
//! handle, or prepare handles yourself:
//!
//! ```
//! use rank_regret::prelude::*;
//!
//! let engine = Engine::new();
//! assert_eq!(engine.registry().count(), 9);
//! for solver in engine.registry() {
//!     let algo = solver.algorithm();
//!     let _ = (algo.name(), algo.has_regret_guarantee(),
//!              algo.supports_restricted_space(), algo.supported_dims());
//! }
//!
//! let cars = Dataset::from_rows(&[[0.0, 1.0], [0.6, 0.7], [1.0, 0.0]]).unwrap();
//! let sol = engine.run(&cars, &FullSpace::new(2), &Request::minimize(1)).unwrap();
//! assert_eq!(sol.size(), 1);
//!
//! // Or hold a prepared handle directly (what Session does lazily):
//! let algo = Request::minimize(1).resolved_algorithm(cars.dim());
//! let prepared = engine.prepare(algo, &cars, &FullSpace::new(2)).unwrap();
//! assert_eq!(prepared.solve_rrm(1, &Budget::UNLIMITED).unwrap(), sol);
//! ```
//!
//! ## Crate map
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`core`](rrm_core) | datasets, utility spaces, ranking primitives, the [`Solver`] trait, [`Budget`], brute force, the sampled-ε spec and direction stream (`rrm_core::approx`) |
//! | [`algos2d`](rrm_2d) | 2DRRM (exact) + 2DRRR baseline solvers, Pareto frontier |
//! | [`algoshd`](rrm_hd) | HDRRM/ASMS, MDRRR, MDRRRr, MDRC, MDRMS solvers, the sampled-ε tier's solver (`rrm_hd::sampled`) |
//! | [`skyline`](rrm_skyline) | skyline, restricted U-skyline, the incremental skyline HDRRM maintains |
//! | [`geom`](rrm_geom) | dual arrangement, polar grids |
//! | [`lp`](rrm_lp) | dense two-phase simplex |
//! | [`setcover`](rrm_setcover) | lazy greedy set cover, interval cover |
//! | [`data`](rrm_data) | synthetic + simulated-real workloads, the approx scenario matrix |
//! | [`eval`](rrm_eval) | regret estimators (sampled and exact-2D), solver reports |
//! | `rank_regret` (this crate) | the [`Engine`]/[`Session`] layer, the [`Request`] type, CLI |

pub use rrm_2d;
pub use rrm_core;
pub use rrm_data;
pub use rrm_eval;
pub use rrm_geom;
pub use rrm_hd;
pub use rrm_lp;
pub use rrm_par;
pub use rrm_setcover;
pub use rrm_skyline;

pub use rrm_core::{
    apply_updates, Algorithm, AppliedUpdate, ApproxSpec, BiasedOrthantSpace, Bounds, BoxSpace,
    Budget, ConeSpace, Dataset, DimRange, ExecPolicy, Fidelity, FullSpace, Parallelism,
    PreparedSolver, RrmError, Solution, Solver, SphereCap, TerminatedBy, UpdateOp, UtilitySpace,
    WeakRankingSpace,
};

pub mod cli;
pub mod engine;

pub use engine::{AlgoChoice, Engine, Request, Response, Session, TaskKind, Tuning};

/// Everything a typical caller needs.
pub mod prelude {
    pub use crate::{
        session, Algorithm, ApproxSpec, BiasedOrthantSpace, BoxSpace, Budget, ConeSpace, Dataset,
        Engine, ExecPolicy, Fidelity, FullSpace, Parallelism, PreparedSolver, Request, Response,
        RrmError, Session, Solution, Solver, SphereCap, UpdateOp, UtilitySpace, WeakRankingSpace,
    };
}

/// Bind a [`Session`] over a clone of `data` with the default engine —
/// the prepare-once / query-many entry point. Use [`Engine::session`] for
/// tuned engines and [`Session::space`] for restricted spaces.
pub fn session(data: &Dataset) -> Session {
    Session::new(data.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// One request through a one-off session with the default engine.
    fn solve(data: &Dataset, request: &Request) -> Result<Solution, RrmError> {
        session(data).run(request).map(|response| response.solution)
    }

    #[test]
    fn minimize_auto_2d() {
        let sol = solve(&table1(), &Request::minimize(1)).unwrap();
        assert_eq!(sol.indices, vec![2]);
        assert_eq!(sol.algorithm, Algorithm::TwoDRrm);
    }

    #[test]
    fn minimize_auto_hd() {
        let data = rrm_data::synthetic::independent(300, 3, 1);
        let sol = session(&data).run(&Request::minimize(8).samples(200)).unwrap().solution;
        assert!(sol.size() <= 8);
        assert_eq!(sol.algorithm, Algorithm::Hdrrm);
    }

    #[test]
    fn forced_hdrrm_on_2d() {
        let data = rrm_data::synthetic::independent(200, 2, 2);
        let request = Request::minimize(5).algo(Algorithm::Hdrrm).samples(150);
        let sol = session(&data).run(&request).unwrap().solution;
        assert_eq!(sol.algorithm, Algorithm::Hdrrm);
    }

    #[test]
    fn forced_exact_on_hd_fails() {
        let data = rrm_data::synthetic::independent(50, 3, 3);
        assert!(solve(&data, &Request::minimize(5).algo(Algorithm::TwoDRrm)).is_err());
    }

    #[test]
    fn represent_2d_exact() {
        let sol = solve(&table1(), &Request::represent(2)).unwrap();
        assert!(sol.certified_regret.unwrap() <= 2);
        // Exact RRR: no smaller set achieves threshold 2; check against
        // the frontier.
        let frontier =
            rrm_2d::pareto_frontier(&table1(), 5, &FullSpace::new(2), ExecPolicy::default())
                .unwrap();
        let min_size = frontier.iter().find(|p| p.regret <= 2).unwrap().r;
        assert_eq!(sol.size(), min_size);
    }

    #[test]
    fn restricted_space_via_builder() {
        let request = Request::minimize(1).within(WeakRankingSpace::new(2, 1));
        let sol = solve(&table1(), &request).unwrap();
        assert!(sol.certified_regret.unwrap() <= 3);
    }

    #[test]
    fn every_algorithm_is_reachable_from_the_facade() {
        // All nine variants runnable with one selector, on the Table I
        // dataset.
        for algo in Algorithm::ALL {
            let request = Request::minimize(3).algo(algo).budget(Budget::with_samples(400));
            let sol = solve(&table1(), &request).unwrap_or_else(|e| panic!("{algo}: {e}"));
            assert_eq!(sol.algorithm, algo, "{algo}");
            assert!(sol.size() <= 3, "{algo}");
        }
    }
}
