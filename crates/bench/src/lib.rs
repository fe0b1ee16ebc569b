//! Shared infrastructure for the experiment harness.
//!
//! The `repro` binary (`cargo run --release -p bench --bin repro -- <id>`)
//! regenerates each table/figure of the paper; this library holds the
//! pieces its experiments share: timed runs, the
//! algorithm roster — resolved through the [`Solver`] trait, so the
//! harness never calls algorithm crates directly — and sweep
//! configuration for quick vs full mode.

pub mod anytime_bench;
pub mod approx_bench;
pub mod incremental_bench;
pub mod serve_bench;

use std::time::Instant;

use rank_regret::{Engine, Tuning};
use rrm_core::{Budget, Dataset, ExecPolicy, RrmError, Solution, Solver, UtilitySpace};
use rrm_hd::{HdrrmOptions, MdrmsOptions, MdrrrROptions};

/// One measured run of one algorithm.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub algorithm: &'static str,
    /// Total wall-clock: `prepare_seconds + query_seconds`.
    pub seconds: f64,
    /// Time spent building dataset-bound state ([`Solver::prepare`]).
    pub prepare_seconds: f64,
    /// Time spent answering the query itself.
    pub query_seconds: f64,
    /// Measured rank-regret over the query space (sampled estimator).
    pub regret: usize,
    /// The solver's own certificate, when it provides one.
    pub certified: Option<usize>,
    pub size: usize,
}

/// Experiment scale: `quick` finishes a full `repro all` in minutes;
/// `full` mirrors the paper's parameters (hours at the top sizes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Quick,
    Full,
}

impl Scale {
    pub fn from_args() -> Scale {
        if std::env::args().any(|a| a == "--full") {
            Scale::Full
        } else {
            Scale::Quick
        }
    }

    /// Evaluation sample count (the paper uses 100 000).
    pub fn eval_samples(self) -> usize {
        match self {
            Scale::Quick => 20_000,
            Scale::Full => 100_000,
        }
    }

    /// HDRRM options: quick mode trades the δ guarantee down (fewer `Da`
    /// samples) to keep sweeps fast; full mode uses the paper's δ = 0.03.
    pub fn hdrrm_options(self) -> HdrrmOptions {
        match self {
            Scale::Quick => HdrrmOptions { delta: 0.1, ..Default::default() },
            Scale::Full => HdrrmOptions::default(),
        }
    }

    pub fn mdrrr_r_options(self) -> MdrrrROptions {
        match self {
            Scale::Quick => MdrrrROptions { samples: 5_000, ..Default::default() },
            Scale::Full => MdrrrROptions { samples: 50_000, ..Default::default() },
        }
    }

    pub fn mdrms_options(self) -> MdrmsOptions {
        match self {
            Scale::Quick => MdrmsOptions { samples: 1_000 },
            Scale::Full => MdrmsOptions { samples: 5_000 },
        }
    }

    /// The scale-tuned [`Engine`] — the harness resolves every algorithm
    /// through its registry, so solver construction/dispatch stays defined
    /// in one place (`Engine::with_tuning`).
    pub fn engine(self) -> Engine {
        Engine::with_tuning(&Tuning {
            hdrrm: self.hdrrm_options(),
            mdrrr_r: self.mdrrr_r_options(),
            mdrms: self.mdrms_options(),
        })
    }
}

/// Time a closure.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let v = f();
    (v, start.elapsed().as_secs_f64())
}

/// The uniform header every `BENCH_*.json` starts with: schema version,
/// experiment id, and machine metadata (core count, target arch, and the
/// `target-cpu` the binary was compiled for, best-effort from `RUSTFLAGS`).
/// Returned as a brace-less fragment so writers embed it as the first
/// fields of their top-level object.
pub fn bench_meta(experiment: &str) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let target_cpu = std::env::var("RUSTFLAGS")
        .ok()
        .and_then(|flags| {
            flags
                .split("target-cpu=")
                .nth(1)
                .and_then(|rest| rest.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "generic".to_string());
    format!(
        "\"schema_version\":1,\"experiment\":\"{experiment}\",\
         \"machine\":{{\"cores\":{cores},\"target_arch\":\"{}\",\"target_cpu\":\"{}\"}}",
        std::env::consts::ARCH,
        target_cpu,
    )
}

/// One RRM query the way the engine answers it: a fresh
/// [`Solver::prepare`] under the default execution policy, then the
/// query with an unlimited budget.
pub fn run_rrm(
    solver: &dyn Solver,
    data: &Dataset,
    r: usize,
    space: &dyn UtilitySpace,
) -> Result<Solution, RrmError> {
    solver.prepare(data, space, ExecPolicy::default())?.solve_rrm(r, &Budget::UNLIMITED)
}

/// Seed of the direction sample [`measure_solver`] estimates regret over.
pub const EVAL_SEED: u64 = 0xE7A1;

/// Run one RRM query under `budget` through the [`Solver`] trait — prepare,
/// then query,
/// each timed — and measure its output quality over `space`. Thin harness
/// adapter over [`rrm_eval::evaluate_rrm`] — the measurement logic lives
/// there, this just maps it onto [`Outcome`] and panics on solver errors
/// (a failing roster entry should abort the experiment loudly).
pub fn measure_solver(
    solver: &dyn Solver,
    data: &Dataset,
    r: usize,
    space: &dyn UtilitySpace,
    budget: &Budget,
    eval_samples: usize,
) -> Outcome {
    let name = solver.algorithm().name();
    let (prepared, prepare_seconds) = timed(|| solver.prepare(data, space, ExecPolicy::default()));
    let prepared = prepared.unwrap_or_else(|e| panic!("{name}: {e}"));
    let report =
        rrm_eval::evaluate_rrm(prepared.as_ref(), r, space, budget, eval_samples, EVAL_SEED)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    Outcome {
        algorithm: name,
        seconds: prepare_seconds + report.seconds,
        prepare_seconds,
        query_seconds: report.seconds,
        regret: report.estimated_regret,
        certified: report.certified_regret,
        size: report.size,
    }
}

/// A seeded synthetic generator `(n, d, seed) -> Dataset`.
pub type Generator = fn(usize, usize, u64) -> Dataset;

/// The synthetic distributions of the paper's figures, in their order.
pub const SYNTHETICS: [(&str, Generator); 3] = [
    ("independent", rrm_data::synthetic::independent),
    ("correlated", rrm_data::synthetic::correlated),
    ("anti-correlated", rrm_data::synthetic::anticorrelated),
];

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::FullSpace;

    #[test]
    fn timed_returns_value_and_duration() {
        let (v, s) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    fn measure_solver_goes_through_the_trait() {
        let data = rrm_data::synthetic::independent(100, 2, 0);
        let engine = Scale::Quick.engine();
        let solver = engine.solver(rrm_core::Algorithm::TwoDRrm);
        let out = measure_solver(solver, &data, 3, &FullSpace::new(2), &Budget::UNLIMITED, 500);
        assert_eq!(out.algorithm, "2DRRM");
        assert!(out.size <= 3);
        assert!(out.certified.is_some());
        assert!(out.regret >= 1);
        // The total splits into the prepare and query phases.
        assert!((out.seconds - (out.prepare_seconds + out.query_seconds)).abs() < 1e-12);
    }

    #[test]
    fn scale_engine_resolves_every_algorithm() {
        let engine = Scale::Quick.engine();
        for algo in rrm_core::Algorithm::ALL {
            assert_eq!(engine.solver(algo).algorithm(), algo);
        }
    }

    #[test]
    fn bench_meta_is_a_valid_json_fragment() {
        let meta = bench_meta("serve");
        assert!(meta.starts_with("\"schema_version\":1,"), "{meta}");
        assert!(meta.contains("\"experiment\":\"serve\""), "{meta}");
        assert!(meta.contains("\"cores\":"), "{meta}");
        assert!(meta.contains("\"target_cpu\":"), "{meta}");
        // Embeds into an object without breaking JSON syntax.
        let doc = format!("{{{meta},\"entries\":[]}}");
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }

    #[test]
    fn scale_parameters() {
        assert!(Scale::Quick.eval_samples() < Scale::Full.eval_samples());
        assert!(Scale::Quick.hdrrm_options().delta > Scale::Full.hdrrm_options().delta);
        assert!(Scale::Quick.mdrrr_r_options().samples < Scale::Full.mdrrr_r_options().samples);
    }
}
