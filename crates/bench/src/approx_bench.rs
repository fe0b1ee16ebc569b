//! `repro approx`: validates the sampled-ε approximate tier across the
//! scenario matrix and measures its end-to-end speedup over exact
//! solving; writes `BENCH_approx.json`.
//!
//! Three sections, all asserted in-run:
//!
//! * **Golden cross-checks** — on small 2D slices (one per workload
//!   shape), the sampled answer is evaluated *exactly* over the full
//!   direction space via the dual arrangement and cross-checked against
//!   the exact 2DRRM optimum: the sampled certificate never exceeds the
//!   set's true regret (sample-max ≤ true-max), and the exact optimum
//!   never exceeds it either. The whole section is seeded and
//!   bit-deterministic, so its rendering is compared verbatim against the
//!   checked-in golden file `crates/bench/golden/approx_small.txt` — any
//!   drift in the sampled tier's answers fails the run.
//! * **Coverage trials** — per workload shape (d = 4), sampled solves of
//!   independently drawn datasets at the tier's one fixed direction draw;
//!   each answer's certificate is audited on an independent direction
//!   sample (violation fraction ≤ ε), and the pass rate must be ≥ 1 − δ.
//!   This checks ε across datasets for that one draw, not the probability
//!   over direction draws that δ bounds; the sampled solver's unit tests
//!   check that rate.
//! * **Speedup** — end-to-end sampled vs. exact solve on the
//!   anti-correlated d = 4 workload, with the sampled answer additionally
//!   asserted bit-identical at 1, 2, and 7 threads. The ≥ 5x acceptance
//!   gate is enforced at `--full` scale (n = 1M); quick scale records the
//!   ratio but marks it `enforced: false`.

use rank_regret::{Engine, Request};
use rrm_core::{kernel, ApproxSpec, Dataset, ExecPolicy, TerminatedBy, UtilitySpace};
use rrm_data::scenario::{matrix, Region, Scenario};
use rrm_eval::exact_rank_regret_2d;

use crate::{bench_meta, timed, Scale};

/// Where the checked-in golden rendering lives (compile-time path, so the
/// check works from any working directory).
const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/approx_small.txt");

struct GoldenEntry {
    scenario: String,
    n: usize,
    r: usize,
    k_exact: usize,
    k_hat: usize,
    k_true: usize,
    indices: Vec<u32>,
}

impl GoldenEntry {
    /// One canonical line; the concatenation is diffed against the golden
    /// file byte for byte.
    fn render(&self) -> String {
        let idx: Vec<String> = self.indices.iter().map(|i| i.to_string()).collect();
        format!(
            "{} n={} r={} k_exact={} k_hat={} k_true={} indices={}\n",
            self.scenario,
            self.n,
            self.r,
            self.k_exact,
            self.k_hat,
            self.k_true,
            idx.join(","),
        )
    }
}

/// The small-slice cross-check: every d = 2 cell of the matrix, solved
/// approximately and audited exactly.
fn golden_small(engine: &Engine) -> Vec<GoldenEntry> {
    let (n, r) = (500, 4);
    let spec = ApproxSpec { eps: 0.1, delta: 0.05 };
    let mut entries = Vec::new();
    for cell in matrix().into_iter().filter(|c| c.d == 2 && c.region == Region::Full) {
        let data = cell.dataset(n);
        let space = cell.space();

        let exact = engine
            .run(&data, space.as_ref(), &Request::minimize(r))
            .expect("exact 2D solve on a small slice");
        let k_exact = exact.certified_regret.expect("2DRRM certifies");

        let sampled = engine
            .run(&data, space.as_ref(), &Request::minimize(r).approx(spec.eps, spec.delta))
            .expect("sampled solve on a small slice");
        let k_hat = sampled.certified_regret.expect("sampled tier certifies over its sample");
        let (k_true, _) = exact_rank_regret_2d(&data, &sampled.indices, 0.0, 1.0);

        // Deterministic soundness, independent of the (ε, δ) statement:
        // the sample maximum cannot exceed the true maximum, and no set
        // beats the exact optimum.
        assert!(
            k_hat <= k_true,
            "{}: sampled certificate {k_hat} exceeds the set's true regret {k_true}",
            cell.name()
        );
        assert!(
            k_exact <= k_true,
            "{}: exact optimum {k_exact} exceeds a feasible set's regret {k_true}",
            cell.name()
        );

        entries.push(GoldenEntry {
            scenario: cell.name(),
            n,
            r,
            k_exact,
            k_hat,
            k_true,
            indices: sampled.indices,
        });
    }
    entries
}

/// Audit one sampled answer on an independent direction sample: the
/// fraction of directions where the set's rank exceeds the certificate.
fn violation_fraction(
    data: &Dataset,
    space: &dyn UtilitySpace,
    indices: &[u32],
    k_hat: usize,
    eval_dirs: usize,
    eval_seed: u64,
) -> f64 {
    let dirs = rrm_core::approx::sample_directions(space, eval_dirs, eval_seed);
    let soa = data.soa();
    let mut scores = Vec::new();
    let mut violations = 0usize;
    for u in &dirs {
        kernel::scores_into(soa, u, &mut scores);
        let set_best =
            indices.iter().map(|&i| scores[i as usize]).fold(f64::NEG_INFINITY, f64::max);
        let rank = 1 + scores.iter().filter(|&&s| s > set_best).count();
        if rank > k_hat {
            violations += 1;
        }
    }
    violations as f64 / dirs.len() as f64
}

struct CoverageResult {
    scenario: String,
    n: usize,
    r: usize,
    trials: usize,
    passes: usize,
    coverage: f64,
    max_violation_fraction: f64,
}

/// Per-shape coverage trials at d = 4: a fresh dataset draw per trial at
/// the tier's one fixed direction draw, each certificate audited on an
/// independent sample.
fn coverage(engine: &Engine, scale: Scale) -> Vec<CoverageResult> {
    let (n, trials, eval_dirs) = match scale {
        Scale::Quick => (400usize, 20usize, 800usize),
        Scale::Full => (2_000, 60, 2_000),
    };
    let r = 4;
    let spec = ApproxSpec { eps: 0.1, delta: 0.1 };
    let request = Request::minimize(r).approx(spec.eps, spec.delta);
    let mut results = Vec::new();
    for cell in matrix().into_iter().filter(|c| c.d == 4 && c.region == Region::Full) {
        let space = cell.space();
        let mut passes = 0usize;
        let mut max_violation = 0.0f64;
        for t in 0..trials {
            let data_seed = 0xA11C_E000 + (t as u64) * 7 + cell.seed;
            let data = Scenario { seed: data_seed, ..cell }.dataset(n);
            let sol = engine.run(&data, space.as_ref(), &request).expect("sampled solve");
            let k_hat = sol.certified_regret.expect("sampled tier certifies");
            // Independent audit sample: different stream than the solve.
            let frac = violation_fraction(
                &data,
                space.as_ref(),
                &sol.indices,
                k_hat,
                eval_dirs,
                data_seed ^ 0x5EED_FACE,
            );
            max_violation = max_violation.max(frac);
            if frac <= spec.eps {
                passes += 1;
            }
        }
        let result = CoverageResult {
            scenario: cell.name(),
            n,
            r,
            trials,
            passes,
            coverage: passes as f64 / trials as f64,
            max_violation_fraction: max_violation,
        };
        assert!(
            result.coverage >= 1.0 - spec.delta,
            "{}: empirical coverage {:.3} fell below 1 - delta = {:.3} \
             ({passes}/{trials} trials within eps = {})",
            result.scenario,
            result.coverage,
            1.0 - spec.delta,
            spec.eps,
        );
        results.push(result);
    }
    results
}

struct SpeedupResult {
    n: usize,
    d: usize,
    r: usize,
    exact_algorithm: String,
    exact_seconds: f64,
    approx_seconds: f64,
    speedup: f64,
    enforced: bool,
}

/// End-to-end sampled vs. exact on anti-correlated d = 4 data, plus the
/// thread-count bit-identity gate on the sampled answer.
fn speedup(engine: &Engine, scale: Scale) -> SpeedupResult {
    let n = match scale {
        Scale::Quick => 30_000usize,
        Scale::Full => 1_000_000,
    };
    let (d, r) = (4usize, 8usize);
    let data = rrm_data::synthetic::anticorrelated(n, d, 4242);
    let space = rrm_core::FullSpace::new(d);
    // Build the shared column layout outside both timed regions; both
    // paths score through it.
    let _ = data.soa();

    let exact_request = Request::minimize(r);
    let (exact, exact_seconds) = timed(|| {
        engine.run(&data, &space, &exact_request).expect("exact solve at benchmark scale")
    });

    let approx_request = Request::minimize(r).approx(0.1, 0.05);
    let (approx, approx_seconds) = timed(|| {
        engine.run(&data, &space, &approx_request).expect("sampled solve at benchmark scale")
    });
    assert_eq!(approx.algorithm, rrm_core::Algorithm::Sampled);
    assert!(matches!(approx.terminated_by, TerminatedBy::Sampled { .. }));

    // Bit-identity across thread counts: the sampled tier's ordered-merge
    // contract makes parallelism a pure speed knob.
    for threads in [1usize, 2, 7] {
        let sol = scale
            .engine()
            .with_exec(ExecPolicy::threads(threads))
            .run(&data, &space, &approx_request)
            .expect("sampled solve under an explicit thread count");
        assert_eq!(
            (sol.indices.clone(), sol.certified_regret),
            (approx.indices.clone(), approx.certified_regret),
            "sampled answer changed at {threads} threads"
        );
    }

    let result = SpeedupResult {
        n,
        d,
        r,
        exact_algorithm: exact.algorithm.name().to_string(),
        exact_seconds,
        approx_seconds,
        speedup: exact_seconds / approx_seconds.max(1e-9),
        enforced: scale == Scale::Full,
    };
    if result.enforced {
        assert!(
            result.speedup >= 5.0,
            "acceptance gate: sampled tier managed only {:.1}x over exact at n = {} \
             (needs >= 5x)",
            result.speedup,
            result.n,
        );
    }
    result
}

/// Entry point for `repro approx`.
pub fn run(scale: Scale) {
    let engine = scale.engine();

    // Golden cross-checks on small 2D slices.
    let entries = golden_small(&engine);
    let rendering: String = entries.iter().map(GoldenEntry::render).collect();
    println!("golden small-slice cross-checks (exact audit of sampled answers):");
    print!("{rendering}");
    match std::fs::read_to_string(GOLDEN_PATH) {
        Ok(golden) => {
            assert_eq!(
                rendering, golden,
                "sampled answers drifted from the checked-in golden file {GOLDEN_PATH}"
            );
            println!("golden file matched: {GOLDEN_PATH}");
        }
        Err(_) => {
            // Bootstrap: first run writes the golden file to be checked in.
            std::fs::create_dir_all(std::path::Path::new(GOLDEN_PATH).parent().unwrap())
                .expect("create golden dir");
            std::fs::write(GOLDEN_PATH, &rendering).expect("write golden file");
            println!("golden file was missing; wrote {GOLDEN_PATH} (check it in)");
        }
    }

    // Coverage trials per shape.
    let cov = coverage(&engine, scale);
    println!(
        "\n{:<24} {:>6} {:>3} {:>7} {:>7} {:>9} {:>13}",
        "scenario", "n", "r", "trials", "passes", "coverage", "max viol frac"
    );
    for c in &cov {
        println!(
            "{:<24} {:>6} {:>3} {:>7} {:>7} {:>8.1}% {:>13.4}",
            c.scenario,
            c.n,
            c.r,
            c.trials,
            c.passes,
            100.0 * c.coverage,
            c.max_violation_fraction,
        );
    }

    // Speedup + thread bit-identity.
    let sp = speedup(&engine, scale);
    println!(
        "\nspeedup: exact {} {:.3}s vs sampled {:.3}s at n={} d={} r={} -> {:.1}x ({})",
        sp.exact_algorithm,
        sp.exact_seconds,
        sp.approx_seconds,
        sp.n,
        sp.d,
        sp.r,
        sp.speedup,
        if sp.enforced { "gate >= 5x enforced" } else { "quick scale, gate not enforced" },
    );

    // Hand-rolled JSON (no serde in the offline container).
    let mut json = format!("{{{},\"golden\":[\n", bench_meta("approx"));
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        let idx: Vec<String> = e.indices.iter().map(|x| x.to_string()).collect();
        json.push_str(&format!(
            "  {{\"scenario\":\"{}\",\"n\":{},\"r\":{},\"k_exact\":{},\"k_hat\":{},\
             \"k_true\":{},\"indices\":[{}]}}{sep}\n",
            e.scenario,
            e.n,
            e.r,
            e.k_exact,
            e.k_hat,
            e.k_true,
            idx.join(","),
        ));
    }
    json.push_str("],\"coverage\":[\n");
    for (i, c) in cov.iter().enumerate() {
        let sep = if i + 1 == cov.len() { "" } else { "," };
        json.push_str(&format!(
            "  {{\"scenario\":\"{}\",\"n\":{},\"r\":{},\"trials\":{},\"passes\":{},\
             \"coverage\":{:.4},\"max_violation_fraction\":{:.4}}}{sep}\n",
            c.scenario, c.n, c.r, c.trials, c.passes, c.coverage, c.max_violation_fraction,
        ));
    }
    json.push_str(&format!(
        "],\"speedup\":{{\"n\":{},\"d\":{},\"r\":{},\"exact_algorithm\":\"{}\",\
         \"exact_seconds\":{:.6},\"approx_seconds\":{:.6},\"speedup\":{:.2},\
         \"enforced\":{}}}}}\n",
        sp.n,
        sp.d,
        sp.r,
        sp.exact_algorithm,
        sp.exact_seconds,
        sp.approx_seconds,
        sp.speedup,
        sp.enforced,
    ));
    std::fs::write("BENCH_approx.json", &json).expect("write BENCH_approx.json");
    println!(
        "wrote BENCH_approx.json (golden cross-checks, coverage >= 1-delta, and thread \
         bit-identity all asserted in-run)"
    );
}
