//! `repro anytime`: measures the anytime bound-and-prune machinery of
//! the hard HD solvers and writes `BENCH_anytime.json`.
//!
//! Three questions, answered per instance (HDRRM and MDRRRr on the
//! synthetic hard cases):
//!
//! * **Time to first incumbent** — how long until a cut-off would have
//!   *something* sound to return, vs. the full-solve wall time. The
//!   coarse-frame incumbent pass makes this a small fraction of the
//!   first real probe.
//! * **Pruning win** — search nodes (greedy cover selections + probes)
//!   expanded with bound-and-prune on vs. off, in the same run, with the
//!   answers asserted bit-identical (pruning is decision-equivalent).
//! * **Gap vs. budget** — a deterministic [`Cutoff::CounterBudget`]
//!   sweep: the certified optimality gap as a function of the probe
//!   budget, down to gap 0 at the full-solve answer.
//!
//! The acceptance gate asserted in-run: on at least one instance the
//! first incumbent lands within 25% of the full-solve wall time AND
//! pruning skips at least 20% of the no-pruning baseline's nodes. The
//! first incumbent includes one full-frame regret pass, a fixed cost
//! that is a large share of a solve whose top-k lists come from one deep
//! pass.
//!
//! [`Cutoff::CounterBudget`]: rrm_core::Cutoff::CounterBudget

use rrm_core::{Budget, Dataset, FullSpace, Solution, Solver, SolverCtx, TerminatedBy};
use rrm_hd::{HdrrmOptions, HdrrmSolver, MdrrrROptions, MdrrrRSolver};

use crate::{bench_meta, timed, Scale};

#[derive(Clone, Copy)]
enum Algo {
    Hdrrm,
    MdrrrR,
}

impl Algo {
    fn name(self) -> &'static str {
        match self {
            Algo::Hdrrm => "HDRRM",
            Algo::MdrrrR => "MDRRRr",
        }
    }
}

/// One point of the deterministic counter-budget sweep.
struct SweepPoint {
    budget: usize,
    seconds: f64,
    gap: Option<f64>,
    lower: Option<usize>,
    upper: Option<usize>,
    terminated_by: &'static str,
}

struct InstanceResult {
    dataset: &'static str,
    algorithm: &'static str,
    n: usize,
    d: usize,
    r: usize,
    full_seconds: f64,
    first_incumbent_seconds: f64,
    first_incumbent_fraction: f64,
    nodes: u64,
    pruned_probes: u64,
    nodes_noprune: u64,
    pruned_fraction: f64,
    /// `(seconds, lower, upper)` at each bounds improvement of the full
    /// (pruned, uncut) run.
    curve: Vec<(f64, usize, usize)>,
    sweep: Vec<SweepPoint>,
}

/// One solve through the [`Solver`] trait with the scale's tuned options
/// and an explicit prune switch.
fn solve(
    algo: Algo,
    scale: Scale,
    prune: bool,
    data: &Dataset,
    r: usize,
    budget: &Budget,
) -> Solution {
    let space = FullSpace::new(data.dim());
    match algo {
        Algo::Hdrrm => HdrrmSolver::new(HdrrmOptions { prune, ..scale.hdrrm() })
            .solve_rrm_ctx(data, r, &space, budget, &SolverCtx::default())
            .expect("HDRRM solves the synthetic instances"),
        Algo::MdrrrR => MdrrrRSolver::new(MdrrrROptions { prune, ..scale.mdrrr_r() })
            .solve_rrm_ctx(data, r, &space, budget, &SolverCtx::default())
            .expect("MDRRRr solves the synthetic instances"),
    }
}

fn measure(
    dataset: &'static str,
    algo: Algo,
    scale: Scale,
    data: &Dataset,
    r: usize,
) -> InstanceResult {
    // Full solve, pruning on: the wall-time / first-incumbent baseline.
    let (sol, full_seconds) = timed(|| solve(algo, scale, true, data, r, &Budget::UNLIMITED));
    assert_eq!(sol.terminated_by, TerminatedBy::Completed, "uncut solve must complete");
    let report = sol.report.clone().expect("anytime solvers attach a search report");

    // Same solve, pruning off: the no-pruning node-count baseline. The
    // answer must not move — pruning is decision-equivalent by
    // construction, and this assertion keeps it honest.
    let (sol_off, _) = timed(|| solve(algo, scale, false, data, r, &Budget::UNLIMITED));
    assert_eq!(sol, sol_off, "{dataset}/{}: pruning changed the answer", algo.name());
    let report_off = sol_off.report.clone().expect("report");

    let first_incumbent_seconds =
        report.first_incumbent_seconds.expect("coarse pass stamps a first incumbent");
    let nodes_noprune = report_off.nodes;
    assert!(
        report.nodes <= nodes_noprune,
        "{dataset}/{}: pruning expanded more nodes ({} > {nodes_noprune})",
        algo.name(),
        report.nodes
    );
    let pruned_fraction = if nodes_noprune == 0 {
        0.0
    } else {
        (nodes_noprune - report.nodes) as f64 / nodes_noprune as f64
    };

    // Deterministic gap-vs-budget sweep: doubling counter budgets until
    // the search completes (gap 0, bit-identical to the uncut answer).
    let mut sweep: Vec<SweepPoint> = Vec::new();
    let mut budget = 1usize;
    loop {
        let b = Budget {
            max_enumerations: Some(budget),
            max_lp_calls: Some(budget),
            ..Budget::UNLIMITED
        };
        let (cut, seconds) = timed(|| solve(algo, scale, true, data, r, &b));
        let done = cut.terminated_by == TerminatedBy::Completed;
        if done {
            assert_eq!(
                cut.indices,
                sol.indices,
                "{dataset}/{}: completed budgeted answer diverged",
                algo.name()
            );
        }
        sweep.push(SweepPoint {
            budget,
            seconds,
            gap: cut.gap(),
            lower: cut.bounds.map(|b| b.lower),
            upper: cut.bounds.map(|b| b.upper),
            terminated_by: cut.terminated_by.name(),
        });
        if done || budget >= 1 << 14 {
            break;
        }
        budget *= 2;
    }

    InstanceResult {
        dataset,
        algorithm: algo.name(),
        n: data.n(),
        d: data.dim(),
        r,
        full_seconds,
        first_incumbent_seconds,
        first_incumbent_fraction: first_incumbent_seconds / full_seconds.max(1e-9),
        nodes: report.nodes,
        pruned_probes: report.pruned_probes,
        nodes_noprune,
        pruned_fraction,
        curve: report.curve.iter().map(|&(s, b)| (s, b.lower, b.upper)).collect(),
        sweep,
    }
}

/// Entry point for `repro anytime`.
pub fn run(scale: Scale) {
    let n = match scale {
        Scale::Quick => 5_000,
        Scale::Full => 10_000,
    };
    let r = 10;
    let anti = rrm_data::synthetic::anticorrelated(n, 4, 61);
    let indep = rrm_data::synthetic::independent(n, 4, 62);

    let results = [
        measure("anti-correlated", Algo::Hdrrm, scale, &anti, r),
        measure("anti-correlated", Algo::MdrrrR, scale, &anti, r),
        measure("independent", Algo::Hdrrm, scale, &indep, r),
    ];

    println!(
        "{:<16} {:<7} {:>8} {:>9} {:>7} {:>9} {:>10} {:>8} {:>7}",
        "dataset",
        "algo",
        "full(s)",
        "first(s)",
        "first%",
        "nodes",
        "no-prune",
        "pruned%",
        "probes"
    );
    let mut any_pass = false;
    for res in &results {
        let incumbent_ok = res.first_incumbent_fraction <= 0.25;
        let pruning_ok = res.pruned_fraction >= 0.20;
        any_pass |= incumbent_ok && pruning_ok;
        println!(
            "{:<16} {:<7} {:>8.3} {:>9.4} {:>6.1}% {:>9} {:>10} {:>7.1}% {:>7}",
            res.dataset,
            res.algorithm,
            res.full_seconds,
            res.first_incumbent_seconds,
            100.0 * res.first_incumbent_fraction,
            res.nodes,
            res.nodes_noprune,
            100.0 * res.pruned_fraction,
            res.pruned_probes,
        );
        let gaps: Vec<String> = res
            .sweep
            .iter()
            .map(|p| {
                format!("{}:{}", p.budget, p.gap.map_or("-".to_string(), |g| format!("{g:.2}")))
            })
            .collect();
        println!("  gap vs budget: {}", gaps.join(" "));
    }
    assert!(
        any_pass,
        "no instance met the anytime acceptance gate \
         (first incumbent <= 25% of full wall AND >= 20% nodes pruned)"
    );

    // Hand-rolled JSON (no serde in the offline container).
    let opt_u = |v: Option<usize>| v.map_or("null".to_string(), |x| x.to_string());
    let opt_f = |v: Option<f64>| v.map_or("null".to_string(), |x| format!("{x:.6}"));
    let mut json = format!("{{{},\"instances\":[\n", bench_meta("anytime"));
    for (i, res) in results.iter().enumerate() {
        let sep = if i + 1 == results.len() { "" } else { "," };
        let curve: Vec<String> = res
            .curve
            .iter()
            .map(|&(s, lo, up)| format!("{{\"seconds\":{s:.6},\"lower\":{lo},\"upper\":{up}}}"))
            .collect();
        let sweep: Vec<String> = res
            .sweep
            .iter()
            .map(|p| {
                format!(
                    "{{\"budget\":{},\"seconds\":{:.6},\"gap\":{},\"lower\":{},\
                     \"upper\":{},\"terminated_by\":\"{}\"}}",
                    p.budget,
                    p.seconds,
                    opt_f(p.gap),
                    opt_u(p.lower),
                    opt_u(p.upper),
                    p.terminated_by,
                )
            })
            .collect();
        json.push_str(&format!(
            "  {{\"dataset\":\"{}\",\"algorithm\":\"{}\",\"n\":{},\"d\":{},\"r\":{},\
             \"full_seconds\":{:.6},\"first_incumbent_seconds\":{:.6},\
             \"first_incumbent_fraction\":{:.4},\"nodes\":{},\"pruned_probes\":{},\
             \"nodes_noprune\":{},\"pruned_fraction\":{:.4},\
             \"curve\":[{}],\"gap_vs_budget\":[{}]}}{sep}\n",
            res.dataset,
            res.algorithm,
            res.n,
            res.d,
            res.r,
            res.full_seconds,
            res.first_incumbent_seconds,
            res.first_incumbent_fraction,
            res.nodes,
            res.pruned_probes,
            res.nodes_noprune,
            res.pruned_fraction,
            curve.join(","),
            sweep.join(","),
        ));
    }
    json.push_str("]}\n");
    std::fs::write("BENCH_anytime.json", &json).expect("write BENCH_anytime.json");
    println!("wrote BENCH_anytime.json (pruned-vs-unpruned answers asserted bit-identical in-run)");
}
