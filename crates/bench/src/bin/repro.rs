//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- <id> [--full]
//! cargo run --release -p bench --bin repro -- all [--full]
//! ```
//!
//! Ids: `table1 table2 table3 theorem2 fig09 fig10 fig11 fig12 fig13 fig14
//! fig15 fig16 fig17 fig18 fig19 fig20 fig21 fig22 fig23 fig24 fig25 fig26
//! fig27 fig28 ablation amortize scale kernels serve anytime incremental
//! approx`.
//! (`amortize`,
//! `scale`, `kernels`, `serve` and `anytime` are not paper figures: `amortize` measures the session API's
//! prepare-once / query-many speedup and writes `BENCH_session.json`;
//! `scale` sweeps the parallel runtime over thread counts {1,2,4,8},
//! asserts bit-identical solutions, and writes per-algorithm speedups to
//! `BENCH_parallel.json`; `kernels` microbenchmarks naive vs. blocked SoA
//! scoring throughput, full-n quickselect vs. bounded top-k selection and
//! the 2D sweep's comparison vs. counting sorts on one thread and writes
//! `BENCH_kernels.json` — the one bench whose headline number is
//! meaningful on a 1-core machine;
//! `serve` load-tests the `rrm_serve` query service over real TCP with a
//! replayed multi-tenant trace — single-tenant hot, mixed, and overload
//! scenarios — parity-checks every served response against an in-process
//! `Session`, and writes `BENCH_serve.json`; `anytime` measures the
//! bound-and-prune machinery of the hard HD solvers — time to first
//! incumbent, pruned-node counts vs. a no-pruning baseline with answers
//! asserted bit-identical, and deterministic gap-vs-budget sweeps — and
//! writes `BENCH_anytime.json`; `incremental` drives 1% churn batches
//! through `Session::update` against naive per-batch re-prepare with a
//! concurrent query stream, asserts per-batch answer parity plus the
//! 10x-or-better sustained-updates gate at n = 100K, and writes
//! `BENCH_incremental.json`; `approx` validates the sampled-ε tier on the
//! scenario matrix — golden small-slice cross-checks against exact 2DRRM,
//! per-shape `(ε, δ)` coverage trials, thread-count bit-identity, and the
//! exact-vs-sampled speedup gate — and writes `BENCH_approx.json`.)
//! A global `--threads N` flag pins the worker count for every other
//! experiment (0 = all cores; equivalent to RRM_THREADS). Default scale is `--quick` (minutes for `all`);
//! `--full` mirrors the paper's parameters. Absolute times differ from the
//! paper's C++/Core-i7 testbed; the *shape* of each series is the
//! reproduction target (EXPERIMENTS.md records both).

use bench::{measure_solver, run_rrm, timed, Outcome, Scale, EVAL_SEED, SYNTHETICS};
use rrm_2d::{full_sweep_rrm, TwoDRrmSolver};
use rrm_core::{Algorithm, Budget, Dataset, ExecPolicy, FullSpace, UtilitySpace, WeakRankingSpace};
use rrm_data::real_sim::{island_sim, nba_sim, weather_sim};
use rrm_data::synthetic::lower_bound_arc;
use rrm_eval::report::{render_table, size_tick, Series};
use rrm_eval::{estimate_rank_regret, estimate_regret_ratio, exact_rank_regret_2d};
use rrm_hd::{HdrrmOptions, HdrrmSolver};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // Global --threads N: pin the worker count for every chunked kernel
    // (same effect as RRM_THREADS=N; 0 = all cores). Applied before any
    // experiment runs, while the process is still single threaded.
    let mut args: Vec<String> = Vec::new();
    let mut it = raw.into_iter();
    while let Some(a) = it.next() {
        if a == "--full" || a == "--quick" {
            continue;
        }
        if a == "--threads" {
            let n = it.next().and_then(|v| v.parse::<usize>().ok()).unwrap_or_else(|| {
                eprintln!("--threads expects a number (0 = all cores)");
                std::process::exit(2);
            });
            std::env::set_var("RRM_THREADS", n.to_string());
            continue;
        }
        args.push(a);
    }
    let scale = Scale::from_args();
    let id = args.first().map(String::as_str).unwrap_or("help");
    let all: Vec<&str> = vec![
        "table1",
        "table2",
        "table3",
        "theorem2",
        "fig09",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "fig15",
        "fig16",
        "fig17",
        "fig18",
        "fig19",
        "fig20",
        "fig21",
        "fig22",
        "fig23",
        "fig24",
        "fig25",
        "fig26",
        "fig27",
        "fig28",
        "ablation",
        "amortize",
        "scale",
        "kernels",
        "serve",
        "anytime",
        "incremental",
        "approx",
    ];
    match id {
        "all" => {
            for x in all {
                run(x, scale);
            }
        }
        "help" | "--help" => {
            eprintln!("usage: repro <id|all> [--full] [--threads N]\nids: {}", all.join(" "));
        }
        x if all.contains(&x) => run(x, scale),
        x => {
            eprintln!("unknown experiment id: {x}");
            std::process::exit(2);
        }
    }
}

fn run(id: &str, scale: Scale) {
    println!("\n================ {id} ({scale:?}) ================");
    match id {
        "table1" => table1(),
        "table2" => table2(),
        "table3" => table3(),
        "theorem2" => theorem2(),
        "fig09" => fig09(scale),
        "fig10" => fig10(scale),
        "fig11" => fig11(scale),
        "fig12" => fig12(scale),
        "fig13" | "fig14" | "fig15" => {
            fig_hd_vs_n(id, scale);
        }
        "fig16" | "fig17" | "fig18" => {
            fig_hd_vs_d(id, scale);
        }
        "fig19" | "fig20" | "fig21" => {
            fig_hd_vs_r(id, scale);
        }
        "fig22" | "fig23" | "fig24" => {
            fig_hd_vs_delta(id, scale);
        }
        "fig25" => fig25(scale),
        "fig26" => fig26(scale),
        "fig27" => fig27(scale),
        "fig28" => fig28(scale),
        "ablation" => ablation(scale),
        "amortize" => amortize(scale),
        "scale" => thread_scaling(scale),
        "kernels" => kernels(scale),
        "serve" => bench::serve_bench::run(scale),
        "anytime" => bench::anytime_bench::run(scale),
        "incremental" => bench::incremental_bench::run(scale),
        "approx" => bench::approx_bench::run(scale),
        _ => unreachable!(),
    }
}

fn table1_data() -> Dataset {
    Dataset::from_rows(&[
        [0.00, 1.00],
        [0.40, 0.95],
        [0.57, 0.75],
        [0.79, 0.60],
        [0.20, 0.50],
        [0.35, 0.30],
        [1.00, 0.00],
    ])
    .unwrap()
}

/// Table I: the example dataset with its rank-regret and regret-ratio
/// columns, plus the RRM/RMS choices before and after the Figure 2 shift.
fn table1() {
    let data = table1_data();
    println!("{:>4} {:>6} {:>6} {:>11} {:>13}", "t", "A1", "A2", "rank-regret", "regret-ratio");
    for i in 0..7u32 {
        let row = data.row(i as usize);
        let (k, _) = exact_rank_regret_2d(&data, &[i], 0.0, 1.0);
        let ratio = estimate_regret_ratio(&data, &[i], &FullSpace::new(2), 50_000, 1).max_ratio;
        println!("{:>4} {:>6.2} {:>6.2} {:>11} {:>12.0}%", i + 1, row[0], row[1], k, 100.0 * ratio);
    }
    let engine = Scale::Full.engine();
    let exact = engine.solver(Algorithm::TwoDRrm);
    let rms_solver = engine.solver(Algorithm::Mdrms);
    let space = FullSpace::new(2);
    let rrm = run_rrm(exact, &data, 1, &space).unwrap();
    let rms = run_rrm(rms_solver, &data, 1, &space).unwrap();
    println!("\nr = 1 choices: RRM -> t{}, RMS -> t{}", rrm.indices[0] + 1, rms.indices[0] + 1);
    let shifted = data.shift(&[0.0, 4.0]);
    let rrm_s = run_rrm(exact, &shifted, 1, &space).unwrap();
    let rms_s = run_rrm(rms_solver, &shifted, 1, &space).unwrap();
    println!(
        "after A2 += 4:  RRM -> t{} (invariant), RMS -> t{} (changed)",
        rrm_s.indices[0] + 1,
        rms_s.indices[0] + 1
    );
}

/// Table II: the DP matrix trace on D = {t1, t2, t3}, r = 2.
fn table2() {
    use rrm_geom::dual::DualLine;
    use rrm_geom::events::{crossings_with_tracked, initial_ranks};
    let data = table1_data().prefix(3);
    let lines = DualLine::from_dataset(&data);
    let events = crossings_with_tracked(&lines, &[0, 1, 2], 0.0, 1.0);
    let mut rank = initial_ranks(&lines, 0.0);
    println!("initial ranks: l1={} l2={} l3={}", rank[0], rank[1], rank[2]);
    let mut m = rrm_2d::matrix::DpMatrix::new(&[0, 1, 2], &[1, 2, 3], 2);
    let print_m = |m: &rrm_2d::matrix::DpMatrix, label: &str| {
        println!("after {label}:");
        for i in 0..3 {
            for j in 1..=2 {
                let chain: Vec<String> =
                    m.chain_lines(i, j).iter().map(|l| format!("l{}", l + 1)).collect();
                print!("  M[{},{j}] = {{{}}},{}", i + 1, chain.join(","), m.cell(i, j).rank);
            }
            println!();
        }
    };
    print_m(&m, "initialization");
    for ev in &events {
        rank[ev.down as usize] += 1;
        rank[ev.up as usize] -= 1;
        m.extend(ev.down as usize, ev.up as usize, ev.up);
        m.fold_rank(ev.down as usize, rank[ev.down as usize] as u32);
        print_m(&m, &format!("(l{}, l{}) at x = {:.4}", ev.down + 1, ev.up + 1, ev.x));
    }
    let (row, k) = m.best_final();
    println!("result: M[{},2] with rank {k}", row + 1);
}

/// Table III: the HD capability matrix (guarantees from the type system,
/// scalability from measurement).
fn table3() {
    use rrm_core::Algorithm::*;
    println!("{:<26} {:>7} {:>8} {:>6} {:>6}", "criterion", "MDRRR", "MDRRRr", "MDRC", "HDRRM");
    let yes_no = |b: bool| if b { "Yes" } else { "No" };
    println!(
        "{:<26} {:>7} {:>8} {:>6} {:>6}",
        "guarantee on rank-regret",
        yes_no(Mdrrr.has_regret_guarantee()),
        yes_no(MdrrrR.has_regret_guarantee()),
        yes_no(Mdrc.has_regret_guarantee()),
        yes_no(Hdrrm.has_regret_guarantee()),
    );
    println!(
        "{:<26} {:>7} {:>8} {:>6} {:>6}",
        "suitable for RRRM",
        yes_no(Mdrrr.supports_restricted_space()),
        yes_no(MdrrrR.supports_restricted_space()),
        yes_no(Mdrc.supports_restricted_space()),
        yes_no(Hdrrm.supports_restricted_space()),
    );
    println!("{:<26} {:>7} {:>8} {:>6} {:>6}", "scalable for large n, d", "No", "No", "Yes", "Yes");
    println!("{:<26} {:>7} {:>8} {:>6} {:>6}", "acceptable rank-regret", "Yes", "Yes", "No", "Yes");
    println!("(first two rows are encoded in rrm_core::Algorithm and unit-tested)");
}

/// Theorem 2: the arc construction's optimal regret vs the Ω(n/r) bound.
fn theorem2() {
    println!("{:>8} {:>4} {:>14} {:>14}", "n", "r", "optimal regret", "n/(2(r+1))");
    let engine = Scale::Full.engine();
    let exact = engine.solver(Algorithm::TwoDRrm);
    for &(n, r) in &[(200usize, 3usize), (400, 4), (800, 5), (1600, 5)] {
        let data = lower_bound_arc(n, 2);
        let sol = run_rrm(exact, &data, r, &FullSpace::new(2)).unwrap();
        println!(
            "{:>8} {:>4} {:>14} {:>14}",
            n,
            r,
            sol.certified_regret.unwrap(),
            n / (2 * (r + 1))
        );
    }
}

// ---------------------------------------------------------------- 2D ----

fn two_d_rows(data: &Dataset, r: usize) -> (f64, f64, usize, usize) {
    let space = FullSpace::new(2);
    let engine = Scale::Full.engine();
    let exact = engine.solver(Algorithm::TwoDRrm);
    let baseline = engine.solver(Algorithm::TwoDRrr);
    let (a, ta) = timed(|| run_rrm(exact, data, r, &space).unwrap());
    let (b, tb) = timed(|| run_rrm(baseline, data, r, &space).unwrap());
    let exact_b = exact_rank_regret_2d(data, &b.indices, 0.0, 1.0).0;
    (ta, tb, a.certified_regret.unwrap(), exact_b)
}

/// Fig. 9: 2D time vs n on the three synthetic datasets, r = 5.
fn fig09(scale: Scale) {
    let ns: &[usize] = match scale {
        Scale::Quick => &[100, 1_000, 10_000, 30_000],
        Scale::Full => &[100, 1_000, 10_000, 100_000],
    };
    for (name, gen) in SYNTHETICS {
        let ticks: Vec<String> = ns.iter().map(|&n| size_tick(n)).collect();
        let mut s1 = Series::new("2DRRM time(s)");
        let mut s2 = Series::new("2DRRR time(s)");
        let mut k1 = Series::new("2DRRM regret");
        let mut k2 = Series::new("2DRRR regret");
        for &n in ns {
            let data = gen(n, 2, 9);
            let (ta, tb, ka, kb) = two_d_rows(&data, 5);
            s1.push(ta);
            s2.push(tb);
            k1.push(ka as f64);
            k2.push(kb as f64);
        }
        println!("[{name}]");
        println!("{}", render_table("n", &ticks, &[s1, s2, k1, k2]));
    }
}

/// Fig. 10: 2D time vs r, n = 10K.
fn fig10(scale: Scale) {
    let n = match scale {
        Scale::Quick => 5_000,
        Scale::Full => 10_000,
    };
    let rs: Vec<usize> = (5..=10).collect();
    for (name, gen) in SYNTHETICS {
        let data = gen(n, 2, 10);
        let ticks: Vec<String> = rs.iter().map(|r| r.to_string()).collect();
        let mut s1 = Series::new("2DRRM time(s)");
        let mut s2 = Series::new("2DRRR time(s)");
        for &r in &rs {
            let (ta, tb, _, _) = two_d_rows(&data, r);
            s1.push(ta);
            s2.push(tb);
        }
        println!("[{name}] n = {}", size_tick(n));
        println!("{}", render_table("r", &ticks, &[s1, s2]));
    }
}

/// Fig. 11: 2D time vs n on the Island stand-in.
fn fig11(scale: Scale) {
    let ns: &[usize] = match scale {
        Scale::Quick => &[10_000, 20_000, 40_000],
        Scale::Full => &[10_000, 20_000, 40_000, 60_000],
    };
    let ticks: Vec<String> = ns.iter().map(|&n| size_tick(n)).collect();
    let mut s1 = Series::new("2DRRM time(s)");
    let mut s2 = Series::new("2DRRR time(s)");
    for &n in ns {
        let data = island_sim(n, 11);
        let (ta, tb, _, _) = two_d_rows(&data, 5);
        s1.push(ta);
        s2.push(tb);
    }
    println!("[island-like]");
    println!("{}", render_table("n", &ticks, &[s1, s2]));
}

/// Fig. 12: 2D time vs n on the NBA stand-in (first two attributes).
fn fig12(scale: Scale) {
    let ns: &[usize] = match scale {
        Scale::Quick => &[5_000, 10_000, 20_000],
        Scale::Full => &[5_000, 10_000, 15_000, 20_000],
    };
    let ticks: Vec<String> = ns.iter().map(|&n| size_tick(n)).collect();
    let mut s1 = Series::new("2DRRM time(s)");
    let mut s2 = Series::new("2DRRR time(s)");
    let mut k1 = Series::new("2DRRM regret");
    for &n in ns {
        let data = nba_sim(n, 5, 12).project(&[0, 1]).unwrap();
        let (ta, tb, ka, _) = two_d_rows(&data, 5);
        s1.push(ta);
        s2.push(tb);
        k1.push(ka as f64);
    }
    println!("[nba-like, 2 attrs]");
    println!("{}", render_table("n", &ticks, &[s1, s2, k1]));
}

// ---------------------------------------------------------------- HD ----

/// One HD experiment row: run the roster on `data` through the
/// [`rrm_core::Solver`] trait, report times+regrets.
fn hd_row(
    data: &Dataset,
    r: usize,
    space: &dyn UtilitySpace,
    scale: Scale,
    roster: &[Algorithm],
) -> Vec<Outcome> {
    let samples = scale.eval_samples();
    let engine = scale.engine();
    roster
        .iter()
        .map(|&algo| {
            let solver = engine.solver(algo);
            measure_solver(solver, data, r, space, &Budget::UNLIMITED, samples)
        })
        .collect()
}

fn print_hd_table(x_label: &str, ticks: &[String], rows: &[Vec<Outcome>]) {
    let mut series: Vec<Series> = Vec::new();
    if rows.is_empty() {
        return;
    }
    // Build (time, regret) series per algorithm present anywhere, plus the
    // certified threshold for HDRRM (the paper's red cross line).
    let mut algos: Vec<&'static str> = Vec::new();
    for row in rows {
        for o in row {
            if !algos.contains(&o.algorithm) {
                algos.push(o.algorithm);
            }
        }
    }
    for &a in &algos {
        let mut t = Series::new(format!("{a} time(s)"));
        let mut k = Series::new(format!("{a} regret"));
        for row in rows {
            match row.iter().find(|o| o.algorithm == a) {
                Some(o) => {
                    t.push(o.seconds);
                    k.push(o.regret as f64);
                }
                None => {
                    t.push_missing();
                    k.push_missing();
                }
            }
        }
        series.push(t);
        series.push(k);
    }
    let mut cert = Series::new("HDRRM k(D)");
    let mut any_cert = false;
    for row in rows {
        match row.iter().find(|o| o.algorithm == "HDRRM").and_then(|o| o.certified) {
            Some(c) => {
                cert.push(c as f64);
                any_cert = true;
            }
            None => cert.push_missing(),
        }
    }
    if any_cert {
        series.push(cert);
    }
    println!("{}", render_table(x_label, ticks, &series));
}

fn fig_hd_index(id: &str, base: &str) -> usize {
    // fig13/14/15 -> 0/1/2 etc.
    let n: usize = id.trim_start_matches("fig").parse().unwrap();
    let b: usize = base.trim_start_matches("fig").parse().unwrap();
    n - b
}

/// Figs. 13–15: HD time+regret vs n (one synthetic distribution each).
fn fig_hd_vs_n(id: &str, scale: Scale) {
    let (name, gen) = SYNTHETICS[fig_hd_index(id, "fig13")];
    let ns: &[usize] = match scale {
        Scale::Quick => &[1_000, 5_000, 20_000],
        Scale::Full => &[1_000, 10_000, 100_000, 1_000_000],
    };
    let ticks: Vec<String> = ns.iter().map(|&n| size_tick(n)).collect();
    let mut rows = Vec::new();
    for &n in ns {
        let data = gen(n, 4, 13);
        // MDRRRr does not scale (the paper stops it at 10K anti / 100K
        // others); mirror that cut-off.
        let mdrrr_cap = if name == "anti-correlated" { 10_000 } else { 100_000 };
        let mut roster = vec![Algorithm::Hdrrm];
        if n <= mdrrr_cap {
            roster.push(Algorithm::MdrrrR);
        }
        roster.extend([Algorithm::Mdrc, Algorithm::Mdrms]);
        rows.push(hd_row(&data, 10, &FullSpace::new(4), scale, &roster));
    }
    println!("[{name}] d = 4, r = 10");
    print_hd_table("n", &ticks, &rows);
}

/// Figs. 16–18: HD vs dimension.
fn fig_hd_vs_d(id: &str, scale: Scale) {
    let (name, gen) = SYNTHETICS[fig_hd_index(id, "fig16")];
    let n = match scale {
        Scale::Quick => 5_000,
        Scale::Full => 10_000,
    };
    let ds: Vec<usize> = (2..=6).collect();
    let ticks: Vec<String> = ds.iter().map(|d| d.to_string()).collect();
    let mut rows = Vec::new();
    for &d in &ds {
        let data = gen(n, d, 16);
        let mdrrr_cap = if name == "anti-correlated" { 4 } else { 5 };
        let mut roster = vec![Algorithm::Hdrrm];
        if d <= mdrrr_cap {
            roster.push(Algorithm::MdrrrR);
        }
        roster.extend([Algorithm::Mdrc, Algorithm::Mdrms]);
        rows.push(hd_row(&data, 10, &FullSpace::new(d), scale, &roster));
    }
    println!("[{name}] n = {}, r = 10", size_tick(n));
    print_hd_table("d", &ticks, &rows);
}

/// Figs. 19–21: HD vs output size.
fn fig_hd_vs_r(id: &str, scale: Scale) {
    let (name, gen) = SYNTHETICS[fig_hd_index(id, "fig19")];
    let n = match scale {
        Scale::Quick => 5_000,
        Scale::Full => 10_000,
    };
    let rs: Vec<usize> = (10..=15).collect();
    let ticks: Vec<String> = rs.iter().map(|r| r.to_string()).collect();
    let data = gen(n, 4, 19);
    let mut rows = Vec::new();
    let roster = [Algorithm::Hdrrm, Algorithm::MdrrrR, Algorithm::Mdrc, Algorithm::Mdrms];
    for &r in &rs {
        rows.push(hd_row(&data, r, &FullSpace::new(4), scale, &roster));
    }
    println!("[{name}] n = {}, d = 4", size_tick(n));
    print_hd_table("r", &ticks, &rows);
}

/// Figs. 22–24: HDRRM vs δ (sample size).
fn fig_hd_vs_delta(id: &str, scale: Scale) {
    let (name, gen) = SYNTHETICS[fig_hd_index(id, "fig22")];
    let n = match scale {
        Scale::Quick => 5_000,
        Scale::Full => 10_000,
    };
    let deltas = [0.01, 0.03, 0.05, 0.1];
    let ticks: Vec<String> = deltas.iter().map(|d| format!("{d}")).collect();
    let data = gen(n, 4, 22);
    let mut time = Series::new("HDRRM time(s)");
    let mut reg = Series::new("HDRRM regret");
    let mut m_col = Series::new("sample size m");
    for &delta in &deltas {
        let solver = HdrrmSolver::new(HdrrmOptions { delta, ..Default::default() });
        let o = measure_solver(
            &solver,
            &data,
            10,
            &FullSpace::new(4),
            &Budget::UNLIMITED,
            scale.eval_samples(),
        );
        time.push(o.seconds);
        reg.push(o.regret as f64);
        m_col.push(rrm_hd::paper_sample_size(n, 10, 4, delta) as f64);
    }
    println!("[{name}] n = {}, d = 4, r = 10", size_tick(n));
    println!("{}", render_table("delta", &ticks, &[time, reg, m_col]));
}

/// Fig. 25: RRRM (weak ranking c = 2) vs n on anti-correlated data.
fn fig25(scale: Scale) {
    let ns: &[usize] = match scale {
        Scale::Quick => &[1_000, 5_000, 20_000],
        Scale::Full => &[1_000, 10_000, 100_000, 1_000_000],
    };
    let ticks: Vec<String> = ns.iter().map(|&n| size_tick(n)).collect();
    let space = WeakRankingSpace::new(4, 2);
    let mut rows = Vec::new();
    for &n in ns {
        let data = rrm_data::synthetic::anticorrelated(n, 4, 25);
        let mut roster = vec![Algorithm::Hdrrm];
        if n <= 100_000 {
            roster.push(Algorithm::MdrrrR);
        }
        rows.push(hd_row(&data, 10, &space, scale, &roster));
    }
    println!("[anti-correlated, RRRM weak ranking c=2] d = 4, r = 10");
    print_hd_table("n", &ticks, &rows);
}

/// Fig. 26: RRRM vs dimension on anti-correlated data.
fn fig26(scale: Scale) {
    let n = match scale {
        Scale::Quick => 5_000,
        Scale::Full => 10_000,
    };
    let ds: Vec<usize> = (3..=6).collect();
    let ticks: Vec<String> = ds.iter().map(|d| d.to_string()).collect();
    let mut rows = Vec::new();
    for &d in &ds {
        let data = rrm_data::synthetic::anticorrelated(n, d, 26);
        let space = WeakRankingSpace::new(d, 2);
        let mut roster = vec![Algorithm::Hdrrm];
        if d <= 5 {
            roster.push(Algorithm::MdrrrR);
        }
        rows.push(hd_row(&data, 10, &space, scale, &roster));
    }
    println!("[anti-correlated, RRRM weak ranking c=2] n = {}, r = 10", size_tick(n));
    print_hd_table("d", &ticks, &rows);
}

/// Fig. 27: HD algorithms on the NBA stand-in (d = 5).
fn fig27(scale: Scale) {
    let ns: &[usize] = match scale {
        Scale::Quick => &[5_000, 10_000, 20_000],
        Scale::Full => &[5_000, 10_000, 15_000, 20_000],
    };
    let ticks: Vec<String> = ns.iter().map(|&n| size_tick(n)).collect();
    let mut rows = Vec::new();
    for &n in ns {
        let data = nba_sim(n, 5, 27);
        let roster = [Algorithm::Hdrrm, Algorithm::MdrrrR, Algorithm::Mdrc, Algorithm::Mdrms];
        rows.push(hd_row(&data, 10, &FullSpace::new(5), scale, &roster));
    }
    println!("[nba-like] d = 5, r = 10");
    print_hd_table("n", &ticks, &rows);
}

/// Fig. 28: HD algorithms on the Weather stand-in (d = 4).
fn fig28(scale: Scale) {
    let ns: &[usize] = match scale {
        Scale::Quick => &[40_000, 80_000],
        Scale::Full => &[40_000, 80_000, 120_000, 160_000],
    };
    let ticks: Vec<String> = ns.iter().map(|&n| size_tick(n)).collect();
    let mut rows = Vec::new();
    for &n in ns {
        let data = weather_sim(n, 4, 28);
        let roster = [Algorithm::Hdrrm, Algorithm::Mdrc, Algorithm::Mdrms];
        rows.push(hd_row(&data, 10, &FullSpace::new(4), scale, &roster));
    }
    println!("[weather-like] d = 4, r = 10");
    print_hd_table("n", &ticks, &rows);
}

/// Design-choice ablations: the quality and time of each variant.
fn ablation(scale: Scale) {
    // (a) HDRRM discretization: grid only / samples only / both, and γ.
    let n = 5_000;
    let data = rrm_data::synthetic::anticorrelated(n, 4, 31);
    let samples = scale.eval_samples();
    println!("[ablation: HDRRM discretization] anti-correlated n = {n}, d = 4, r = 10");
    let mut labels = Vec::new();
    let mut time = Series::new("time(s)");
    let mut reg = Series::new("regret");
    let m_default = rrm_hd::paper_sample_size(n, 10, 4, scale.hdrrm_options().delta);
    for (label, m, gamma) in [
        ("Da+Db (default)", m_default, 6usize),
        ("Da only", m_default, 1),
        ("Db only (gamma=6)", 0, 6),
        ("gamma=2", m_default, 2),
        ("gamma=10", m_default, 10),
    ] {
        let solver = HdrrmSolver::new(HdrrmOptions { gamma, ..scale.hdrrm_options() });
        let budget = Budget::with_samples(m);
        let o = measure_solver(&solver, &data, 10, &FullSpace::new(4), &budget, samples);
        labels.push(label.to_string());
        time.push(o.seconds);
        reg.push(o.regret as f64);
    }
    println!("{}", render_table("variant", &labels, &[time, reg]));

    // (b) Basis inclusion (Theorem 7's requirement): the boundary tuples
    // buy the (1-eps) utility floor but consume budget slots.
    println!("[ablation: basis inclusion] anti-correlated n = 5K, d = 4, r = 10");
    let data_b = rrm_data::synthetic::anticorrelated(5_000, 4, 34);
    let mut labels = Vec::new();
    let mut time = Series::new("time(s)");
    let mut reg = Series::new("regret");
    for (label, basis) in [("with basis (paper)", true), ("without basis", false)] {
        let solver =
            HdrrmSolver::new(HdrrmOptions { include_basis: basis, ..scale.hdrrm_options() });
        let o =
            measure_solver(&solver, &data_b, 10, &FullSpace::new(4), &Budget::UNLIMITED, samples);
        labels.push(label.to_string());
        time.push(o.seconds);
        reg.push(o.regret as f64);
    }
    println!("{}", render_table("variant", &labels, &[time, reg]));

    // (c) Skyline candidate pre-filtering inside ASMS.
    println!("[ablation: skyline candidates] independent n = 20K, d = 4, r = 10");
    let data = rrm_data::synthetic::independent(20_000, 4, 32);
    let mut labels = Vec::new();
    let mut time = Series::new("time(s)");
    let mut reg = Series::new("regret");
    for (label, sky) in [("skyline candidates", true), ("all candidates", false)] {
        let solver =
            HdrrmSolver::new(HdrrmOptions { skyline_candidates: sky, ..scale.hdrrm_options() });
        let o = measure_solver(&solver, &data, 10, &FullSpace::new(4), &Budget::UNLIMITED, samples);
        labels.push(label.to_string());
        time.push(o.seconds);
        reg.push(o.regret as f64);
    }
    println!("{}", render_table("variant", &labels, &[time, reg]));

    // (d) 2DRRM event machinery: the solver's K-band stream vs the
    // paper-faithful full sweep over every row, the reference function.
    // Both are exact, so their certified regrets must agree: the full
    // sweep checks the band at scale.
    println!("[ablation: 2DRRM sweep] anti-correlated 2D n = 10K, r = 5");
    let data = rrm_data::synthetic::anticorrelated(10_000, 2, 33);
    let space = FullSpace::new(2);
    let band = measure_solver(&TwoDRrmSolver, &data, 5, &space, &Budget::UNLIMITED, samples);
    let (full, full_seconds) = timed(|| full_sweep_rrm(&data, &space, 5).expect("full sweep"));
    let full_regret = estimate_rank_regret(&data, &full.indices, &space, samples, EVAL_SEED);
    let labels = ["K-band crossing stream".to_string(), "full arrangement sweep".to_string()];
    let mut time = Series::new("time(s)");
    let mut reg = Series::new("regret");
    time.push(band.seconds);
    time.push(full_seconds);
    reg.push(band.regret as f64);
    reg.push(full_regret.max_rank as f64);
    println!("{}", render_table("variant", &labels, &[time, reg]));
    assert_eq!(
        band.certified, full.certified_regret,
        "2DRRM: the K-band stream and the full sweep certify different regrets"
    );
}

/// Session amortization: the prepare-once / query-many API against
/// one-shot solving ([`rank_regret::Engine::run`], a fresh prepare per
/// query), per algorithm, on the serving workload the paper motivates
/// (one dataset, a stream of queries with repeating sizes). Prints a table
/// and writes `BENCH_session.json` with the raw numbers.
fn amortize(scale: Scale) {
    use rank_regret::Session;

    struct Entry {
        algorithm: &'static str,
        n: usize,
        d: usize,
        queries: usize,
        one_shot_seconds: f64,
        prepare_seconds: f64,
        prepared_query_seconds: f64,
    }

    let engine = scale.engine();
    // Per algorithm: a dataset it can handle at benchmarkable scale, a
    // stream of query sizes (3 distinct values x 4 rounds — repeats are
    // the point: that is what serving traffic looks like), and a sample
    // budget that keeps the randomized solvers comparable on both paths.
    let workloads: Vec<(Algorithm, Dataset, Vec<usize>, Budget)> = vec![
        (
            Algorithm::TwoDRrm,
            rrm_data::synthetic::anticorrelated(2_000, 2, 77),
            vec![4, 8, 16, 4, 8, 16, 4, 8, 16, 4, 8, 16],
            Budget::UNLIMITED,
        ),
        (
            Algorithm::TwoDRrr,
            rrm_data::synthetic::anticorrelated(2_000, 2, 77),
            vec![4, 8, 16, 4, 8, 16, 4, 8, 16, 4, 8, 16],
            Budget::UNLIMITED,
        ),
        (
            Algorithm::Hdrrm,
            rrm_data::synthetic::independent(2_000, 4, 77),
            vec![8, 12, 16, 8, 12, 16, 8, 12, 16, 8, 12, 16],
            Budget::with_samples(300),
        ),
        (
            Algorithm::Mdrrr,
            rrm_data::synthetic::independent(25, 3, 77),
            vec![2, 4, 6, 2, 4, 6, 2, 4, 6, 2, 4, 6],
            // The k-set caps perfbench's `exact_small` also uses. They do
            // not bind here: uncapped, the slowest query (r = 2) gives the
            // same answer in about 0.1 s on a 2-core box.
            Budget {
                max_enumerations: Some(10_000),
                max_lp_calls: Some(100_000),
                ..Budget::UNLIMITED
            },
        ),
        (
            Algorithm::MdrrrR,
            rrm_data::synthetic::independent(2_000, 4, 77),
            vec![8, 12, 16, 8, 12, 16, 8, 12, 16, 8, 12, 16],
            Budget::with_samples(2_000),
        ),
        (
            Algorithm::Mdrc,
            rrm_data::synthetic::independent(2_000, 4, 77),
            vec![8, 12, 16, 8, 12, 16, 8, 12, 16, 8, 12, 16],
            Budget::with_samples(300),
        ),
        (
            Algorithm::Mdrms,
            rrm_data::synthetic::independent(2_000, 4, 77),
            vec![8, 12, 16, 8, 12, 16, 8, 12, 16, 8, 12, 16],
            Budget::with_samples(300),
        ),
        (
            Algorithm::BruteForce,
            rrm_data::synthetic::independent(16, 2, 77),
            vec![1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3],
            Budget::with_samples(2_000),
        ),
    ];

    println!(
        "{:<11} {:>5} {:>2} {:>4} {:>12} {:>12} {:>12} {:>9}",
        "algorithm", "n", "d", "Q", "one-shot(s)", "prepare(s)", "queries(s)", "speedup"
    );
    let mut entries: Vec<Entry> = Vec::new();
    for (algo, data, sizes, budget) in &workloads {
        let space = FullSpace::new(data.dim());

        // One-shot path: every query re-derives the per-dataset state.
        let (results, one_shot_seconds) = timed(|| {
            sizes
                .iter()
                .map(|&r| {
                    let request =
                        rank_regret::Request::minimize(r).algo(*algo).budget(budget.clone());
                    engine.run(data, &space, &request).expect("one-shot solve")
                })
                .collect::<Vec<_>>()
        });

        // Prepared path: bind once, then the same query stream.
        let (prepared, prepare_seconds) =
            timed(|| engine.prepare(*algo, data, &space).expect("prepare"));
        let (prepared_results, prepared_query_seconds) = timed(|| {
            sizes
                .iter()
                .map(|&r| prepared.solve_rrm(r, budget).expect("prepared solve"))
                .collect::<Vec<_>>()
        });
        // The whole point is amortization *without* answer drift.
        assert_eq!(results, prepared_results, "{algo}: prepared path diverged");

        let speedup = one_shot_seconds / prepared_query_seconds.max(1e-9);
        println!(
            "{:<11} {:>5} {:>2} {:>4} {:>12.4} {:>12.4} {:>12.4} {:>8.1}x",
            algo.name(),
            data.n(),
            data.dim(),
            sizes.len(),
            one_shot_seconds,
            prepare_seconds,
            prepared_query_seconds,
            speedup,
        );
        entries.push(Entry {
            algorithm: algo.name(),
            n: data.n(),
            d: data.dim(),
            queries: sizes.len(),
            one_shot_seconds,
            prepare_seconds,
            prepared_query_seconds,
        });
    }

    // Hand-rolled JSON (no serde in the offline container).
    let mut json = format!("{{{},\"entries\":[\n", bench::bench_meta("session_amortization"));
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!(
            "  {{\"algorithm\":\"{}\",\"n\":{},\"d\":{},\"queries\":{},\
             \"one_shot_seconds\":{:.6},\"one_shot_per_query\":{:.6},\
             \"prepare_seconds\":{:.6},\"prepared_query_seconds\":{:.6},\
             \"prepared_per_query\":{:.6},\"per_query_speedup\":{:.2}}}{sep}\n",
            e.algorithm,
            e.n,
            e.d,
            e.queries,
            e.one_shot_seconds,
            e.one_shot_seconds / e.queries as f64,
            e.prepare_seconds,
            e.prepared_query_seconds,
            e.prepared_query_seconds / e.queries as f64,
            (e.one_shot_seconds / e.queries as f64)
                / (e.prepared_query_seconds / e.queries as f64).max(1e-9),
        ));
    }
    json.push_str("]}\n");
    std::fs::write("BENCH_session.json", &json).expect("write BENCH_session.json");
    println!("wrote BENCH_session.json");

    // Smoke the batch surface too: a Session over the 2D dataset must
    // reproduce the direct prepared results.
    let (_, data, sizes, budget) = &workloads[0];
    let session = Session::new(data.clone());
    let requests: Vec<rank_regret::Request> =
        sizes.iter().map(|&r| rank_regret::Request::minimize(r).budget(budget.clone())).collect();
    let ok = session.run_batch(&requests).into_iter().filter(|r| r.is_ok()).count();
    println!("session batch: {ok}/{} requests answered", requests.len());
}

/// Thread-scaling sweep for the parallel execution layer: per algorithm,
/// one prepare + a query stream at 1/2/4/8 worker threads. Asserts the
/// solutions are bit-identical across thread counts (the determinism
/// contract), prints per-count timings, and writes `BENCH_parallel.json`
/// with the speedups relative to one thread.
fn thread_scaling(scale: Scale) {
    let thread_counts = [1usize, 2, 4, 8];
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    // Per algorithm: a dataset sized so kernels dominate, a query stream,
    // and a sample budget holding the randomized solvers to useful sizes.
    let workloads: Vec<(Algorithm, Dataset, Vec<usize>, Budget)> = vec![
        (
            Algorithm::TwoDRrm,
            rrm_data::synthetic::anticorrelated(4_000, 2, 88),
            vec![4, 8, 16],
            Budget::UNLIMITED,
        ),
        (
            Algorithm::TwoDRrr,
            rrm_data::synthetic::anticorrelated(4_000, 2, 88),
            vec![4, 8, 16],
            Budget::UNLIMITED,
        ),
        (
            Algorithm::Hdrrm,
            rrm_data::synthetic::independent(4_000, 4, 88),
            vec![8, 12, 16],
            Budget::with_samples(1_500),
        ),
        (
            Algorithm::MdrrrR,
            rrm_data::synthetic::independent(4_000, 4, 88),
            vec![8, 12, 16],
            Budget::with_samples(4_000),
        ),
        (
            Algorithm::Mdrc,
            rrm_data::synthetic::independent(20_000, 4, 88),
            vec![8, 12, 16],
            Budget::UNLIMITED,
        ),
        (
            Algorithm::Mdrms,
            rrm_data::synthetic::anticorrelated(8_000, 4, 88),
            vec![8, 12, 16],
            Budget::with_samples(1_000),
        ),
        (
            Algorithm::Mdrrr,
            rrm_data::synthetic::independent(22, 3, 88),
            vec![3, 5],
            Budget {
                max_enumerations: Some(5_000),
                max_lp_calls: Some(50_000),
                ..Budget::UNLIMITED
            },
        ),
        (
            Algorithm::BruteForce,
            rrm_data::synthetic::independent(16, 2, 88),
            vec![1, 2, 3],
            Budget::with_samples(20_000),
        ),
    ];

    struct Entry {
        algorithm: &'static str,
        n: usize,
        d: usize,
        queries: usize,
        seconds: Vec<f64>,
    }

    // On a single core every "speedup" is pure scheduling noise; stamp the
    // entries invalid so stale numbers can't be mistaken for scaling data.
    let valid = cores > 1;
    if !valid {
        eprintln!("==========================================================================");
        eprintln!("WARNING: this machine has 1 core — thread-scaling speedups below are");
        eprintln!("scheduling noise, NOT scaling data. BENCH_parallel.json entries will be");
        eprintln!("stamped \"valid\": false; rerun on multi-core hardware for real numbers.");
        eprintln!("==========================================================================");
    }
    println!("machine cores: {cores} (speedups above the core count are not expected)");
    println!(
        "{:<11} {:>6} {:>2} {:>10} {:>10} {:>10} {:>10} {:>8}",
        "algorithm", "n", "d", "t=1 (s)", "t=2 (s)", "t=4 (s)", "t=8 (s)", "x @ 4"
    );
    let mut entries: Vec<Entry> = Vec::new();
    for (algo, data, sizes, budget) in &workloads {
        let space = FullSpace::new(data.dim());
        let mut seconds: Vec<f64> = Vec::new();
        let mut baseline: Option<Vec<rrm_core::Solution>> = None;
        for &t in &thread_counts {
            let engine = scale.engine().with_exec(ExecPolicy::threads(t));
            let (prepared, prep_s) =
                timed(|| engine.prepare(*algo, data, &space).expect("prepare"));
            let (results, query_s) = timed(|| {
                sizes
                    .iter()
                    .map(|&r| prepared.solve_rrm(r, budget).expect("prepared solve"))
                    .collect::<Vec<_>>()
            });
            // The determinism contract: identical solutions at any count.
            match &baseline {
                None => baseline = Some(results),
                Some(b) => assert_eq!(b, &results, "{algo}: thread count changed the answer"),
            }
            seconds.push(prep_s + query_s);
        }
        let speedup4 = seconds[0] / seconds[2].max(1e-9);
        println!(
            "{:<11} {:>6} {:>2} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>7.2}x",
            algo.name(),
            data.n(),
            data.dim(),
            seconds[0],
            seconds[1],
            seconds[2],
            seconds[3],
            speedup4,
        );
        entries.push(Entry {
            algorithm: algo.name(),
            n: data.n(),
            d: data.dim(),
            queries: sizes.len(),
            seconds,
        });
    }

    // Hand-rolled JSON (no serde in the offline container).
    let mut json =
        format!("{{{},\"thread_counts\":[1,2,4,8],", bench::bench_meta("thread_scaling"));
    json.push_str(&format!("\"machine_cores\":{cores},\"entries\":[\n"));
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        let secs: Vec<String> = e.seconds.iter().map(|s| format!("{s:.6}")).collect();
        let speedups: Vec<String> =
            e.seconds.iter().map(|s| format!("{:.3}", e.seconds[0] / s.max(1e-9))).collect();
        json.push_str(&format!(
            "  {{\"algorithm\":\"{}\",\"n\":{},\"d\":{},\"queries\":{},\
             \"seconds\":[{}],\"speedups\":[{}],\"valid\":{valid}}}{sep}\n",
            e.algorithm,
            e.n,
            e.d,
            e.queries,
            secs.join(","),
            speedups.join(","),
        ));
    }
    json.push_str("]}\n");
    std::fs::write("BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("wrote BENCH_parallel.json");
    if !valid {
        println!("NOTE: entries stamped \"valid\": false (machine_cores == 1).");
    }
}

/// Naive vs. blocked scoring-kernel throughput on one thread: the
/// sequential half of the ROADMAP's "make the parallel runtime pay" item,
/// measurable even in a 1-core container. For each (n, d) the same
/// direction batch is scored by the row-major scalar reference and by the
/// cache-blocked SoA kernel; both must agree bit-for-bit before timing
/// counts. Then, on the blocked kernel's scores for d = 4, the full-n
/// quickselect top-k is timed against the bounded selection
/// (`rank::top_k_into`) at several k, and full lists against lists
/// stopped at the basis (`rank::top_k_until`) on anti-correlated rows,
/// with every list parity-checked. Then come the 2D sweep's sorts
/// ([`sort_rows`]), the cover index ([`cover_rows`]) and cold 2DRRM
/// prepares ([`prepare2d_rows`]). Writes `BENCH_kernels.json`.
fn kernels(scale: Scale) {
    use rrm_core::kernel::{self, ScoreScratch};
    use rrm_core::utility::dot;

    let (reps, n_dirs) = match scale {
        Scale::Quick => (3usize, 64usize),
        Scale::Full => (10, 64),
    };
    let ns: [usize; 2] = [10_000, 100_000];
    let ds: [usize; 3] = [2, 4, 8];

    struct Entry {
        n: usize,
        d: usize,
        dirs: usize,
        naive_seconds: f64,
        blocked_seconds: f64,
    }

    println!("single-thread scoring throughput, best of {reps} reps, {n_dirs} directions");
    println!(
        "{:>8} {:>2} {:>14} {:>14} {:>8}",
        "n", "d", "naive (M/s)", "blocked (M/s)", "speedup"
    );
    let mut entries: Vec<Entry> = Vec::new();
    for &n in &ns {
        for &d in &ds {
            let data = rrm_data::synthetic::independent(n, d, 41);
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
            let space = FullSpace::new(d);
            let dirs: Vec<Vec<f64>> =
                (0..n_dirs).map(|_| space.sample_direction(&mut rng)).collect();
            let soa = data.soa(); // transpose once, outside the timed region
            let mut scratch = ScoreScratch::new();

            // Parity gate: the blocked kernel must reproduce the scalar
            // reference bit-for-bit or the timing below is meaningless.
            let mut naive_buf: Vec<f64> = Vec::with_capacity(n);
            kernel::for_each_scores(soa, &dirs, &mut scratch, |di, scores| {
                naive_buf.clear();
                naive_buf.extend(data.rows().map(|row| dot(&dirs[di], row)));
                assert_eq!(
                    naive_buf.iter().map(|s| s.to_bits()).collect::<Vec<u64>>(),
                    scores.iter().map(|s| s.to_bits()).collect::<Vec<u64>>(),
                    "kernel parity violation at n={n} d={d} dir={di}"
                );
            });

            // Naive baseline: row-major scalar dots into a reused buffer
            // (exactly the pre-kernel utilities_into hot loop).
            let naive_seconds = (0..reps)
                .map(|_| {
                    timed(|| {
                        let mut sink = 0.0f64;
                        for u in &dirs {
                            naive_buf.clear();
                            naive_buf.extend(data.rows().map(|row| dot(u, row)));
                            sink += naive_buf[n - 1];
                        }
                        std::hint::black_box(sink)
                    })
                    .1
                })
                .fold(f64::INFINITY, f64::min);

            // Blocked SoA kernel, same consume shape.
            let blocked_seconds = (0..reps)
                .map(|_| {
                    timed(|| {
                        let mut sink = 0.0f64;
                        kernel::for_each_scores(soa, &dirs, &mut scratch, |_, scores| {
                            sink += scores[n - 1];
                        });
                        std::hint::black_box(sink)
                    })
                    .1
                })
                .fold(f64::INFINITY, f64::min);

            let ops = (n * n_dirs) as f64;
            println!(
                "{:>8} {:>2} {:>14.1} {:>14.1} {:>7.2}x",
                n,
                d,
                ops / naive_seconds.max(1e-12) / 1e6,
                ops / blocked_seconds.max(1e-12) / 1e6,
                naive_seconds / blocked_seconds.max(1e-12),
            );
            entries.push(Entry { n, d, dirs: n_dirs, naive_seconds, blocked_seconds });
        }
    }

    let selection = selection_rows(&ns, reps, n_dirs);
    let stopped = stopped_rows(&ns, reps, n_dirs);
    let sorts = sort_rows(reps);
    let covers = cover_rows(reps);
    let prepares = prepare2d_rows(reps);

    // Hand-rolled JSON (no serde in the offline container).
    let mut json =
        format!("{{{},\"threads\":1,\"entries\":[\n", bench::bench_meta("scoring_kernels"));
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        let ops = (e.n * e.dirs) as f64;
        json.push_str(&format!(
            "  {{\"n\":{},\"d\":{},\"dirs\":{},\
             \"naive_seconds\":{:.6},\"blocked_seconds\":{:.6},\
             \"naive_throughput\":{:.0},\"blocked_throughput\":{:.0},\
             \"speedup\":{:.3}}}{sep}\n",
            e.n,
            e.d,
            e.dirs,
            e.naive_seconds,
            e.blocked_seconds,
            ops / e.naive_seconds.max(1e-12),
            ops / e.blocked_seconds.max(1e-12),
            e.naive_seconds / e.blocked_seconds.max(1e-12),
        ));
    }
    json.push_str("],\"selection\":[\n");
    for (i, e) in selection.iter().enumerate() {
        let sep = if i + 1 == selection.len() { "" } else { "," };
        let ops = (e.n * e.dirs) as f64;
        json.push_str(&format!(
            "  {{\"n\":{},\"d\":{},\"dirs\":{},\"k\":{},\
             \"quickselect_seconds\":{:.6},\"bounded_seconds\":{:.6},\
             \"quickselect_ns_per_score\":{:.3},\"bounded_ns_per_score\":{:.3},\
             \"speedup\":{:.3}}}{sep}\n",
            e.n,
            e.d,
            e.dirs,
            e.k,
            e.quickselect_seconds,
            e.bounded_seconds,
            e.quickselect_seconds / ops * 1e9,
            e.bounded_seconds / ops * 1e9,
            e.quickselect_seconds / e.bounded_seconds.max(1e-12),
        ));
    }
    json.push_str("],\"stopped\":[\n");
    for (i, e) in stopped.iter().enumerate() {
        let sep = if i + 1 == stopped.len() { "" } else { "," };
        let ops = (e.n * e.dirs) as f64;
        json.push_str(&format!(
            "  {{\"n\":{},\"d\":{},\"dirs\":{},\"k\":{},\
             \"full_seconds\":{:.6},\"stopped_seconds\":{:.6},\
             \"full_ns_per_score\":{:.3},\"stopped_ns_per_score\":{:.3},\
             \"full_mean_len\":{:.1},\"stopped_mean_len\":{:.1},\
             \"speedup\":{:.3}}}{sep}\n",
            e.n,
            e.d,
            e.dirs,
            e.k,
            e.full_seconds,
            e.stopped_seconds,
            e.full_seconds / ops * 1e9,
            e.stopped_seconds / ops * 1e9,
            e.full_mean_len,
            e.stopped_mean_len,
            e.full_seconds / e.stopped_seconds.max(1e-12),
        ));
    }
    json.push_str("],\"sorts\":[\n");
    for (i, e) in sorts.iter().enumerate() {
        let sep = if i + 1 == sorts.len() { "" } else { "," };
        json.push_str(&format!(
            "  {{\"sort\":\"{}\",\"n\":{},\"at\":{},\"k\":{},\"items\":{},\
             \"comparison_seconds\":{:.6},\"counting_seconds\":{:.6},\
             \"comparison_ns_per_item\":{:.3},\"counting_ns_per_item\":{:.3},\
             \"speedup\":{:.3}}}{sep}\n",
            e.sort,
            e.n,
            e.at,
            e.k,
            e.items,
            e.comparison_seconds,
            e.counting_seconds,
            e.comparison_seconds / e.items as f64 * 1e9,
            e.counting_seconds / e.items as f64 * 1e9,
            e.comparison_seconds / e.counting_seconds.max(1e-12),
        ));
    }
    json.push_str("],\"covers\":[\n");
    for (i, e) in covers.iter().enumerate() {
        let sep = if i + 1 == covers.len() { "" } else { "," };
        json.push_str(&format!(
            "  {{\"n\":{},\"d\":{},\"dirs\":{},\"r\":{},\"threshold\":{},\"probes\":{},\
             \"fresh_seconds\":{:.6},\"reused_seconds\":{:.6},\
             \"fresh_us_per_probe\":{:.3},\"reused_us_per_probe\":{:.3},\
             \"speedup\":{:.3}}}{sep}\n",
            e.n,
            e.d,
            e.dirs,
            e.r,
            e.threshold,
            e.probes,
            e.fresh_seconds,
            e.reused_seconds,
            e.fresh_seconds / e.probes as f64 * 1e6,
            e.reused_seconds / e.probes as f64 * 1e6,
            e.fresh_seconds / e.reused_seconds.max(1e-12),
        ));
    }
    json.push_str("],\"prepare2d\":[\n");
    for (i, e) in prepares.iter().enumerate() {
        let sep = if i + 1 == prepares.len() { "" } else { "," };
        json.push_str(&format!(
            "  {{\"n\":{},\"r\":{},\"regret\":{},\
             \"prepare_seconds\":{:.6},\"query_seconds\":{:.6},\
             \"prepare_ns_per_row\":{:.3},\"query_ns_per_row\":{:.3}}}{sep}\n",
            e.n,
            e.r,
            e.regret,
            e.prepare_seconds,
            e.query_seconds,
            e.prepare_seconds / e.n as f64 * 1e9,
            e.query_seconds / e.n as f64 * 1e9,
        ));
    }
    json.push_str("]}\n");
    std::fs::write("BENCH_kernels.json", &json).expect("write BENCH_kernels.json");
    println!(
        "wrote BENCH_kernels.json (throughput in tuple*direction scores per second; \
         selection in ns per score; sorts in ns per row or crossing; covers in us per probe; \
         2D prepares in ns per row)"
    );
}

/// One cold 2DRRM row of `repro kernels`.
struct Prepare2dEntry {
    n: usize,
    r: usize,
    /// The first query's certified rank-regret.
    regret: usize,
    prepare_seconds: f64,
    query_seconds: f64,
}

/// A cold 2DRRM prepare and its first `minimize(8)`, through a fresh
/// one-thread `Session` per rep, on anti-correlated planar rows like
/// `exact_small`'s (n = 20K, 50K, 100K). Gate: every answer's certificate
/// must equal `rrm_eval::exact_rank_regret_2d` of its set, and every rep
/// must answer alike; best of `reps` passes.
fn prepare2d_rows(reps: usize) -> Vec<Prepare2dEntry> {
    use rank_regret::{Request, Session};

    let r = 8;
    println!("single-thread cold 2DRRM (ns per row), best of {reps} reps, anti-correlated d=2");
    println!("{:>8} {:>3} {:>7} {:>11} {:>13}", "n", "r", "regret", "prepare ns", "1st query ns");
    let mut rows = Vec::new();
    for n in [20_000usize, 50_000, 100_000] {
        let data = rrm_data::synthetic::anticorrelated(n, 2, 41);
        let (mut prepare_seconds, mut query_seconds) = (f64::INFINITY, f64::INFINITY);
        let mut answer = None;
        for _ in 0..reps {
            let session = Session::new(data.clone()).exec(ExecPolicy::sequential());
            let (warmed, seconds) = timed(|| session.warm(&[Algorithm::TwoDRrm]));
            assert_eq!(warmed, 1, "2DRRM failed to prepare at n={n}");
            prepare_seconds = prepare_seconds.min(seconds);
            let request = Request::minimize(r).algo(Algorithm::TwoDRrm);
            let (response, seconds) = timed(|| session.run(&request).expect("2DRRM answers"));
            query_seconds = query_seconds.min(seconds);
            let solution = response.solution;
            let certified = solution.certified_regret.expect("2DRRM certifies its answer");
            let (exact, _) = exact_rank_regret_2d(&data, &solution.indices, 0.0, 1.0);
            assert_eq!(certified, exact, "2DRRM certificate violation at n={n}");
            assert_eq!(*answer.get_or_insert_with(|| solution.clone()), solution, "n={n}");
        }
        let regret = answer.and_then(|s| s.certified_regret).expect("answered");
        println!(
            "{:>8} {:>3} {:>7} {:>11.2} {:>13.2}",
            n,
            r,
            regret,
            prepare_seconds / n as f64 * 1e9,
            query_seconds / n as f64 * 1e9,
        );
        rows.push(Prepare2dEntry { n, r, regret, prepare_seconds, query_seconds });
    }
    rows
}

/// One cover row of `repro kernels`: one threshold search's probes.
struct CoverEntry {
    n: usize,
    d: usize,
    dirs: usize,
    r: usize,
    /// The search's answer: the smallest threshold whose cover fits `r`.
    threshold: usize,
    probes: usize,
    fresh_seconds: f64,
    reused_seconds: f64,
}

/// HDRRM's greedy covers on `hd_cold`'s frame shape: anti-correlated
/// n = 5,000, d = 4 rows, the 459 directions of 200 samples on the
/// default γ = 6 grid, lists stopped at the basis, and the skyline as the
/// candidate mask. For each size `r` of `hd_cold`'s queries, the probe
/// sequence of one threshold search (doubling, then bisection, each cover
/// capped at `r - |B|` picks) runs through one reused
/// `rrm_hd::asms::CoverIndex` and through a fresh `asms_with_topk_capped`
/// per probe. Parity gate: every probe's `(q, complete, picks)` must agree
/// before its timing counts; best of `reps` passes.
fn cover_rows(reps: usize) -> Vec<CoverEntry> {
    use rrm_hd::asms::{asms_with_topk_capped, AsmsProbe, CoverIndex};

    let (n, d) = (5_000, 4);
    let data = rrm_data::synthetic::anticorrelated(n, d, 111);
    let basis = rrm_core::basis_indices(&data);
    let mut mask = vec![false; n];
    for t in rrm_skyline::skyline(&data) {
        mask[t as usize] = true;
    }
    let opts = HdrrmOptions::default();
    let disc = rrm_hd::build_vector_set(d, &FullSpace::new(d), 200, opts.gamma, opts.seed);
    let dirs = disc.dirs.len();
    let lists = rrm_core::rank::batch_top_k_until(
        &data,
        &disc.dirs,
        n,
        &basis,
        rrm_core::Parallelism::Sequential,
    );
    let outcome = |p: AsmsProbe| (p.q, p.complete, p.picks);
    println!(
        "single-thread ASMS cover probes (us per probe), best of {reps} reps, anti-correlated \
         n={n} d={d}, {dirs} directions, lists stopped at the basis, skyline mask"
    );
    println!(
        "{:>4} {:>9} {:>6} {:>10} {:>10} {:>8}",
        "r", "threshold", "probes", "fresh us", "reused us", "speedup"
    );
    let mut rows = Vec::new();
    for r in [6usize, 7, 9, 13, 20] {
        let cap = r - basis.len();
        // The probe sequence, and each probe's outcome, from fresh covers.
        let (mut seq, mut want) = (Vec::new(), Vec::new());
        let mut probe = |k: usize| {
            let p = asms_with_topk_capped(n, k, &basis, &lists, Some(&mask), cap);
            let fits = p.complete && p.q.len() <= r;
            seq.push(k);
            want.push(outcome(p));
            fits
        };
        let (mut lo, mut hi) = (1, 1);
        while !probe(hi) {
            lo = hi + 1;
            hi = (2 * hi).min(n);
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if probe(mid) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let (mut fresh_seconds, mut reused_seconds) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..reps {
            let (fresh, seconds): (Vec<_>, f64) = timed(|| {
                let cover =
                    |&k: &usize| asms_with_topk_capped(n, k, &basis, &lists, Some(&mask), cap);
                seq.iter().map(cover).collect()
            });
            fresh_seconds = fresh_seconds.min(seconds);
            let (reused, seconds): (Vec<_>, f64) = timed(|| {
                let mut index = CoverIndex::new(n, &basis, Some(&mask), &lists);
                seq.iter().map(|&k| index.probe(&lists, k, cap)).collect()
            });
            reused_seconds = reused_seconds.min(seconds);
            for (((k, want), fresh), reused) in seq.iter().zip(&want).zip(fresh).zip(reused) {
                assert_eq!(&outcome(fresh), want, "fresh cover parity violation at r={r} k={k}");
                assert_eq!(&outcome(reused), want, "cover index parity violation at r={r} k={k}");
            }
        }
        let probes = seq.len();
        println!(
            "{:>4} {:>9} {:>6} {:>10.1} {:>10.1} {:>7.2}x",
            r,
            hi,
            probes,
            fresh_seconds / probes as f64 * 1e6,
            reused_seconds / probes as f64 * 1e6,
            fresh_seconds / reused_seconds.max(1e-12),
        );
        rows.push(CoverEntry {
            n,
            d,
            dirs,
            r,
            threshold: hi,
            probes,
            fresh_seconds,
            reused_seconds,
        });
    }
    rows
}

/// One comparison-vs-counting sort row of `repro kernels`.
struct SortEntry {
    /// `order_at` (rows by height at `at`) or `stream` (a K-band's
    /// crossings in x order).
    sort: &'static str,
    n: usize,
    at: f64,
    /// The band's `K` for a stream; 0 for `order_at`.
    k: usize,
    /// Rows sorted, or crossings streamed.
    items: usize,
    comparison_seconds: f64,
    counting_seconds: f64,
}

/// The 2D sweep's two sorts, comparison reference against the counting
/// sort, on anti-correlated planar rows like `exact_small`'s: `order_at`
/// over every row at `x = 0` and `x = 1` (n = 20K, 50K, 100K), and the
/// materialized crossing stream of the K = 32 and K = 160 bands at
/// n = 50K (enumeration included on both sides). Parity gate: every
/// counting-sort output must equal its reference before its timing counts;
/// best of `reps` passes.
fn sort_rows(reps: usize) -> Vec<SortEntry> {
    use rrm_geom::dual::order_at;
    use rrm_geom::events::crossings_with_tracked;

    println!("single-thread 2D sweep sorts (ns per row or crossing), best of {reps} reps");
    println!(
        "{:>8} {:>8} {:>4} {:>4} {:>8} {:>13} {:>11} {:>8}",
        "sort", "n", "at", "K", "items", "comparison ns", "counting ns", "speedup"
    );
    let best = |f: &mut dyn FnMut() -> f64| (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min);
    let mut rows = Vec::new();
    let mut row = |e: SortEntry| {
        println!(
            "{:>8} {:>8} {:>4} {:>4} {:>8} {:>13.2} {:>11.2} {:>7.2}x",
            e.sort,
            e.n,
            e.at,
            e.k,
            e.items,
            e.comparison_seconds / e.items as f64 * 1e9,
            e.counting_seconds / e.items as f64 * 1e9,
            e.comparison_seconds / e.counting_seconds.max(1e-12),
        );
        rows.push(e);
    };
    for n in [20_000usize, 50_000, 100_000] {
        let lines =
            rrm_geom::DualLine::from_dataset(&rrm_data::synthetic::anticorrelated(n, 2, 41));
        for at in [0.0, 1.0] {
            let fresh = || (0..n as u32).collect::<Vec<u32>>();
            let (mut want, mut got) = (fresh(), fresh());
            order_by_comparison(&lines, &mut want, at);
            order_at(&lines, &mut got, at);
            assert_eq!(got, want, "order_at parity violation at n={n} x={at}");
            let comparison_seconds = best(&mut || {
                let mut ids = fresh();
                timed(|| order_by_comparison(&lines, &mut ids, at)).1
            });
            let counting_seconds = best(&mut || {
                let mut ids = fresh();
                timed(|| order_at(&lines, &mut ids, at)).1
            });
            row(SortEntry {
                sort: "order_at",
                n,
                at,
                k: 0,
                items: n,
                comparison_seconds,
                counting_seconds,
            });
        }
    }
    let n = 50_000;
    let data = rrm_data::synthetic::anticorrelated(n, 2, 41);
    for k in [32usize, 160] {
        let (lines, tracked) = k_band(&data, k);
        let want = crossings_by_comparison(&lines, &tracked, 0.0, 1.0);
        let got = crossings_with_tracked(&lines, &tracked, 0.0, 1.0);
        assert!(got == want, "crossing stream parity violation at K={k}");
        let comparison_seconds =
            best(&mut || timed(|| crossings_by_comparison(&lines, &tracked, 0.0, 1.0)).1);
        let counting_seconds =
            best(&mut || timed(|| crossings_with_tracked(&lines, &tracked, 0.0, 1.0)).1);
        row(SortEntry {
            sort: "stream",
            n,
            at: 0.0,
            k,
            items: want.len(),
            comparison_seconds,
            counting_seconds,
        });
    }
    rows
}

/// `order_at`'s order by one comparison sort of every line's
/// `(height, slope, id)` key: the reference its counting sort replaced.
fn order_by_comparison(lines: &[rrm_geom::DualLine], ids: &mut [u32], x: f64) {
    use rrm_core::rank::descending_bits;
    let mut keyed: Vec<(u64, u64, u32)> = ids
        .iter()
        .map(|&i| {
            let l = &lines[i as usize];
            (descending_bits(l.eval(x)), descending_bits(l.slope), i)
        })
        .collect();
    keyed.sort_unstable();
    for (slot, (_, _, i)) in ids.iter_mut().zip(keyed) {
        *slot = i;
    }
}

/// The crossing stream by pushing every crossing into a growing buffer
/// and one comparison sort by `(x, down, up)`: the reference the counting
/// enumeration replaced.
fn crossings_by_comparison(
    lines: &[rrm_geom::DualLine],
    tracked: &[u32],
    x_lo: f64,
    x_hi: f64,
) -> Vec<rrm_geom::Crossing> {
    use rrm_core::rank::descending_bits;
    let mut is_tracked = vec![false; lines.len()];
    tracked.iter().for_each(|&t| is_tracked[t as usize] = true);
    let mut out = Vec::new();
    for &t in tracked {
        let lt = &lines[t as usize];
        for (o, lo_line) in (0u32..).zip(lines) {
            if o == t || (is_tracked[o as usize] && o < t) {
                continue;
            }
            let Some(x) = lt.intersection_x(lo_line).filter(|&x| x > x_lo && x < x_hi) else {
                continue;
            };
            let (down, up) = if lt.slope < lo_line.slope { (t, o) } else { (o, t) };
            out.push(rrm_geom::Crossing { x, down, up });
        }
    }
    out.sort_unstable_by_key(|c| (!descending_bits(c.x), c.down, c.up));
    out
}

/// The K-band of `data` over the full weight range, as the 2D solvers
/// compact it: every row fewer than `k` others beat at both `x = 0` and
/// `x = 1` (no near-tie margin), plus the skyline, in ascending row id.
/// Returns the band's dual lines and the skyline's band indices.
fn k_band(data: &Dataset, k: usize) -> (Vec<rrm_geom::DualLine>, Vec<u32>) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let lines = rrm_geom::DualLine::from_dataset(data);
    let n = lines.len();
    let mut order: Vec<u32> = (0..n as u32).collect();
    rrm_geom::dual::order_at(&lines, &mut order, 0.0);
    // Sweep down the order at 0 in runs of equal height, keeping the `k`
    // highest heights at 1 of the rows strictly above the run.
    let mut keep = vec![false; n];
    let mut highest: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let key = |i: u32| rrm_core::rank::descending_bits(-lines[i as usize].eval(1.0));
    let mut run = 0;
    while run < n {
        let at0 = lines[order[run] as usize].eval(0.0);
        let end = run + order[run..].partition_point(|&i| lines[i as usize].eval(0.0) == at0);
        for &i in &order[run..end] {
            let lowest = highest.peek().map(|r| r.0);
            let beaten = highest.len() == k && lowest.is_some_and(|low| low > key(i));
            keep[i as usize] = !beaten;
        }
        for &i in &order[run..end] {
            highest.push(Reverse(key(i)));
            if highest.len() > k {
                highest.pop();
            }
        }
        run = end;
    }
    let sky = rrm_skyline::skyline(data);
    sky.iter().for_each(|&t| keep[t as usize] = true);
    let mut index = vec![u32::MAX; n];
    let mut band = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if keep[i] {
            index[i] = band.len() as u32;
            band.push(*line);
        }
    }
    (band, sky.iter().map(|&t| index[t as usize]).collect())
}

/// One stopped-vs-full selection row of `repro kernels`.
struct StoppedEntry {
    n: usize,
    d: usize,
    dirs: usize,
    k: usize,
    full_seconds: f64,
    stopped_seconds: f64,
    full_mean_len: f64,
    stopped_mean_len: f64,
}

/// Full lists (`rank::top_k_into`) vs lists stopped at the basis
/// (`rank::top_k_until`, HDRRM's selection) at k in {16, 256, 1024}, over
/// the blocked kernel's scores of anti-correlated d = 4 rows. Parity gate:
/// every stopped list must equal its full list cut right after the first
/// basis tuple in it before its timing counts; best of `reps` passes.
fn stopped_rows(ns: &[usize], reps: usize, n_dirs: usize) -> Vec<StoppedEntry> {
    use rrm_core::kernel::{self, ScoreScratch};
    use rrm_core::rank::{top_k_into, top_k_until};

    let d = 4;
    println!(
        "single-thread top-k selection stopped at the basis (ns per score), best of {reps} \
         reps, {n_dirs} directions, anti-correlated d={d}"
    );
    println!(
        "{:>8} {:>5} {:>8} {:>11} {:>8} {:>10} {:>8}",
        "n", "k", "full ns", "stopped ns", "speedup", "full len", "stop len"
    );
    let mut rows = Vec::new();
    for &n in ns {
        let data = rrm_data::synthetic::anticorrelated(n, d, 41);
        let basis = rrm_core::basis_indices(&data);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
        let space = FullSpace::new(d);
        let dirs: Vec<Vec<f64>> = (0..n_dirs).map(|_| space.sample_direction(&mut rng)).collect();
        let mut scratch = ScoreScratch::new();
        for k in [16usize, 256, 1024] {
            let (mut keys, mut full, mut stopped) = (Vec::new(), Vec::new(), Vec::new());
            let (mut full_seconds, mut stopped_seconds) = (f64::INFINITY, f64::INFINITY);
            let (mut full_len, mut stopped_len) = (0usize, 0usize);
            for _ in 0..reps {
                let (mut f, mut st) = (0.0, 0.0);
                (full_len, stopped_len) = (0, 0);
                kernel::for_each_scores(data.soa(), &dirs, &mut scratch, |di, scores| {
                    f += timed(|| top_k_into(scores, k, &mut keys, &mut full)).1;
                    st += timed(|| top_k_until(scores, k, &basis, &mut keys, &mut stopped)).1;
                    let end =
                        full.iter().position(|t| basis.contains(t)).map_or(full.len(), |p| p + 1);
                    assert_eq!(
                        stopped,
                        &full[..end],
                        "stopped selection parity violation at n={n} k={k} dir={di}"
                    );
                    full_len += full.len();
                    stopped_len += stopped.len();
                });
                full_seconds = full_seconds.min(f);
                stopped_seconds = stopped_seconds.min(st);
            }
            let ops = (n * n_dirs) as f64;
            let (full_mean_len, stopped_mean_len) =
                (full_len as f64 / n_dirs as f64, stopped_len as f64 / n_dirs as f64);
            println!(
                "{:>8} {:>5} {:>8.2} {:>11.2} {:>7.2}x {:>10.1} {:>8.1}",
                n,
                k,
                full_seconds / ops * 1e9,
                stopped_seconds / ops * 1e9,
                full_seconds / stopped_seconds.max(1e-12),
                full_mean_len,
                stopped_mean_len,
            );
            rows.push(StoppedEntry {
                n,
                d,
                dirs: n_dirs,
                k,
                full_seconds,
                stopped_seconds,
                full_mean_len,
                stopped_mean_len,
            });
        }
    }
    rows
}

/// One selection row of `repro kernels`.
struct SelectionEntry {
    n: usize,
    d: usize,
    dirs: usize,
    k: usize,
    quickselect_seconds: f64,
    bounded_seconds: f64,
}

/// Full-n quickselect top-k: every index enters one `select_nth` with
/// indirect float compares. The routine `rank::top_k_into` replaced, kept
/// here as the naive baseline of the selection rows.
fn quickselect_top_k(scores: &[f64], k: usize, idx: &mut Vec<u32>, out: &mut Vec<u32>) {
    let n = scores.len();
    let k = k.min(n);
    idx.clear();
    idx.extend(0..n as u32);
    let cmp = |&a: &u32, &b: &u32| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .expect("scores must be finite")
            .then(a.cmp(&b))
    };
    if k < n {
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    out.clear();
    out.extend_from_slice(idx);
}

/// Quickselect vs. bounded selection at k in {1, 16, 256, 1024} over
/// the blocked kernel's d = 4 scores. Every direction's two lists must
/// match before its timing counts; best of `reps` passes.
fn selection_rows(ns: &[usize], reps: usize, n_dirs: usize) -> Vec<SelectionEntry> {
    use rrm_core::kernel::{self, ScoreScratch};
    use rrm_core::rank::top_k_into;

    let d = 4;
    println!(
        "single-thread top-k selection (ns per score), best of {reps} reps, \
         {n_dirs} directions, d={d}"
    );
    println!(
        "{:>8} {:>5} {:>14} {:>10} {:>8}",
        "n", "k", "quickselect ns", "bounded ns", "speedup"
    );
    let mut rows = Vec::new();
    for &n in ns {
        let data = rrm_data::synthetic::independent(n, d, 41);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
        let space = FullSpace::new(d);
        let dirs: Vec<Vec<f64>> = (0..n_dirs).map(|_| space.sample_direction(&mut rng)).collect();
        let mut scratch = ScoreScratch::new();
        for k in [1usize, 16, 256, 1024] {
            let (mut idx, mut keys, mut want, mut got) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
            let (mut quickselect_seconds, mut bounded_seconds) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..reps {
                let (mut naive, mut bounded) = (0.0, 0.0);
                kernel::for_each_scores(data.soa(), &dirs, &mut scratch, |di, scores| {
                    naive += timed(|| quickselect_top_k(scores, k, &mut idx, &mut want)).1;
                    bounded += timed(|| top_k_into(scores, k, &mut keys, &mut got)).1;
                    assert_eq!(got, want, "selection parity violation at n={n} k={k} dir={di}");
                });
                quickselect_seconds = quickselect_seconds.min(naive);
                bounded_seconds = bounded_seconds.min(bounded);
            }
            let ops = (n * n_dirs) as f64;
            println!(
                "{:>8} {:>5} {:>14.2} {:>10.2} {:>7.1}x",
                n,
                k,
                quickselect_seconds / ops * 1e9,
                bounded_seconds / ops * 1e9,
                quickselect_seconds / bounded_seconds.max(1e-12),
            );
            rows.push(SelectionEntry {
                n,
                d,
                dirs: n_dirs,
                k,
                quickselect_seconds,
                bounded_seconds,
            });
        }
    }
    rows
}
