//! Criterion timing for the HD figures (scaled sizes; full sweeps with
//! quality columns live in the `repro` binary).
//!
//! * `fig13_hd_vs_n` — the four HD algorithms across dataset sizes
//!   (Figs. 13–15's time series);
//! * `fig16_hd_vs_d` — across dimensions (Figs. 16–18);
//! * `fig19_hd_vs_r` — across output sizes (Figs. 19–21);
//! * `fig22_hd_vs_delta` — HDRRM across δ (Figs. 22–24);
//! * `fig25_rrrm` — restricted-space runs (Figs. 25–26);
//! * `fig27_nba` / `fig28_weather` — the real-data stand-ins.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bench::run_rrm;
use rrm_core::{FullSpace, WeakRankingSpace};
use rrm_data::real_sim::{nba_sim, weather_sim};
use rrm_data::synthetic::anticorrelated;
use rrm_hd::{
    HdrrmOptions, HdrrmSolver, MdrcSolver, MdrmsOptions, MdrmsSolver, MdrrrROptions, MdrrrRSolver,
};

/// Bench-scale options: small fixed sample budgets so Criterion iterations
/// stay in the tens of milliseconds.
fn hopts() -> HdrrmOptions {
    HdrrmOptions { m_override: Some(1_000), ..Default::default() }
}

fn ropts() -> MdrrrROptions {
    MdrrrROptions { samples: 2_000, ..Default::default() }
}

fn mopts() -> MdrmsOptions {
    MdrmsOptions { samples: 500, ..Default::default() }
}

fn fig13_hd_vs_n(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig13_hd_vs_n");
    for &n in &[1_000usize, 4_000] {
        let data = anticorrelated(n, 4, 13);
        let space = FullSpace::new(4);
        g.bench_with_input(BenchmarkId::new("HDRRM", n), &data, |b, d| {
            b.iter(|| black_box(run_rrm(&HdrrmSolver::new(hopts()), d, 10, &space)))
        });
        g.bench_with_input(BenchmarkId::new("MDRRRr", n), &data, |b, d| {
            b.iter(|| black_box(run_rrm(&MdrrrRSolver::new(ropts()), d, 10, &space)))
        });
        g.bench_with_input(BenchmarkId::new("MDRC", n), &data, |b, d| {
            b.iter(|| black_box(run_rrm(&MdrcSolver::default(), d, 10, &space)))
        });
        g.bench_with_input(BenchmarkId::new("MDRMS", n), &data, |b, d| {
            b.iter(|| black_box(run_rrm(&MdrmsSolver::new(mopts()), d, 10, &space)))
        });
    }
    g.finish();
}

fn fig16_hd_vs_d(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig16_hd_vs_d");
    for &d in &[3usize, 5] {
        let data = anticorrelated(2_000, d, 16);
        g.bench_with_input(BenchmarkId::new("HDRRM", d), &data, |b, dat| {
            b.iter(|| black_box(run_rrm(&HdrrmSolver::new(hopts()), dat, 10, &FullSpace::new(d))))
        });
        g.bench_with_input(BenchmarkId::new("MDRC", d), &data, |b, dat| {
            b.iter(|| black_box(run_rrm(&MdrcSolver::default(), dat, 10, &FullSpace::new(d))))
        });
    }
    g.finish();
}

fn fig19_hd_vs_r(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig19_hd_vs_r");
    let data = anticorrelated(2_000, 4, 19);
    for &r in &[10usize, 15] {
        g.bench_with_input(BenchmarkId::new("HDRRM", r), &r, |b, &r| {
            b.iter(|| black_box(run_rrm(&HdrrmSolver::new(hopts()), &data, r, &FullSpace::new(4))))
        });
        g.bench_with_input(BenchmarkId::new("MDRRRr", r), &r, |b, &r| {
            b.iter(|| black_box(run_rrm(&MdrrrRSolver::new(ropts()), &data, r, &FullSpace::new(4))))
        });
    }
    g.finish();
}

fn fig22_hd_vs_delta(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig22_hd_vs_delta");
    let data = anticorrelated(2_000, 4, 22);
    for &(label, m) in &[("d010", 400usize), ("d003", 4_000), ("d001", 16_000)] {
        // m stands in for δ: the formula maps δ ∈ {0.1, 0.03, 0.01} to
        // roughly these sample counts at this n.
        g.bench_with_input(BenchmarkId::new("HDRRM", label), &m, |b, &m| {
            let opts = HdrrmOptions { m_override: Some(m), ..Default::default() };
            b.iter(|| black_box(run_rrm(&HdrrmSolver::new(opts), &data, 10, &FullSpace::new(4))))
        });
    }
    g.finish();
}

fn fig25_rrrm(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig25_rrrm");
    let data = anticorrelated(2_000, 4, 25);
    let space = WeakRankingSpace::new(4, 2);
    g.bench_function("HDRRM_restricted", |b| {
        b.iter(|| black_box(run_rrm(&HdrrmSolver::new(hopts()), &data, 10, &space)))
    });
    g.bench_function("MDRRRr_restricted", |b| {
        b.iter(|| black_box(run_rrm(&MdrrrRSolver::new(ropts()), &data, 10, &space)))
    });
    g.finish();
}

fn fig27_nba(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig27_nba");
    let data = nba_sim(5_000, 5, 27);
    g.bench_function("HDRRM", |b| {
        b.iter(|| black_box(run_rrm(&HdrrmSolver::new(hopts()), &data, 10, &FullSpace::new(5))))
    });
    g.bench_function("MDRC", |b| {
        b.iter(|| black_box(run_rrm(&MdrcSolver::default(), &data, 10, &FullSpace::new(5))))
    });
    g.finish();
}

fn fig28_weather(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig28_weather");
    let data = weather_sim(20_000, 4, 28);
    g.bench_function("HDRRM", |b| {
        b.iter(|| black_box(run_rrm(&HdrrmSolver::new(hopts()), &data, 10, &FullSpace::new(4))))
    });
    g.bench_function("MDRC", |b| {
        b.iter(|| black_box(run_rrm(&MdrcSolver::default(), &data, 10, &FullSpace::new(4))))
    });
    g.bench_function("MDRMS", |b| {
        b.iter(|| black_box(run_rrm(&MdrmsSolver::new(mopts()), &data, 10, &FullSpace::new(4))))
    });
    g.finish();
}

criterion_group!(
    name = fig_hd;
    config = Criterion::default().sample_size(10);
    targets = fig13_hd_vs_n, fig16_hd_vs_d, fig19_hd_vs_r, fig22_hd_vs_delta,
              fig25_rrrm, fig27_nba, fig28_weather
);
criterion_main!(fig_hd);
