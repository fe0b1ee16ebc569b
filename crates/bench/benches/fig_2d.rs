//! Criterion timing for the 2D figures (scaled-down sizes; the full
//! parameter sweeps live in the `repro` binary).
//!
//! * `fig09_2d_vs_n` — 2DRRM vs 2DRRR across dataset sizes (Fig. 9);
//! * `fig10_2d_vs_r` — the same across output sizes (Fig. 10);
//! * `fig11_island` / `fig12_nba` — the real-data stand-ins (Figs. 11–12).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bench::run_rrm;
use rrm_2d::{TwoDRrmSolver, TwoDRrrSolver};
use rrm_core::FullSpace;
use rrm_data::real_sim::{island_sim, nba_sim};
use rrm_data::synthetic::anticorrelated;

fn fig09_2d_vs_n(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig09_2d_vs_n");
    for &n in &[1_000usize, 4_000, 16_000] {
        let data = anticorrelated(n, 2, 9);
        g.bench_with_input(BenchmarkId::new("2DRRM", n), &data, |b, d| {
            b.iter(|| black_box(run_rrm(&TwoDRrmSolver::default(), d, 5, &FullSpace::new(2))))
        });
        g.bench_with_input(BenchmarkId::new("2DRRR", n), &data, |b, d| {
            b.iter(|| black_box(run_rrm(&TwoDRrrSolver, d, 5, &FullSpace::new(2))))
        });
    }
    g.finish();
}

fn fig10_2d_vs_r(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig10_2d_vs_r");
    let data = anticorrelated(4_000, 2, 10);
    for &r in &[5usize, 7, 10] {
        g.bench_with_input(BenchmarkId::new("2DRRM", r), &r, |b, &r| {
            b.iter(|| black_box(run_rrm(&TwoDRrmSolver::default(), &data, r, &FullSpace::new(2))))
        });
        g.bench_with_input(BenchmarkId::new("2DRRR", r), &r, |b, &r| {
            b.iter(|| black_box(run_rrm(&TwoDRrrSolver, &data, r, &FullSpace::new(2))))
        });
    }
    g.finish();
}

fn fig11_island(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig11_island");
    for &n in &[10_000usize, 20_000] {
        let data = island_sim(n, 11);
        g.bench_with_input(BenchmarkId::new("2DRRM", n), &data, |b, d| {
            b.iter(|| black_box(run_rrm(&TwoDRrmSolver::default(), d, 5, &FullSpace::new(2))))
        });
        g.bench_with_input(BenchmarkId::new("2DRRR", n), &data, |b, d| {
            b.iter(|| black_box(run_rrm(&TwoDRrrSolver, d, 5, &FullSpace::new(2))))
        });
    }
    g.finish();
}

fn fig12_nba(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig12_nba");
    for &n in &[5_000usize, 20_000] {
        let data = nba_sim(n, 5, 12).project(&[0, 1]).unwrap();
        g.bench_with_input(BenchmarkId::new("2DRRM", n), &data, |b, d| {
            b.iter(|| black_box(run_rrm(&TwoDRrmSolver::default(), d, 5, &FullSpace::new(2))))
        });
        g.bench_with_input(BenchmarkId::new("2DRRR", n), &data, |b, d| {
            b.iter(|| black_box(run_rrm(&TwoDRrrSolver, d, 5, &FullSpace::new(2))))
        });
    }
    g.finish();
}

criterion_group!(
    name = fig_2d;
    config = Criterion::default().sample_size(10);
    targets = fig09_2d_vs_n, fig10_2d_vs_r, fig11_island, fig12_nba
);
criterion_main!(fig_2d);
