//! Timing ablations of the design choices documented in DESIGN.md.
//!
//! * `ablation_sweep` — the paper's full arrangement sweep vs the
//!   K-band crossing stream inside 2DRRM (identical output);
//! * `ablation_lazy_greedy` — lazy vs naive greedy set cover on an
//!   ASMS-shaped instance;
//! * `ablation_candidates` — HDRRM with and without skyline candidate
//!   pre-filtering;
//! * `ablation_mdrrr_exact` — the exact k-set enumeration cost curve that
//!   makes MDRRR impractical (the paper's "a few hundred tuples").

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use bench::run_rrm;
use rrm_2d::{Rrm2dOptions, TwoDRrmSolver};
use rrm_core::FullSpace;
use rrm_data::synthetic::{anticorrelated, independent};
use rrm_hd::{enumerate_ksets, HdrrmOptions, HdrrmSolver, KsetLimits};
use rrm_setcover::{greedy_set_cover, naive_greedy_set_cover};

fn ablation_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_sweep");
    for &n in &[1_000usize, 4_000] {
        let data = anticorrelated(n, 2, 41);
        g.bench_with_input(BenchmarkId::new("event_stream", n), &data, |b, d| {
            let opts = Rrm2dOptions { use_full_sweep: false, ..Default::default() };
            b.iter(|| black_box(run_rrm(&TwoDRrmSolver::new(opts), d, 5, &FullSpace::new(2))))
        });
        g.bench_with_input(BenchmarkId::new("full_sweep", n), &data, |b, d| {
            let opts = Rrm2dOptions { use_full_sweep: true, ..Default::default() };
            b.iter(|| black_box(run_rrm(&TwoDRrmSolver::new(opts), d, 5, &FullSpace::new(2))))
        });
    }
    g.finish();
}

fn ablation_lazy_greedy(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_lazy_greedy");
    // ASMS-shaped instance: many small sets (tuples covering the vectors
    // whose top-k they enter), universe = discretized directions.
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(42);
    let universe = 8_000usize;
    let mut sets: Vec<Vec<u32>> = (0..4_000)
        .map(|_| {
            let len = rng.random_range(1..30);
            (0..len).map(|_| rng.random_range(0..universe as u32)).collect()
        })
        .collect();
    sets.push((0..universe as u32).collect());
    g.bench_function("lazy", |b| b.iter(|| black_box(greedy_set_cover(universe, &sets))));
    g.bench_function("naive", |b| b.iter(|| black_box(naive_greedy_set_cover(universe, &sets))));
    g.finish();
}

fn ablation_candidates(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_candidates");
    let data = independent(10_000, 4, 43);
    for (label, sky) in [("skyline", true), ("all", false)] {
        g.bench_function(label, |b| {
            let opts = HdrrmOptions {
                m_override: Some(1_000),
                skyline_candidates: sky,
                ..Default::default()
            };
            b.iter(|| black_box(run_rrm(&HdrrmSolver::new(opts), &data, 10, &FullSpace::new(4))))
        });
    }
    g.finish();
}

fn ablation_mdrrr_exact(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_mdrrr_exact");
    g.sample_size(10);
    for &n in &[20usize, 40] {
        let data = independent(n, 3, 44);
        g.bench_with_input(BenchmarkId::new("enumerate_k3", n), &data, |b, d| {
            b.iter(|| black_box(enumerate_ksets(d, 3, &[], KsetLimits::default())))
        });
    }
    g.finish();
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = ablation_sweep, ablation_lazy_greedy, ablation_candidates,
              ablation_mdrrr_exact
);
criterion_main!(ablations);
