//! 2D rank-regret algorithms (paper Section IV).
//!
//! * [`rrm2d`] — **2DRRM**, the paper's exact dynamic program over the dual
//!   line arrangement: optimal RRM/RRRM solutions in 2D (Theorem 4),
//!   `O(n² log n)` time (Theorem 5).
//! * [`rrr2d`] — **2DRRR**, the baseline of Asudeh et al.: for a threshold
//!   `k` it covers the weight range with per-tuple "rank ≤ k" windows,
//!   guaranteeing size ≤ optimal and rank-regret ≤ 2k − 1; adapted to RRM
//!   with the doubling + binary search of Section V-B.2.
//! * [`pareto`] — the full size/regret trade-off curve over one prepared
//!   sweep.
//!
//! Each algorithm runs through its [`solver`]'s `prepare`, which returns
//! the algorithm's prepared type ([`Prepared2d`], [`PreparedRrr2d`]); exact
//! RRR is 2DRRM plus a binary search on the size ("2DRRM can be easily
//! adopted for RRR by a binary search"). 2DRRM accepts either the full
//! space `L` or a restricted 2D space rendered onto a weight interval
//! `[c0, c1]` (Section IV-C).
//!
//! [`full_sweep_rrm`] is 2DRRM as the paper states it, a sweep of the whole
//! arrangement per query: not a solver path, but the reference the K-band
//! replay is checked against.
//!
//! A prepared handle's caches are [`rrm_core::Memo`]s: 2DRRM's per-budget
//! solutions (bounded by the candidate count: a budget at or above it is
//! answered with the whole candidate set and not kept), 2DRRR's
//! per-threshold covers and the bands both build on (bounded by
//! [`rrm_core::PROBE_CACHE_CAP`]). 2DRRR's RRM adaptation runs on the
//! workspace's one doubling-then-binary search,
//! [`rrm_core::threshold_search`].

mod band;
pub mod matrix;
pub mod pareto;
pub mod rrm2d;
pub mod rrr2d;
pub mod solver;

pub use pareto::{pareto_frontier, ParetoPoint};
pub use rrm2d::{full_sweep_rrm, weight_interval, Prepared2d};
pub use rrr2d::PreparedRrr2d;
pub use solver::{TwoDRrmSolver, TwoDRrrSolver};

/// Poison `cache`'s lock, as a thread that panicked holding it would.
#[cfg(test)]
fn poison<T: Send>(cache: &std::sync::Mutex<T>) {
    std::thread::scope(|s| {
        let holder = s.spawn(|| {
            let _held = rrm_core::memo::lock(cache);
            panic!("poisoning a cache lock");
        });
        assert!(holder.join().is_err());
    });
    assert!(cache.is_poisoned());
}

/// Interrupt the build of `key` in `memo` with a panic, as a solver that
/// panicked mid-build would.
#[cfg(test)]
fn interrupt<K: Eq + std::hash::Hash, V: Clone>(memo: &rrm_core::Memo<K, V>, key: K) {
    let build = std::panic::AssertUnwindSafe(|| memo.get_or_build(key, || panic!("a build")));
    assert!(std::panic::catch_unwind(build).is_err());
}
