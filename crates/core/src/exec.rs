//! Execution policy: how much data parallelism solvers may use.
//!
//! [`ExecPolicy`] wraps the [`Parallelism`] knob of [`rrm_par`] and is
//! handed to [`Solver::prepare`], which every algorithm's queries run
//! through, so one engine-level setting (CLI `--threads`, `RRM_THREADS`,
//! or a [`Parallelism`] chosen in code) reaches every chunked kernel in
//! the workspace — rank counting, top-k batches, greedy scoring, crossing
//! enumeration, brute-force rank tables.
//!
//! That argument is the policy's only way in: solver options carry no
//! policy of their own, and each prepared handle keeps the one its
//! `prepare` received. In the facade the engine (or session) holds it.
//!
//! The policy is strictly about *speed*: every kernel riding it uses fixed
//! chunk boundaries and ordered merges (see the [`rrm_par`] crate docs),
//! so solutions are bit-identical at any thread count.
//! `tests/parallel_parity.rs` enforces that for every algorithm.
//!
//! [`Solver::prepare`]: crate::Solver::prepare

pub use rrm_par::Parallelism;

/// Data-parallelism policy carried into solver kernels.
///
/// Wraps [`Parallelism`] so future execution knobs (chunk sizing, NUMA
/// pinning) extend this struct instead of every solver signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ExecPolicy {
    /// Thread-count policy for chunked kernels.
    pub parallelism: Parallelism,
}

impl ExecPolicy {
    /// Honour `RRM_THREADS`, else use all cores (the default).
    pub fn auto() -> Self {
        Self { parallelism: Parallelism::Auto }
    }

    /// Run every kernel inline on the calling thread.
    pub fn sequential() -> Self {
        Self { parallelism: Parallelism::Sequential }
    }

    /// Exactly `n` worker threads (`0` = all cores).
    pub fn threads(n: usize) -> Self {
        Self { parallelism: Parallelism::fixed(n) }
    }

    /// The resolved worker count this policy yields right now, for
    /// reports; no kernel sizes its work by it.
    #[allow(clippy::disallowed_methods)]
    pub fn effective_threads(self) -> usize {
        self.parallelism.threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_map_to_parallelism() {
        assert_eq!(ExecPolicy::auto().parallelism, Parallelism::Auto);
        assert_eq!(ExecPolicy::sequential().parallelism, Parallelism::Sequential);
        assert_eq!(ExecPolicy::threads(4).parallelism, Parallelism::Fixed(4));
        assert_eq!(ExecPolicy::threads(1).parallelism, Parallelism::Sequential);
        // threads(0) = all cores explicitly — resolved now, not deferred
        // to Auto, so RRM_THREADS cannot override the explicit request.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(ExecPolicy::threads(0).effective_threads(), cores);
        assert_ne!(ExecPolicy::threads(0).parallelism, Parallelism::Auto);
        assert_eq!(ExecPolicy::sequential().effective_threads(), 1);
        assert_eq!(ExecPolicy::threads(5).effective_threads(), 5);
    }
}
