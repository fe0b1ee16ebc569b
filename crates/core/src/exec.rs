//! Execution policy: how much data parallelism solvers may use.
//!
//! [`ExecPolicy`] wraps the [`Parallelism`] knob of [`rrm_par`] and is
//! handed to [`Solver::prepare`], which every algorithm's queries run
//! through, so one engine-level setting (CLI `--threads`, `RRM_THREADS`,
//! or a [`Parallelism`] chosen in code) reaches every chunked kernel in
//! the workspace — rank counting, top-k batches, greedy scoring, crossing
//! enumeration, brute-force rank tables.
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

    /// The resolved worker count this policy yields right now.
    pub fn effective_threads(self) -> usize {
        self.parallelism.threads()
    }

    /// Combine with a fallback: an explicit (non-[`Parallelism::Auto`])
    /// policy wins, otherwise the fallback applies. Solvers use this to
    /// let the engine-level policy passed to [`Solver::prepare`] override
    /// their options' default without clobbering a policy that was set on
    /// the options directly.
    ///
    /// [`Solver::prepare`]: crate::Solver::prepare
    pub fn or(self, fallback: ExecPolicy) -> ExecPolicy {
        if self.parallelism == Parallelism::Auto {
            fallback
        } else {
            self
        }
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

    #[test]
    fn or_prefers_explicit_policies() {
        let auto = ExecPolicy::auto();
        let seq = ExecPolicy::sequential();
        let four = ExecPolicy::threads(4);
        assert_eq!(auto.or(seq), seq, "auto defers to the fallback");
        assert_eq!(seq.or(four), seq, "explicit policy wins");
        assert_eq!(four.or(seq), four);
        assert_eq!(auto.or(auto), auto);
    }
}
