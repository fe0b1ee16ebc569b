//! Serving observability: per-tenant counters and a log-bucketed latency
//! histogram, all lock-free atomics so the request hot path never blocks
//! on a stats mutex.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Number of power-of-two latency buckets: bucket `i` holds samples in
/// `[2^i, 2^{i+1})` microseconds, so 40 buckets span 1 µs to ~6.4 days.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A log-bucketed latency histogram. Recording is one atomic increment;
/// percentile reads walk the 40 buckets. The reported percentile is the
/// *upper edge* of the bucket containing the rank — a conservative
/// (over-)estimate, never an understatement of tail latency.
#[derive(Debug)]
pub struct LogHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        Self { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    fn bucket_of(micros: u64) -> usize {
        // ilog2, with 0 µs clamped into the first bucket.
        (63 - micros.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Upper edge (exclusive) of bucket `i`, in microseconds.
    fn bucket_upper(i: usize) -> u64 {
        1u64 << (i + 1)
    }

    pub fn record(&self, micros: u64) {
        self.buckets[Self::bucket_of(micros)].fetch_add(1, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The `p`-th percentile (0 < p <= 100) as the upper edge of the
    /// bucket holding that rank; `None` when the histogram is empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_upper(i));
            }
        }
        Some(Self::bucket_upper(HISTOGRAM_BUCKETS - 1))
    }

    /// Non-empty buckets as `[upper_edge_us, count]` pairs.
    pub fn to_json(&self) -> Json {
        let items = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then(|| Json::Arr(vec![Json::from(Self::bucket_upper(i)), Json::from(c)]))
            })
            .collect();
        Json::Arr(items)
    }
}

/// Per-tenant request counters. `accepted` counts admissions (so
/// `accepted = completed + errored + deadline_exceeded + in-flight`);
/// rejections never enter the queue.
#[derive(Debug, Default)]
pub struct TenantCounters {
    pub accepted: AtomicU64,
    pub rejected_overload: AtomicU64,
    pub completed: AtomicU64,
    /// Completions a budget limit stopped early: the tenant got a
    /// best-so-far incumbent with a gap (`"partial": true` on the wire)
    /// instead of a certified optimum. A subset of `completed`.
    pub partial_answers: AtomicU64,
    /// Completions answered at approximate fidelity — a sampled-ε
    /// solve with a Hoeffding `(eps, delta)` certificate
    /// (`"fidelity":"approx"` on the wire). A subset of `completed`,
    /// disjoint from `partial_answers`: approx answers run to
    /// completion at their requested fidelity.
    pub approx_answers: AtomicU64,
    pub errored: AtomicU64,
    pub deadline_exceeded: AtomicU64,
}

impl TenantCounters {
    pub fn to_json(&self, prepare_hits: usize, prepare_misses: usize) -> Json {
        Json::Obj(vec![
            ("accepted".into(), self.accepted.load(Ordering::Relaxed).into()),
            ("rejected_overload".into(), self.rejected_overload.load(Ordering::Relaxed).into()),
            ("completed".into(), self.completed.load(Ordering::Relaxed).into()),
            ("partial_answers".into(), self.partial_answers.load(Ordering::Relaxed).into()),
            ("approx_answers".into(), self.approx_answers.load(Ordering::Relaxed).into()),
            ("errored".into(), self.errored.load(Ordering::Relaxed).into()),
            ("deadline_exceeded".into(), self.deadline_exceeded.load(Ordering::Relaxed).into()),
            ("prepare_hits".into(), prepare_hits.into()),
            ("prepare_misses".into(), prepare_misses.into()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(LogHistogram::bucket_of(0), 0);
        assert_eq!(LogHistogram::bucket_of(1), 0);
        assert_eq!(LogHistogram::bucket_of(2), 1);
        assert_eq!(LogHistogram::bucket_of(3), 1);
        assert_eq!(LogHistogram::bucket_of(4), 2);
        assert_eq!(LogHistogram::bucket_of(1023), 9);
        assert_eq!(LogHistogram::bucket_of(1024), 10);
        assert_eq!(LogHistogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn percentiles_are_conservative_upper_edges() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(50.0), None);
        for us in [10u64, 10, 10, 10, 10, 10, 10, 10, 10, 5000] {
            h.record(us);
        }
        assert_eq!(h.count(), 10);
        // 9 of 10 samples in [8,16): p50 is that bucket's upper edge.
        assert_eq!(h.percentile(50.0), Some(16));
        assert_eq!(h.percentile(90.0), Some(16));
        // The tail sample (5000 µs -> bucket [4096,8192)) owns p99/p100.
        assert_eq!(h.percentile(99.0), Some(8192));
        assert_eq!(h.percentile(100.0), Some(8192));
    }

    #[test]
    fn json_snapshot_lists_nonempty_buckets() {
        let h = LogHistogram::new();
        h.record(3);
        h.record(3);
        h.record(100);
        let j = h.to_json();
        assert_eq!(
            j.render(),
            "[[4,2],[128,1]]",
            "bucket upper edges with counts, empty buckets omitted"
        );
    }

    #[test]
    fn tenant_counters_serialize() {
        let c = TenantCounters::default();
        c.accepted.fetch_add(3, Ordering::Relaxed);
        c.completed.fetch_add(2, Ordering::Relaxed);
        c.rejected_overload.fetch_add(1, Ordering::Relaxed);
        c.partial_answers.fetch_add(1, Ordering::Relaxed);
        c.approx_answers.fetch_add(1, Ordering::Relaxed);
        let text = c.to_json(5, 1).render();
        assert!(text.contains("\"accepted\":3"), "{text}");
        assert!(text.contains("\"partial_answers\":1"), "{text}");
        assert!(text.contains("\"approx_answers\":1"), "{text}");
        assert!(text.contains("\"rejected_overload\":1"), "{text}");
        assert!(text.contains("\"prepare_hits\":5"), "{text}");
        assert!(text.contains("\"prepare_misses\":1"), "{text}");
    }
}
