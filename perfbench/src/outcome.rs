//! What one benchmark run measured, and how it is printed.
//!
//! The last line of standard output is the result object: `correct`,
//! `attempted`, `failed` and the metrics of the run (the end-to-end set
//! when untraced, the per-layer set when traced). The lines before it
//! carry the machine header, the exact counts and every metric the
//! workload measured, including those that exist on one workload only.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metric names and units listed in `BENCHMARK.json`, in order.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_qps", "queries/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics that exist on some workloads only (no updates or too
/// few queries elsewhere), or that read 0 at a correct commit; printed on
/// the summary line, `null` where they do not apply.
pub const END_TO_END_EXTRA: [(&str, &str); 4] = [
    ("query_p99_ms", "ms"),
    ("update_p50_ms", "ms"),
    ("update_p90_ms", "ms"),
    ("failed_frac", "ratio"),
];

/// Per-layer metric names and units listed in `BENCHMARK.json`: counts,
/// ratios, and the times that every workload exercises.
pub const PER_LAYER: [(&str, &str); 18] = [
    ("skyline.s", "s"),
    ("engine.prepare_s", "s"),
    ("core.rank.selections", "count"),
    ("core.kernel.scores", "count"),
    ("algoshd.common.topk_passes", "count"),
    ("algoshd.common.topk_entries", "count"),
    ("algoshd.discretize.dirs", "count"),
    ("algoshd.asms.picks", "count"),
    ("algoshd.asms.pruned_frac", "ratio"),
    ("geom.events.crossings", "count"),
    ("algoshd.ksets.lp_calls", "count"),
    ("algoshd.ksets.ksets_per_lp", "ratio"),
    ("skyline.candidate_frac", "ratio"),
    ("core.approx.coreset_frac", "ratio"),
    ("engine.prepare_hit_ratio", "ratio"),
    ("serve.registry.cache_hit_ratio", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Everything a run measured. Times are raw samples; the printer reduces
/// them to medians and percentiles.
#[derive(Default)]
pub struct Outcome {
    /// Operations issued in the timed phase (queries and updates).
    pub attempted: usize,
    /// Operations that failed: error responses, rejections, and answers
    /// that failed a correctness check.
    pub failed: usize,
    /// One sample per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Latency of every timed query.
    pub query_ms: Vec<f64>,
    /// Latency of every timed update.
    pub update_ms: Vec<f64>,
    /// Wall time of the timed phase (the throughput denominator).
    pub timed_s: f64,
    /// Timed rounds completed (each round replays the same seeded inputs).
    pub rounds: usize,
    /// Exact work counts of one round; a run fails if later rounds differ.
    pub counts: BTreeMap<String, u64>,
    /// Per-layer metrics of a traced run (name → value), every layer the
    /// workload can reach, including the ones `BENCHMARK.json` omits.
    pub layers: BTreeMap<String, f64>,
    /// Peak resident memory through the first timed round, in MB.
    pub peak_rss_mb: Option<f64>,
    /// Workload facts worth printing (thread count, sizes, mix).
    pub facts: Vec<(String, String)>,
}

impl Outcome {
    /// Record a failed operation with its reason on standard error.
    pub fn fail(&mut self, what: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}");
    }

    /// Close a timed round: its counts must equal the first round's (they
    /// repeat exactly for one seed), and the first round fixes the peak
    /// memory. Later rounds repeat the same work, so a higher peak after
    /// them would measure only the allocator's retained free memory.
    pub fn end_round(&mut self, round: &BTreeMap<String, u64>) {
        self.rounds += 1;
        if self.rounds == 1 {
            self.counts = round.clone();
            self.peak_rss_mb = peak_rss_mb();
        } else if &self.counts != round {
            self.fail(&format!("counts changed between rounds: {:?} vs {:?}", self.counts, round));
        }
    }

    fn end_to_end(&self) -> BTreeMap<&'static str, Option<f64>> {
        let mut q = self.query_ms.clone();
        q.sort_by(f64::total_cmp);
        let mut u = self.update_ms.clone();
        u.sort_by(f64::total_cmp);
        let mut m = BTreeMap::new();
        m.insert("setup_s", median(&self.setup_s));
        m.insert("throughput_qps", Some(q.len() as f64 / self.timed_s.max(1e-9)));
        m.insert("query_p50_ms", quantile(&q, 0.50));
        m.insert("query_p90_ms", tail(&q, 0.90));
        m.insert("query_p99_ms", tail(&q, 0.99));
        m.insert("update_p50_ms", quantile(&u, 0.50));
        m.insert("update_p90_ms", tail(&u, 0.90));
        m.insert("failed_frac", Some(self.failed as f64 / self.attempted.max(1) as f64));
        m.insert("peak_rss_mb", self.peak_rss_mb);
        m
    }

    /// Print the header, summary and result lines; the result line is last.
    pub fn print(&self, workload: &str, seed: u64, traced: bool) {
        let mut head = format!(
            "{{{},\"workload\":\"{workload}\",\"seed\":{seed}",
            bench::bench_meta("perfbench")
        );
        for (k, v) in &self.facts {
            let _ = write!(head, ",\"{k}\":{v}");
        }
        let _ = write!(
            head,
            ",\"rounds\":{},\"queries\":{},\"updates\":{}",
            self.rounds,
            self.query_ms.len(),
            self.update_ms.len()
        );
        head.push_str(",\"counts\":{");
        let counts: Vec<String> = self.counts.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
        head.push_str(&counts.join(","));
        head.push_str("}}");
        println!("{head}");

        let e2e = self.end_to_end();
        let mut summary: Vec<String> = Vec::new();
        for (name, unit) in END_TO_END.iter().chain(END_TO_END_EXTRA.iter()) {
            summary.push(metric_json(name, e2e[name], unit));
        }
        for (name, value) in &self.layers {
            summary.push(metric_json(name, Some(*value), unit_of(name)));
        }
        println!("{{\"summary\":{{{}}}}}", summary.join(","));

        let metrics: Vec<String> = if traced {
            PER_LAYER
                .iter()
                .map(|(name, unit)| {
                    metric_json(name, Some(self.layers.get(*name).copied().unwrap_or(0.0)), unit)
                })
                .collect()
        } else {
            END_TO_END.iter().map(|(name, unit)| metric_json(name, e2e[name], unit)).collect()
        };
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        );
    }
}

fn metric_json(name: &str, value: Option<f64>, unit: &str) -> String {
    let value = match value {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    };
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

/// Unit of a per-layer metric, from its name's suffix.
fn unit_of(name: &str) -> &'static str {
    let name = name.strip_suffix(".incl").unwrap_or(name);
    if name.contains("_us") {
        "us"
    } else if name.contains("_ms") {
        "ms"
    } else if name.ends_with(".s") || name.ends_with("_s") {
        "s"
    } else if name.ends_with("_frac")
        || name.ends_with("_ratio")
        || name.ends_with("per_lp")
        || name.ends_with("_vs_query")
        || name.ends_with("coverage")
    {
        "ratio"
    } else {
        "count"
    }
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// Linear-interpolated quantile of sorted samples.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// A tail quantile, reported only when at least ten samples lie beyond it.
pub fn tail(sorted: &[f64], q: f64) -> Option<f64> {
    let beyond = (sorted.len() as f64 * (1.0 - q) + 1e-9).floor();
    if beyond < 10.0 {
        return None;
    }
    quantile(sorted, q)
}

extern "C" {
    /// glibc's allocator tuning call.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Serve large allocations (128 KiB and up) from `mmap`, so glibc returns
/// them when freed. Without it, the per-thread arenas of a multi-threaded
/// process keep freed blocks, and `VmHWM` measures that retention more than
/// live memory. Call before any other thread starts.
pub fn release_large_blocks() {
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets a tuning parameter of the allocator.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
    }
}

/// Serve every allocation up to 32 MiB from the heap, and never give freed
/// heap memory back. glibc's default moves both thresholds as blocks are
/// freed, so the peak of a single-threaded workload landed on one of two
/// levels depending on the seed (hd_cold: 9 or 12 MB). Fixed, the heap
/// grows the same way on every run, `VmHWM` is its high-water mark, and no
/// round pays page faults to grow it again.
pub fn hold_freed_memory() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: `mallopt` only sets tuning parameters of the allocator.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

/// Peak resident memory of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
