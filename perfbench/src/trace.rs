//! Spans recorded from the benchmark's own code around each call it makes
//! into a layer of the library, kept in memory and reduced at the end.
//!
//! A span has a name, start and end, the span that was open when it began
//! (its parent), and the id of the query it belongs to. A layer's self
//! time is its spans' durations minus the part their children cover.
//!
//! Two root spans per query carry the bookkeeping: `query` times the real,
//! uninstrumented execution, and `replay` holds the layer spans of the
//! same work re-run call by call. The replay is also run once more with a
//! disabled tracer ([`Tracer::off`]), its time added to the counter
//! `_replay.plain_s`. From them:
//!
//! * `trace.coverage` = time of the replay's layer spans ÷ replay time:
//!   the share of the replay the layer spans explain;
//! * `trace.overhead_frac` = (replay time − untraced replay time) ÷
//!   untraced replay time: what the spans cost;
//! * `trace.replay_vs_query` = replay time ÷ query time, a ratio against
//!   the solver's own run: how much of the solver's time the replayed
//!   layer calls reproduce (below 1 where the solver reuses state across
//!   thresholds or runs private steps the replay skips, above 1 where
//!   the replay redoes work the solver shares).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub query: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    query: Cell<u64>,
    counts: RefCell<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            on: true,
            origin: Instant::now(),
            spans: RefCell::default(),
            open: RefCell::default(),
            query: Cell::new(0),
            counts: RefCell::default(),
        }
    }

    /// A tracer that records nothing: spans only run their closure. The
    /// baseline for `trace.overhead_frac`.
    pub fn off() -> Self {
        Tracer { on: false, ..Tracer::new() }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Spans opened from now on belong to query `id`.
    pub fn set_query(&self, id: u64) {
        self.query.set(id);
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let idx = self.push(name, self.now());
        self.open.borrow_mut().push(idx);
        let value = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[idx].end = self.now();
        value
    }

    /// Record an interval measured elsewhere (a duration the server
    /// reported, or time summed over many short calls) as a child of the
    /// open span, ending now.
    pub fn record(&self, name: &'static str, seconds: f64) {
        if !self.on {
            return;
        }
        let end = self.now();
        let idx = self.push(name, end - seconds.max(0.0));
        self.spans.borrow_mut()[idx].end = end;
    }

    fn push(&self, name: &'static str, start: f64) -> usize {
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        spans.push(Span { name, query: self.query.get(), parent, start, end: start });
        spans.len() - 1
    }

    /// Add `value` to the exact counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        if !self.on {
            return;
        }
        *self.counts.borrow_mut().entry(name).or_default() += value;
    }

    /// Current value of the counter `name`.
    pub fn counter(&self, name: &str) -> f64 {
        self.counts.borrow().get(name).copied().unwrap_or(0.0)
    }

    /// Per-layer metrics: self time per span name (roots excluded), the
    /// inclusive time of spans with children as `<name>.incl`, every
    /// counter, the ratios derived from counters, and the `trace.*` ratios
    /// of workloads that replay their queries.
    pub fn report(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.borrow();
        let mut child_time = vec![0.0f64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<String, f64> = BTreeMap::new();
        let (mut query_s, mut replay_s, mut layer_s) = (0.0, 0.0, 0.0);
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end - s.start;
            match s.name {
                "query" => query_s += dur,
                "replay" => {
                    replay_s += dur;
                    layer_s += child_time[i];
                }
                name => {
                    *out.entry(name.to_string()).or_default() += dur - child_time[i];
                    if child_time[i] > 0.0 {
                        // Layers that call into others also report their
                        // inclusive time (e.g. a top-k pass: score + select).
                        *out.entry(format!("{name}.incl")).or_default() += dur;
                    }
                }
            }
        }
        let counts = self.counts.borrow();
        let get = |k: &str| counts.get(k).copied().unwrap_or(0.0);
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        if replay_s > 0.0 {
            let plain_s = get("_replay.plain_s");
            out.insert("trace.coverage".into(), layer_s / replay_s);
            out.insert("trace.overhead_frac".into(), ratio(replay_s - plain_s, plain_s));
            out.insert("trace.replay_vs_query".into(), ratio(replay_s, query_s));
        }
        for (name, value) in counts.iter() {
            if !name.starts_with('_') {
                out.insert(name.to_string(), *value);
            }
        }
        out.insert(
            "algoshd.asms.pruned_frac".into(),
            ratio(get("_asms.pruned"), get("_asms.probes")),
        );
        out.insert(
            "skyline.candidate_frac".into(),
            ratio(get("_skyline.candidates"), get("_skyline.rows")),
        );
        out.insert(
            "core.approx.coreset_frac".into(),
            ratio(get("_approx.kept"), get("_approx.rows")),
        );
        out.insert(
            "algoshd.ksets.ksets_per_lp".into(),
            ratio(get("_ksets.ksets"), get("algoshd.ksets.lp_calls")),
        );
        out.insert(
            "engine.prepare_hit_ratio".into(),
            ratio(get("_prepare.hits"), get("_prepare.hits") + get("_prepare.misses")),
        );
        out
    }

    /// Write every span as one JSON line next to the benchmark's binary
    /// (inside the build directory), best effort, and return the path.
    pub fn write(&self, workload: &str, seed: u64) -> PathBuf {
        let dir = std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(PathBuf::from))
            .unwrap_or_default();
        let path = dir.join(format!("perfbench-trace-{workload}-{seed}.jsonl"));
        let spans = self.spans.borrow();
        let mut text = String::new();
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\":{i},\"parent\":{parent},\"query\":{},\"name\":\"{}\",\"start\":{},\"end\":{}}}\n",
                s.query, s.name, s.start, s.end
            ));
        }
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(text.as_bytes());
        }
        path
    }
}
