//! Tenant registry: named datasets loaded at startup, each owning one
//! [`Session`] so prepared solver state is shared across all of that
//! tenant's queries, plus the per-tenant admission and observability
//! state the server mutates on the hot path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use rank_regret::{Algorithm, Dataset, ExecPolicy, RrmError, Session, Solution};
use rrm_core::memo::lock;

use crate::json::Json;
use crate::stats::{LogHistogram, TenantCounters};

/// Where a tenant's dataset comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum DataSource {
    /// A CSV file on disk (numeric columns; `has_header` skips line 1).
    Csv { path: String, has_header: bool },
    /// A generated dataset, reproducible from its seed.
    Synthetic { kind: SyntheticKind, n: usize, d: usize, seed: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticKind {
    Independent,
    Correlated,
    Anticorrelated,
}

impl SyntheticKind {
    pub fn from_name(name: &str) -> Result<SyntheticKind, String> {
        match name {
            "independent" => Ok(SyntheticKind::Independent),
            "correlated" => Ok(SyntheticKind::Correlated),
            "anticorrelated" => Ok(SyntheticKind::Anticorrelated),
            other => Err(format!(
                "unknown synthetic kind {other:?} (expected independent|correlated|anticorrelated)"
            )),
        }
    }
}

impl DataSource {
    pub fn load(&self) -> Result<Dataset, RrmError> {
        match self {
            DataSource::Csv { path, has_header } => {
                Ok(rrm_data::csv::read_csv_file(path, *has_header)?.data)
            }
            DataSource::Synthetic { kind, n, d, seed } => Ok(match kind {
                SyntheticKind::Independent => rrm_data::synthetic::independent(*n, *d, *seed),
                SyntheticKind::Correlated => rrm_data::synthetic::correlated(*n, *d, *seed),
                SyntheticKind::Anticorrelated => rrm_data::synthetic::anticorrelated(*n, *d, *seed),
            }),
        }
    }
}

/// Startup description of one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    pub name: String,
    pub source: DataSource,
    /// Admission control: at most this many requests of this tenant may
    /// be queued or running at once; further ones get `overloaded`.
    pub max_inflight: usize,
}

impl TenantSpec {
    pub fn synthetic(name: &str, kind: SyntheticKind, n: usize, d: usize, seed: u64) -> Self {
        TenantSpec {
            name: name.to_string(),
            source: DataSource::Synthetic { kind, n, d, seed },
            max_inflight: 8,
        }
    }

    pub fn max_inflight(mut self, cap: usize) -> Self {
        self.max_inflight = cap;
        self
    }
}

/// Cache key for one deterministic query: task direction (`true` =
/// minimize), parameter, explicit algorithm, samples override, the gap
/// target's bit pattern, and the approx `(eps, delta)` bit patterns.
/// Everything that shapes the answer on the deadline-free path —
/// deadline-bearing requests are never cached (a time limit depends on
/// wall clock). Sampled-tier answers are seeded and
/// deterministic, so they cache like exact ones.
pub type ResultKey =
    (bool, usize, Option<Algorithm>, Option<usize>, Option<u64>, Option<(u64, u64)>);

/// Bound on cached solutions per tenant; at capacity the cache resets
/// rather than evicting piecemeal (epoch swaps reset it anyway).
const RESULT_CACHE_CAP: usize = 256;

/// Budget-keyed solutions for repeated deterministic queries, tagged with
/// the epoch they were computed on: an entry from an older epoch is dead
/// the moment [`Session::update`] publishes a new one — lookups check the
/// tag, and the update path clears the map outright.
#[derive(Default)]
pub struct ResultCache {
    entries: Mutex<HashMap<ResultKey, (u64, Solution)>>,
    hits: AtomicUsize,
}

impl ResultCache {
    /// The cached solution for `key` at exactly `epoch`, if any.
    pub fn get(&self, key: &ResultKey, epoch: u64) -> Option<Solution> {
        match lock(&self.entries).get(key) {
            Some((e, solution)) if *e == epoch => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(solution.clone())
            }
            _ => None,
        }
    }

    /// Store a solution computed on `epoch`.
    pub fn put(&self, key: ResultKey, epoch: u64, solution: Solution) {
        let mut entries = lock(&self.entries);
        if entries.len() >= RESULT_CACHE_CAP {
            entries.clear();
        }
        entries.insert(key, (epoch, solution));
    }

    /// Drop every entry (the epoch just advanced).
    pub fn invalidate(&self) {
        lock(&self.entries).clear();
    }

    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn entries(&self) -> usize {
        lock(&self.entries).len()
    }
}

/// One registered tenant: its session plus hot-path admission and
/// observability state. All fields are touched concurrently by reader
/// and worker threads, hence atomics throughout.
pub struct Tenant {
    pub name: String,
    pub session: Session,
    pub max_inflight: usize,
    /// Requests currently queued or being served (admission gate).
    pub inflight: AtomicUsize,
    pub counters: TenantCounters,
    /// Accept-to-response latency of completed requests, microseconds.
    pub latency: LogHistogram,
    /// Deterministic (deadline-free) answers for the current epoch.
    pub cache: ResultCache,
    /// Update batches applied through the wire `update` op.
    pub updates_applied: AtomicUsize,
}

impl Tenant {
    /// One tenant's stats block for the `stats` response / shutdown dump.
    pub fn stats_json(&self) -> Json {
        let mut fields =
            match self.counters.to_json(self.session.prepare_hits(), self.session.prepare_misses())
            {
                Json::Obj(fields) => fields,
                _ => unreachable!("TenantCounters::to_json returns an object"),
            };
        fields.push(("epoch".into(), self.session.epoch().into()));
        fields
            .push(("updates_applied".into(), self.updates_applied.load(Ordering::Relaxed).into()));
        fields.push((
            "result_cache".into(),
            Json::Obj(vec![
                ("hits".into(), self.cache.hits().into()),
                ("entries".into(), self.cache.entries().into()),
            ]),
        ));
        fields.push(("inflight".into(), self.inflight.load(Ordering::Relaxed).into()));
        let latency = Json::Obj(vec![
            ("count".into(), self.latency.count().into()),
            ("p50_us".into(), self.latency.percentile(50.0).map_or(Json::Null, Json::from)),
            ("p99_us".into(), self.latency.percentile(99.0).map_or(Json::Null, Json::from)),
            ("buckets".into(), self.latency.to_json()),
        ]);
        fields.push(("latency".into(), latency));
        Json::Obj(fields)
    }
}

/// The shard map: tenant name → [`Tenant`]. Built once at startup and
/// then only read, so lookups are lock-free.
pub struct Registry {
    tenants: Vec<Arc<Tenant>>,
}

impl Registry {
    /// Load every spec's dataset, build its session under `exec`, and
    /// eagerly warm the given algorithms (failures are cached per the
    /// `Session::warm` contract, not fatal: a 2D-only solver on a 5-D
    /// tenant just answers `unsupported` later).
    pub fn build(
        specs: &[TenantSpec],
        warm: &[Algorithm],
        exec: ExecPolicy,
    ) -> Result<Registry, RrmError> {
        let mut tenants = Vec::with_capacity(specs.len());
        for spec in specs {
            if tenants.iter().any(|t: &Arc<Tenant>| t.name == spec.name) {
                return Err(RrmError::Unsupported(format!(
                    "duplicate tenant name {:?}",
                    spec.name
                )));
            }
            let data = spec.source.load()?;
            let session = Session::new(data).exec(exec);
            session.warm(warm);
            tenants.push(Arc::new(Tenant {
                name: spec.name.clone(),
                session,
                max_inflight: spec.max_inflight,
                inflight: AtomicUsize::new(0),
                counters: TenantCounters::default(),
                latency: LogHistogram::new(),
                cache: ResultCache::default(),
                updates_applied: AtomicUsize::new(0),
            }));
        }
        Ok(Registry { tenants })
    }

    pub fn get(&self, name: &str) -> Option<&Arc<Tenant>> {
        self.tenants.iter().find(|t| t.name == name)
    }

    pub fn tenants(&self) -> &[Arc<Tenant>] {
        &self.tenants
    }

    /// Stats for all tenants (or just `filter`), keyed by tenant name in
    /// registration order.
    pub fn stats_json(&self, filter: Option<&str>) -> Json {
        Json::Obj(
            self.tenants
                .iter()
                .filter(|t| filter.is_none_or(|f| f == t.name))
                .map(|t| (t.name.clone(), t.stats_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_poisoned_result_cache_still_answers_like_a_fresh_one() {
        let data = Dataset::from_rows(&[[0.0, 1.0], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let session = Session::new(data);
        let answer = |r| session.run(&rank_regret::Request::minimize(r)).unwrap().solution;
        let key = |r| (true, r, None, None, None, None);
        let (cache, fresh) = (ResultCache::default(), ResultCache::default());
        for c in [&cache, &fresh] {
            c.put(key(1), 0, answer(1));
        }
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _held = lock(&cache.entries);
                panic!("poisoning the result cache");
            });
            assert!(holder.join().is_err());
        });
        assert!(cache.entries.is_poisoned());
        for c in [&cache, &fresh] {
            c.put(key(2), 0, answer(2));
        }
        for r in [1, 2, 3] {
            assert_eq!(cache.get(&key(r), 0), fresh.get(&key(r), 0), "r={r}");
            assert_eq!(cache.get(&key(r), 1), None);
        }
        assert_eq!((cache.entries(), cache.hits()), (fresh.entries(), fresh.hits()));
        cache.invalidate();
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn builds_warms_and_reports_stats() {
        let specs = [
            TenantSpec::synthetic("alpha", SyntheticKind::Independent, 60, 2, 7).max_inflight(2),
            TenantSpec::synthetic("beta", SyntheticKind::Correlated, 40, 3, 8),
        ];
        let reg = Registry::build(&specs, &[Algorithm::Hdrrm], ExecPolicy::sequential()).unwrap();
        assert_eq!(reg.tenants().len(), 2);
        let alpha = reg.get("alpha").unwrap();
        assert_eq!(alpha.max_inflight, 2);
        assert_eq!(alpha.session.prepare_misses(), 1, "warm built HDRRM eagerly");
        assert!(reg.get("missing").is_none());

        let stats = reg.stats_json(None).render();
        assert!(stats.contains("\"alpha\""), "{stats}");
        assert!(stats.contains("\"beta\""), "{stats}");
        assert!(stats.contains("\"prepare_misses\":1"), "{stats}");

        let only_beta = reg.stats_json(Some("beta")).render();
        assert!(!only_beta.contains("\"alpha\""), "{only_beta}");
    }

    #[test]
    fn duplicate_tenant_names_are_rejected() {
        let specs = [
            TenantSpec::synthetic("dup", SyntheticKind::Independent, 10, 2, 1),
            TenantSpec::synthetic("dup", SyntheticKind::Independent, 10, 2, 2),
        ];
        let err = match Registry::build(&specs, &[], ExecPolicy::sequential()) {
            Err(e) => e,
            Ok(_) => panic!("duplicate tenant names must be rejected"),
        };
        assert!(err.to_string().contains("duplicate tenant name"), "{err}");
    }
}
