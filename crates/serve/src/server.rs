//! The TCP front end: accept loop, per-connection reader threads that do
//! admission control inline, a bounded global job queue, and N worker
//! threads running queries against tenant [`Session`]s.
//!
//! Threading model:
//!
//! * one accept thread;
//! * one reader thread per connection (parse + admission + `stats`
//!   answered inline, so rejections never wait behind slow queries);
//! * `workers` query threads popping a shared bounded queue.
//!
//! Responses to one connection may interleave out of request order when
//! `workers > 1`; clients correlate by the echoed `id`. Solver kernels
//! run under the configured [`ExecPolicy`] (default sequential): the
//! server parallelizes *across* requests, not inside one.
//!
//! Deadlines: `deadline_ms` is wall clock from admission, and it never
//! changes the frame of an answer — the wire's `samples` and `approx`
//! alone fix that. For the anytime (cuttable) HD solvers the deadline
//! becomes the solve's [`Budget::time_limit`], less the time the request
//! spent queued: the solver runs bound-and-prune under the clock and an
//! overloaded tenant gets its best incumbent with a certified gap
//! (`"partial": true`) instead of an error — even when the whole deadline
//! was burned in the queue, in which case the solve starts with no time
//! left and returns its first incumbent immediately. A `gap` target sets
//! [`Budget::gap`] beside it; the first limit reached stops the solve.
//! Non-cuttable algorithms keep dispatch-time aging: a request that aged
//! out in the queue gets a structured `deadline_exceeded` with its
//! queueing time as diagnostics, without running. Either way a replayed
//! request through an in-process [`Session`] builds the same `Request`
//! via [`effective_request`], so the determinism contract extends over
//! the wire (time-cut partial answers are the one documented exception:
//! they depend on wall clock, and the parity replays skip them).
//!
//! [`Session`]: rank_regret::Session
//! [`Budget::time_limit`]: rank_regret::Budget::time_limit
//! [`Budget::gap`]: rank_regret::Budget::gap

use std::collections::VecDeque;
use std::io::{ErrorKind as IoErrorKind, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rank_regret::{Algorithm, ExecPolicy, Request, RrmError, TerminatedBy, UpdateOp};

use crate::json::Json;
use crate::protocol::{error_response, ok_response, parse_request, ErrorKind, Op, WireRequest};
use crate::registry::{Registry, Tenant, TenantSpec};

/// A field-less placeholder: a deadline does not depend on how fast the
/// machine scores tuples, so the server calibrates nothing. The type stays
/// in the API of [`ServerHandle::calibration`] and [`effective_request`]
/// for their existing callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Calibration;

/// The in-process [`Request`] a wire request denotes on a
/// `dims`-dimensional tenant, or `None` for non-query ops. The dispatch
/// path and the replay harnesses build requests through here, so served
/// answers are bit-identical to in-process answers by construction. The
/// calibration and row-count arguments are unused.
///
/// The wire's `samples` and `approx` alone fix the frame. When the
/// request resolves to a cuttable algorithm
/// ([`Request::resolved_algorithm`]), `deadline_ms` sets
/// [`Budget::time_limit`] to the full deadline (dispatch takes the queue
/// wait off it) and `gap` sets [`Budget::gap`]; the two compose, and the
/// first one reached stops the solve. Other algorithms cannot be cut, so
/// their requests carry no limits.
///
/// [`Budget::time_limit`]: rank_regret::Budget::time_limit
/// [`Budget::gap`]: rank_regret::Budget::gap
pub fn effective_request(
    wire: &WireRequest,
    _calibration: Calibration,
    _n_tuples: usize,
    dims: usize,
) -> Option<Request> {
    let request = match wire.op {
        Op::Minimize { param } => Request::minimize(param),
        Op::Represent { param } => Request::represent(param),
        Op::Update { .. } | Op::Stats => return None,
    };
    let mut request = match wire.algo {
        Some(algo) => request.algo(algo),
        None => request,
    };
    if let Some(spec) = wire.approx {
        request = request.approx(spec.eps, spec.delta);
    }
    request.budget.samples = wire.samples;
    if request.resolved_algorithm(dims).is_cuttable() {
        request.budget.time_limit = wire.deadline_ms.map(Duration::from_millis);
        request.budget.gap = wire.gap;
    }
    Some(request)
}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back from
    /// [`ServerHandle::addr`]).
    pub addr: String,
    /// Query worker threads. `0` is allowed and means *no* query ever
    /// dispatches — admission and `stats` still answer, which makes
    /// overload behaviour deterministic in tests.
    pub workers: usize,
    /// Global queue cap across all tenants; admission rejects beyond it.
    pub queue_cap: usize,
    /// Algorithms to eagerly prepare on every tenant at startup.
    pub warm: Vec<Algorithm>,
    /// Execution policy inside solver kernels (default sequential: the
    /// server parallelizes across requests, not within one).
    pub exec: ExecPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
            queue_cap: 64,
            warm: Vec::new(),
            exec: ExecPolicy::sequential(),
        }
    }
}

/// Write half of a connection; workers and the reader share it, one
/// response line at a time.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn send(&self, json: &Json) {
        let mut line = json.render();
        line.push('\n');
        if let Ok(mut stream) = self.stream.lock() {
            let _ = stream.write_all(line.as_bytes());
        }
    }
}

/// An admitted query waiting for a worker.
struct Job {
    wire: WireRequest,
    tenant: Arc<Tenant>,
    accepted_at: Instant,
    writer: Arc<ConnWriter>,
}

/// State shared by the accept loop, readers, and workers.
struct Shared {
    registry: Registry,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    queue_cap: usize,
    shutdown: AtomicBool,
}

impl Shared {
    fn stats_json(&self, filter: Option<&str>) -> Json {
        let depth = self.queue.lock().map(|q| q.len()).unwrap_or(0);
        Json::Obj(vec![
            (
                "global".into(),
                Json::Obj(vec![
                    ("queue_depth".into(), depth.into()),
                    ("queue_cap".into(), self.queue_cap.into()),
                ]),
            ),
            ("tenants".into(), self.registry.stats_json(filter)),
        ])
    }
}

/// A running server. Dropping the handle does *not* stop the server;
/// call [`ServerHandle::shutdown`] for a clean stop and the final stats
/// dump.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// Start a server: load + warm every tenant, bind, and spawn the
    /// accept and worker threads.
    pub fn start(config: ServerConfig, specs: &[TenantSpec]) -> Result<ServerHandle, RrmError> {
        let registry = Registry::build(specs, &config.warm, config.exec)?;
        let listener = TcpListener::bind(&config.addr)
            .map_err(|e| RrmError::Unsupported(format!("cannot bind {}: {e}", config.addr)))?;
        let addr = listener
            .local_addr()
            .map_err(|e| RrmError::Unsupported(format!("cannot read bound address: {e}")))?;

        let shared = Arc::new(Shared {
            registry,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            queue_cap: config.queue_cap,
            shutdown: AtomicBool::new(false),
        });

        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("rrm-serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .map_err(|e| RrmError::Internal(format!("cannot spawn worker: {e}")))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::Builder::new()
                .name("rrm-serve-accept".into())
                .spawn(move || accept_loop(&shared, &listener, &conns))
                .map_err(|e| RrmError::Internal(format!("cannot spawn accept loop: {e}")))?
        };

        Ok(ServerHandle { addr, shared, accept: Some(accept), workers, conns })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The (field-less) [`Calibration`] to replay requests with.
    pub fn calibration(&self) -> Calibration {
        Calibration
    }

    pub fn registry(&self) -> &Registry {
        &self.shared.registry
    }

    /// Live stats snapshot, same shape as the `stats` wire response.
    pub fn stats_json(&self) -> Json {
        self.shared.stats_json(None)
    }

    /// Stop accepting, drain the queue, join every thread, and return
    /// the final stats dump.
    pub fn shutdown(mut self) -> Json {
        self.shared.shutdown.store(true, Ordering::Release);
        // Unblock the accept loop; readers poll the flag on their 50 ms
        // read timeout, workers on their condvar timeout.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        let readers = std::mem::take(&mut *self.conns.lock().unwrap());
        for h in readers {
            let _ = h.join();
        }
        self.shared.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        self.shared.stats_json(None)
    }
}

fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    conns: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name("rrm-serve-conn".into())
            .spawn(move || connection_loop(&shared, stream))
        {
            conns.lock().unwrap().push(handle);
        }
    }
}

/// Longest request line a connection may send, newline excluded. A longer
/// line gets one `bad_request` and the connection is closed, so no client
/// can grow the reader's buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Read newline-delimited requests off one connection. Hand-rolled line
/// framing over a 50 ms read timeout so the thread notices shutdown
/// without a poll/epoll dependency; partial lines survive timeouts.
fn connection_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter { stream: Mutex::new(w) }),
        Err(_) => return,
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            let line = String::from_utf8_lossy(&line[..pos]).into_owned();
            if !line.trim().is_empty() {
                handle_line(shared, &writer, line.trim());
            }
        }
        if buf.len() > MAX_LINE_BYTES {
            let msg = format!("request line exceeds {MAX_LINE_BYTES} bytes");
            writer.send(&error_response(&None, ErrorKind::BadRequest, &msg, None));
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(k) => buf.extend_from_slice(&chunk[..k]),
            Err(e)
                if matches!(
                    e.kind(),
                    IoErrorKind::WouldBlock | IoErrorKind::TimedOut | IoErrorKind::Interrupted
                ) => {}
            Err(_) => return,
        }
    }
}

/// Parse + admit one request line. Runs on the reader thread, so
/// rejections and `stats` answers never queue behind slow queries —
/// that is what makes overload rejections immediate.
fn handle_line(shared: &Arc<Shared>, writer: &Arc<ConnWriter>, line: &str) {
    let wire = match parse_request(line) {
        Ok(wire) => wire,
        Err(msg) => {
            // Best effort: echo the id even when some field was invalid.
            let id = crate::json::parse(line).ok().and_then(|j| j.get("id").cloned());
            writer.send(&error_response(&id, ErrorKind::BadRequest, &msg, None));
            return;
        }
    };

    if wire.op == Op::Stats {
        let stats = shared.stats_json(wire.tenant.as_deref());
        writer.send(&Json::Obj(vec![
            ("id".into(), wire.id.clone().unwrap_or(Json::Null)),
            ("status".into(), "ok".into()),
            ("stats".into(), stats),
        ]));
        return;
    }

    let name = wire.tenant.as_deref().expect("parse_request requires tenant for queries");
    let Some(tenant) = shared.registry.get(name) else {
        writer.send(&error_response(
            &wire.id,
            ErrorKind::UnknownTenant,
            &format!("no tenant named {name:?}"),
            None,
        ));
        return;
    };

    // Updates apply inline on the reader thread — they never queue behind
    // queries, and workers already mid-query keep the snapshot they
    // pinned at dispatch (the epoch swap is a pointer store).
    if let Op::Update { insert, delete } = &wire.op {
        let ops: Vec<UpdateOp> = delete
            .iter()
            .map(|&i| UpdateOp::Delete(i))
            .chain(insert.iter().map(|row| UpdateOp::Insert(row.clone())))
            .collect();
        match tenant.session.update(&ops) {
            Ok(epoch) => {
                // Cached answers describe the previous epoch's rows.
                tenant.cache.invalidate();
                tenant.updates_applied.fetch_add(1, Ordering::Relaxed);
                writer.send(&Json::Obj(vec![
                    ("id".into(), wire.id.clone().unwrap_or(Json::Null)),
                    ("status".into(), "ok".into()),
                    ("tenant".into(), tenant.name.as_str().into()),
                    ("epoch".into(), epoch.into()),
                    ("n".into(), tenant.session.data().n().into()),
                ]));
            }
            Err(e) => {
                writer.send(&error_response(
                    &wire.id,
                    ErrorKind::of_rrm_error(&e),
                    &e.to_string(),
                    None,
                ));
            }
        }
        return;
    }

    // Per-tenant admission: reserve an in-flight slot or reject now.
    let prev = tenant.inflight.fetch_add(1, Ordering::AcqRel);
    if prev >= tenant.max_inflight {
        tenant.inflight.fetch_sub(1, Ordering::AcqRel);
        tenant.counters.rejected_overload.fetch_add(1, Ordering::Relaxed);
        writer.send(&error_response(
            &wire.id,
            ErrorKind::Overloaded,
            &format!("tenant {name:?} at its in-flight limit"),
            Some(Json::Obj(vec![("max_inflight".into(), tenant.max_inflight.into())])),
        ));
        return;
    }

    // Global queue cap: bounded queueing, never unbounded buildup.
    let job = Job {
        wire,
        tenant: Arc::clone(tenant),
        accepted_at: Instant::now(),
        writer: Arc::clone(writer),
    };
    let mut queue = shared.queue.lock().unwrap();
    if queue.len() >= shared.queue_cap {
        drop(queue);
        job.tenant.inflight.fetch_sub(1, Ordering::AcqRel);
        job.tenant.counters.rejected_overload.fetch_add(1, Ordering::Relaxed);
        job.writer.send(&error_response(
            &job.wire.id,
            ErrorKind::Overloaded,
            "global queue full",
            Some(Json::Obj(vec![("queue_cap".into(), shared.queue_cap.into())])),
        ));
        return;
    }
    queue.push_back(job);
    drop(queue);
    tenant.counters.accepted.fetch_add(1, Ordering::Relaxed);
    shared.available.notify_one();
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                let (guard, _) =
                    shared.available.wait_timeout(queue, Duration::from_millis(50)).unwrap();
                queue = guard;
            }
        };
        match job {
            Some(job) => serve_job(job),
            None => return,
        }
    }
}

fn serve_job(job: Job) {
    let queued = job.accepted_at.elapsed();
    let queued_us = queued.as_micros() as u64;
    let tenant = &job.tenant;
    let (n_tuples, dims) = {
        let data = tenant.session.data();
        (data.n(), data.dim())
    };
    let mut request = effective_request(&job.wire, Calibration, n_tuples, dims)
        .expect("only query ops are enqueued");
    // The deadline counts from admission: a cuttable solve gets what the
    // queue left of it (possibly nothing — it then answers with its first
    // incumbent), and a non-cuttable request that aged out is not run.
    if let Some(limit) = request.budget.time_limit.as_mut() {
        *limit = limit.saturating_sub(queued);
    }
    let aged_out = !request.resolved_algorithm(dims).is_cuttable()
        && job.wire.deadline_ms.is_some_and(|ms| queued_us >= ms.saturating_mul(1000));

    let outcome = if aged_out {
        let ms = job.wire.deadline_ms.expect("aged_out implies a deadline");
        Err((
            ErrorKind::DeadlineExceeded,
            format!("deadline of {ms}ms elapsed after {queued_us}us in queue"),
            Some(Json::Obj(vec![
                ("queued_micros".into(), queued_us.into()),
                ("deadline_ms".into(), ms.into()),
            ])),
        ))
    } else {
        // Deadline-free requests are deterministic: same wire fields on
        // the same epoch → the same answer, so they are served from the
        // tenant's budget-keyed cache when possible. Deadline-bearing
        // requests never touch the cache (a time limit is wall clock).
        let cache_key = job.wire.deadline_ms.is_none().then(|| {
            let minimize = matches!(job.wire.op, Op::Minimize { .. });
            let param = match job.wire.op {
                Op::Minimize { param } | Op::Represent { param } => param,
                _ => unreachable!("only query ops are enqueued"),
            };
            (
                minimize,
                param,
                job.wire.algo,
                job.wire.samples,
                job.wire.gap.map(f64::to_bits),
                job.wire.approx.map(|s| (s.eps.to_bits(), s.delta.to_bits())),
            )
        });
        let epoch = tenant.session.epoch();
        let cached = cache_key.as_ref().and_then(|key| tenant.cache.get(key, epoch));
        match cached {
            Some(solution) => Ok(rank_regret::Response { request, solution, seconds: 0.0 }),
            None => {
                // A panicking solve must not take the worker down with it:
                // it answers `solver_error`, counts as errored, and the
                // in-flight slot is released below like any other outcome.
                let run =
                    std::panic::catch_unwind(AssertUnwindSafe(|| tenant.session.run(&request)));
                let outcome = match run {
                    Ok(result) => {
                        result.map_err(|e| (ErrorKind::of_rrm_error(&e), e.to_string(), None))
                    }
                    Err(panic) => Err((
                        ErrorKind::SolverError,
                        format!("solver panicked: {}", panic_message(panic.as_ref())),
                        None,
                    )),
                };
                if let (Some(key), Ok(response)) = (cache_key, &outcome) {
                    // Only cache when no swap raced the solve: the entry's
                    // epoch tag must describe the rows that answered.
                    if tenant.session.epoch() == epoch {
                        tenant.cache.put(key, epoch, response.solution.clone());
                    }
                }
                outcome
            }
        }
    };

    // Counters update *before* the response goes out: a client that saw
    // an answer and immediately asks for `stats` must see it counted.
    match outcome {
        Ok(response) => {
            tenant.counters.completed.fetch_add(1, Ordering::Relaxed);
            if response.solution.terminated_by.is_early_stop() {
                tenant.counters.partial_answers.fetch_add(1, Ordering::Relaxed);
            }
            if matches!(response.solution.terminated_by, TerminatedBy::Sampled { .. }) {
                tenant.counters.approx_answers.fetch_add(1, Ordering::Relaxed);
            }
            tenant.latency.record(job.accepted_at.elapsed().as_micros() as u64);
            let micros = (response.seconds * 1e6) as u64;
            job.writer.send(&ok_response(&job.wire.id, &tenant.name, &response, queued_us, micros));
        }
        Err((kind, message, diagnostics)) => {
            let counter = if kind == ErrorKind::DeadlineExceeded {
                &tenant.counters.deadline_exceeded
            } else {
                &tenant.counters.errored
            };
            counter.fetch_add(1, Ordering::Relaxed);
            job.writer.send(&error_response(&job.wire.id, kind, &message, diagnostics));
        }
    }
    tenant.inflight.fetch_sub(1, Ordering::AcqRel);
}

/// The text of a caught panic payload (`panic!` with a literal or a
/// formatted message), or a placeholder for other payload types.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(msg) = payload.downcast_ref::<&str>() {
        msg
    } else if let Some(msg) = payload.downcast_ref::<String>() {
        msg
    } else {
        "non-string panic payload"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rank_regret::{ApproxSpec, Budget};

    fn wire(
        algo: Option<Algorithm>,
        deadline_ms: Option<u64>,
        samples: Option<usize>,
        gap: Option<f64>,
        approx: Option<ApproxSpec>,
    ) -> WireRequest {
        WireRequest {
            id: None,
            op: Op::Minimize { param: 3 },
            tenant: Some("t".into()),
            algo,
            deadline_ms,
            samples,
            gap,
            approx,
        }
    }

    fn request(wire: &WireRequest, dims: usize) -> Request {
        effective_request(wire, Calibration, 100, dims).expect("a query op")
    }

    #[test]
    fn a_deadline_never_changes_the_frame() {
        let spec = ApproxSpec { eps: 0.05, delta: 0.05 };
        for algo in [Some(Algorithm::Hdrrm), Some(Algorithm::Mdrms), None] {
            for (samples, approx) in [(None, None), (Some(64), None), (None, Some(spec))] {
                for dims in [2, 4] {
                    let free = request(&wire(algo, None, samples, None, approx), dims);
                    for ms in [1, 25, 60_000] {
                        let timed = request(&wire(algo, Some(ms), samples, None, approx), dims);
                        let (a, b) = (&free.budget, &timed.budget);
                        assert_eq!(a.samples, b.samples, "{algo:?} {ms}ms");
                        assert_eq!(a.max_enumerations, b.max_enumerations, "{algo:?} {ms}ms");
                        assert_eq!(a.max_lp_calls, b.max_lp_calls, "{algo:?} {ms}ms");
                        assert_eq!(a.approx, b.approx, "{algo:?} {ms}ms");
                        assert_eq!(free.fidelity, timed.fidelity, "{algo:?} {ms}ms");
                    }
                    assert_eq!(free.budget.samples, samples);
                    assert_eq!(free.budget.max_enumerations, None);
                    assert_eq!(free.budget.max_lp_calls, None);
                }
            }
        }
    }

    #[test]
    fn deadlines_become_in_solve_cutoffs_only_for_cuttable_algorithms() {
        let w = |algo, deadline_ms| wire(algo, deadline_ms, None, None, None);
        let ms25 = Some(Duration::from_millis(25));
        // An explicit cuttable algorithm plus a deadline gets a time limit
        // over the *full* deadline; dispatch takes the queue wait off it.
        let r = request(&w(Some(Algorithm::Hdrrm), Some(25)), 4);
        assert_eq!(r.budget.time_limit, ms25);
        // Auto on 3 dims resolves to HDRRM (cuttable)...
        let r = request(&w(None, Some(25)), 3);
        assert_eq!(r.resolved_algorithm(3), Algorithm::Hdrrm);
        assert_eq!(r.budget.time_limit, ms25);
        // ...but on 2 dims to the exact planar solver, which is not.
        let r = request(&w(None, Some(25)), 2);
        assert_eq!(r.resolved_algorithm(2), Algorithm::TwoDRrm);
        assert_eq!(r.budget, Budget::UNLIMITED);
        // No deadline: no limit at all, even for cuttable algorithms.
        let r = request(&w(Some(Algorithm::Hdrrm), None), 4);
        assert_eq!(r.budget, Budget::UNLIMITED);
    }

    #[test]
    fn gap_targets_become_in_solve_cutoffs_only_for_cuttable_algorithms() {
        let w = |algo, gap, deadline_ms| wire(algo, deadline_ms, None, gap, None);
        // Cuttable + gap: the solve stops at the certified gap target.
        let r = request(&w(Some(Algorithm::Hdrrm), Some(0.25), None), 4);
        assert_eq!(r.budget.gap, Some(0.25));
        assert_eq!(r.budget.time_limit, None);
        // Auto on 3 dims resolves to HDRRM — still cuttable.
        let r = request(&w(None, Some(0.1), None), 3);
        assert_eq!(r.budget.gap, Some(0.1));
        // Non-cuttable (exact 2D) ignores the gap.
        let r = request(&w(None, Some(0.1), None), 2);
        assert_eq!(r.budget, Budget::UNLIMITED);
        // A deadline and a gap compose: both limits are set, and the
        // first one reached stops the solve.
        let r = request(&w(Some(Algorithm::Hdrrm), Some(0.1), Some(25)), 4);
        assert_eq!(r.budget.gap, Some(0.1));
        assert_eq!(r.budget.time_limit, Some(Duration::from_millis(25)));
    }
}
