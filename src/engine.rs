//! The engine layer: one registry of [`Solver`]s, one dispatch path, and
//! the [`Session`] that binds it all to a dataset.
//!
//! Every way of running a rank-regret query — the CLI, the serve
//! protocol, the bench harness — expresses the query as a typed
//! [`Request`] and answers it the same way: resolve the algorithm
//! ([`Request::resolved_algorithm`], the one home of the `Auto` policy),
//! prepare it ([`Solver::prepare`]), query the handle. [`Engine::run`]
//! does all three per call; a [`Session`] keeps each algorithm's prepared
//! handle and answers arbitrarily many requests cheaply ([`Session::run`],
//! [`Session::run_batch`]). The engine owns a solver per [`Algorithm`]
//! variant (indexed by discriminant — lookups are O(1)). Adding an
//! algorithm means implementing [`Solver`] and registering it here;
//! nothing else in the stack changes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

use rrm_core::{
    apply_updates, approx, Algorithm, Bounds, BruteForceOptions, BruteForceSolver, Budget, Dataset,
    ExecPolicy, Fidelity, FullSpace, PreparedSolver, RrmError, SampledOptions, SampledSolver,
    Solution, Solver, TerminatedBy, UpdateOp, UtilitySpace,
};

use rrm_2d::{Rrm2dOptions, TwoDRrmSolver, TwoDRrrSolver};
use rrm_hd::{
    HdrrmOptions, HdrrmSolver, KsetLimits, MdrcOptions, MdrcSolver, MdrmsOptions, MdrmsSolver,
    MdrrrROptions, MdrrrRSolver, MdrrrSolver,
};

/// Which query a [`Request`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskKind {
    /// RRM / RRRM: best set of at most `r` tuples.
    Minimize,
    /// RRR: smallest set with rank-regret at most `k`.
    Represent,
}

/// The task half of a [`Request`]: the constructor ties the parameter to
/// its problem direction, so "a size used as a threshold" is
/// unrepresentable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Task {
    Minimize { r: usize },
    Represent { k: usize },
}

/// A typed rank-regret query: the task (with its parameter bound at
/// construction), plus everything that shapes the answer — algorithm
/// selection, resource budget, answer [`Fidelity`], an optional
/// per-request utility subspace, and an optional execution policy. It is
/// the only query type: Engine, Session, the serve wire protocol and the
/// CLI all construct this same object.
///
/// ```
/// use std::time::Duration;
/// use rank_regret::{Request, Algorithm, Budget, Fidelity};
///
/// let q = Request::minimize(5).algo(Algorithm::Hdrrm).budget(Budget::with_samples(500));
/// assert_eq!(q.param(), 5);
///
/// // HDRRM under two limits that compose — whichever is reached first
/// // stops the search — with a pinned thread count:
/// let limits = Budget {
///     time_limit: Some(Duration::from_millis(250)),
///     gap: Some(0.1),
///     ..Budget::UNLIMITED
/// };
/// let q = Request::minimize(5).algo(Algorithm::Hdrrm).budget(limits).threads(4);
/// assert_eq!(q.budget.gap, Some(0.1));
///
/// // The sampled-ε approximate tier:
/// let q = Request::minimize(5).approx(0.05, 0.05);
/// assert_eq!(q.fidelity, Fidelity::Approx { eps: 0.05, delta: 0.05 });
/// ```
#[derive(Clone)]
pub struct Request {
    task: Task,
    /// Algorithm selection policy (default [`AlgoChoice::Auto`]).
    pub choice: AlgoChoice,
    /// Cross-algorithm resource budget (default unlimited).
    pub budget: Budget,
    /// Requested answer fidelity (default [`Fidelity::Exact`]).
    pub fidelity: Fidelity,
    /// Per-request utility subspace (RRM becomes RRRM); `None` runs over
    /// the engine/session's ambient space.
    pub space: Option<Arc<dyn UtilitySpace>>,
    /// Per-request execution policy override; `None` inherits the
    /// engine's. Purely a speed knob — answers are bit-identical.
    pub exec: Option<ExecPolicy>,
}

impl Request {
    /// RRM / RRRM: best set of at most `r` tuples.
    pub fn minimize(r: usize) -> Self {
        Self::from_task(Task::Minimize { r })
    }

    /// RRR: smallest set with rank-regret at most `k`.
    pub fn represent(k: usize) -> Self {
        Self::from_task(Task::Represent { k })
    }

    fn from_task(task: Task) -> Self {
        Self {
            task,
            choice: AlgoChoice::Auto,
            budget: Budget::UNLIMITED,
            fidelity: Fidelity::Exact,
            space: None,
            exec: None,
        }
    }

    /// Select a specific algorithm.
    pub fn algo(mut self, algorithm: Algorithm) -> Self {
        self.choice = AlgoChoice::Fixed(algorithm);
        self
    }

    /// Select by policy.
    pub fn choice(mut self, choice: AlgoChoice) -> Self {
        self.choice = choice;
        self
    }

    /// Attach a resource budget.
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Request the sampled-ε approximate tier: the answer carries a
    /// Hoeffding confidence statement — with probability at least
    /// `1 - delta` over the sampled directions, the reported regret is
    /// exceeded on at most an `eps`-fraction of the utility space.
    /// Under [`AlgoChoice::Auto`] this routes to [`Algorithm::Sampled`];
    /// with a fixed exact algorithm it solves on an `approx::reduce`
    /// coreset and re-certifies the answer by sampling.
    pub fn approx(mut self, eps: f64, delta: f64) -> Self {
        self.fidelity = Fidelity::Approx { eps, delta };
        self
    }

    /// Override the direction-sample count used by randomized solvers —
    /// shorthand for setting `budget.samples`.
    pub fn samples(mut self, n: usize) -> Self {
        self.budget.samples = Some(n);
        self
    }

    /// Restrict this request to a utility subspace (RRM becomes RRRM)
    /// without rebinding the engine or session it runs on.
    pub fn within(mut self, space: impl UtilitySpace + 'static) -> Self {
        self.space = Some(Arc::from(space.clone_box()));
        self
    }

    /// [`Request::within`] for an already-shared space.
    pub fn within_arc(mut self, space: Arc<dyn UtilitySpace>) -> Self {
        self.space = Some(space);
        self
    }

    /// Thread budget for this request's solver kernels (`0` = all
    /// cores). Purely a speed knob: answers are bit-identical.
    pub fn threads(self, n: usize) -> Self {
        self.exec(ExecPolicy::threads(n))
    }

    /// Full per-request execution policy (see [`ExecPolicy`]).
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Which problem direction this request asks for.
    pub fn kind(&self) -> TaskKind {
        match self.task {
            Task::Minimize { .. } => TaskKind::Minimize,
            Task::Represent { .. } => TaskKind::Represent,
        }
    }

    /// The task parameter: `r` for minimize, `k` for represent.
    pub fn param(&self) -> usize {
        match self.task {
            Task::Minimize { r } => r,
            Task::Represent { k } => k,
        }
    }

    /// The budget this request actually runs under: the `(ε, δ)` spec
    /// from [`Request::approx`] injected into `budget.approx` (an
    /// explicit [`Budget::with_approx`] wins if both are set).
    pub fn effective_budget(&self) -> Budget {
        let mut budget = self.budget.clone();
        if budget.approx.is_none() {
            budget.approx = self.fidelity.spec();
        }
        budget
    }

    /// The algorithm this request resolves to on `d`-dimensional data —
    /// the one home of the `Auto` policy. A fixed choice wins. `Auto`
    /// picks the sampled tier for approximate fidelity, and for exact
    /// fidelity the exact planar solver when it applies (2DRRM at
    /// `d = 2`), the scalable HD solver (HDRRM) otherwise.
    pub fn resolved_algorithm(&self, d: usize) -> Algorithm {
        match (self.choice, self.fidelity) {
            (AlgoChoice::Fixed(a), _) => a,
            (AlgoChoice::Auto, Fidelity::Approx { .. }) => Algorithm::Sampled,
            (AlgoChoice::Auto, Fidelity::Exact) if d == 2 => Algorithm::TwoDRrm,
            (AlgoChoice::Auto, Fidelity::Exact) => Algorithm::Hdrrm,
        }
    }

    /// Answer this request's task on a prepared handle, under the
    /// effective budget.
    fn query(&self, prepared: &dyn PreparedSolver) -> Result<Solution, RrmError> {
        let budget = self.effective_budget();
        match self.task {
            Task::Minimize { r } => prepared.solve_rrm(r, &budget),
            Task::Represent { k } => prepared.solve_rrr(k, &budget),
        }
    }
}

/// Spaces don't implement `Debug`; show the request's space by label.
impl std::fmt::Debug for Request {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Request")
            .field("task", &self.task)
            .field("choice", &self.choice)
            .field("budget", &self.budget)
            .field("fidelity", &self.fidelity)
            .field("space", &self.space.as_ref().map(|s| s.label()))
            .field("exec", &self.exec)
            .finish()
    }
}

/// Equality compares the space by its [`UtilitySpace::label`] (spaces
/// carry no structural equality of their own); everything else by value.
impl PartialEq for Request {
    fn eq(&self, other: &Self) -> bool {
        self.task == other.task
            && self.choice == other.choice
            && self.budget == other.budget
            && self.fidelity == other.fidelity
            && self.exec == other.exec
            && self.space.as_ref().map(|s| s.label()) == other.space.as_ref().map(|s| s.label())
    }
}

/// What a [`Session`] query returns: the solution plus per-query timing
/// and the request it answers (so batch responses stay correlated).
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request this response answers.
    pub request: Request,
    /// The solver's answer.
    pub solution: Solution,
    /// Wall-clock seconds spent answering *this query* — preparation time
    /// is paid once at first use and amortized away.
    pub seconds: f64,
}

/// Algorithm selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AlgoChoice {
    /// Resolved per request by [`Request::resolved_algorithm`].
    #[default]
    Auto,
    /// A specific registered algorithm.
    Fixed(Algorithm),
}

/// Per-algorithm tuning carried by an [`Engine`]; `Default` mirrors the
/// paper's experimental settings.
#[derive(Debug, Clone, Default)]
pub struct Tuning {
    pub rrm2d: Rrm2dOptions,
    pub hdrrm: HdrrmOptions,
    pub mdrrr: KsetLimits,
    pub mdrrr_r: MdrrrROptions,
    pub mdrc: MdrcOptions,
    pub mdrms: MdrmsOptions,
    pub brute_force: BruteForceOptions,
    /// The sampled-ε approximate tier (default fidelity, direction seed).
    pub sampled: SampledOptions,
    /// Engine-wide execution policy: every prepare runs its chunked
    /// kernels under this thread budget.
    /// Results are bit-identical at any setting; the default honours
    /// `RRM_THREADS`, else uses all cores. A per-request
    /// [`Request::exec`] override wins over this.
    pub exec: ExecPolicy,
}

/// A registry of solvers, one per [`Algorithm`] variant.
pub struct Engine {
    /// Indexed by [`Algorithm::index`] — construction order *is* the
    /// discriminant order, so lookups are a direct array access instead of
    /// a roster scan.
    solvers: Vec<Box<dyn Solver>>,
    /// Execution policy handed to every [`Solver::prepare`].
    exec: ExecPolicy,
}

impl Engine {
    /// Every algorithm with default (paper) tuning.
    pub fn new() -> Self {
        Self::with_tuning(&Tuning::default())
    }

    /// Every algorithm with explicit tuning.
    pub fn with_tuning(t: &Tuning) -> Self {
        let solvers: Vec<Box<dyn Solver>> = vec![
            Box::new(TwoDRrmSolver::new(t.rrm2d)),
            Box::new(TwoDRrrSolver),
            Box::new(HdrrmSolver::new(t.hdrrm)),
            Box::new(MdrrrSolver::new(t.mdrrr)),
            Box::new(MdrrrRSolver::new(t.mdrrr_r)),
            Box::new(MdrcSolver::new(t.mdrc)),
            Box::new(MdrmsSolver::new(t.mdrms)),
            Box::new(BruteForceSolver { options: t.brute_force }),
            Box::new(SampledSolver { options: t.sampled }),
        ];
        debug_assert!(
            solvers.iter().enumerate().all(|(i, s)| s.algorithm().index() == i),
            "registry must be built in Algorithm::ALL order"
        );
        Self { solvers, exec: t.exec }
    }

    /// Replace the engine-wide execution policy (thread budget for every
    /// solver kernel; `0` threads = all cores).
    pub fn with_exec(mut self, exec: ExecPolicy) -> Self {
        self.exec = exec;
        self
    }

    /// The execution policy this engine prepares under.
    pub fn exec(&self) -> ExecPolicy {
        self.exec
    }

    /// Iterate every registered solver, in [`Algorithm::ALL`] order.
    pub fn registry(&self) -> impl Iterator<Item = &dyn Solver> {
        self.solvers.iter().map(|s| s.as_ref())
    }

    /// The solver for one algorithm — O(1) by discriminant index (the
    /// registry holds every variant).
    pub fn solver(&self, algo: Algorithm) -> &dyn Solver {
        let solver = self.solvers[algo.index()].as_ref();
        debug_assert_eq!(solver.algorithm(), algo);
        solver
    }

    /// Answer one typed [`Request`] with a fresh prepared handle: resolve
    /// the algorithm ([`Request::resolved_algorithm`]), prepare it against
    /// the data and space ([`Solver::prepare`], which checks capabilities
    /// first), and query the handle. A request-level [`Request::within`]
    /// space overrides `space`; a [`Request::exec`] policy overrides the
    /// engine's. For repeated queries over one dataset, bind a
    /// [`Session`] instead — it keeps the prepared handles this path
    /// rebuilds on every call.
    pub fn run(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        request: &Request,
    ) -> Result<Solution, RrmError> {
        let space = request.space.as_deref().unwrap_or(space);
        let exec = request.exec.unwrap_or(self.exec);
        let algo = request.resolved_algorithm(data.dim());
        if request.fidelity.is_approx() && algo != Algorithm::Sampled {
            // Approximate fidelity through a fixed exact algorithm: the
            // coreset path (reduce → exact solve → sampled re-certify).
            return self.run_reduced(data, space, request, algo, exec);
        }
        request.query(self.solver(algo).prepare(data, space, exec)?.as_ref())
    }

    /// Per-direction depth of the `approx::reduce` coreset on the
    /// minimize path: deep enough that the exact solver sees every tuple
    /// that can matter unless the optimum's regret is already large
    /// (in which case the sampled re-certification reports that regret
    /// honestly). The represent path uses its threshold `k` instead —
    /// tuples outside every direction's top-`k` cannot join a cover.
    const REDUCE_DEPTH: usize = 64;

    /// The coreset path for approximate requests pinned to an exact
    /// algorithm: shrink `n` with [`approx::reduce`] (union of sampled
    /// per-direction top lists), prepare and query the exact solver on the
    /// coreset, map the answer back, and re-certify its regret by
    /// measuring over the same sampled directions. The result keeps the
    /// exact algorithm's identity but carries the sampled `(ε, δ)`
    /// statement, because the exact certificate only covered the coreset.
    fn run_reduced(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        request: &Request,
        algo: Algorithm,
        exec: ExecPolicy,
    ) -> Result<Solution, RrmError> {
        let budget = request.effective_budget();
        let spec = budget.approx.expect("approx fidelity injects its spec");
        spec.validate()?;
        // Fail fast, before the reduction's scoring pass.
        algo.ensure_supported(data, space)?;
        let m = spec.directions_with(budget.samples);
        let depth = match request.task {
            Task::Minimize { .. } => Self::REDUCE_DEPTH.min(data.n()),
            Task::Represent { k } => k.clamp(1, data.n()),
        };
        let reduced = approx::reduce(data, space, depth, m, approx::DEFAULT_SEED, exec)?;
        let prepared = self.solver(algo).prepare(&reduced.data, space, exec)?;
        let sol = request.query(prepared.as_ref())?;
        let indices = reduced.original_indices(&sol.indices);
        let dirs = approx::sample_directions(space, m, approx::DEFAULT_SEED);
        let k_hat = rrm_core::rank::max_rank_regret(data, &dirs, &indices, exec.parallelism)
            .expect("m >= 1 directions were sampled");
        Ok(Solution::new(indices, Some(k_hat), algo, data)?
            .with_bounds(Bounds { lower: 1, upper: k_hat })
            .with_termination(TerminatedBy::Sampled {
                eps: spec.eps,
                delta: spec.delta,
                directions: m,
            }))
    }

    /// Prepare one algorithm against a dataset + space under the engine's
    /// execution policy ([`Solver::prepare`]). [`Session`] callers get
    /// this lazily and cached; call it directly to manage handles
    /// yourself.
    pub fn prepare(
        &self,
        algo: Algorithm,
        data: &Dataset,
        space: &dyn UtilitySpace,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.solver(algo).prepare(data, space, self.exec)
    }

    /// Consume the engine into a [`Session`] over `data` (full utility
    /// space; use [`Session::space`] to restrict it).
    pub fn session(self, data: Dataset) -> Session {
        Session::with_engine(self, data)
    }
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

/// One immutable generation of a [`Session`]: the dataset plus the
/// lazily-built prepared handles over it. Snapshots are published behind
/// an `Arc` and swapped atomically by [`Session::update`], so readers that
/// grabbed one keep a fully consistent (data, prepared) view for as long
/// as they hold it — an epoch swap never tears an in-flight query.
struct Snapshot {
    /// Generation counter: 0 at bind, +1 per applied update batch.
    epoch: u64,
    data: Arc<Dataset>,
    /// One lazily-initialized prepared handle per [`Algorithm`] variant,
    /// indexed by discriminant. Failed preparations are cached too — a
    /// capability mismatch fails every query the same way. After an
    /// update, slots whose solver maintains its state incrementally are
    /// pre-filled by [`PreparedSolver::apply_update`]; the rest start
    /// empty and lazily re-prepare against the new data on first use.
    prepared: Vec<OnceLock<Result<Arc<dyn PreparedSolver>, RrmError>>>,
}

impl Snapshot {
    fn fresh(epoch: u64, data: Arc<Dataset>) -> Self {
        Self { epoch, data, prepared: empty_slots() }
    }
}

fn empty_slots() -> Vec<OnceLock<Result<Arc<dyn PreparedSolver>, RrmError>>> {
    (0..Algorithm::ALL.len()).map(|_| OnceLock::new()).collect()
}

/// An [`Engine`] bound to one dataset and utility space: the
/// *prepare-once / query-many* entry point.
///
/// The session lazily builds one [`PreparedSolver`] per algorithm on first
/// use and keeps it for the session's lifetime, so a stream of requests —
/// the paper's serving workload: one dataset, many users, varying `r`/`k`
/// — pays each algorithm's per-dataset cost exactly once. A warm handle
/// answers identically to the fresh one [`Engine::run`] builds per call.
///
/// Sessions are `Send + Sync`; share one behind an `&` (or the prepared
/// handles behind their `Arc`s) and run read-only queries from many
/// threads concurrently.
///
/// The dataset is not frozen: [`Session::update`] applies a batch of
/// [`UpdateOp`]s (inserts/deletes) and publishes the result as a new
/// *epoch* via an atomic snapshot swap. Queries in flight keep the epoch
/// they started on; solvers that support it carry their prepared state
/// across the swap incrementally instead of re-preparing from scratch.
///
/// ```
/// use rank_regret::{Dataset, Request, Session, UpdateOp};
///
/// let data = Dataset::from_rows(&[[0.0, 1.0], [0.57, 0.75], [1.0, 0.0]]).unwrap();
/// let session = Session::new(data);
/// // Prepared state is shared across these queries.
/// for r in 1..=3 {
///     let resp = session.run(&Request::minimize(r)).unwrap();
///     assert!(resp.solution.size() <= r);
/// }
/// // Mutate the dataset in place; prepared state follows incrementally.
/// let epoch = session.update(&[UpdateOp::Insert(vec![0.9, 0.4])]).unwrap();
/// assert_eq!(epoch, 1);
/// assert_eq!(session.data().n(), 4);
/// ```
pub struct Session {
    engine: Engine,
    space: Box<dyn UtilitySpace>,
    /// The current generation. Readers take the read lock just long enough
    /// to clone the `Arc`; the writer swaps the pointer after building the
    /// next generation entirely off to the side.
    snapshot: RwLock<Arc<Snapshot>>,
    /// Serializes [`Session::update`] callers: the next generation is
    /// built from the latest one, so concurrent writers must queue (while
    /// readers proceed against the published snapshot untouched).
    writer: Mutex<()>,
    /// Calls to [`Session::prepared`] that found an already-built handle.
    prepare_hits: AtomicUsize,
    /// Calls that actually ran [`Solver::prepare`] — at most one per
    /// algorithm slot *per epoch*, however many threads race the first
    /// request (`tests/session_parity.rs` hammers this).
    prepare_misses: AtomicUsize,
}

impl Session {
    /// Bind the default engine (all nine algorithms, paper tuning) to
    /// `data` over the full utility space.
    pub fn new(data: Dataset) -> Self {
        Self::with_engine(Engine::new(), data)
    }

    /// Bind an explicitly tuned engine to `data`.
    pub fn with_engine(engine: Engine, data: Dataset) -> Self {
        let space: Box<dyn UtilitySpace> = Box::new(FullSpace::new(data.dim()));
        Self {
            engine,
            space,
            snapshot: RwLock::new(Arc::new(Snapshot::fresh(0, Arc::new(data)))),
            writer: Mutex::new(()),
            prepare_hits: AtomicUsize::new(0),
            prepare_misses: AtomicUsize::new(0),
        }
    }

    /// The currently published snapshot.
    fn current(&self) -> Arc<Snapshot> {
        self.snapshot.read().expect("snapshot lock poisoned").clone()
    }

    /// Restrict the utility space (RRM becomes RRRM). Resets any prepared
    /// state — it was built against the previous space.
    pub fn space(self, space: impl UtilitySpace + 'static) -> Self {
        self.boxed_space(Box::new(space))
    }

    /// [`Session::space`] for an already-boxed space.
    pub fn boxed_space(mut self, space: Box<dyn UtilitySpace>) -> Self {
        self.space = space;
        self.reset_prepared();
        self
    }

    /// Replace the execution policy (thread budget) future prepares and
    /// queries run under. Resets prepared state — handles capture the
    /// policy at prepare time. Solutions are bit-identical at any setting.
    pub fn exec(mut self, exec: ExecPolicy) -> Self {
        self.engine.exec = exec;
        self.reset_prepared();
        self
    }

    fn reset_prepared(&mut self) {
        let snapshot = self.snapshot.get_mut().expect("snapshot lock poisoned");
        *snapshot = Arc::new(Snapshot::fresh(snapshot.epoch, snapshot.data.clone()));
        self.prepare_hits = AtomicUsize::new(0);
        self.prepare_misses = AtomicUsize::new(0);
    }

    /// The dataset this session currently serves (the published epoch's
    /// rows; queries already in flight may still be reading an older
    /// generation they pinned at dispatch).
    pub fn data(&self) -> Arc<Dataset> {
        self.current().data.clone()
    }

    /// The current epoch: 0 at bind, incremented by every applied
    /// [`Session::update`] batch.
    pub fn epoch(&self) -> u64 {
        self.current().epoch
    }

    /// Apply a batch of inserts/deletes and publish the result as the next
    /// epoch. Returns the new epoch number.
    ///
    /// The batch is validated and applied atomically ([`apply_updates`]):
    /// on any invalid op nothing changes and the current epoch keeps
    /// serving. On success the writer builds the next snapshot off to the
    /// side — carrying over every already-built prepared handle whose
    /// solver can advance its state incrementally
    /// ([`PreparedSolver::apply_update`]), leaving the rest to lazy
    /// re-preparation — and swaps it in with a pointer store. Readers
    /// never block on the build; queries dispatched before the swap finish
    /// against the old generation, queries after it see the new one.
    /// Answers are identical either way to a session freshly bound to the
    /// post-update rows.
    pub fn update(&self, ops: &[UpdateOp]) -> Result<u64, RrmError> {
        // One writer at a time: the next generation is derived from the
        // latest one. Readers are not blocked by this lock.
        let _writer = self.writer.lock().expect("writer lock poisoned");
        let base = self.current();
        let upd = apply_updates(&base.data, ops)?;
        let next = Snapshot::fresh(base.epoch + 1, Arc::new(upd.new.clone()));
        for (slot, old) in next.prepared.iter().zip(&base.prepared) {
            // Only successfully-built handles can carry state forward;
            // empty and failed slots re-prepare lazily (and a capability
            // failure recurs identically — updates change neither the
            // dimensionality nor the space).
            if let Some(Ok(handle)) = old.get() {
                if let Some(advanced) = handle.apply_update(&upd) {
                    let _ = slot.set(Ok(Arc::from(advanced)));
                }
            }
        }
        let epoch = next.epoch;
        *self.snapshot.write().expect("snapshot lock poisoned") = Arc::new(next);
        Ok(epoch)
    }

    /// The utility space queries run over.
    pub fn utility_space(&self) -> &dyn UtilitySpace {
        self.space.as_ref()
    }

    /// The engine behind this session.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The shared prepared handle for one algorithm, built on first use.
    /// The returned `Arc` is `Send + Sync`: clone it out and query from as
    /// many threads as you like.
    pub fn prepared(&self, algo: Algorithm) -> Result<Arc<dyn PreparedSolver>, RrmError> {
        self.prepared_in(&self.current(), algo)
    }

    /// [`Session::prepared`] against one pinned snapshot (so a query runs
    /// against a single consistent generation even if an update swaps
    /// epochs mid-flight).
    fn prepared_in(
        &self,
        snap: &Snapshot,
        algo: Algorithm,
    ) -> Result<Arc<dyn PreparedSolver>, RrmError> {
        let slot = &snap.prepared[algo.index()];
        // `OnceLock::get_or_init` is the anti-thundering-herd mechanism:
        // when several threads race a cold slot, exactly one runs the
        // (possibly expensive) prepare and the rest block on *that slot
        // only* — queries for other algorithms proceed unimpeded. The
        // hit/miss counters make the contract observable (and let the
        // serving layer report prepare amortization per tenant).
        let mut ran_prepare = false;
        let result = slot
            .get_or_init(|| {
                ran_prepare = true;
                self.engine.prepare(algo, &snap.data, self.space.as_ref()).map(Arc::from)
            })
            .clone();
        if ran_prepare {
            self.prepare_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.prepare_hits.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Number of [`Session::prepared`] lookups answered from an
    /// already-built handle (including threads that blocked while another
    /// thread ran the build).
    pub fn prepare_hits(&self) -> usize {
        self.prepare_hits.load(Ordering::Relaxed)
    }

    /// Number of lookups that actually executed [`Solver::prepare`] — at
    /// most one per algorithm slot for the session's lifetime.
    pub fn prepare_misses(&self) -> usize {
        self.prepare_misses.load(Ordering::Relaxed)
    }

    /// Eagerly build the prepared handles for `algos`, so the first real
    /// request pays no prepare latency spike (servers call this at
    /// startup; the CLI exposes it as `--warm`). Failures — capability
    /// mismatches, unsupported dimensionalities — are cached exactly as a
    /// lazy first request would cache them, and do not abort the rest of
    /// the warm-up. Returns the number of handles that built successfully.
    pub fn warm(&self, algos: &[Algorithm]) -> usize {
        algos.iter().filter(|&&algo| self.prepared(algo).is_ok()).count()
    }

    /// Answer one request through the prepared state. The query pins the
    /// snapshot current at dispatch — a concurrent [`Session::update`]
    /// neither blocks it nor changes the rows it answers over.
    ///
    /// Routing: the request resolves to one algorithm
    /// ([`Request::resolved_algorithm`]) and runs on that algorithm's
    /// cached handle (approximate fidelity under `Auto` resolves to
    /// [`Algorithm::Sampled`], so the sampled tier amortizes like every
    /// other algorithm). Two shapes can't use a cached handle and go
    /// through [`Engine::run`] against the pinned snapshot instead — a
    /// per-request [`Request::within`] space (handles are built against
    /// the session space) and approximate fidelity pinned to an exact
    /// algorithm (the coreset path). Answers are identical either way;
    /// only the amortization differs, and those fresh handles count as
    /// neither prepare hits nor misses. A [`Request::exec`] override is
    /// honoured on the [`Engine::run`] route; cached handles keep the
    /// policy they captured at prepare time (answers are bit-identical at
    /// any setting).
    pub fn run(&self, request: &Request) -> Result<Response, RrmError> {
        let snap = self.current();
        let algo = request.resolved_algorithm(snap.data.dim());
        let fresh_handle =
            request.space.is_some() || (request.fidelity.is_approx() && algo != Algorithm::Sampled);
        let start = Instant::now();
        let solution = if fresh_handle {
            self.engine.run(&snap.data, self.space.as_ref(), request)?
        } else {
            request.query(self.prepared_in(&snap, algo)?.as_ref())?
        };
        Ok(Response { request: request.clone(), solution, seconds: start.elapsed().as_secs_f64() })
    }

    /// Answer a batch of requests, one result per request in order. A
    /// failing request (capability mismatch, infeasible parameter) does
    /// not abort the rest of the batch.
    pub fn run_batch(&self, requests: &[Request]) -> Vec<Result<Response, RrmError>> {
        requests.iter().map(|request| self.run(request)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrm_core::ApproxSpec;

    #[test]
    fn registry_has_every_algorithm_once() {
        let engine = Engine::new();
        let mut algos: Vec<Algorithm> = engine.registry().map(|s| s.algorithm()).collect();
        assert_eq!(algos.len(), Algorithm::ALL.len());
        algos.dedup();
        assert_eq!(algos, Algorithm::ALL.to_vec());
        for a in Algorithm::ALL {
            assert_eq!(engine.solver(a).algorithm(), a, "{a} misplaced in the registry");
        }
    }

    #[test]
    fn auto_policy_matches_the_paper() {
        let auto = Request::minimize(1);
        assert_eq!(auto.resolved_algorithm(2), Algorithm::TwoDRrm);
        assert_eq!(auto.resolved_algorithm(3), Algorithm::Hdrrm);
        assert_eq!(auto.resolved_algorithm(7), Algorithm::Hdrrm);
    }

    #[test]
    fn run_rejects_capability_mismatch_uniformly() {
        let engine = Engine::new();
        let data =
            Dataset::from_rows(&[[0.1, 0.9, 0.5], [0.9, 0.1, 0.5], [0.5, 0.5, 0.5]]).unwrap();
        let err = engine
            .run(&data, &FullSpace::new(3), &Request::minimize(1).algo(Algorithm::TwoDRrm))
            .unwrap_err();
        assert!(matches!(err, RrmError::Unsupported(_)), "{err}");
    }

    #[test]
    fn request_constructors_bind_parameters_to_their_task() {
        let q = Request::minimize(7);
        assert_eq!(q.kind(), TaskKind::Minimize);
        assert_eq!(q.param(), 7);
        assert_eq!(q.choice, AlgoChoice::Auto);
        assert_eq!(q.budget, Budget::UNLIMITED);
        let q = Request::represent(3).algo(Algorithm::Hdrrm).budget(Budget::with_samples(10));
        assert_eq!(q.kind(), TaskKind::Represent);
        assert_eq!(q.param(), 3);
        assert_eq!(q.choice, AlgoChoice::Fixed(Algorithm::Hdrrm));
        assert_eq!(q.budget.samples, Some(10));
    }

    #[test]
    fn session_matches_one_shot_engine_run() {
        let data = Dataset::from_rows(&[
            [0.0, 1.0],
            [0.4, 0.95],
            [0.57, 0.75],
            [0.79, 0.6],
            [0.2, 0.5],
            [0.35, 0.3],
            [1.0, 0.0],
        ])
        .unwrap();
        let engine = Engine::new();
        let session = Session::new(data.clone());
        for r in 1..=4 {
            let request = Request::minimize(r);
            let one_shot = engine.run(&data, &FullSpace::new(2), &request).unwrap();
            let response = session.run(&request).unwrap();
            assert_eq!(response.solution, one_shot, "r={r}");
            assert_eq!(response.request, request);
            assert!(response.seconds >= 0.0);
        }
    }

    #[test]
    fn session_batch_isolates_per_request_failures() {
        let data = Dataset::from_rows(&[[0.0, 1.0], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let session = Session::new(data);
        let batch = [
            Request::minimize(1),
            Request::minimize(0), // infeasible: typed error, not an abort
            Request::represent(2),
        ];
        let results = session.run_batch(&batch);
        assert_eq!(results.len(), 3);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(RrmError::OutputSizeTooSmall { .. })));
        assert!(results[2].is_ok());
    }

    #[test]
    fn session_caches_prepared_failures() {
        // 2DRRM on 3D data: the first query fails at prepare, the second
        // hits the cached error — same type both times.
        let data =
            Dataset::from_rows(&[[0.1, 0.9, 0.5], [0.9, 0.1, 0.5], [0.5, 0.5, 0.5]]).unwrap();
        let session = Session::new(data);
        for _ in 0..2 {
            let err = session.run(&Request::minimize(1).algo(Algorithm::TwoDRrm)).unwrap_err();
            assert!(matches!(err, RrmError::Unsupported(_)), "{err}");
        }
    }

    #[test]
    fn engine_exec_policy_never_changes_answers() {
        let data = Dataset::from_rows(&[
            [0.0, 1.0],
            [0.4, 0.95],
            [0.57, 0.75],
            [0.79, 0.6],
            [0.2, 0.5],
            [0.35, 0.3],
            [1.0, 0.0],
        ])
        .unwrap();
        let sequential = Engine::new().with_exec(ExecPolicy::sequential());
        assert_eq!(sequential.exec(), ExecPolicy::sequential());
        let request = Request::minimize(2);
        let space = FullSpace::new(2);
        let baseline = sequential.run(&data, &space, &request).unwrap();
        for threads in [2usize, 7] {
            let engine = Engine::new().with_exec(ExecPolicy::threads(threads));
            assert_eq!(engine.run(&data, &space, &request).unwrap(), baseline, "t={threads}");
            let session = Session::new(data.clone()).exec(ExecPolicy::threads(threads));
            assert_eq!(session.run(&request).unwrap().solution, baseline, "t={threads}");
        }
    }

    #[test]
    fn warm_builds_handles_and_counts_hits_and_misses() {
        let data = Dataset::from_rows(&[[0.0, 1.0], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let session = Session::new(data);
        // Warm everything: the 2D solvers, HD solvers (d >= 2), brute
        // force and the sampled tier all accept d = 2, so all nine
        // handles build.
        let ok = session.warm(&Algorithm::ALL);
        assert_eq!(ok, 9);
        assert_eq!(session.prepare_misses(), 9);
        assert_eq!(session.prepare_hits(), 0);
        // Every later query is a hit; no new prepare runs.
        session.run(&Request::minimize(1)).unwrap();
        session.run(&Request::minimize(2).algo(Algorithm::Hdrrm)).unwrap();
        assert_eq!(session.prepare_misses(), 9);
        assert_eq!(session.prepare_hits(), 2);
        // Warming again is all hits.
        assert_eq!(session.warm(&Algorithm::ALL), 9);
        assert_eq!(session.prepare_misses(), 9);
    }

    #[test]
    fn warm_caches_failures_without_aborting() {
        // 3D data: the 2D-only solvers fail to prepare; the rest build.
        let data =
            Dataset::from_rows(&[[0.1, 0.9, 0.5], [0.9, 0.1, 0.5], [0.5, 0.5, 0.5]]).unwrap();
        let session = Session::new(data);
        let ok = session.warm(&Algorithm::ALL);
        assert_eq!(ok, 7, "all but the two planar solvers");
        // The cached failure surfaces identically on a real request.
        let err = session.run(&Request::minimize(1).algo(Algorithm::TwoDRrm)).unwrap_err();
        assert!(matches!(err, RrmError::Unsupported(_)), "{err}");
        assert_eq!(session.prepare_misses(), 9, "failures consumed their one miss");
    }

    #[test]
    fn update_publishes_new_epoch_and_matches_fresh_session() {
        let data = Dataset::from_rows(&[
            [0.0, 1.0],
            [0.4, 0.95],
            [0.57, 0.75],
            [0.79, 0.6],
            [0.2, 0.5],
            [0.35, 0.3],
            [1.0, 0.0],
        ])
        .unwrap();
        let session = Session::new(data);
        session.warm(&Algorithm::ALL);
        assert_eq!(session.epoch(), 0);
        let ops = [UpdateOp::Delete(3), UpdateOp::Insert(vec![0.6, 0.62]), UpdateOp::Delete(0)];
        assert_eq!(session.update(&ops).unwrap(), 1);
        assert_eq!(session.epoch(), 1);
        assert_eq!(session.data().n(), 6);
        // Every algorithm answers exactly like a session freshly bound to
        // the post-update rows — whether its state was carried forward
        // incrementally or lazily re-prepared.
        let fresh = Session::new(session.data().as_ref().clone());
        let budget = Budget::with_samples(64);
        for algo in Algorithm::ALL {
            for r in [2usize, 3] {
                let request = Request::minimize(r).algo(algo).budget(budget.clone());
                assert_eq!(
                    session.run(&request).unwrap().solution,
                    fresh.run(&request).unwrap().solution,
                    "{algo} r={r}"
                );
            }
        }
    }

    #[test]
    fn update_carries_incremental_handles_without_reprepare() {
        let data = Dataset::from_rows(&[[0.0, 1.0], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let session = Session::new(data);
        session.warm(&Algorithm::ALL);
        assert_eq!(session.prepare_misses(), 9);
        session.update(&[UpdateOp::Insert(vec![0.8, 0.5])]).unwrap();
        // 2DRRM and HDRRM maintain their prepared state across the swap:
        // querying them on the new epoch must not re-run prepare.
        session.run(&Request::minimize(2).algo(Algorithm::TwoDRrm)).unwrap();
        session.run(&Request::minimize(2).algo(Algorithm::Hdrrm)).unwrap();
        assert_eq!(session.prepare_misses(), 9, "incremental slots were pre-filled");
        // A solver without incremental maintenance lazily re-prepares.
        session.run(&Request::minimize(2).algo(Algorithm::Mdrc)).unwrap();
        assert_eq!(session.prepare_misses(), 10);
    }

    #[test]
    fn update_rejects_invalid_batches_atomically() {
        let data = Dataset::from_rows(&[[0.0, 1.0], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let session = Session::new(data.clone());
        let err = session.update(&[UpdateOp::Delete(9)]).unwrap_err();
        assert!(matches!(err, RrmError::Unsupported(_)), "{err}");
        assert_eq!(session.epoch(), 0, "failed batches must not advance the epoch");
        assert_eq!(*session.data(), data);
    }

    #[test]
    fn in_flight_handles_survive_an_epoch_swap() {
        let data = Dataset::from_rows(&[[0.0, 1.0], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let session = Session::new(data);
        let handle = session.prepared(Algorithm::TwoDRrm).unwrap();
        let before = handle.solve_rrm(2, &Budget::UNLIMITED).unwrap();
        session.update(&[UpdateOp::Delete(1)]).unwrap();
        // The pinned handle still answers over the generation it was built
        // on — the swap invalidates nothing a reader already holds.
        assert_eq!(handle.solve_rrm(2, &Budget::UNLIMITED).unwrap(), before);
        assert_eq!(handle.dataset().n(), 3);
        assert_eq!(session.data().n(), 2);
    }

    #[test]
    fn session_prepared_handles_are_shareable() {
        let data = Dataset::from_rows(&[[0.0, 1.0], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let session = Session::new(data);
        let handle = session.prepared(Request::minimize(1).resolved_algorithm(2)).unwrap();
        let again = session.prepared(Algorithm::TwoDRrm).unwrap();
        // Auto resolves to 2DRRM on d = 2; both asks share one handle.
        assert!(Arc::ptr_eq(&handle, &again));
        assert_eq!(handle.algorithm(), Algorithm::TwoDRrm);
    }

    fn table1() -> Dataset {
        Dataset::from_rows(&[
            [0.0, 1.0],
            [0.4, 0.95],
            [0.57, 0.75],
            [0.79, 0.6],
            [0.2, 0.5],
            [0.35, 0.3],
            [1.0, 0.0],
        ])
        .unwrap()
    }

    #[test]
    fn approx_requests_resolve_to_the_sampled_tier() {
        let q = Request::minimize(2).approx(0.1, 0.05);
        assert_eq!(q.fidelity, Fidelity::Approx { eps: 0.1, delta: 0.05 });
        assert_eq!(q.resolved_algorithm(2), Algorithm::Sampled);
        assert_eq!(q.resolved_algorithm(5), Algorithm::Sampled);
        // Exact fidelity keeps the old auto policy.
        assert_eq!(Request::minimize(2).resolved_algorithm(2), Algorithm::TwoDRrm);
        assert_eq!(Request::minimize(2).resolved_algorithm(5), Algorithm::Hdrrm);
        // A fixed algorithm always wins the resolution.
        assert_eq!(
            Request::minimize(2).approx(0.1, 0.05).algo(Algorithm::Hdrrm).resolved_algorithm(4),
            Algorithm::Hdrrm
        );
        // The budget the solve runs under carries the spec.
        assert_eq!(q.effective_budget().approx, Some(ApproxSpec { eps: 0.1, delta: 0.05 }));
        assert_eq!(Request::minimize(2).effective_budget().approx, None);
    }

    #[test]
    fn approx_answers_match_between_engine_and_session() {
        let data = table1();
        let request = Request::minimize(1).approx(0.05, 0.05);
        let engine = Engine::new();
        let one_shot = engine.run(&data, &FullSpace::new(2), &request).unwrap();
        assert_eq!(one_shot.algorithm, Algorithm::Sampled);
        assert!(matches!(one_shot.terminated_by, TerminatedBy::Sampled { .. }));
        // Table I: the best single representative is t3 (index 2).
        assert_eq!(one_shot.indices, vec![2]);
        let session = Session::new(data);
        assert_eq!(session.run(&request).unwrap().solution, one_shot);
        // The sampled handle is cached like any other algorithm's.
        session.run(&request).unwrap();
        assert!(session.prepare_hits() >= 1);
    }

    #[test]
    fn approx_through_an_exact_algorithm_uses_the_coreset_path() {
        let data = table1();
        let request = Request::minimize(2).approx(0.1, 0.1).algo(Algorithm::TwoDRrm);
        let engine = Engine::new();
        let sol = engine.run(&data, &FullSpace::new(2), &request).unwrap();
        // The exact algorithm keeps its identity but the certificate is
        // the sampled statement (the exact one covered only the coreset).
        assert_eq!(sol.algorithm, Algorithm::TwoDRrm);
        match sol.terminated_by {
            TerminatedBy::Sampled { eps, delta, directions } => {
                assert_eq!((eps, delta), (0.1, 0.1));
                assert_eq!(directions, ApproxSpec { eps, delta }.directions());
            }
            other => panic!("expected a sampled certificate, got {other:?}"),
        }
        // n = 7 fits entirely inside the coreset depth, so the answer is
        // the exact optimum with a sampled measurement of its regret.
        let exact = engine
            .run(&data, &FullSpace::new(2), &Request::minimize(2).algo(Algorithm::TwoDRrm))
            .unwrap();
        assert_eq!(sol.indices, exact.indices);
        // Session routes the same shape through Engine::run; answers
        // agree, and the fresh handle counts as no prepare hit or miss.
        let session = Session::new(table1());
        assert_eq!(session.run(&request).unwrap().solution, sol);
        assert_eq!((session.prepare_hits(), session.prepare_misses()), (0, 0));
        // A samples override below the Hoeffding count leaves the sampled
        // frame, and so the answer, as it was.
        let fewer = engine.run(&data, &FullSpace::new(2), &request.clone().samples(16)).unwrap();
        assert_eq!(fewer, sol);
    }

    #[test]
    fn per_request_space_turns_rrm_into_rrrm() {
        use rrm_core::WeakRankingSpace;
        let data = table1();
        let engine = Engine::new();
        let restricted = Request::minimize(2).within(WeakRankingSpace::new(2, 1));
        let via_request = engine.run(&data, &FullSpace::new(2), &restricted).unwrap();
        let via_ambient =
            engine.run(&data, &WeakRankingSpace::new(2, 1), &Request::minimize(2)).unwrap();
        assert_eq!(via_request, via_ambient, "within() must equal an ambient-space run");
        // Sessions route per-request spaces through Engine::run against
        // the pinned snapshot — same answer, no session prepare counted.
        let session = Session::new(data);
        assert_eq!(session.run(&restricted).unwrap().solution, via_request);
        assert_eq!((session.prepare_hits(), session.prepare_misses()), (0, 0));
    }

    #[test]
    fn per_request_exec_override_never_changes_answers() {
        let data = table1();
        let engine = Engine::new().with_exec(ExecPolicy::sequential());
        let baseline = engine.run(&data, &FullSpace::new(2), &Request::minimize(2)).unwrap();
        for threads in [2usize, 7] {
            let request = Request::minimize(2).threads(threads);
            assert_eq!(engine.run(&data, &FullSpace::new(2), &request).unwrap(), baseline);
        }
    }

    #[test]
    fn request_equality_covers_the_new_dimensions() {
        use rrm_core::WeakRankingSpace;
        let base = Request::minimize(2);
        assert_eq!(base, Request::minimize(2));
        assert_ne!(base, Request::minimize(2).approx(0.1, 0.1));
        assert_ne!(base, Request::minimize(2).threads(3));
        assert_ne!(base, Request::minimize(2).within(WeakRankingSpace::new(2, 1)));
        assert_eq!(
            Request::minimize(2).within(WeakRankingSpace::new(2, 1)),
            Request::minimize(2).within(WeakRankingSpace::new(2, 1))
        );
        assert_ne!(
            base,
            Request::minimize(2).budget(Budget { gap: Some(0.5), ..Budget::UNLIMITED })
        );
        let shown = format!("{:?}", Request::minimize(2).approx(0.1, 0.1));
        assert!(shown.contains("Approx"), "{shown}");
    }
}
