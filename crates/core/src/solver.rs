//! The shared solver contract: every rank-regret algorithm in the
//! workspace — the paper's 2DRRM/HDRRM and the Table III baselines —
//! implements [`Solver`], so engines, benchmarks and tests can treat
//! "an algorithm" as a value.
//!
//! Each algorithm splits into a dataset phase and a query phase, and the
//! trait encodes exactly that: [`Solver::prepare`] binds the algorithm to
//! one dataset and utility space, and the returned [`PreparedSolver`]
//! answers queries. There is no separate one-shot path — a single query is
//! a prepare followed by one query. Capabilities (Table III) live on
//! [`Algorithm`]; every `prepare` starts with
//! [`Algorithm::ensure_supported`], so mismatches surface as a uniform
//! [`RrmError::Unsupported`] instead of per-algorithm ad-hoc failures.
//!
//! [`Budget`] is the cross-algorithm resource knob: each solver maps the
//! caps onto its own machinery (k-set enumeration limits, LP call limits,
//! sampled-direction counts, the anytime stop rule) and ignores the ones
//! that do not apply.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::approx::ApproxSpec;
use crate::dataset::Dataset;
use crate::error::RrmError;
use crate::exec::ExecPolicy;
use crate::problem::{Algorithm, Solution};
use crate::rank;
use crate::space::UtilitySpace;

/// The dataset dimensionalities a solver accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DimRange {
    /// Smallest accepted `d`.
    pub min: usize,
    /// Largest accepted `d` (`None` = unbounded).
    pub max: Option<usize>,
}

impl DimRange {
    pub const fn exactly(d: usize) -> Self {
        Self { min: d, max: Some(d) }
    }

    pub const fn at_least(min: usize) -> Self {
        Self { min, max: None }
    }

    pub fn contains(&self, d: usize) -> bool {
        d >= self.min && self.max.is_none_or(|m| d <= m)
    }
}

impl std::fmt::Display for DimRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.max {
            Some(m) if m == self.min => write!(f, "d = {}", self.min),
            Some(m) => write!(f, "{} <= d <= {}", self.min, m),
            None => write!(f, "d >= {}", self.min),
        }
    }
}

/// Cross-algorithm resource budget: the frame a solve runs on and the
/// limits that may stop it early. `Default` means unlimited: each solver
/// falls back to its own options.
///
/// The four limits — `max_enumerations`, `max_lp_calls`, `time_limit`
/// and `gap` — form one stop rule for the anytime (cuttable) solvers:
/// every limit that is set applies, and the first one reached stops the
/// search with a gap-annotated partial `Solution` whose `TerminatedBy`
/// names it. `samples` and `approx` fix the frame before solving; they
/// never stop a solve.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Budget {
    /// Cap on enumerated candidate structures (k-sets, partition cells,
    /// threshold probes in the anytime searches).
    pub max_enumerations: Option<usize>,
    /// Cap on LP feasibility checks.
    pub max_lp_calls: Option<usize>,
    /// Wall-clock limit for the anytime solvers, counted from the start
    /// of the solve. Nondeterministic: where it lands varies run to run,
    /// but the reported bounds stay sound.
    pub time_limit: Option<Duration>,
    /// Relative optimality-gap target for the anytime solvers: stop once
    /// the certified gap is at most this value. Deterministic — the gap
    /// is a function of the bounds alone.
    pub gap: Option<f64>,
    /// Override for sampled-direction counts in randomized solvers
    /// (HDRRM's `|Da|`, MDRRRr/MDRMS direction samples). The sampled-ε
    /// tier draws at least its Hoeffding count regardless.
    pub samples: Option<usize>,
    /// Requested approximation fidelity, set when the request asked for
    /// the sampled-ε tier (`Request::approx`). The sampled solver reads
    /// its `(eps, delta)` from here; exact solvers ignore it (the engine
    /// routes approximate requests away from them or through
    /// `approx::reduce` first).
    pub approx: Option<ApproxSpec>,
}

impl Budget {
    pub const UNLIMITED: Budget = Budget {
        max_enumerations: None,
        max_lp_calls: None,
        time_limit: None,
        gap: None,
        samples: None,
        approx: None,
    };

    /// Budget with a sampled-direction override, the knob benchmarks use
    /// most.
    pub fn with_samples(samples: usize) -> Self {
        Budget { samples: Some(samples), ..Budget::UNLIMITED }
    }

    /// Budget carrying a sampled-ε fidelity request.
    pub fn with_approx(spec: ApproxSpec) -> Self {
        Budget { approx: Some(spec), ..Budget::UNLIMITED }
    }

    /// Does any limit of the stop rule apply? A `samples` override or an
    /// `approx` spec parameterizes the frame and cannot run out
    /// mid-search, so neither counts.
    pub fn has_limit(&self) -> bool {
        self.max_enumerations.is_some()
            || self.max_lp_calls.is_some()
            || self.time_limit.is_some()
            || self.gap.is_some()
    }
}

/// A rank-regret algorithm as a value: which [`Algorithm`] it is, and how
/// to bind it to a dataset.
pub trait Solver: Send + Sync {
    /// Which [`Algorithm`] this solver implements.
    fn algorithm(&self) -> Algorithm;

    /// Bind this solver to one dataset + utility space, building all the
    /// dataset-dependent state (Pareto frontiers, discretization grids,
    /// candidate pools, ...) **once** so that many queries with varying
    /// `r`/`k` can be answered cheaply through the returned
    /// [`PreparedSolver`].
    ///
    /// The capability check ([`Algorithm::ensure_supported`]) runs here,
    /// so a prepared handle never fails a query for capability reasons.
    ///
    /// The handle *captures* `exec`: every later query runs its chunked
    /// kernels under that policy (an [`ExecPolicy::auto`] policy defers
    /// to the solver options' own). Answers are bit-identical at any
    /// thread count (`tests/parallel_parity.rs` enforces this). The handle
    /// is `Send + Sync`; read-only queries against it may run
    /// concurrently.
    fn prepare(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Box<dyn PreparedSolver>, RrmError>;
}

/// A [`Solver`] bound to one dataset and utility space: the
/// *prepare-once / query-many* half of the API.
///
/// Construction happens through [`Solver::prepare`], which front-loads all
/// per-dataset work; `solve_rrm`/`solve_rrr` then answer individual
/// queries cheaply and repeatedly. Handles are `Send + Sync` so one
/// prepared instance can serve concurrent read-only queries (the serving
/// workload of the paper: many users, one dataset, varying `r`/`k`).
///
/// A warm handle, queried many times in any order, must answer exactly
/// what a freshly prepared handle answers for the same query — cached
/// state is a performance contract, not a different algorithm.
/// `tests/session_parity.rs` enforces this for every registered solver.
pub trait PreparedSolver: Send + Sync {
    /// Which [`Algorithm`] answered.
    fn algorithm(&self) -> Algorithm;

    /// The dataset this handle was prepared on.
    fn dataset(&self) -> &Dataset;

    /// Rank-regret *minimization* for one size budget `r`.
    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError>;

    /// Rank-regret *representative* for one threshold `k`.
    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError>;

    /// Incrementally rebind this handle to the post-update dataset,
    /// patching cached state instead of re-deriving it from scratch.
    ///
    /// Returns `None` when the solver's state is not incrementally
    /// maintainable (the default): callers fall back to a fresh
    /// [`Solver::prepare`] against `upd.new`. When `Some`, the returned
    /// handle must answer every query **bit-identically** to a freshly
    /// prepared handle over `upd.new` — incremental maintenance is a
    /// performance contract, never an approximation (the same contract as
    /// [`Solver::prepare`] itself; `tests/incremental.rs` enforces it).
    fn apply_update(&self, upd: &crate::update::AppliedUpdate) -> Option<Box<dyn PreparedSolver>> {
        let _ = upd;
        None
    }
}

/// Cap for prepared-solver side caches keyed by *request-supplied* values
/// (budget sample counts, enumeration limits). A long-lived session
/// answering untrusted requests must not grow memory with every distinct
/// budget it sees: entries up to the cap are cached for the session's
/// lifetime, further variants are computed but not retained.
pub const PREPARED_CACHE_CAP: usize = 16;

/// Insert-or-reuse with a size bound: returns the cached value for `key`
/// when present; otherwise caches `value` if the map holds fewer than
/// `cap` entries, and returns it either way (uncached beyond the cap —
/// correct but unamortized, which is the right failure mode for a
/// hostile stream of distinct budgets).
pub fn cache_bounded<K: Eq + std::hash::Hash, V: Clone>(
    map: &mut HashMap<K, V>,
    key: K,
    value: V,
    cap: usize,
) -> V {
    if let Some(existing) = map.get(&key) {
        return existing.clone();
    }
    if map.len() < cap {
        map.insert(key, value.clone());
    }
    value
}

/// Generic RRR fallback for solvers with no native representative mode
/// (MDRC, MDRMS): exponential-then-binary search over the size budget
/// `r`, accepting the smallest `r` whose solution's rank-regret —
/// *estimated* on a deterministic direction sample — meets the threshold.
/// `solve_rrm` answers one size probe; prepared solvers pass their
/// memoized query path here so the whole search reuses cached
/// per-dataset state.
///
/// The result inherits the inner solver's (lack of) certificate:
/// `certified_regret` is `None`, because the estimate is not a guarantee.
/// The per-probe regret estimate (the `O(m · n · d)` inner loop) is
/// chunked over `exec`'s threads; its direction sample is drawn once,
/// sequentially, so the estimate is identical at any thread count.
pub fn rrr_via_rrm_search_with(
    name: &str,
    data: &Dataset,
    k: usize,
    space: &dyn UtilitySpace,
    budget: &Budget,
    exec: ExecPolicy,
    mut solve_rrm: impl FnMut(usize) -> Result<Solution, RrmError>,
) -> Result<Solution, RrmError> {
    if k == 0 {
        return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
    }
    let n = data.n();
    let m = budget.samples.unwrap_or(512).max(1);
    let mut rng = StdRng::seed_from_u64(0x5EA7C4);
    let dirs: Vec<Vec<f64>> = (0..m).map(|_| space.sample_direction(&mut rng)).collect();
    let estimate = |sol: &Solution| -> usize {
        rank::max_rank_regret(data, &dirs, &sol.indices, exec.parallelism)
            .expect("at least one direction")
    };
    let mut attempt = |r: usize| -> Result<Option<(Solution, usize)>, RrmError> {
        match solve_rrm(r) {
            Ok(sol) => {
                let est = estimate(&sol);
                Ok(Some((sol, est)))
            }
            // "This r is below the solver's minimum output size" is an
            // expected probe outcome; the search just moves to a larger r.
            Err(RrmError::OutputSizeTooSmall { .. }) => Ok(None),
            // Everything else — notably `Internal` contract violations —
            // must surface, not be mistaken for infeasibility.
            Err(e) => Err(e),
        }
    };

    // Exponential phase: find any feasible size, remembering the largest
    // size already proven infeasible so the binary phase does not re-probe
    // below it (the scheme of MDRRR's and 2DRRR's RRM searches).
    let mut hi = 1usize;
    let mut largest_infeasible = 0usize;
    let mut feasible: Option<(usize, Solution)> = None;
    loop {
        if let Some((sol, est)) = attempt(hi)? {
            if est <= k {
                feasible = Some((hi, sol));
                break;
            }
        }
        if hi >= n {
            break;
        }
        largest_infeasible = hi;
        hi = (hi * 2).min(n);
    }
    let (mut hi, mut best) = match feasible {
        Some((r, sol)) => (r, sol),
        None => {
            return Err(RrmError::Unsupported(format!(
                "{name} could not reach rank-regret <= {k} even with r = {n}"
            )))
        }
    };

    // Binary phase: shrink to the smallest feasible size.
    let mut lo = largest_infeasible + 1;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match attempt(mid)? {
            Some((sol, est)) if est <= k => {
                hi = mid;
                best = sol;
            }
            _ => lo = mid + 1,
        }
    }
    Ok(best)
}

/// Options for [`BruteForceSolver`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BruteForceOptions {
    /// Directions sampled to evaluate each candidate subset.
    pub samples: usize,
    /// RNG seed for the direction sample.
    pub seed: u64,
    /// Refuse datasets larger than this (subset enumeration blows up).
    pub max_tuples: usize,
    /// Data-parallelism for the per-direction rank tables. An explicit
    /// policy passed to [`Solver::prepare`] overrides the default.
    pub exec: ExecPolicy,
}

impl Default for BruteForceOptions {
    fn default() -> Self {
        Self { samples: 4096, seed: 0xB01_DFACE, max_tuples: 20, exec: ExecPolicy::default() }
    }
}

/// Exhaustive search over candidate subsets, the reference implementation
/// behind tests and the parity harness. Exact over its sampled direction
/// set; only usable on tiny datasets (`n ≤ max_tuples`).
#[derive(Debug, Clone, Default)]
pub struct BruteForceSolver {
    pub options: BruteForceOptions,
}

impl BruteForceSolver {
    /// Per-direction ranks of every tuple: `ranks[dir][tuple]`.
    ///
    /// Directions are drawn sequentially (the RNG stream is part of the
    /// algorithm's identity), then the `O(n²)`-per-direction rank counting
    /// — the table's dominant cost — is chunked over the exec policy's
    /// threads. Per-direction rows are independent, so the table is
    /// identical at any thread count.
    fn rank_table(&self, data: &Dataset, space: &dyn UtilitySpace, m: usize) -> Vec<Vec<usize>> {
        let mut rng = StdRng::seed_from_u64(self.options.seed);
        let dirs: Vec<Vec<f64>> = (0..m).map(|_| space.sample_direction(&mut rng)).collect();
        let n = data.n();
        let soa = data.soa();
        // O(n²) rank counting dominates each direction's cost.
        let chunk = rrm_par::adaptive_chunk(dirs.len(), n * n);
        let per_chunk =
            rrm_par::par_chunks(&dirs, chunk, self.options.exec.parallelism, |_, dirs_chunk| {
                let mut scratch = crate::kernel::ScoreScratch::new();
                let mut rows = vec![Vec::new(); dirs_chunk.len()];
                crate::kernel::for_each_scores(soa, dirs_chunk, &mut scratch, |di, scores| {
                    rows[di] = (0..n as u32).map(|i| rank::rank_of_index(scores, i)).collect();
                });
                rows
            });
        per_chunk.into_iter().flatten().collect()
    }

    /// Best subset of size ≤ `r`: minimal worst-case (over directions)
    /// best-member rank. Returns `(indices, regret)`.
    fn best_subset(ranks: &[Vec<usize>], n: usize, r: usize) -> (Vec<u32>, usize) {
        let r = r.min(n);
        let mut best_set: Vec<u32> = Vec::new();
        let mut best_regret = usize::MAX;
        // Enumerate subsets of size exactly r (regret is monotone in set
        // growth, so smaller subsets never beat the best r-subset).
        let mut subset: Vec<u32> = (0..r as u32).collect();
        loop {
            let mut worst = 0usize;
            for per_dir in ranks {
                let best_rank = subset.iter().map(|&i| per_dir[i as usize]).min().expect("r >= 1");
                worst = worst.max(best_rank);
                if worst >= best_regret {
                    break; // cannot beat the incumbent
                }
            }
            if worst < best_regret {
                best_regret = worst;
                best_set = subset.clone();
            }
            // Next lexicographic r-combination of 0..n.
            let mut i = r;
            loop {
                if i == 0 {
                    return (best_set, best_regret);
                }
                i -= 1;
                if (subset[i] as usize) < n - (r - i) {
                    subset[i] += 1;
                    for j in i + 1..r {
                        subset[j] = subset[j - 1] + 1;
                    }
                    break;
                }
            }
        }
    }
}

impl Solver for BruteForceSolver {
    fn algorithm(&self) -> Algorithm {
        Algorithm::BruteForce
    }

    fn prepare(
        &self,
        data: &Dataset,
        space: &dyn UtilitySpace,
        exec: ExecPolicy,
    ) -> Result<Box<dyn PreparedSolver>, RrmError> {
        self.algorithm().ensure_supported(data, space)?;
        if data.n() > self.options.max_tuples {
            return Err(RrmError::Unsupported(format!(
                "brute force enumerates subsets; n = {} exceeds max_tuples = {}",
                data.n(),
                self.options.max_tuples
            )));
        }
        let mut options = self.options;
        options.exec = exec.or(options.exec);
        Ok(Box::new(PreparedBruteForce {
            options,
            data: data.clone(),
            space: space.clone_box(),
            tables: Mutex::new(HashMap::new()),
        }))
    }
}

/// [`BruteForceSolver`] bound to one dataset: the per-direction rank table
/// (the expensive `O(m · n log n)` part) is computed once per sample count
/// and shared by every query; each query is then just the subset
/// enumeration.
pub struct PreparedBruteForce {
    options: BruteForceOptions,
    data: Dataset,
    space: Box<dyn UtilitySpace>,
    /// Rank tables keyed by the effective sample count `m` (the budget can
    /// override the option, so different queries may need different
    /// tables; each is deterministic per `m`).
    tables: Mutex<HashMap<usize, Arc<Vec<Vec<usize>>>>>,
}

impl PreparedBruteForce {
    fn table(&self, budget: &Budget) -> Arc<Vec<Vec<usize>>> {
        let m = budget.samples.unwrap_or(self.options.samples).max(1);
        if let Some(table) = self.tables.lock().expect("rank-table cache poisoned").get(&m) {
            return table.clone();
        }
        // Compute outside the lock: concurrent misses duplicate the
        // deterministic work instead of blocking each other.
        let solver = BruteForceSolver { options: self.options };
        let table = Arc::new(solver.rank_table(&self.data, self.space.as_ref(), m));
        cache_bounded(
            &mut self.tables.lock().expect("rank-table cache poisoned"),
            m,
            table,
            PREPARED_CACHE_CAP,
        )
    }
}

impl PreparedSolver for PreparedBruteForce {
    fn algorithm(&self) -> Algorithm {
        Algorithm::BruteForce
    }

    fn dataset(&self) -> &Dataset {
        &self.data
    }

    fn solve_rrm(&self, r: usize, budget: &Budget) -> Result<Solution, RrmError> {
        if r == 0 {
            return Err(RrmError::OutputSizeTooSmall { requested: 0, minimum: 1 });
        }
        let ranks = self.table(budget);
        let (set, regret) = BruteForceSolver::best_subset(&ranks, self.data.n(), r);
        Solution::new(set, Some(regret), Algorithm::BruteForce, &self.data)
    }

    fn solve_rrr(&self, k: usize, budget: &Budget) -> Result<Solution, RrmError> {
        if k == 0 {
            return Err(RrmError::Unsupported("rank-regret thresholds start at 1".into()));
        }
        let ranks = self.table(budget);
        for r in 1..=self.data.n() {
            let (set, regret) = BruteForceSolver::best_subset(&ranks, self.data.n(), r);
            if regret <= k {
                return Solution::new(set, Some(regret), Algorithm::BruteForce, &self.data);
            }
        }
        Err(RrmError::Internal("brute force failed to reach regret 1 with the full dataset".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::{FullSpace, WeakRankingSpace};

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

    /// A fresh brute-force handle under the default execution policy.
    fn brute(data: &Dataset, space: &dyn UtilitySpace) -> Box<dyn PreparedSolver> {
        BruteForceSolver::default().prepare(data, space, ExecPolicy::default()).unwrap()
    }

    #[test]
    fn rrr_search_propagates_internal_errors() {
        // The RRR-via-RRM fallback must surface a misbehaving inner
        // solver's Internal error, not translate it into "infeasible".
        let data = table1();
        let err = rrr_via_rrm_search_with(
            "broken",
            &data,
            3,
            &FullSpace::new(2),
            &Budget::with_samples(16),
            ExecPolicy::default(),
            // Empty output: the contract violation Solution::new types.
            |_| Solution::new(vec![], None, Algorithm::Mdrc, &data),
        )
        .unwrap_err();
        assert!(matches!(&err, RrmError::Internal(msg) if msg.contains("empty")), "{err}");
    }

    #[test]
    fn dim_range_contains() {
        assert!(DimRange::exactly(2).contains(2));
        assert!(!DimRange::exactly(2).contains(3));
        assert!(DimRange::at_least(2).contains(17));
        assert!(!DimRange::at_least(2).contains(1));
        assert_eq!(DimRange::exactly(2).to_string(), "d = 2");
        assert_eq!(DimRange::at_least(2).to_string(), "d >= 2");
    }

    #[test]
    fn budget_default_is_unlimited() {
        assert_eq!(Budget::default(), Budget::UNLIMITED);
        assert_eq!(Budget::with_samples(100).samples, Some(100));
    }

    #[test]
    fn brute_force_finds_the_paper_example_optimum() {
        // Table I: the best single representative is t3 (index 2) with
        // rank-regret 3.
        let sol = brute(&table1(), &FullSpace::new(2)).solve_rrm(1, &Budget::default()).unwrap();
        assert_eq!(sol.indices, vec![2]);
        assert_eq!(sol.certified_regret, Some(3));
        assert_eq!(sol.algorithm, Algorithm::BruteForce);
    }

    #[test]
    fn brute_force_rrr_matches_duality() {
        let prepared = brute(&table1(), &FullSpace::new(2));
        // Threshold 3 is achievable with one tuple (t3), so RRR returns 1.
        let sol = prepared.solve_rrr(3, &Budget::default()).unwrap();
        assert_eq!(sol.size(), 1);
        // Threshold 1 needs every envelope tuple.
        let sol = prepared.solve_rrr(1, &Budget::default()).unwrap();
        assert_eq!(sol.certified_regret, Some(1));
        assert!(sol.size() >= 2);
    }

    #[test]
    fn brute_force_respects_restricted_space() {
        let sol = brute(&table1(), &WeakRankingSpace::new(2, 1))
            .solve_rrm(1, &Budget::default())
            .unwrap();
        assert!(sol.certified_regret.unwrap() <= 3);
    }

    #[test]
    fn brute_force_rejects_large_inputs() {
        let rows: Vec<[f64; 2]> = (0..50).map(|i| [i as f64, 50.0 - i as f64]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let Err(err) =
            BruteForceSolver::default().prepare(&data, &FullSpace::new(2), ExecPolicy::default())
        else {
            panic!("n = 50 must be refused");
        };
        assert!(matches!(err, RrmError::Unsupported(_)));
    }

    #[test]
    fn ensure_supported_reports_uniform_errors() {
        // Space dimension mismatch.
        let err =
            Algorithm::BruteForce.ensure_supported(&table1(), &FullSpace::new(3)).unwrap_err();
        assert!(matches!(err, RrmError::DimensionMismatch { expected: 2, got: 3 }));
        // Dimensionality outside the algorithm's range.
        let d3 = Dataset::from_rows(&[[0.1, 0.2, 0.3]]).unwrap();
        let err = Algorithm::TwoDRrm.ensure_supported(&d3, &FullSpace::new(3)).unwrap_err();
        assert!(matches!(&err, RrmError::Unsupported(msg) if msg.contains("d = 2")), "{err}");
        // A restricted space on an algorithm without an RRRM mode.
        let err =
            Algorithm::Mdrc.ensure_supported(&table1(), &WeakRankingSpace::new(2, 1)).unwrap_err();
        assert!(matches!(&err, RrmError::Unsupported(msg) if msg.contains("restricted")), "{err}");
    }

    #[test]
    fn cache_bounded_stops_growing_at_the_cap() {
        let mut map: HashMap<usize, usize> = HashMap::new();
        for key in 0..10 {
            assert_eq!(cache_bounded(&mut map, key, key * 10, 3), key * 10);
        }
        assert_eq!(map.len(), 3, "entries beyond the cap must not be retained");
        // Cached keys keep returning the stored value...
        assert_eq!(cache_bounded(&mut map, 0, 999, 3), 0);
        // ...and uncached keys still compute correctly, just unretained.
        assert_eq!(cache_bounded(&mut map, 42, 420, 3), 420);
        assert_eq!(map.len(), 3);
    }

    #[test]
    fn prepared_brute_force_matches_one_shot_across_queries() {
        // A warm handle queried out of order answers exactly like a fresh
        // handle per query.
        let space = FullSpace::new(2);
        let budget = Budget::with_samples(256);
        let warm = brute(&table1(), &space);
        assert_eq!(warm.algorithm(), Algorithm::BruteForce);
        assert_eq!(warm.dataset().n(), 7);
        for r in [3usize, 1, 4, 2, 1] {
            let fresh = brute(&table1(), &space).solve_rrm(r, &budget).unwrap();
            assert_eq!(warm.solve_rrm(r, &budget).unwrap(), fresh, "r={r}");
        }
        for k in [2usize, 3, 1] {
            let fresh = brute(&table1(), &space).solve_rrr(k, &budget).unwrap();
            assert_eq!(warm.solve_rrr(k, &budget).unwrap(), fresh, "k={k}");
        }
        // Zero parameters stay typed errors.
        assert!(matches!(warm.solve_rrm(0, &budget), Err(RrmError::OutputSizeTooSmall { .. })));
        assert!(matches!(warm.solve_rrr(0, &budget), Err(RrmError::Unsupported(_))));
    }

    #[test]
    fn prepare_rejects_what_one_shot_rejects() {
        // Oversized dataset and capability mismatches fail at prepare time,
        // so a handle that exists can always answer.
        let rows: Vec<[f64; 2]> = (0..50).map(|i| [i as f64, 50.0 - i as f64]).collect();
        let big = Dataset::from_rows(&rows).unwrap();
        let solver = BruteForceSolver::default();
        let exec = ExecPolicy::default();
        assert!(matches!(
            solver.prepare(&big, &FullSpace::new(2), exec),
            Err(RrmError::Unsupported(_))
        ));
        assert!(matches!(
            solver.prepare(&table1(), &FullSpace::new(3), exec),
            Err(RrmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn brute_force_is_bit_identical_across_thread_counts() {
        let solver = BruteForceSolver::default();
        let space = FullSpace::new(2);
        let budget = Budget::with_samples(128);
        let solve = |exec: ExecPolicy| {
            solver.prepare(&table1(), &space, exec).unwrap().solve_rrm(2, &budget).unwrap()
        };
        let baseline = solve(ExecPolicy::sequential());
        for threads in [2usize, 7] {
            assert_eq!(solve(ExecPolicy::threads(threads)), baseline, "threads={threads}");
        }
    }

    #[test]
    fn budget_sample_override_is_honoured() {
        // One sampled direction: the certificate is that direction's rank.
        let sol =
            brute(&table1(), &FullSpace::new(2)).solve_rrm(1, &Budget::with_samples(1)).unwrap();
        assert!(sol.certified_regret.unwrap() <= 3);
    }
}
