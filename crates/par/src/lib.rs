//! Deterministic data-parallel runtime for the rank-regret workspace.
//!
//! Every hot loop in the reproduction — rank counting over `n` tuples per
//! utility direction, HDRRM's per-`m` discretizations, MDRMS greedy
//! scoring, set-cover candidate evaluation, brute-force rank tables — is a
//! map (or map-reduce) over independently schedulable chunks. This crate
//! is the one place that turns such loops into multi-core work while
//! keeping the workspace's core guarantee intact:
//!
//! > **Results are bit-identical regardless of thread count.**
//!
//! Two rules enforce that:
//!
//! 1. **Fixed chunk boundaries.** [`par_chunks`] and [`par_map_reduce`]
//!    split the input by an explicit `chunk_size` — never by the thread
//!    count — so the decomposition a reduction sees is a pure function of
//!    the input. ([`par_map`] chunks by thread count internally, which is
//!    safe there because its per-item outputs are independent of the
//!    decomposition.) Callers size chunks with [`adaptive_chunk`]; the
//!    workspace's `clippy.toml` rejects [`Parallelism::threads`] outside
//!    this crate and `ExecPolicy::effective_threads`, which only reports
//!    the count.
//! 2. **Ordered merges.** Each spawned worker returns its chunk results,
//!    tagged with their chunk positions, through its join handle; the
//!    calling thread places them by position and merges them *in chunk
//!    order* — never through racy atomics-style reductions — so even
//!    non-commutative or floating-point-sensitive folds are reproducible.
//!
//! There is no global pool, no idle thread and no lock: a call on `n`
//! threads spawns `n − 1` scoped helpers (`std::thread::scope`) and
//! works beside them on the calling thread; all pull chunk indices from
//! an atomic dispenser (cheap dynamic load balancing that cannot affect
//! results), and the helpers join before the call returns. A worker
//! panic propagates to the caller with its own payload.
//!
//! # Configuration
//!
//! [`Parallelism`] selects the thread count:
//!
//! * [`Parallelism::Auto`] (the default) — honour the `RRM_THREADS`
//!   environment variable when set to a positive integer; otherwise (or
//!   when set to `0`) use all available cores.
//! * [`Parallelism::Sequential`] — run inline on the calling thread; no
//!   threads are spawned at all.
//! * [`Parallelism::Fixed`]`(n)` — exactly `n` threads, the caller's included.
//!
//! `RRM_THREADS=1` therefore degrades the entire workspace to sequential
//! execution — CI runs the full test suite both ways and the answers must
//! not differ by a bit.

use std::sync::atomic::{AtomicUsize, Ordering};

/// How many threads a parallel region may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Parallelism {
    /// `RRM_THREADS` when set to a positive integer, else all cores.
    #[default]
    Auto,
    /// Run inline on the calling thread (no spawning).
    Sequential,
    /// Exactly this many worker threads (`>= 1`).
    Fixed(usize),
}

impl Parallelism {
    /// Explicit thread count; `0` means "all cores, right now" — resolved
    /// against the machine at the call, so unlike [`Parallelism::Auto`]
    /// an ambient `RRM_THREADS` cannot override an explicit request.
    pub fn fixed(n: usize) -> Self {
        match n {
            0 => match std::thread::available_parallelism().map_or(1, |p| p.get()) {
                1 => Parallelism::Sequential,
                cores => Parallelism::Fixed(cores),
            },
            1 => Parallelism::Sequential,
            n => Parallelism::Fixed(n),
        }
    }

    /// The resolved worker count (always `>= 1`).
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => match std::env::var("RRM_THREADS") {
                Ok(v) => threads_from_env_str(Some(&v)),
                Err(_) => threads_from_env_str(None),
            },
        }
    }

    /// Does this policy run everything inline on the calling thread?
    #[allow(clippy::disallowed_methods)]
    pub fn is_sequential(self) -> bool {
        self.threads() <= 1
    }
}

/// `RRM_THREADS` parsing, factored out for testability: a positive integer
/// wins; `0`, empty, or unparsable values fall back to all cores.
fn threads_from_env_str(v: Option<&str>) -> usize {
    match v.and_then(|s| s.trim().parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map_or(1, |p| p.get()),
    }
}

/// Target work per chunk for [`adaptive_chunk`], in abstract "ops"
/// (typically tuple·attribute scoring steps): big enough to amortize
/// dispatch, small enough that a handful of chunks load-balance well.
const ADAPTIVE_TARGET_OPS: usize = 1 << 20;

/// Pick a chunk size for `items` whose per-item processing costs
/// `cost_per_item` abstract ops (e.g. `n * d` for a utility direction
/// scored against the whole dataset).
///
/// The result is a **pure function of the workload** — never of the thread
/// count, the machine, or runtime timing — so chunk boundaries (and with
/// them every ordered merge) stay bit-identical at any [`Parallelism`].
/// Cheap items get big chunks (less dispatch overhead), expensive items
/// get chunks as small as 1 (better load balancing), clamped to
/// `1..=4096`.
pub fn adaptive_chunk(items: usize, cost_per_item: usize) -> usize {
    (ADAPTIVE_TARGET_OPS / cost_per_item.max(1)).clamp(1, 4096).min(items.max(1))
}

/// Map `f` over fixed-size chunks of `items`, returning one result per
/// chunk **in chunk order**. `f` receives the chunk's starting offset into
/// `items` and the chunk slice.
///
/// The decomposition depends only on `items.len()` and `chunk_size`, never
/// on the thread count, so downstream order-sensitive merges see the same
/// chunk results at any [`Parallelism`].
#[allow(clippy::disallowed_methods)]
pub fn par_chunks<T: Sync, R: Send>(
    items: &[T],
    chunk_size: usize,
    pol: Parallelism,
    f: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    run_chunked(items, chunk_size.max(1), pol.threads(), &f)
}

/// Map `f` over every item, returning results **in item order**.
///
/// Chunking is internal (by thread count) — valid here because each output
/// depends only on its own item, so the decomposition cannot show through.
#[allow(clippy::disallowed_methods)]
pub fn par_map<T: Sync, R: Send>(
    items: &[T],
    pol: Parallelism,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = pol.threads();
    if threads <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    // Oversubscribe chunks 4x for load balancing; harmless for determinism
    // (per-item outputs are decomposition independent).
    let chunk = items.len().div_ceil(threads * 4).max(1);
    let per_chunk = run_chunked(items, chunk, threads, &|_, chunk: &[T]| {
        chunk.iter().map(&f).collect::<Vec<R>>()
    });
    per_chunk.into_iter().flatten().collect()
}

/// Chunked map-reduce with a **deterministic, order-preserving reduction**:
/// `map` runs on fixed-size chunks (possibly in parallel), then `reduce`
/// folds the chunk results on the calling thread, strictly in chunk order.
/// Returns `None` for empty input.
///
/// Because chunk boundaries come from `chunk_size` alone and the fold is
/// ordered, the result is bit-identical at any thread count — even for
/// non-associative operations such as floating-point sums.
pub fn par_map_reduce<T: Sync, A: Send>(
    items: &[T],
    chunk_size: usize,
    pol: Parallelism,
    map: impl Fn(usize, &[T]) -> A + Sync,
    mut reduce: impl FnMut(A, A) -> A,
) -> Option<A> {
    let mut parts = par_chunks(items, chunk_size, pol, map).into_iter();
    let first = parts.next()?;
    Some(parts.fold(first, &mut reduce))
}

/// The scoped worker team behind every entry point: an atomic chunk
/// dispenser, the calling thread plus `threads - 1` spawned helpers, each
/// helper's `(chunk, result)` pairs returned through its join handle, and
/// ordered collection at the end.
fn run_chunked<T: Sync, R: Send>(
    items: &[T],
    chunk_size: usize,
    threads: usize,
    f: &(impl Fn(usize, &[T]) -> R + Sync),
) -> Vec<R> {
    let n_chunks = items.len().div_ceil(chunk_size);
    if threads <= 1 || n_chunks <= 1 {
        // Sequential fallback: no spawning, same chunk decomposition.
        return (0..n_chunks).map(|i| f(i * chunk_size, chunk_at(items, i, chunk_size))).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n_chunks {
                return done;
            }
            done.push((i, f(i * chunk_size, chunk_at(items, i, chunk_size))));
        }
    };
    let mut slots: Vec<Option<R>> = (0..n_chunks).map(|_| None).collect();
    let mut place = |done: Vec<(usize, R)>| done.into_iter().for_each(|(i, r)| slots[i] = Some(r));
    std::thread::scope(|scope| {
        let helpers: Vec<_> = (1..threads.min(n_chunks)).map(|_| scope.spawn(work)).collect();
        place(work());
        for helper in helpers {
            match helper.join() {
                Ok(done) => place(done),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots.into_iter().map(|r| r.expect("every chunk is computed")).collect()
}

#[inline]
fn chunk_at<T>(items: &[T], i: usize, chunk_size: usize) -> &[T] {
    let start = i * chunk_size;
    &items[start..(start + chunk_size).min(items.len())]
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)]
mod tests {
    use super::*;

    const POLICIES: [Parallelism; 4] = [
        Parallelism::Sequential,
        Parallelism::Fixed(2),
        Parallelism::Fixed(3),
        Parallelism::Fixed(7),
    ];

    #[test]
    fn fixed_normalizes() {
        // fixed(0) = all cores, resolved now — explicitly NOT Auto, so an
        // ambient RRM_THREADS cannot override an explicit request.
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(Parallelism::fixed(0).threads(), cores);
        assert_ne!(Parallelism::fixed(0), Parallelism::Auto);
        assert_eq!(Parallelism::fixed(1), Parallelism::Sequential);
        assert_eq!(Parallelism::fixed(4), Parallelism::Fixed(4));
        assert_eq!(Parallelism::Sequential.threads(), 1);
        assert_eq!(Parallelism::Fixed(6).threads(), 6);
        assert!(Parallelism::Sequential.is_sequential());
        assert!(!Parallelism::Fixed(2).is_sequential());
    }

    #[test]
    fn env_parsing_rules() {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        assert_eq!(threads_from_env_str(None), cores);
        assert_eq!(threads_from_env_str(Some("0")), cores);
        assert_eq!(threads_from_env_str(Some("garbage")), cores);
        assert_eq!(threads_from_env_str(Some("")), cores);
        assert_eq!(threads_from_env_str(Some("3")), 3);
        assert_eq!(threads_from_env_str(Some(" 5 ")), 5);
    }

    #[test]
    fn adaptive_chunk_is_pure_and_clamped() {
        // Pure function of the workload: same inputs, same answer — and
        // RRM_THREADS / machine cores never enter the computation.
        assert_eq!(adaptive_chunk(1000, 4000), adaptive_chunk(1000, 4000));
        // Cheap items → large chunks, capped at 4096.
        assert_eq!(adaptive_chunk(1_000_000, 1), 4096);
        assert_eq!(adaptive_chunk(1_000_000, 0), 4096);
        // Expensive items → chunks shrink, floored at 1.
        assert_eq!(adaptive_chunk(1000, usize::MAX / 2), 1);
        // ~1M ops per chunk in between: n·d = 100k·4 → ~2 dirs per chunk.
        assert_eq!(adaptive_chunk(640, 400_000), 2);
        // Never larger than the item count itself.
        assert_eq!(adaptive_chunk(3, 10), 3);
        assert_eq!(adaptive_chunk(0, 10), 1);
    }

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<usize> = (0..1000).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        for pol in POLICIES {
            assert_eq!(par_map(&items, pol, |&x| x * x), expected, "{pol:?}");
        }
        let empty: Vec<usize> = Vec::new();
        assert!(par_map(&empty, Parallelism::Fixed(4), |&x: &usize| x).is_empty());
    }

    #[test]
    fn par_chunks_offsets_and_order() {
        let items: Vec<u32> = (0..103).collect();
        for pol in POLICIES {
            let got = par_chunks(&items, 10, pol, |offset, chunk| (offset, chunk.to_vec()));
            assert_eq!(got.len(), 11, "{pol:?}");
            for (i, (offset, chunk)) in got.iter().enumerate() {
                assert_eq!(*offset, i * 10);
                let hi = ((i + 1) * 10).min(103);
                assert_eq!(chunk, &items[i * 10..hi]);
            }
        }
    }

    #[test]
    fn map_reduce_is_bit_identical_across_thread_counts() {
        // Floating-point addition is not associative: only fixed chunk
        // boundaries + an ordered merge make this reproducible.
        let items: Vec<f64> = (0..5000).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let reference = par_map_reduce(
            &items,
            64,
            Parallelism::Sequential,
            |_, c| c.iter().sum::<f64>(),
            |a, b| a + b,
        )
        .unwrap();
        for pol in POLICIES {
            let got = par_map_reduce(&items, 64, pol, |_, c| c.iter().sum::<f64>(), |a, b| a + b)
                .unwrap();
            assert_eq!(got.to_bits(), reference.to_bits(), "{pol:?}");
        }
    }

    #[test]
    fn map_reduce_empty_and_single() {
        let empty: Vec<u64> = Vec::new();
        assert_eq!(
            par_map_reduce(&empty, 8, Parallelism::Fixed(4), |_, c| c.len(), |a, b| a + b),
            None
        );
        let one = [42u64];
        assert_eq!(
            par_map_reduce(&one, 8, Parallelism::Fixed(4), |_, c| c[0], |a, b| a + b),
            Some(42)
        );
    }

    #[test]
    fn ordered_merge_supports_non_commutative_folds() {
        // String concatenation is order sensitive; the ordered merge must
        // produce the left-to-right fold at any thread count.
        let items: Vec<String> = (0..40).map(|i| i.to_string()).collect();
        let expected = items.concat();
        for pol in POLICIES {
            let got = par_map_reduce(
                &items,
                3,
                pol,
                |_, c| c.concat(),
                |mut a, b| {
                    a.push_str(&b);
                    a
                },
            )
            .unwrap();
            assert_eq!(got, expected, "{pol:?}");
        }
    }

    #[test]
    fn more_threads_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(&items, Parallelism::Fixed(64), |&x| x + 1), vec![2, 3, 4]);
        assert_eq!(par_chunks(&items, 1, Parallelism::Fixed(64), |_, c| c[0]).len(), 3);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..100).collect();
        par_map(&items, Parallelism::Fixed(2), |&x| {
            assert!(x != 57, "boom");
            x
        });
    }
}
