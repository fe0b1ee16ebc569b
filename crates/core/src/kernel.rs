//! Cache-blocked SoA scoring kernels: the one hot path under every solver.
//!
//! Every algorithm in the workspace spends its time in batch direction
//! scoring — `O(|D| · n · d)` dot products behind `rank::batch_top_k`,
//! the rank kernels, MDRC's probe evaluation and the sampled estimators.
//! This module makes that path fast on a single core:
//!
//! * **SoA layout.** [`Soa`] is a column-major mirror of the dataset
//!   ([`Dataset::soa`] builds it once per dataset and shares it across
//!   clones via `Arc`, so a prepared handle pays the transpose exactly
//!   once). Columnar storage turns the inner loop into independent
//!   per-tuple lanes that LLVM autovectorizes *without* reassociating any
//!   floating-point sum.
//! * **Cache blocking.** [`for_each_scores`] scores a tile of
//!   [`DIR_TILE`] directions against [`TUPLE_TILE`]-tuple column tiles
//!   (a mini-GEMM): each ~8 KiB column tile is reused by every direction
//!   in the tile while it is hot in L1/L2, instead of re-streaming the
//!   whole `n·d` dataset from memory once per direction.
//! * **d-specialized inner loops.** Dimensions 2..=8 get fully unrolled
//!   kernels (monomorphized via `const D`); other dimensions fall back to
//!   a generic column-sweep with the same summation order.
//! * **Zero steady-state allocation.** All entry points write into
//!   caller-owned [`ScoreScratch`] / tile buffers; the fused reductions
//!   ([`max_score`], [`count_above`], [`count_outranking`],
//!   [`rank_regret_of_set`]) never materialize an `n`-length score vector
//!   at all.
//!
//! # Determinism contract
//!
//! Every score is the fixed-order sum `((u₀·t₀ + u₁·t₁) + u₂·t₂) + …` —
//! exactly the order of the scalar reference [`crate::utility::dot`] —
//! regardless of tile sizes, dimension specialization, or the
//! [`Parallelism`](crate::Parallelism) of the caller. SIMD applies across
//! *tuples* (independent output lanes), never across the `d` terms of one
//! dot product, so blocked results are **bit-identical** to the naive
//! path. `tests/kernel_parity.rs` enforces this property over random
//! `n`, `d` and tile sizes.

use crate::dataset::Dataset;
use crate::rank::outranks;

/// Directions scored per tile: how many times each hot column tile is
/// reused before it leaves cache.
pub const DIR_TILE: usize = 8;

/// Tuples per column tile: 1024 `f64`s = 8 KiB per column, so a full
/// `d = 4` tile (32 KiB) sits in L1 and `d = 8` (64 KiB) in L2.
pub const TUPLE_TILE: usize = 1024;

/// Column-major (structure-of-arrays) mirror of a [`Dataset`]:
/// `col(j)[i]` is attribute `j` of tuple `i`. Built by [`Dataset::soa`].
#[derive(Debug)]
pub struct Soa {
    n: usize,
    d: usize,
    /// `n * d` values, column-major: `cols[j * n + i] = row(i)[j]`.
    cols: Box<[f64]>,
}

impl Soa {
    /// Transpose a row-major buffer (`values[i * d + j]`) into columns.
    pub(crate) fn build(d: usize, values: &[f64]) -> Soa {
        let n = values.len() / d;
        let mut cols = vec![0.0f64; values.len()].into_boxed_slice();
        for (i, row) in values.chunks_exact(d).enumerate() {
            for (j, &v) in row.iter().enumerate() {
                cols[j * n + i] = v;
            }
        }
        Soa { n, d, cols }
    }

    /// Number of tuples `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of attributes `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Column `j` as a contiguous slice of length `n`.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        &self.cols[j * self.n..(j + 1) * self.n]
    }

    /// Score of a single tuple, summed in the kernel's fixed `j`-ascending
    /// order (bit-identical to [`crate::utility::dot`] on the row).
    #[inline]
    pub fn score_one(&self, u: &[f64], i: usize) -> f64 {
        debug_assert_eq!(u.len(), self.d);
        let mut acc = 0.0;
        for (j, &w) in u.iter().enumerate() {
            acc += w * self.cols[j * self.n + i];
        }
        acc
    }
}

/// Fully unrolled scoring of one tuple range for a compile-time dimension:
/// `dst[i] = Σ_j u[j] · col(j)[i0 + i]`, `j` ascending. The equal-length
/// re-slices let LLVM drop bounds checks and vectorize across `i`.
fn score_range_fixed<const D: usize>(soa: &Soa, u: &[f64], i0: usize, dst: &mut [f64]) {
    let len = dst.len();
    let w: [f64; D] = std::array::from_fn(|j| u[j]);
    let cols: [&[f64]; D] = std::array::from_fn(|j| &soa.cols[j * soa.n + i0..][..len]);
    for i in 0..len {
        let mut acc = w[0] * cols[0][i];
        for j in 1..D {
            acc += w[j] * cols[j][i];
        }
        dst[i] = acc;
    }
}

/// Generic fallback for dimensions outside the specialized range: one
/// vectorizable column sweep per attribute. Per-element accumulation is
/// still `j`-ascending, so results match the specialized kernels bit for
/// bit.
fn score_range_generic(soa: &Soa, u: &[f64], i0: usize, dst: &mut [f64]) {
    let len = dst.len();
    let c0 = &soa.cols[i0..][..len];
    for i in 0..len {
        dst[i] = u[0] * c0[i];
    }
    for (j, &w) in u.iter().enumerate().skip(1) {
        let cj = &soa.cols[j * soa.n + i0..][..len];
        for i in 0..len {
            dst[i] += w * cj[i];
        }
    }
}

/// Score tuples `i0 .. i0 + dst.len()` under direction `u` into `dst`,
/// dispatching to the `d`-specialized kernel.
#[inline]
pub fn score_range_into(soa: &Soa, u: &[f64], i0: usize, dst: &mut [f64]) {
    assert_eq!(u.len(), soa.d, "utility vector arity must equal d");
    assert!(i0 + dst.len() <= soa.n);
    match soa.d {
        2 => score_range_fixed::<2>(soa, u, i0, dst),
        3 => score_range_fixed::<3>(soa, u, i0, dst),
        4 => score_range_fixed::<4>(soa, u, i0, dst),
        5 => score_range_fixed::<5>(soa, u, i0, dst),
        6 => score_range_fixed::<6>(soa, u, i0, dst),
        7 => score_range_fixed::<7>(soa, u, i0, dst),
        8 => score_range_fixed::<8>(soa, u, i0, dst),
        _ => score_range_generic(soa, u, i0, dst),
    }
}

/// Caller-owned working storage for the blocked kernels. Reuse one
/// instance across calls to keep the steady state allocation-free.
#[derive(Debug, Default)]
pub struct ScoreScratch {
    /// Score block: `dir_tile * n` values, one row per in-tile direction.
    buf: Vec<f64>,
    /// Small per-tile buffer for the fused reductions.
    tile: Vec<f64>,
}

impl ScoreScratch {
    /// A fresh scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Blocked batch scoring with explicit tile sizes: calls
/// `consume(dir_index, scores)` for every direction, in direction order,
/// with the full `n`-length score vector. Tile sizes affect only the
/// memory access pattern — outputs are bit-identical for any
/// `dir_tile, tuple_tile >= 1`.
pub fn for_each_scores_tiled<U: AsRef<[f64]>>(
    soa: &Soa,
    dirs: &[U],
    dir_tile: usize,
    tuple_tile: usize,
    scratch: &mut ScoreScratch,
    mut consume: impl FnMut(usize, &[f64]),
) {
    let (n, dir_tile, tuple_tile) = (soa.n, dir_tile.max(1), tuple_tile.max(1));
    let mut g0 = 0;
    while g0 < dirs.len() {
        let tile = &dirs[g0..(g0 + dir_tile).min(dirs.len())];
        scratch.buf.resize(tile.len() * n, 0.0);
        let mut i0 = 0;
        while i0 < n {
            let i1 = (i0 + tuple_tile).min(n);
            for (dd, u) in tile.iter().enumerate() {
                score_range_into(soa, u.as_ref(), i0, &mut scratch.buf[dd * n + i0..dd * n + i1]);
            }
            i0 = i1;
        }
        for dd in 0..tile.len() {
            consume(g0 + dd, &scratch.buf[dd * n..(dd + 1) * n]);
        }
        g0 += tile.len();
    }
}

/// [`for_each_scores_tiled`] at the default [`DIR_TILE`] × [`TUPLE_TILE`]
/// blocking — the entry point every batch consumer uses.
pub fn for_each_scores<U: AsRef<[f64]>>(
    soa: &Soa,
    dirs: &[U],
    scratch: &mut ScoreScratch,
    consume: impl FnMut(usize, &[f64]),
) {
    for_each_scores_tiled(soa, dirs, DIR_TILE, TUPLE_TILE, scratch, consume)
}

/// Score every tuple under one direction into `out` (cleared first): the
/// blocked, bit-identical equivalent of [`crate::utility::utilities_into`].
pub fn scores_into(soa: &Soa, u: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.resize(soa.n, 0.0);
    let mut i0 = 0;
    while i0 < soa.n {
        let i1 = (i0 + TUPLE_TILE).min(soa.n);
        score_range_into(soa, u, i0, &mut out[i0..i1]);
        i0 = i1;
    }
}

/// Fused top-1: the maximum score under `u`, folded in ascending tuple
/// order (bit-identical to `scores.fold(NEG_INFINITY, f64::max)`),
/// without materializing the score vector.
pub fn max_score(soa: &Soa, u: &[f64], scratch: &mut ScoreScratch) -> f64 {
    let mut best = f64::NEG_INFINITY;
    let mut i0 = 0;
    while i0 < soa.n {
        let i1 = (i0 + TUPLE_TILE).min(soa.n);
        scratch.tile.resize(i1 - i0, 0.0);
        score_range_into(soa, u, i0, &mut scratch.tile[..i1 - i0]);
        for &s in &scratch.tile[..i1 - i0] {
            best = best.max(s);
        }
        i0 = i1;
    }
    best
}

/// Fused rank counting: how many tuples score **strictly above**
/// `threshold` under `u`. `rank = count_above + 1` is the estimators'
/// rank of a set whose best score is `threshold`.
pub fn count_above(soa: &Soa, u: &[f64], threshold: f64, scratch: &mut ScoreScratch) -> usize {
    let mut above = 0usize;
    let mut i0 = 0;
    while i0 < soa.n {
        let i1 = (i0 + TUPLE_TILE).min(soa.n);
        scratch.tile.resize(i1 - i0, 0.0);
        score_range_into(soa, u, i0, &mut scratch.tile[..i1 - i0]);
        for &s in &scratch.tile[..i1 - i0] {
            above += (s > threshold) as usize;
        }
        i0 = i1;
    }
    above
}

/// Fused tie-broken rank counting: how many tuples *outrank* the tuple
/// with score `best_score` and index `best_index` under the workspace's
/// strict total order (score descending, index ascending).
pub fn count_outranking(
    soa: &Soa,
    u: &[f64],
    best_score: f64,
    best_index: u32,
    scratch: &mut ScoreScratch,
) -> usize {
    let mut above = 0usize;
    let mut i0 = 0;
    while i0 < soa.n {
        let i1 = (i0 + TUPLE_TILE).min(soa.n);
        scratch.tile.resize(i1 - i0, 0.0);
        score_range_into(soa, u, i0, &mut scratch.tile[..i1 - i0]);
        for (off, &s) in scratch.tile[..i1 - i0].iter().enumerate() {
            above += outranks(s, (i0 + off) as u32, best_score, best_index) as usize;
        }
        i0 = i1;
    }
    above
}

/// Fused rank-regret of a set under one direction: pick the set's best
/// member by the tie-broken order, then count the tuples outranking it —
/// all through the blocked kernel, with no `n`-length score vector.
/// Bit-identical to [`crate::rank::rank_regret_of_set`].
pub fn rank_regret_of_set(
    soa: &Soa,
    u: &[f64],
    indices: &[u32],
    scratch: &mut ScoreScratch,
) -> usize {
    assert!(!indices.is_empty(), "rank-regret of an empty set is undefined");
    let mut best_i = indices[0];
    let mut best_s = soa.score_one(u, best_i as usize);
    for &i in &indices[1..] {
        let s = soa.score_one(u, i as usize);
        if outranks(s, i, best_s, best_i) {
            best_s = s;
            best_i = i;
        }
    }
    count_outranking(soa, u, best_s, best_i, scratch) + 1
}

impl Dataset {
    /// The column-major (SoA) mirror of this dataset, built on first use
    /// and shared by clones (an `Arc` travels with the handle), so a
    /// prepared solver pays the transpose once and every scoring kernel
    /// afterwards runs on the blocked fast path.
    pub fn soa(&self) -> &Soa {
        self.soa_cell().get_or_init(|| std::sync::Arc::new(Soa::build(self.dim(), self.flat())))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utility;

    fn dataset(n: usize, d: usize, seed: u64) -> Dataset {
        // Small deterministic LCG: no external deps in rrm_core tests.
        let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        let mut next = || {
            state = state.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let values: Vec<f64> = (0..n * d).map(|_| next()).collect();
        Dataset::from_flat(d, values).unwrap()
    }

    fn direction(d: usize, seed: u64) -> Vec<f64> {
        (0..d).map(|j| ((seed + j as u64 * 7) % 13) as f64 / 13.0 + 0.01).collect()
    }

    /// Independent scalar reference: row-major `dot` per tuple. The
    /// public batch paths route through this module, so parity tests must
    /// not use them as the baseline.
    fn naive_scores(data: &Dataset, u: &[f64]) -> Vec<f64> {
        data.rows().map(|row| utility::dot(u, row)).collect()
    }

    #[test]
    fn soa_mirrors_rows() {
        let data = dataset(17, 3, 1);
        let soa = data.soa();
        assert_eq!(soa.n(), 17);
        assert_eq!(soa.dim(), 3);
        for i in 0..17 {
            for j in 0..3 {
                assert_eq!(soa.col(j)[i], data.row(i)[j]);
            }
        }
    }

    #[test]
    fn soa_is_shared_across_clones() {
        let data = dataset(8, 2, 2);
        let a = data.soa() as *const Soa;
        let clone = data.clone();
        assert_eq!(a, clone.soa() as *const Soa, "clones must share the built mirror");
    }

    #[test]
    fn blocked_scores_match_naive_bitwise_for_all_dims() {
        for d in 1..=10 {
            let data = dataset(533, d, d as u64);
            let dirs: Vec<Vec<f64>> = (0..19).map(|s| direction(d, s as u64)).collect();
            let mut scratch = ScoreScratch::new();
            let mut seen = 0;
            for_each_scores(data.soa(), &dirs, &mut scratch, |di, scores| {
                let naive = naive_scores(&data, &dirs[di]);
                assert_eq!(scores.len(), naive.len());
                for (a, b) in scores.iter().zip(&naive) {
                    assert_eq!(a.to_bits(), b.to_bits(), "d={d} dir={di}");
                }
                seen += 1;
            });
            assert_eq!(seen, 19);
        }
    }

    #[test]
    fn tile_sizes_do_not_change_bits() {
        let data = dataset(777, 4, 9);
        let dirs: Vec<Vec<f64>> = (0..11).map(|s| direction(4, s as u64)).collect();
        let mut reference: Vec<Vec<f64>> = Vec::new();
        let mut scratch = ScoreScratch::new();
        for_each_scores(data.soa(), &dirs, &mut scratch, |_, s| reference.push(s.to_vec()));
        for (dir_tile, tuple_tile) in [(1, 1), (1, 64), (3, 100), (16, 777), (8, 100_000)] {
            for_each_scores_tiled(
                data.soa(),
                &dirs,
                dir_tile,
                tuple_tile,
                &mut scratch,
                |di, s| {
                    assert_eq!(s, reference[di].as_slice(), "tiles {dir_tile}x{tuple_tile}");
                },
            );
        }
    }

    #[test]
    fn fused_reductions_match_score_vector() {
        let data = dataset(401, 5, 3);
        let soa = data.soa();
        let mut scratch = ScoreScratch::new();
        for s in 0..7u64 {
            let u = direction(5, s);
            let scores = naive_scores(&data, &u);
            let naive_max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(max_score(soa, &u, &mut scratch).to_bits(), naive_max.to_bits());
            let t = scores[200];
            assert_eq!(
                count_above(soa, &u, t, &mut scratch),
                scores.iter().filter(|&&v| v > t).count()
            );
            let set = [7u32, 200, 399];
            assert_eq!(
                rank_regret_of_set(soa, &u, &set, &mut scratch),
                crate::rank::rank_regret_from_scores(&scores, &set)
            );
        }
    }

    #[test]
    fn n_smaller_than_one_tile() {
        let data = dataset(3, 4, 4);
        let dirs = vec![direction(4, 0)];
        let mut scratch = ScoreScratch::new();
        let mut got = Vec::new();
        for_each_scores(data.soa(), &dirs, &mut scratch, |_, s| got = s.to_vec());
        assert_eq!(got, naive_scores(&data, &dirs[0]));
        let mut out = Vec::new();
        scores_into(data.soa(), &dirs[0], &mut out);
        assert_eq!(out, got);
    }

    #[test]
    fn empty_direction_list_is_a_no_op() {
        let data = dataset(10, 2, 5);
        let dirs: Vec<Vec<f64>> = Vec::new();
        let mut scratch = ScoreScratch::new();
        for_each_scores(data.soa(), &dirs, &mut scratch, |_, _| panic!("no dirs to consume"));
    }

    #[test]
    fn score_one_matches_dot() {
        let data = dataset(50, 6, 6);
        let u = direction(6, 1);
        let soa = data.soa();
        for i in [0usize, 17, 49] {
            assert_eq!(soa.score_one(&u, i).to_bits(), utility::dot(&u, data.row(i)).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let data = dataset(4, 3, 7);
        let mut out = vec![0.0; 4];
        score_range_into(data.soa(), &[1.0], 0, &mut out);
    }
}
