//! Ranks, top-k sets `Φk(u, D)` and k-th scores `w_k(u, D)`.
//!
//! The paper assumes no two tuples share a utility (Section II). Real and
//! synthetic data do contain ties, so every routine here breaks ties by
//! tuple index: tuple `i` outranks tuple `j` when `score_i > score_j`, or
//! when the scores are equal and `i < j`. This yields a strict total order
//! for every utility vector, making all algorithms deterministic.

use crate::dataset::Dataset;
use crate::exec::Parallelism;
use crate::kernel::{self, ScoreScratch};
use crate::utility;

/// Does tuple (score `a`, index `ia`) outrank tuple (score `b`, index `ib`)?
#[inline]
pub fn outranks(a: f64, ia: u32, b: f64, ib: u32) -> bool {
    a > b || (a == b && ia < ib)
}

/// 1-based rank of the tuple at `index` among `scores`
/// (`∇u(t)` in the paper: one plus the number of tuples that outrank it).
pub fn rank_of_index(scores: &[f64], index: u32) -> usize {
    let s = scores[index as usize];
    let mut above = 0usize;
    for (j, &v) in scores.iter().enumerate() {
        if outranks(v, j as u32, s, index) {
            above += 1;
        }
    }
    above + 1
}

/// 1-based rank of tuple `index` in `data` under utility vector `u`.
pub fn rank_of_tuple(data: &Dataset, u: &[f64], index: u32) -> usize {
    let scores = utility::utilities(data, u);
    rank_of_index(&scores, index)
}

/// Rank-regret of a tuple set for one utility vector
/// (`∇u(S) = min_{t∈S} ∇u(t)`, Definition 1).
///
/// One-shot convenience over [`rank_regret_of_set_into`]; loops over many
/// directions should hold a [`ScoreScratch`] and call the `_into` form so
/// the hot path stays allocation-free.
pub fn rank_regret_of_set(data: &Dataset, u: &[f64], indices: &[u32]) -> usize {
    rank_regret_of_set_into(data, u, indices, &mut ScoreScratch::new())
}

/// Scratch-reusing rank-regret of a set: routes through the blocked
/// scoring kernel's fused reduction, so no `n`-length score vector is
/// ever allocated — only a small reusable tile inside `scratch`.
/// Bit-identical to scoring with [`utility::utilities`] and calling
/// [`rank_regret_from_scores`].
pub fn rank_regret_of_set_into(
    data: &Dataset,
    u: &[f64],
    indices: &[u32],
    scratch: &mut ScoreScratch,
) -> usize {
    assert!(!indices.is_empty(), "rank-regret of an empty set is undefined");
    kernel::rank_regret_of_set(data.soa(), u, indices, scratch)
}

/// Rank-regret of a set given precomputed scores for the whole dataset.
pub fn rank_regret_from_scores(scores: &[f64], indices: &[u32]) -> usize {
    // The best member of S under the tie-broken order.
    let mut best_i = indices[0];
    let mut best_s = scores[best_i as usize];
    for &i in &indices[1..] {
        let s = scores[i as usize];
        if outranks(s, i, best_s, best_i) {
            best_s = s;
            best_i = i;
        }
    }
    rank_of_index(scores, best_i)
}

/// Worst-case (maximum) rank-regret of a set over `dirs`: the sampled
/// estimate `∇D(S)` the search-based solvers bound against. Parallel form
/// of `dirs.iter().map(|u| rank_regret_of_set(..)).max()`.
pub fn max_rank_regret(
    data: &Dataset,
    dirs: &[Vec<f64>],
    indices: &[u32],
    pol: Parallelism,
) -> Option<usize> {
    assert!(!indices.is_empty(), "rank-regret of an empty set is undefined");
    let chunk_size = rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    rrm_par::par_map_reduce(
        dirs,
        chunk_size,
        pol,
        |_, chunk| {
            // One scratch per chunk: the whole chunk's scoring runs
            // allocation-free through the fused kernel.
            let mut scratch = ScoreScratch::new();
            chunk
                .iter()
                .map(|u| rank_regret_of_set_into(data, u, indices, &mut scratch))
                .max()
                .expect("chunk >= 1")
        },
        usize::max,
    )
}

/// Rank-regret of a set under every direction in `dirs`, in direction
/// order: the batch form the search-based solvers and estimators build on.
/// Scoring runs through the fused kernel with per-chunk scratch reuse.
pub fn batch_rank_regret(
    data: &Dataset,
    dirs: &[Vec<f64>],
    indices: &[u32],
    pol: Parallelism,
) -> Vec<usize> {
    assert!(!indices.is_empty(), "rank-regret of an empty set is undefined");
    let chunk_size = rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    let per_chunk = rrm_par::par_chunks(dirs, chunk_size, pol, |_, chunk| {
        let mut scratch = ScoreScratch::new();
        chunk
            .iter()
            .map(|u| rank_regret_of_set_into(data, u, indices, &mut scratch))
            .collect::<Vec<usize>>()
    });
    per_chunk.into_iter().flatten().collect()
}

/// The top-k of a score vector.
#[derive(Debug, Clone, PartialEq)]
pub struct TopK {
    /// Indices of the top-k tuples, best first.
    pub indices: Vec<u32>,
    /// The k-th highest score, `w_k(u, D)`.
    pub threshold: f64,
}

/// Compute `Φk` (the top-k tuple indices, best first) and `w_k`.
///
/// `k` is clamped to `scores.len()`. Runs in `O(n + k log k)`; see
/// [`top_k_into`].
pub fn top_k(scores: &[f64], k: usize) -> TopK {
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    top_k_into(scores, k, &mut scratch, &mut out);
    let threshold = scores[*out.last().expect("k >= 1") as usize];
    TopK { indices: out, threshold }
}

/// Buffer-reusing form of [`top_k`]: fills `out` with the top-k indices
/// (best first) using `scratch` as working storage.
///
/// A bounded selection in one pass over `scores`. At most `2k`
/// candidates are kept, as packed `u128` keys that order by score
/// descending, then index ascending, as plain integers. When the buffer
/// fills, a select-nth cuts it back to the best `k`, and the k-th best
/// score becomes a floor: every later score not strictly above it is
/// rejected, a block of scores per vectorized compare sweep. Rejecting a
/// tie is exact, since a later index never wins one. The result is the
/// prefix of [`argsort_desc`], for any `k` and any tie pattern.
pub fn top_k_into(scores: &[f64], k: usize, scratch: &mut Vec<u128>, out: &mut Vec<u32>) {
    let n = scores.len();
    assert!(n > 0, "top-k of an empty score vector");
    assert!(k > 0, "k must be at least 1");
    let k = k.min(n);
    let cap = 2 * k;

    scratch.clear();
    let head = n.min(cap);
    scratch.extend(scores[..head].iter().enumerate().map(|(i, &s)| desc_key(s, i)));
    if head < n {
        let mut floor = cut_to_k(scratch, k, scores);
        let mut admit = |block: &[f64], base: usize, floor: &mut f64| {
            for (off, &s) in block.iter().enumerate() {
                // A NaN is admitted too, so `desc_key` rejects it.
                if s > *floor || s.is_nan() {
                    scratch.push(desc_key(s, base + off));
                    if scratch.len() == cap {
                        *floor = cut_to_k(scratch, k, scores);
                    }
                }
            }
        };
        // Whole blocks are screened by one branch-free compare sweep,
        // which vectorizes; only a block holding a candidate (or a NaN)
        // is walked score by score.
        let blocks = scores[head..].chunks_exact(SCREEN_BLOCK);
        let tail = blocks.remainder();
        for (b, block) in blocks.enumerate() {
            if !block.iter().fold(true, |below, &s| below & (s <= floor)) {
                admit(block, head + b * SCREEN_BLOCK, &mut floor);
            }
        }
        admit(tail, n - tail.len(), &mut floor);
    }
    if scratch.len() > k {
        cut_to_k(scratch, k, scores);
    }
    scratch.sort_unstable();
    out.clear();
    out.extend(scratch.iter().map(|&key| key as u32));
}

/// Scores per screening block in [`top_k_into`]'s rejection scan.
const SCREEN_BLOCK: usize = 16;

/// Sort key of tuple `index` with `score`: ascending keys are best first.
/// The high 64 bits are the score's IEEE total-order image, inverted so
/// that higher scores sort first. `-0.0` is canonicalised to `+0.0`,
/// which float comparison treats as equal. The low bits hold the index,
/// so equal scores fall back to ascending index.
#[inline]
fn desc_key(score: f64, index: usize) -> u128 {
    assert!(!score.is_nan(), "scores must not be NaN");
    let bits = if score == 0.0 { 0 } else { score.to_bits() };
    // Negative scores flip every bit, non-negative ones only the sign.
    let ascending = bits ^ (((bits as i64 >> 63) as u64) | 1 << 63);
    (u128::from(!ascending) << 64) | index as u128
}

/// Cut `keys` (more than `k` of them) back to the best `k`, in no
/// particular order, and return the k-th best score.
fn cut_to_k(keys: &mut Vec<u128>, k: usize, scores: &[f64]) -> f64 {
    keys.select_nth_unstable(k - 1);
    keys.truncate(k);
    scores[keys[k - 1] as u32 as usize]
}

/// `Φk(u, D)` for every direction in `dirs`: one index list per
/// direction, best first, in direction order.
///
/// This is the dominant cost of HDRRM and MDRRRr, and the list source of
/// the sampled tier and `approx::reduce`. Scoring runs through the
/// cache-blocked kernel and selection through [`top_k_into`]. Chunk sizes
/// come from [`rrm_par::adaptive_chunk`]'s pure cost model and the lists
/// are independent, so the output is bit-identical at any thread count.
pub fn batch_top_k(data: &Dataset, dirs: &[Vec<f64>], k: usize, pol: Parallelism) -> Vec<Vec<u32>> {
    assert!(k >= 1, "top-k needs k >= 1");
    let chunk = rrm_par::adaptive_chunk(dirs.len(), data.n() * data.dim());
    let per_chunk = rrm_par::par_chunks(dirs, chunk, pol, |_, dirs_chunk| {
        let mut scratch = ScoreScratch::new();
        let mut keys = Vec::new();
        let mut lists = vec![Vec::new(); dirs_chunk.len()];
        kernel::for_each_scores(data.soa(), dirs_chunk, &mut scratch, |di, scores| {
            top_k_into(scores, k, &mut keys, &mut lists[di]);
        });
        lists
    });
    per_chunk.into_iter().flatten().collect()
}

/// `w_k(u, D)`: the k-th highest score.
pub fn kth_score(scores: &[f64], k: usize) -> f64 {
    top_k(scores, k).threshold
}

/// Full descending argsort of `scores` (ties by index). `O(n log n)`.
pub fn argsort_desc(scores: &[f64]) -> Vec<u32> {
    let mut idx: Vec<u32> = (0..scores.len() as u32).collect();
    idx.sort_unstable_by(|&a, &b| {
        scores[b as usize]
            .partial_cmp(&scores[a as usize])
            .expect("scores must be finite")
            .then(a.cmp(&b))
    });
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_with_distinct_scores() {
        let scores = [0.2, 0.9, 0.5, 0.7];
        assert_eq!(rank_of_index(&scores, 1), 1);
        assert_eq!(rank_of_index(&scores, 3), 2);
        assert_eq!(rank_of_index(&scores, 2), 3);
        assert_eq!(rank_of_index(&scores, 0), 4);
    }

    #[test]
    fn ranks_break_ties_by_index() {
        let scores = [0.5, 0.5, 0.5];
        assert_eq!(rank_of_index(&scores, 0), 1);
        assert_eq!(rank_of_index(&scores, 1), 2);
        assert_eq!(rank_of_index(&scores, 2), 3);
    }

    #[test]
    fn rank_regret_of_sets() {
        let d = Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75]]).unwrap();
        let u = [0.25, 0.75];
        // Scores: t0 = 0.75, t1 = 0.8125, t2 = 0.705 -> order t1, t0, t2.
        assert_eq!(rank_regret_of_set(&d, &u, &[0, 2]), 2);
        assert_eq!(rank_regret_of_set(&d, &u, &[1]), 1);
        assert_eq!(rank_regret_of_set(&d, &u, &[2]), 3);
        assert_eq!(rank_regret_of_set(&d, &u, &[0, 1, 2]), 1);
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn rank_regret_empty_set_panics() {
        let d = Dataset::from_rows(&[[1.0]]).unwrap();
        rank_regret_of_set(&d, &[1.0], &[]);
    }

    #[test]
    fn top_k_matches_sort() {
        let scores = [0.3, 0.1, 0.9, 0.9, 0.2, 0.5];
        let tk = top_k(&scores, 3);
        assert_eq!(tk.indices, vec![2, 3, 5]); // 0.9(i2), 0.9(i3), 0.5
        assert_eq!(tk.threshold, 0.5);
        let full = top_k(&scores, 6);
        assert_eq!(full.indices, argsort_desc(&scores));
    }

    #[test]
    fn top_k_clamps_k() {
        let scores = [1.0, 2.0];
        let tk = top_k(&scores, 10);
        assert_eq!(tk.indices, vec![1, 0]);
        assert_eq!(tk.threshold, 1.0);
    }

    #[test]
    fn top_one() {
        let scores = [0.3, 0.8, 0.5];
        let tk = top_k(&scores, 1);
        assert_eq!(tk.indices, vec![1]);
        assert_eq!(tk.threshold, 0.8);
    }

    /// Deterministic scores drawn from `pool` (no external deps here).
    fn scores_from(pool: &[f64], n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                pool[(state >> 33) as usize % pool.len()]
            })
            .collect()
    }

    /// The bounded selection must equal the full-sort reference's prefix.
    fn assert_prefix_of_argsort(scores: &[f64], k: usize) {
        let want = &argsort_desc(scores)[..k.min(scores.len())];
        let got = top_k(scores, k);
        assert_eq!(got.indices, want, "n={} k={k}", scores.len());
        assert_eq!(got.threshold.to_bits(), scores[*want.last().unwrap() as usize].to_bits());
    }

    #[test]
    fn top_k_under_heavy_ties() {
        let scores = scores_from(&[0.25, 0.5, 0.75], 300, 1);
        for k in [1, 2, 3, 50, 99, 100, 101, 299, 300, 305] {
            assert_prefix_of_argsort(&scores, k);
        }
        let constant = vec![4.0; 64];
        for k in [1, 63, 64, 69] {
            assert_eq!(top_k(&constant, k).indices, (0..k.min(64) as u32).collect::<Vec<_>>());
        }
    }

    #[test]
    fn top_k_signed_zeros_and_infinities() {
        let pool = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0, -1.0, f64::MAX, f64::MIN];
        for seed in 0..8 {
            let scores = scores_from(&pool, 97, seed);
            for k in [1, 2, 17, 48, 96, 97, 102] {
                assert_prefix_of_argsort(&scores, k);
            }
        }
        // ±0.0 compare equal, so only the index orders them.
        assert_eq!(top_k(&[-0.0, 0.0, -0.0, 0.0], 3).indices, vec![0, 1, 2]);
        assert_eq!(top_k(&[0.0, -0.0, 0.0, -0.0], 3).indices, vec![0, 1, 2]);
        let tk = top_k(&[f64::NEG_INFINITY, -1.0, f64::INFINITY, f64::NEG_INFINITY], 4);
        assert_eq!(tk.indices, vec![2, 1, 0, 3]);
        assert_eq!(tk.threshold, f64::NEG_INFINITY);
    }

    #[test]
    fn top_k_k_at_and_past_the_edges() {
        let scores = scores_from(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7], 40, 3);
        let n = scores.len();
        for k in [1, n - 1, n, n + 5] {
            assert_prefix_of_argsort(&scores, k);
        }
        assert_prefix_of_argsort(&[7.0], 1);
        assert_prefix_of_argsort(&[7.0], 6);
    }

    #[test]
    fn top_k_refills_when_n_far_exceeds_2k() {
        // Ascending, descending and shuffled inputs stress the refill:
        // ascending admits every score, descending admits none after the
        // first cut.
        let n = 5_000;
        let ascending: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let descending: Vec<f64> = ascending.iter().rev().copied().collect();
        let pool: Vec<f64> = (0..1_000).map(|i| (i as f64 * 0.37).sin()).collect();
        let shuffled = scores_from(&pool, n, 11);
        for scores in [&ascending, &descending, &shuffled] {
            for k in [1, 2, 16, 255, 256, 1024] {
                assert_prefix_of_argsort(scores, k);
            }
        }
    }

    #[test]
    fn top_k_reuses_buffers() {
        let (mut keys, mut out) = (Vec::new(), Vec::new());
        for (seed, k) in [(1u64, 40usize), (2, 3), (3, 500)] {
            let scores = scores_from(&[0.0, 0.5, 1.0, 1.5], 200, seed);
            top_k_into(&scores, k, &mut keys, &mut out);
            assert_eq!(out, &argsort_desc(&scores)[..k.min(200)], "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn top_k_rejects_nan() {
        top_k(&[0.5, f64::NAN, 0.2], 1);
    }

    #[test]
    fn batch_top_k_matches_per_direction_selection() {
        let rows: Vec<[f64; 3]> = (0..300)
            .map(|i| {
                let t = i as f64;
                [(t * 0.71).sin().abs(), (t * 1.37).cos().abs(), ((t * 0.13) % 1.0)]
            })
            .collect();
        let d = Dataset::from_rows(&rows).unwrap();
        let dirs: Vec<Vec<f64>> =
            (0..50).map(|i| vec![i as f64 / 49.0, 1.0 - i as f64 / 49.0, 0.3]).collect();
        for k in [1usize, 7, 300, 400] {
            let want: Vec<Vec<u32>> = dirs
                .iter()
                .map(|u| argsort_desc(&utility::utilities(&d, u))[..k.min(300)].to_vec())
                .collect();
            for pol in [Parallelism::Sequential, Parallelism::Fixed(2), Parallelism::Fixed(7)] {
                assert_eq!(batch_top_k(&d, &dirs, k, pol), want, "k={k} {pol:?}");
            }
        }
        assert!(batch_top_k(&d, &[], 3, Parallelism::Sequential).is_empty());
    }

    #[test]
    fn kth_score_value() {
        let scores = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(kth_score(&scores, 1), 4.0);
        assert_eq!(kth_score(&scores, 3), 2.0);
        assert_eq!(kth_score(&scores, 4), 1.0);
    }

    #[test]
    fn argsort_desc_total_order() {
        let scores = [0.5, 0.5, 0.1];
        assert_eq!(argsort_desc(&scores), vec![0, 1, 2]);
    }

    #[test]
    fn rank_of_tuple_via_dataset() {
        let d = Dataset::from_rows(&[[1.0, 0.0], [0.0, 1.0]]).unwrap();
        assert_eq!(rank_of_tuple(&d, &[1.0, 0.0], 0), 1);
        assert_eq!(rank_of_tuple(&d, &[1.0, 0.0], 1), 2);
        assert_eq!(rank_of_tuple(&d, &[0.0, 1.0], 0), 2);
    }

    #[test]
    fn max_rank_regret_matches_serial_at_any_thread_count() {
        let d = Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let dirs: Vec<Vec<f64>> =
            (0..97).map(|i| vec![i as f64 / 96.0, 1.0 - i as f64 / 96.0]).collect();
        let set = [0u32, 2];
        let serial = dirs.iter().map(|u| rank_regret_of_set(&d, u, &set)).max();
        for pol in [Parallelism::Sequential, Parallelism::Fixed(2), Parallelism::Fixed(7)] {
            assert_eq!(max_rank_regret(&d, &dirs, &set, pol), serial, "{pol:?}");
        }
        assert_eq!(max_rank_regret(&d, &[], &set, Parallelism::Sequential), None);
    }

    #[test]
    fn batch_rank_regret_matches_per_direction_calls() {
        let d = Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let dirs: Vec<Vec<f64>> =
            (0..53).map(|i| vec![i as f64 / 52.0, 1.0 - i as f64 / 52.0]).collect();
        let set = [1u32, 3];
        let expected: Vec<usize> = dirs.iter().map(|u| rank_regret_of_set(&d, u, &set)).collect();
        for pol in [Parallelism::Sequential, Parallelism::Fixed(2), Parallelism::Fixed(7)] {
            assert_eq!(batch_rank_regret(&d, &dirs, &set, pol), expected, "{pol:?}");
        }
        assert!(batch_rank_regret(&d, &[], &set, Parallelism::Sequential).is_empty());
    }

    #[test]
    fn into_form_reuses_scratch_and_matches_scores_path() {
        let d = Dataset::from_rows(&[[0.0, 1.0], [0.4, 0.95], [0.57, 0.75], [1.0, 0.0]]).unwrap();
        let mut scratch = crate::kernel::ScoreScratch::new();
        for i in 0..20 {
            let t = i as f64 / 19.0;
            let u = vec![t, 1.0 - t];
            let scores = utility::utilities(&d, &u);
            assert_eq!(
                rank_regret_of_set_into(&d, &u, &[0, 2], &mut scratch),
                rank_regret_from_scores(&scores, &[0, 2])
            );
        }
    }

    #[test]
    fn rank_regret_from_scores_picks_best_member() {
        let scores = [0.9, 0.8, 0.7, 0.6];
        assert_eq!(rank_regret_from_scores(&scores, &[3, 1]), 2);
        assert_eq!(rank_regret_from_scores(&scores, &[3]), 4);
    }
}
