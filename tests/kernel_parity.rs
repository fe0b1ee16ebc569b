//! The scoring-kernel determinism contract, enforced end to end: the
//! cache-blocked SoA kernel must be **bit-identical** to the row-major
//! scalar reference for every `n`, `d`, tile geometry and [`Parallelism`]
//! setting (proptest), including the shapes the blocking logic finds
//! awkward — datasets smaller than one tile and dimensions outside the
//! specialized `2..=8` range (unit tests).

use proptest::prelude::*;
use rrm_core::kernel::{self, ScoreScratch};
use rrm_core::{rank, utility, Dataset, Parallelism};
use rrm_hd::common::batch_top1_scores;

/// Row-major scalar reference: the pre-kernel hot loop, kept here so the
/// kernel is always measured against an implementation that never touches
/// the SoA mirror.
fn naive_scores(data: &Dataset, u: &[f64]) -> Vec<f64> {
    data.rows().map(|row| utility::dot(u, row)).collect()
}

/// Strategy: dataset dimensions spanning the generic fallback (1, 9..=10)
/// and every specialized dimension (2..=8), with n crossing the default
/// tuple-tile boundary in the interesting ways.
fn workload() -> impl Strategy<Value = (Dataset, Vec<Vec<f64>>)> {
    (1usize..=10, 1usize..2500, 1usize..24).prop_flat_map(|(d, n, dir_count)| {
        (
            proptest::collection::vec(0u32..100_000, n * d),
            proptest::collection::vec(proptest::collection::vec(1u32..10_000, d), dir_count),
        )
            .prop_map(move |(values, dirs)| {
                let values: Vec<f64> = values.into_iter().map(|v| v as f64 / 1e4).collect();
                let dirs: Vec<Vec<f64>> = dirs
                    .into_iter()
                    .map(|u| u.into_iter().map(|v| v as f64 / 1e4).collect())
                    .collect();
                (Dataset::from_flat(d, values).unwrap(), dirs)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Blocked scoring == scalar reference, bit for bit, at any tile
    /// geometry — including degenerate 1×1 tiles and tiles far larger
    /// than the dataset.
    #[test]
    fn blocked_scores_bit_identical_at_any_tile_size(
        (data, dirs) in workload(),
        dir_tile in 1usize..=12,
        tuple_tile_exp in 0u32..=12,
    ) {
        let tuple_tile = 1usize << tuple_tile_exp; // 1 .. 4096
        let mut scratch = ScoreScratch::new();
        let mut blocked: Vec<(usize, Vec<f64>)> = Vec::new();
        kernel::for_each_scores_tiled(
            data.soa(), &dirs, dir_tile, tuple_tile, &mut scratch,
            |di, scores| blocked.push((di, scores.to_vec())),
        );
        prop_assert_eq!(blocked.len(), dirs.len());
        for (slot, (di, scores)) in blocked.iter().enumerate() {
            prop_assert_eq!(slot, *di, "directions must be consumed in order");
            let reference = naive_scores(&data, &dirs[*di]);
            prop_assert_eq!(scores.len(), reference.len());
            for (i, (a, b)) in scores.iter().zip(&reference).enumerate() {
                prop_assert_eq!(
                    a.to_bits(), b.to_bits(),
                    "n={} d={} tiles={}x{} dir={} tuple={}",
                    data.n(), data.dim(), dir_tile, tuple_tile, di, i
                );
            }
        }
    }

    /// The kernel-backed batch entry points agree with per-direction
    /// scalar reference computations at every Parallelism setting.
    #[test]
    fn batch_paths_bit_identical_at_any_parallelism((data, dirs) in workload()) {
        prop_assume!(!dirs.is_empty());
        let set: Vec<u32> = (0..data.n() as u32).step_by(7).collect();
        let expected_rr: Vec<usize> = dirs
            .iter()
            .map(|u| rank::rank_regret_from_scores(&naive_scores(&data, u), &set))
            .collect();
        let expected_max = expected_rr.iter().copied().max();
        let expected_top1: Vec<f64> = dirs
            .iter()
            .map(|u| naive_scores(&data, u).into_iter().fold(f64::NEG_INFINITY, f64::max))
            .collect();
        // Full-sort reference: the argsort prefix, independent of the
        // bounded selection under test.
        let k = (data.n() / 2).max(1);
        let expected_topk: Vec<Vec<u32>> = dirs
            .iter()
            .map(|u| rank::argsort_desc(&naive_scores(&data, u))[..k].to_vec())
            .collect();
        for pol in [Parallelism::Sequential, Parallelism::Fixed(2), Parallelism::Fixed(7)] {
            prop_assert_eq!(
                &rank::batch_rank_regret(&data, &dirs, &set, pol), &expected_rr,
                "batch_rank_regret {:?}", pol
            );
            prop_assert_eq!(
                rank::max_rank_regret(&data, &dirs, &set, pol), expected_max,
                "max_rank_regret {:?}", pol
            );
            let top1 = batch_top1_scores(&data, &dirs, pol);
            prop_assert_eq!(top1.len(), expected_top1.len());
            for (a, b) in top1.iter().zip(&expected_top1) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "batch_top1 {:?}", pol);
            }
            prop_assert_eq!(
                &rank::batch_top_k(&data, &dirs, k, pol), &expected_topk,
                "batch_top_k {:?}", pol
            );
        }
    }
}

#[test]
fn n_smaller_than_one_tile() {
    // 5 tuples << TUPLE_TILE: a single ragged tile must still match.
    let data = Dataset::from_rows(&[
        [0.9, 0.1, 0.3],
        [0.2, 0.8, 0.5],
        [0.4, 0.4, 0.9],
        [0.7, 0.2, 0.2],
        [0.1, 0.9, 0.6],
    ])
    .unwrap();
    let dirs: Vec<Vec<f64>> = vec![vec![0.5, 0.3, 0.2], vec![1.0, 0.0, 0.0]];
    let mut scratch = ScoreScratch::new();
    kernel::for_each_scores(data.soa(), &dirs, &mut scratch, |di, scores| {
        assert_eq!(scores, naive_scores(&data, &dirs[di]).as_slice());
    });
}

#[test]
fn dimension_outside_specialized_range_uses_same_summation_order() {
    // d = 1 (below) and d = 11 (above) hit the generic fallback; results
    // must still be bit-identical to the scalar j-ascending reference.
    for d in [1usize, 11] {
        let n = 1500; // crosses the tuple-tile boundary
        let values: Vec<f64> = (0..n * d).map(|i| ((i * 37 + 11) % 997) as f64 / 997.0).collect();
        let data = Dataset::from_flat(d, values).unwrap();
        let u: Vec<f64> = (0..d).map(|j| (j + 1) as f64 / (d as f64 * 3.0)).collect();
        let reference = naive_scores(&data, &u);
        let mut out = Vec::new();
        kernel::scores_into(data.soa(), &u, &mut out);
        assert_eq!(out.len(), reference.len(), "d={d}");
        for (a, b) in out.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "d={d}");
        }
        // Fused reductions on the generic path too.
        let mut scratch = ScoreScratch::new();
        let max = kernel::max_score(data.soa(), &u, &mut scratch);
        let want = reference.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(max.to_bits(), want.to_bits(), "d={d}");
        let t = reference[n / 2];
        assert_eq!(
            kernel::count_above(data.soa(), &u, t, &mut scratch),
            reference.iter().filter(|&&s| s > t).count(),
            "d={d}"
        );
    }
}

#[test]
fn utilities_into_is_the_kernel_path() {
    // The public batch scoring API routes through the kernel; spot-check
    // it against the scalar reference on a tile-crossing dataset.
    let n = 3000;
    let values: Vec<f64> = (0..n * 4).map(|i| ((i * 53 + 7) % 1009) as f64 / 1009.0).collect();
    let data = Dataset::from_flat(4, values).unwrap();
    let u = [0.4, 0.1, 0.3, 0.2];
    let mut out = Vec::new();
    utility::utilities_into(&data, &u, &mut out);
    let reference = naive_scores(&data, &u);
    for (a, b) in out.iter().zip(&reference) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
