//! The restricted skyline `Sky_U(D)` (Definition 5, after Ciaccia &
//! Martinenghi), the RRRM candidate set of Theorem 3.

use rrm_core::{Dataset, RrmError, UtilitySpace};
use rrm_geom::dual::normalized_interval_2d;

use crate::dominance::u_dominates;
use crate::skyhd::skyline;

const TOL: f64 = 1e-9;

/// Indices of `Sky_U(D)`, ascending.
///
/// * Full space — the classic skyline.
/// * Polyhedral `U`, `d = 2` — exact `O(n log n)`: U-dominance over a 2D
///   cone is plain dominance in the coordinates
///   `(w(u_{c0}, t), w(u_{c1}, t))` of the cone's extreme rays, so the 2D
///   sweep applies (the approach of Liu et al. \[16\] the paper cites).
/// * Polyhedral `U`, `d > 2` — exact: pre-filter with the classic skyline
///   (every U-dominated tuple is U-dominated by a skyline member), then
///   pairwise LP tests among the survivors.
/// * Non-polyhedral `U` — [`RrmError::InvalidSpace`].
pub fn u_skyline(data: &Dataset, space: &dyn UtilitySpace) -> Result<Vec<u32>, RrmError> {
    if space.dim() != data.dim() {
        return Err(RrmError::DimensionMismatch { expected: data.dim(), got: space.dim() });
    }
    if space.is_full() {
        return Ok(skyline(data));
    }
    let Some(rows) = space.cone_rows() else {
        return Err(RrmError::InvalidSpace("u_skyline needs a polyhedral space".into()));
    };
    if data.dim() == 2 {
        let (c0, c1) = normalized_interval_2d(&rows)
            .ok_or_else(|| RrmError::InvalidSpace("empty 2D cone".into()))?;
        return Ok(u_skyline_2d(data, c0, c1));
    }

    let candidates = skyline(data);
    let mut out = Vec::with_capacity(candidates.len());
    for &t in &candidates {
        let row_t = data.row(t as usize);
        let dominated = candidates
            .iter()
            .any(|&s| s != t && u_dominates(data.row(s as usize), row_t, &rows, TOL));
        if !dominated {
            out.push(t);
        }
    }
    Ok(out)
}

/// Exact `Sky_U(D)` for a 2D cone whose normalized weights span `[c0, c1]`:
/// every row becomes its [`u_scores_2d`] under the cone's two extreme
/// weights `(c0, 1-c0)` and `(c1, 1-c1)`, where U-dominance over the cone
/// is plain dominance, and the plain skyline of those rows is the answer.
pub fn u_skyline_2d(data: &Dataset, c0: f64, c1: f64) -> Vec<u32> {
    assert_eq!(data.dim(), 2);
    assert!(c0 <= c1);
    let transformed: Vec<[f64; 2]> = data.rows().map(|t| u_scores_2d(t, c0, c1)).collect();
    skyline(&Dataset::from_rows(&transformed).expect("finite transform"))
}

/// Row `t`'s scores at the low and the high extreme weight of a 2D cone.
#[inline]
pub fn u_scores_2d(t: &[f64], c0: f64, c1: f64) -> [f64; 2] {
    [c0 * t[0] + (1.0 - c0) * t[1], c1 * t[0] + (1.0 - c1) * t[1]]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rrm_core::{ConeSpace, FullSpace, SphereCap, WeakRankingSpace};

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
    fn full_space_reduces_to_skyline() {
        let d = table1();
        let sky = u_skyline(&d, &FullSpace::new(2)).unwrap();
        assert_eq!(sky, skyline(&d));
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let d = table1();
        assert!(matches!(
            u_skyline(&d, &FullSpace::new(3)),
            Err(RrmError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn non_polyhedral_rejected() {
        let d = table1();
        let cap = SphereCap::new(&[1.0, 1.0], 0.2);
        assert!(matches!(u_skyline(&d, &cap), Err(RrmError::InvalidSpace(_))));
    }

    #[test]
    fn weak_ranking_prunes_table1() {
        // U = {u1 >= u2} -> c in [0.5, 1]: weight on A1 at least 0.5.
        // t1 = (0, 1) scores 0.5 at c=0.5 and 0 at c=1; t3 = (0.57, 0.75)
        // scores 0.66 and 0.57 — t3 U-dominates t1, so t1 leaves the
        // restricted skyline.
        let d = table1();
        let space = WeakRankingSpace::new(2, 1);
        let sky = u_skyline(&d, &space).unwrap();
        assert!(!sky.contains(&0), "t1 should be U-dominated: {sky:?}");
        assert!(sky.contains(&6), "t7 = (1,0) is the c=1 winner");
        // Restricted skyline is a subset of the skyline.
        let full = skyline(&d);
        assert!(sky.iter().all(|t| full.contains(t)));
    }

    #[test]
    fn u_skyline_2d_agrees_with_lp_route() {
        // Force the generic LP route by embedding 2D data in 3D with a
        // zeroed third attribute and compare against the 2D specialization.
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..15 {
            let n = rng.random_range(2..40);
            let rows2: Vec<[f64; 2]> =
                (0..n).map(|_| [rng.random::<f64>(), rng.random::<f64>()]).collect();
            let d2 = Dataset::from_rows(&rows2).unwrap();
            let rows3: Vec<[f64; 3]> = rows2.iter().map(|r| [r[0], r[1], 0.0]).collect();
            let d3 = Dataset::from_rows(&rows3).unwrap();

            // U: u1 >= u2 in both encodings (third weight unconstrained but
            // the attribute is constant zero, so it cannot matter).
            let s2 = ConeSpace::new(2, vec![vec![1.0, -1.0]]);
            let s3 = ConeSpace::new(3, vec![vec![1.0, -1.0, 0.0]]);
            let a = u_skyline(&d2, &s2).unwrap();
            let b = u_skyline(&d3, &s3).unwrap();
            assert_eq!(a, b, "rows: {rows2:?}");
        }
    }

    #[test]
    fn restricted_skyline_subset_property_random_3d() {
        let mut rng = StdRng::seed_from_u64(23);
        let rows: Vec<Vec<f64>> =
            (0..60).map(|_| (0..3).map(|_| rng.random::<f64>()).collect()).collect();
        let d = Dataset::from_rows(&rows).unwrap();
        let space = WeakRankingSpace::new(3, 2);
        let restricted = u_skyline(&d, &space).unwrap();
        let full = skyline(&d);
        assert!(!restricted.is_empty());
        assert!(restricted.len() <= full.len());
        assert!(restricted.iter().all(|t| full.contains(t)));
    }

    #[test]
    fn restricted_skyline_contains_every_top1() {
        // Theorem 3's engine: for any u in U, the top-1 tuple must survive.
        let mut rng = StdRng::seed_from_u64(31);
        let rows: Vec<Vec<f64>> =
            (0..50).map(|_| (0..3).map(|_| rng.random::<f64>()).collect()).collect();
        let d = Dataset::from_rows(&rows).unwrap();
        let space = WeakRankingSpace::new(3, 1);
        let restricted = u_skyline(&d, &space).unwrap();
        for _ in 0..200 {
            let u = space.sample_direction(&mut rng);
            let scores = rrm_core::utility::utilities(&d, &u);
            let top = rrm_core::rank::argsort_desc(&scores)[0];
            assert!(restricted.contains(&top), "top-1 {top} pruned for {u:?}");
        }
    }
}
