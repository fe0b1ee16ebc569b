//! Utility-vector arithmetic and batch scoring.

use crate::dataset::Dataset;

/// Dot product `u · t`.
#[inline]
pub fn dot(u: &[f64], t: &[f64]) -> f64 {
    debug_assert_eq!(u.len(), t.len());
    // Unrolled pairwise sum; d is tiny (2..8) so this compiles to straight
    // line code for the common dimensions.
    let mut acc = 0.0;
    for i in 0..u.len() {
        acc += u[i] * t[i];
    }
    acc
}

/// Euclidean norm.
#[inline]
pub fn l2_norm(u: &[f64]) -> f64 {
    dot(u, u).sqrt()
}

/// Score every tuple of `data` with `u`, appending into `out` (cleared
/// first). Reusing `out` across calls avoids re-allocating in sweep loops.
///
/// Routes through the blocked SoA kernel ([`crate::kernel`]); results are
/// bit-identical to the scalar reference `data.rows().map(|t| dot(u, t))`
/// because the kernel sums every dot in the same `j`-ascending order.
pub fn utilities_into(data: &Dataset, u: &[f64], out: &mut Vec<f64>) {
    assert_eq!(u.len(), data.dim(), "utility vector arity must equal d");
    crate::kernel::scores_into(data.soa(), u, out);
}

/// Score every tuple of `data` with `u` into a fresh vector.
pub fn utilities(data: &Dataset, u: &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    utilities_into(data, u, &mut out);
    out
}

/// Utility of a single tuple.
#[inline]
pub fn score(data: &Dataset, u: &[f64], index: u32) -> f64 {
    dot(u, data.row(index as usize))
}

/// Highest utility among the tuples at `indices` (`w(u, S)` in the paper).
pub fn best_score_of_set(data: &Dataset, u: &[f64], indices: &[u32]) -> f64 {
    indices.iter().map(|&i| score(data, u, i)).fold(f64::NEG_INFINITY, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn batch_scoring() {
        let d = Dataset::from_rows(&[[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]).unwrap();
        let u = [0.3, 0.7];
        let s = utilities(&d, &u);
        assert_eq!(s.len(), 3);
        assert!((s[0] - 0.3).abs() < 1e-12);
        assert!((s[1] - 0.7).abs() < 1e-12);
        assert!((s[2] - 0.5).abs() < 1e-12);
        assert_eq!(score(&d, &u, 1), s[1]);
        assert!((best_score_of_set(&d, &u, &[0, 2]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn utilities_into_reuses_buffer() {
        let d = Dataset::from_rows(&[[1.0], [2.0]]).unwrap();
        let mut buf = vec![9.0; 100];
        utilities_into(&d, &[2.0], &mut buf);
        assert_eq!(buf, vec![2.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn wrong_arity_panics() {
        let d = Dataset::from_rows(&[[1.0, 2.0]]).unwrap();
        utilities(&d, &[1.0]);
    }
}
