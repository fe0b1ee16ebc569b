//! The [`Dataset`] type: `n` tuples over `d` numeric attributes.
//!
//! Values are stored row-major in one flat allocation so batch scoring (the
//! hot path of every algorithm) walks memory linearly. The allocation is
//! shared: a dataset keeps the buffer it is built from behind an `Arc`, so
//! construction copies nothing and a clone (each prepared handle and
//! session snapshot holds one) shares the rows.

use crate::error::RrmError;
use crate::kernel::Soa;
use std::sync::{Arc, OnceLock};

/// An immutable collection of `n` tuples with `d` attributes each.
///
/// Conventions from the paper: larger values are preferred on every
/// attribute; attribute ranges are typically normalized to `[0, 1]`
/// (see [`Dataset::normalize`]), though nothing in this crate requires it —
/// rank-regret is shift invariant (Theorem 1), so algorithms operate on raw
/// values too.
#[derive(Debug, Clone)]
pub struct Dataset {
    d: usize,
    values: Arc<Vec<f64>>,
    /// Lazily built column-major mirror ([`crate::kernel::Soa`]); shared by
    /// clones via `Arc` so a prepared handle pays the transpose once.
    soa: OnceLock<Arc<Soa>>,
}

/// Equality is over the logical contents only; whether the SoA mirror has
/// been built yet is an implementation detail.
impl PartialEq for Dataset {
    fn eq(&self, other: &Self) -> bool {
        self.d == other.d && self.values == other.values
    }
}

impl Dataset {
    /// Internal constructor for already-validated buffers.
    #[inline]
    pub(crate) fn raw(d: usize, values: Vec<f64>) -> Self {
        Self { d, values: Arc::new(values), soa: OnceLock::new() }
    }

    /// The lazy-init cell behind [`Dataset::soa`](crate::kernel).
    #[inline]
    pub(crate) fn soa_cell(&self) -> &OnceLock<Arc<Soa>> {
        &self.soa
    }
    /// Build a dataset from per-tuple rows.
    ///
    /// Fails when rows are empty, ragged, or contain non-finite values.
    pub fn from_rows<R: AsRef<[f64]>>(rows: &[R]) -> Result<Self, RrmError> {
        let Some(first) = rows.first() else {
            return Err(RrmError::EmptyDataset);
        };
        let d = first.as_ref().len();
        if d == 0 {
            return Err(RrmError::DimensionMismatch { expected: 1, got: 0 });
        }
        let mut values = Vec::with_capacity(rows.len() * d);
        for (i, row) in rows.iter().enumerate() {
            let row = row.as_ref();
            if row.len() != d {
                return Err(RrmError::DimensionMismatch { expected: d, got: row.len() });
            }
            // Validate while copying: the error names the first offending
            // row instead of forcing callers to re-scan their input.
            if let Some(&bad) = row.iter().find(|v| !v.is_finite()) {
                return Err(RrmError::NonFiniteValue { row: i, value: bad });
            }
            values.extend_from_slice(row);
        }
        Ok(Self::raw(d, values))
    }

    /// Build a dataset from a row-major flat buffer of `n * d` values.
    pub fn from_flat(d: usize, values: Vec<f64>) -> Result<Self, RrmError> {
        if d == 0 || values.is_empty() {
            return Err(RrmError::EmptyDataset);
        }
        if !values.len().is_multiple_of(d) {
            return Err(RrmError::DimensionMismatch { expected: d, got: values.len() % d });
        }
        if let Some((i, &bad)) = values.iter().enumerate().find(|(_, v)| !v.is_finite()) {
            return Err(RrmError::NonFiniteValue { row: i / d, value: bad });
        }
        Ok(Self::raw(d, values))
    }

    /// Number of tuples `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.values.len() / self.d
    }

    /// Number of attributes `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// The `i`-th tuple as a slice of length `d`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.values[i * self.d..(i + 1) * self.d]
    }

    /// Iterate over all tuples in index order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        self.values.chunks_exact(self.d)
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn flat(&self) -> &[f64] {
        &self.values
    }

    /// A new dataset containing only the tuples at `indices`, in order.
    pub fn subset(&self, indices: &[u32]) -> Dataset {
        let mut values = Vec::with_capacity(indices.len() * self.d);
        for &i in indices {
            values.extend_from_slice(self.row(i as usize));
        }
        Dataset::raw(self.d, values)
    }

    /// Min-max normalize every attribute to `[0, 1]`.
    ///
    /// Constant attributes (max = min) map to `0.0` for every tuple, which
    /// preserves ranking behaviour (a constant attribute never discriminates).
    /// An attribute whose range overflows f64 is scaled by halves.
    pub fn normalize(&self) -> Dataset {
        let d = self.d;
        let mut lo = vec![f64::INFINITY; d];
        let mut hi = vec![f64::NEG_INFINITY; d];
        for row in self.rows() {
            for (j, &v) in row.iter().enumerate() {
                lo[j] = lo[j].min(v);
                hi[j] = hi[j].max(v);
            }
        }
        let mut values = Vec::with_capacity(self.values.len());
        for row in self.rows() {
            for (j, &v) in row.iter().enumerate() {
                let span = hi[j] - lo[j];
                values.push(if !span.is_finite() {
                    (v / 2.0 - lo[j] / 2.0) / (hi[j] / 2.0 - lo[j] / 2.0)
                } else if span > 0.0 {
                    (v - lo[j]) / span
                } else {
                    0.0
                });
            }
        }
        Dataset::raw(d, values)
    }

    /// Shift every tuple by a constant per-attribute offset `lambda`
    /// (the transformation of Theorem 1: `t'[j] = t[j] + λ[j]`).
    ///
    /// RRM/RRRM solutions are invariant under this transformation; the RMS
    /// baseline's are not, which `examples/shift_invariance.rs` demonstrates.
    pub fn shift(&self, lambda: &[f64]) -> Dataset {
        assert_eq!(lambda.len(), self.d, "shift vector arity must equal d");
        let mut values = Vec::with_capacity(self.values.len());
        for row in self.rows() {
            for (j, &v) in row.iter().enumerate() {
                values.push(v + lambda[j]);
            }
        }
        Dataset::raw(self.d, values)
    }

    /// Negate the listed attributes (for smaller-is-better columns such as
    /// price), then the usual larger-preferred convention applies.
    pub fn negate_attributes(&self, attrs: &[usize]) -> Dataset {
        let mut values = self.values.to_vec();
        for row in values.chunks_exact_mut(self.d) {
            for &j in attrs {
                row[j] = -row[j];
            }
        }
        Dataset::raw(self.d, values)
    }

    /// Keep only the listed attributes (projection), preserving tuple order.
    pub fn project(&self, attrs: &[usize]) -> Result<Dataset, RrmError> {
        if attrs.is_empty() {
            return Err(RrmError::EmptyDataset);
        }
        for &j in attrs {
            if j >= self.d {
                return Err(RrmError::DimensionMismatch { expected: self.d, got: j });
            }
        }
        let mut values = Vec::with_capacity(self.n() * attrs.len());
        for row in self.rows() {
            for &j in attrs {
                values.push(row[j]);
            }
        }
        Ok(Dataset::raw(attrs.len(), values))
    }

    /// First `m` tuples as a new dataset (used by the size sweeps in the
    /// experiment harness, mirroring the paper's "varied the dataset size").
    pub fn prefix(&self, m: usize) -> Dataset {
        let m = m.min(self.n());
        Dataset::raw(self.d, self.values[..m * self.d].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_rows(&[[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]]).unwrap()
    }

    #[test]
    fn construction_and_access() {
        let d = small();
        assert_eq!(d.n(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.row(1), &[0.5, 0.5]);
        assert_eq!(d.rows().count(), 3);
        assert_eq!(d.flat().len(), 6);
    }

    #[test]
    fn construction_and_clones_share_the_rows() {
        let values = vec![0.1, 0.9, 0.5, 0.5];
        let at = values.as_ptr();
        let d = Dataset::from_flat(2, values).unwrap();
        assert_eq!(d.flat().as_ptr(), at, "construction copied the rows");
        let copy = d.clone();
        assert_eq!(copy.flat().as_ptr(), at, "a clone copied the rows");
        assert_eq!(copy, d);
        assert_ne!(d.negate_attributes(&[0]).flat().as_ptr(), at);
    }

    #[test]
    fn rejects_empty() {
        let rows: Vec<[f64; 2]> = vec![];
        assert!(matches!(Dataset::from_rows(&rows), Err(RrmError::EmptyDataset)));
        assert!(Dataset::from_flat(2, vec![]).is_err());
    }

    #[test]
    fn rejects_ragged() {
        let rows: Vec<Vec<f64>> = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            Dataset::from_rows(&rows),
            Err(RrmError::DimensionMismatch { expected: 2, got: 1 })
        ));
    }

    #[test]
    fn rejects_non_finite() {
        let rows = vec![vec![1.0, f64::NAN]];
        assert!(matches!(Dataset::from_rows(&rows), Err(RrmError::NonFiniteValue { row: 0, .. })));
        let rows = vec![vec![1.0, f64::INFINITY]];
        assert!(Dataset::from_rows(&rows).is_err());
    }

    #[test]
    fn non_finite_error_names_the_first_bad_row() {
        // Row 2 is the first offender; the error must say so even though
        // row 3 is also bad.
        let rows = vec![vec![0.0, 1.0], vec![0.5, 0.5], vec![f64::NAN, 0.1], vec![1.0, f64::NAN]];
        let err = Dataset::from_rows(&rows).unwrap_err();
        assert!(matches!(err, RrmError::NonFiniteValue { row: 2, .. }), "{err}");
        assert!(err.to_string().contains("row 2"), "{err}");
        // from_flat computes the row from the flat offset.
        let err = Dataset::from_flat(2, vec![0.0, 1.0, 0.5, f64::INFINITY]).unwrap_err();
        assert!(
            matches!(err, RrmError::NonFiniteValue { row: 1, value } if value.is_infinite()),
            "{err}"
        );
    }

    #[test]
    fn rejects_misaligned_flat() {
        assert!(Dataset::from_flat(2, vec![1.0, 2.0, 3.0]).is_err());
    }

    #[test]
    fn subset_keeps_order() {
        let d = small();
        let s = d.subset(&[2, 0]);
        assert_eq!(s.row(0), &[0.9, 0.1]);
        assert_eq!(s.row(1), &[0.1, 0.9]);
    }

    #[test]
    fn normalize_maps_to_unit_range() {
        let d = Dataset::from_rows(&[[10.0, -5.0], [20.0, 5.0], [15.0, 0.0]]).unwrap();
        let n = d.normalize();
        assert_eq!(n.row(0), &[0.0, 0.0]);
        assert_eq!(n.row(1), &[1.0, 1.0]);
        assert_eq!(n.row(2), &[0.5, 0.5]);
    }

    #[test]
    fn normalize_scales_an_overflowing_range_by_halves() {
        // Attribute 0 spans 3.4e308, which overflows; attribute 1 does not.
        let d = Dataset::from_rows(&[[1.7e308, 4.0], [-1.7e308, 0.0], [0.5, 1.0]]).unwrap();
        let n = d.normalize();
        assert_eq!(n.row(0), &[1.0, 1.0]);
        assert_eq!(n.row(1), &[0.0, 0.0]);
        assert_eq!(n.row(2), &[0.5, 0.25]);
    }

    #[test]
    fn normalize_constant_attribute() {
        let d = Dataset::from_rows(&[[3.0, 1.0], [3.0, 2.0]]).unwrap();
        let n = d.normalize();
        assert_eq!(n.row(0)[0], 0.0);
        assert_eq!(n.row(1)[0], 0.0);
    }

    #[test]
    fn shift_adds_offsets() {
        let d = small();
        let s = d.shift(&[1.0, -1.0]);
        assert!((s.row(0)[0] - 1.1).abs() < 1e-12);
        assert!((s.row(0)[1] + 0.1).abs() < 1e-12);
    }

    #[test]
    fn negate_and_project() {
        let d = small();
        let neg = d.negate_attributes(&[0]);
        assert_eq!(neg.row(2), &[-0.9, 0.1]);
        let p = d.project(&[1]).unwrap();
        assert_eq!(p.dim(), 1);
        assert_eq!(p.row(0), &[0.9]);
        assert!(d.project(&[5]).is_err());
        assert!(d.project(&[]).is_err());
    }

    #[test]
    fn prefix_truncates() {
        let d = small();
        assert_eq!(d.prefix(2).n(), 2);
        assert_eq!(d.prefix(10).n(), 3);
    }
}
