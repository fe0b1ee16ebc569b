//! Incremental dataset updates: the [`UpdateOp`] batch language and the
//! [`AppliedUpdate`] context that prepared solvers patch themselves with.
//!
//! An update batch is applied atomically to an immutable [`Dataset`],
//! producing a *new* dataset plus the bookkeeping incremental maintainers
//! need: the old→new index remap (monotone over survivors, so relative
//! index order — and therefore every index-ascending tie-break in the
//! solvers — is preserved), the new indices of inserted rows (always the
//! largest indices, appended after every survivor), and the old indices
//! that were deleted.
//!
//! Semantics:
//!
//! - `Delete(i)` refers to the **pre-batch** index `i`; deletes inside one
//!   batch do not shift each other. Out-of-range or duplicate deletes
//!   reject the whole batch.
//! - `Insert(row)` appends `row` after all survivors, in op order. Rows
//!   must match the dataset's arity and be finite, exactly like
//!   [`Dataset::from_rows`].
//! - Survivors keep their relative order; the batch must leave at least
//!   one tuple (a dataset is never empty).

use crate::dataset::Dataset;
use crate::error::RrmError;

/// One dataset mutation inside an update batch.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateOp {
    /// Append a new tuple (after all surviving tuples).
    Insert(Vec<f64>),
    /// Remove the tuple at this **pre-batch** index.
    Delete(usize),
}

/// The result of applying one update batch: the new dataset plus the
/// index bookkeeping incremental maintainers consume.
#[derive(Debug, Clone)]
pub struct AppliedUpdate {
    /// The post-batch dataset.
    pub new: Dataset,
    /// `remap[old_index]` is the tuple's new index, or `None` if deleted.
    /// Monotone over survivors: `i < j` surviving implies
    /// `remap[i] < remap[j]`.
    pub remap: Vec<Option<u32>>,
    /// New indices of the inserted rows, in op order (always a contiguous
    /// suffix `new.n() - inserted.len() .. new.n()`).
    pub inserted: Vec<u32>,
    /// Old indices of the deleted rows, ascending.
    pub deleted: Vec<u32>,
}

impl AppliedUpdate {
    /// Number of surviving (non-deleted, non-inserted) tuples.
    pub fn survivors(&self) -> usize {
        self.remap.len() - self.deleted.len()
    }
}

/// Apply `ops` to `data`, validating the whole batch before touching
/// anything (an invalid op rejects the batch atomically).
pub fn apply_updates(data: &Dataset, ops: &[UpdateOp]) -> Result<AppliedUpdate, RrmError> {
    let n = data.n();
    let d = data.dim();

    // Validate first: deletes in range and distinct, inserts well-formed.
    let mut delete_mask = vec![false; n];
    let mut deleted: Vec<u32> = Vec::new();
    let mut inserted_rows: Vec<&[f64]> = Vec::new();
    for op in ops {
        match op {
            UpdateOp::Delete(i) => {
                if *i >= n {
                    return Err(RrmError::Unsupported(format!(
                        "delete index {i} out of range for n = {n}"
                    )));
                }
                if delete_mask[*i] {
                    return Err(RrmError::Unsupported(format!(
                        "duplicate delete of index {i} in one batch"
                    )));
                }
                delete_mask[*i] = true;
                deleted.push(*i as u32);
            }
            UpdateOp::Insert(row) => {
                if row.len() != d {
                    return Err(RrmError::DimensionMismatch { expected: d, got: row.len() });
                }
                if let Some(&bad) = row.iter().find(|v| !v.is_finite()) {
                    return Err(RrmError::NonFiniteValue {
                        row: n + inserted_rows.len(),
                        value: bad,
                    });
                }
                inserted_rows.push(row);
            }
        }
    }
    deleted.sort_unstable();
    let survivors = n - deleted.len();
    if survivors + inserted_rows.len() == 0 {
        return Err(RrmError::EmptyDataset);
    }

    // Build the new flat buffer and the old→new remap in one pass.
    let new_n = survivors + inserted_rows.len();
    let mut values = Vec::with_capacity(new_n * d);
    let mut remap: Vec<Option<u32>> = Vec::with_capacity(n);
    let mut next = 0u32;
    for (i, row) in data.rows().enumerate() {
        if delete_mask[i] {
            remap.push(None);
        } else {
            values.extend_from_slice(row);
            remap.push(Some(next));
            next += 1;
        }
    }
    let mut inserted: Vec<u32> = Vec::with_capacity(inserted_rows.len());
    for row in &inserted_rows {
        values.extend_from_slice(row);
        inserted.push(next);
        next += 1;
    }

    let new = Dataset::from_flat(d, values)?;
    Ok(AppliedUpdate { new, remap, inserted, deleted })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Dataset {
        Dataset::from_rows(&[[0.1, 0.9], [0.5, 0.5], [0.9, 0.1]]).unwrap()
    }

    #[test]
    fn insert_appends_and_delete_drops() {
        let upd = apply_updates(&small(), &[UpdateOp::Delete(1), UpdateOp::Insert(vec![0.3, 0.7])])
            .unwrap();
        assert_eq!(upd.new.n(), 3);
        assert_eq!(upd.new.row(0), &[0.1, 0.9]);
        assert_eq!(upd.new.row(1), &[0.9, 0.1]);
        assert_eq!(upd.new.row(2), &[0.3, 0.7]);
        assert_eq!(upd.remap, vec![Some(0), None, Some(1)]);
        assert_eq!(upd.inserted, vec![2]);
        assert_eq!(upd.deleted, vec![1]);
        assert_eq!(upd.survivors(), 2);
    }

    #[test]
    fn deletes_use_pre_batch_indices() {
        // Deleting 0 and 2 leaves old row 1, regardless of op order.
        let upd = apply_updates(&small(), &[UpdateOp::Delete(2), UpdateOp::Delete(0)]).unwrap();
        assert_eq!(upd.new.n(), 1);
        assert_eq!(upd.new.row(0), &[0.5, 0.5]);
        assert_eq!(upd.deleted, vec![0, 2]);
        assert_eq!(upd.remap, vec![None, Some(0), None]);
    }

    #[test]
    fn rejects_bad_batches_atomically() {
        let d = small();
        assert!(matches!(apply_updates(&d, &[UpdateOp::Delete(7)]), Err(RrmError::Unsupported(_))));
        assert!(matches!(
            apply_updates(&d, &[UpdateOp::Delete(1), UpdateOp::Delete(1)]),
            Err(RrmError::Unsupported(_))
        ));
        assert!(matches!(
            apply_updates(&d, &[UpdateOp::Insert(vec![1.0])]),
            Err(RrmError::DimensionMismatch { expected: 2, got: 1 })
        ));
        assert!(matches!(
            apply_updates(&d, &[UpdateOp::Insert(vec![1.0, f64::NAN])]),
            Err(RrmError::NonFiniteValue { .. })
        ));
        assert!(matches!(
            apply_updates(&d, &[UpdateOp::Delete(0), UpdateOp::Delete(1), UpdateOp::Delete(2)]),
            Err(RrmError::EmptyDataset)
        ));
    }

    #[test]
    fn delete_all_with_insert_is_allowed() {
        let upd = apply_updates(
            &small(),
            &[
                UpdateOp::Delete(0),
                UpdateOp::Delete(1),
                UpdateOp::Delete(2),
                UpdateOp::Insert(vec![0.2, 0.8]),
            ],
        )
        .unwrap();
        assert_eq!(upd.new.n(), 1);
        assert_eq!(upd.inserted, vec![0]);
    }

    #[test]
    fn remap_is_monotone_over_survivors() {
        let rows: Vec<[f64; 2]> = (0..10).map(|i| [i as f64, 10.0 - i as f64]).collect();
        let data = Dataset::from_rows(&rows).unwrap();
        let upd = apply_updates(&data, &[UpdateOp::Delete(3), UpdateOp::Delete(7)]).unwrap();
        let survivors: Vec<u32> = upd.remap.iter().flatten().copied().collect();
        assert!(survivors.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(survivors.len(), 8);
    }
}
