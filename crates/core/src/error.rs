//! Error type shared across the rank-regret crates.

use std::fmt;

/// Errors produced by dataset construction and the solvers.
///
/// # API stability
///
/// The enum is `#[non_exhaustive]`: future releases may add variants (new
/// solver preconditions, new session-level failures) without a breaking
/// change, so downstream `match`es must keep a wildcard arm. Match on the
/// variants you can handle and treat the rest generically via [`Display`].
///
/// [`Display`]: std::fmt::Display
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RrmError {
    /// A dataset must contain at least one tuple and one attribute.
    EmptyDataset,
    /// Mismatched arity (ragged rows, wrong-size utility vector, ...).
    DimensionMismatch { expected: usize, got: usize },
    /// NaN or infinite attribute value, with the 0-based index of the
    /// first offending row so callers can point at the bad input record.
    NonFiniteValue {
        /// 0-based index of the first row containing the value.
        row: usize,
        /// The offending value.
        value: f64,
    },
    /// The requested output size cannot be honoured (e.g. HDRRM requires
    /// `r ≥ |B|` so the basis fits in the result).
    OutputSizeTooSmall { requested: usize, minimum: usize },
    /// The restricted utility space is empty or unusable for this operation
    /// (e.g. a non-polyhedral space passed to an LP-based routine).
    InvalidSpace(String),
    /// An algorithm-specific precondition failed.
    Unsupported(String),
    /// A solver violated its own contract (empty output, out-of-range
    /// index, ...). Surfaced as an error instead of a panic so a
    /// misbehaving baseline cannot crash the engine.
    Internal(String),
    /// Finite data the solver's floating-point arithmetic cannot handle:
    /// attribute differences that overflow, or a linear program that
    /// round-off left undecided. No answer is given rather than one whose
    /// certificate could be false.
    Numerical(String),
}

impl fmt::Display for RrmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RrmError::EmptyDataset => write!(f, "dataset must be non-empty"),
            RrmError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            RrmError::NonFiniteValue { row, value } => {
                write!(f, "non-finite attribute value {value} in row {row}")
            }
            RrmError::OutputSizeTooSmall { requested, minimum } => {
                write!(f, "output size {requested} too small; need at least {minimum}")
            }
            RrmError::InvalidSpace(msg) => write!(f, "invalid utility space: {msg}"),
            RrmError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
            RrmError::Internal(msg) => write!(f, "internal solver error: {msg}"),
            RrmError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for RrmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(RrmError::EmptyDataset.to_string(), "dataset must be non-empty");
        assert!(RrmError::DimensionMismatch { expected: 3, got: 2 }
            .to_string()
            .contains("expected 3"));
        assert!(RrmError::OutputSizeTooSmall { requested: 2, minimum: 4 }
            .to_string()
            .contains("at least 4"));
        assert!(RrmError::InvalidSpace("empty cone".into()).to_string().contains("empty cone"));
        let e = RrmError::NonFiniteValue { row: 7, value: f64::NAN };
        assert!(e.to_string().contains("non-finite"));
        assert!(e.to_string().contains("row 7"), "{e}");
        assert!(RrmError::Unsupported("x".into()).to_string().contains("unsupported"));
        assert!(RrmError::Internal("empty set".into()).to_string().contains("empty set"));
        assert!(RrmError::Numerical("overflow".into()).to_string().contains("numerical failure"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn std::error::Error> = Box::new(RrmError::EmptyDataset);
        assert!(e.to_string().contains("non-empty"));
    }
}
