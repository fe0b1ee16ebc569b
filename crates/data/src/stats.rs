//! Descriptive statistics for datasets — used by the `rrm` CLI to describe
//! inputs and by tests to validate generator shapes.

use rrm_core::Dataset;

/// Per-attribute summary plus the attribute correlation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSummary {
    pub n: usize,
    pub d: usize,
    pub min: Vec<f64>,
    pub max: Vec<f64>,
    pub mean: Vec<f64>,
    pub std: Vec<f64>,
    /// Pearson correlation, row-major `d × d`; NaN-free (constant
    /// attributes correlate as 0 with everything, 1 with themselves).
    pub correlation: Vec<f64>,
}

impl DatasetSummary {
    pub fn correlation_at(&self, i: usize, j: usize) -> f64 {
        self.correlation[i * self.d + j]
    }

    /// Mean off-diagonal correlation — a one-number "how correlated is this
    /// dataset" gauge (positive for correlated, negative for
    /// anti-correlated workloads).
    pub fn mean_pairwise_correlation(&self) -> f64 {
        if self.d < 2 {
            return 0.0;
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        for i in 0..self.d {
            for j in 0..self.d {
                if i != j {
                    sum += self.correlation_at(i, j);
                    count += 1;
                }
            }
        }
        sum / count as f64
    }
}

/// Compute the summary in three passes over the data. Spreads and
/// correlations are computed from each attribute divided by its largest
/// magnitude, which changes no correlation and, scaled back, no standard
/// deviation: every value then lies in `[-1, 1]`, so finite rows give
/// finite sums and products however large their raw values are.
pub fn summarize(data: &Dataset) -> DatasetSummary {
    let n = data.n();
    let d = data.dim();
    let nf = n as f64;
    let mut min = vec![f64::INFINITY; d];
    let mut max = vec![f64::NEG_INFINITY; d];
    let mut sum = vec![0.0; d];
    for row in data.rows() {
        for (j, &v) in row.iter().enumerate() {
            min[j] = min[j].min(v);
            max[j] = max[j].max(v);
            sum[j] += v;
        }
    }
    let mean: Vec<f64> = sum.iter().map(|s| s / nf).collect();
    let scale: Vec<f64> = min.iter().zip(&max).map(|(lo, hi)| lo.abs().max(hi.abs())).collect();
    // An all-zero attribute stays all zero.
    let scaled = |row: &[f64], j: usize| if scale[j] > 0.0 { row[j] / scale[j] } else { 0.0 };
    let mut centre = vec![0.0; d];
    for row in data.rows() {
        for (j, c) in centre.iter_mut().enumerate() {
            *c += scaled(row, j) / nf;
        }
    }
    // Central moments of the scaled attributes; the diagonal holds the
    // variances.
    let mut cov = vec![0.0; d * d];
    for row in data.rows() {
        for i in 0..d {
            let di = scaled(row, i) - centre[i];
            for j in i..d {
                cov[i * d + j] += di * (scaled(row, j) - centre[j]);
            }
        }
    }
    let std: Vec<f64> = (0..d).map(|j| scale[j] * (cov[j * d + j] / nf).sqrt()).collect();
    let mut correlation = vec![0.0; d * d];
    for i in 0..d {
        correlation[i * d + i] = 1.0;
        for j in i + 1..d {
            let denom = (cov[i * d + i] * cov[j * d + j]).sqrt();
            let c = if denom > 0.0 { cov[i * d + j] / denom } else { 0.0 };
            correlation[i * d + j] = c;
            correlation[j * d + i] = c;
        }
    }
    DatasetSummary { n, d, min, max, mean, std, correlation }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic::{anticorrelated, correlated, independent};

    #[test]
    fn basic_moments() {
        let d = Dataset::from_rows(&[[0.0, 2.0], [1.0, 4.0], [2.0, 6.0]]).unwrap();
        let s = summarize(&d);
        assert_eq!((s.n, s.d), (3, 2));
        assert_eq!(s.min, vec![0.0, 2.0]);
        assert_eq!(s.max, vec![2.0, 6.0]);
        assert_eq!(s.mean, vec![1.0, 4.0]);
        // Perfectly linearly related attributes: correlation 1.
        assert!((s.correlation_at(0, 1) - 1.0).abs() < 1e-12);
        assert!((s.correlation_at(1, 0) - 1.0).abs() < 1e-12);
        assert_eq!(s.correlation_at(0, 0), 1.0);
    }

    #[test]
    fn constant_attribute_is_safe() {
        let d = Dataset::from_rows(&[[1.0, 0.1], [1.0, 0.9]]).unwrap();
        let s = summarize(&d);
        assert_eq!(s.std[0], 0.0);
        assert_eq!(s.correlation_at(0, 1), 0.0);
        assert!(s.correlation.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn overflowing_rows_get_finite_spreads_and_correlations() {
        // Raw products (and in the last set a column sum) overflow f64.
        let sets: [&[[f64; 2]]; 3] = [
            &[[1.7e308, -1.7e308], [-1.7e308, 1.7e308], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
            &[[1.7e308, 0.0], [0.0, 1.7e308], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
            &[[1.7e308, 1.0], [1.7e308, 2.0], [-1.0, 0.0]],
        ];
        for rows in sets {
            let s = summarize(&Dataset::from_rows(rows).unwrap());
            let finite = s.std.iter().chain(&s.correlation).all(|v| v.is_finite());
            assert!(finite, "{rows:?}: {s:?}");
        }
        // The first set's attributes nearly mirror each other.
        let big = summarize(&Dataset::from_rows(sets[0]).unwrap()).correlation_at(0, 1);
        assert!((big + 1.0).abs() < 0.5, "{big}");
    }

    #[test]
    fn generator_signatures() {
        // The one-number gauge separates the three families.
        let corr = summarize(&correlated(3000, 3, 1)).mean_pairwise_correlation();
        let ind = summarize(&independent(3000, 3, 1)).mean_pairwise_correlation();
        let anti = summarize(&anticorrelated(3000, 3, 1)).mean_pairwise_correlation();
        assert!(corr > 0.5, "correlated gauge {corr}");
        assert!(ind.abs() < 0.1, "independent gauge {ind}");
        assert!(anti < -0.2, "anti-correlated gauge {anti}");
    }

    #[test]
    fn single_attribute_dataset() {
        let d = Dataset::from_rows(&[[0.5], [0.7]]).unwrap();
        let s = summarize(&d);
        assert_eq!(s.mean_pairwise_correlation(), 0.0);
        assert_eq!(s.correlation, vec![1.0]);
    }
}
