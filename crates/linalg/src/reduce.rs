//! Reductions and statistics over [`DMat`].

use crate::DMat;

impl DMat {
    /// Sum of all entries.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all entries (0.0 for an empty matrix).
    #[must_use]
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Per-row sums (length `rows`).
    #[must_use]
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows()).map(|i| self.row(i).iter().sum()).collect()
    }

    /// Per-column sums (length `cols`).
    #[must_use]
    pub fn col_sums(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.cols()];
        for i in 0..self.rows() {
            for (acc, v) in out.iter_mut().zip(self.row(i)) {
                *acc += *v;
            }
        }
        out
    }

    /// Index of the maximum entry in each row (ties resolve to the first).
    #[must_use]
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows())
            .map(|i| {
                self.row(i)
                    .iter()
                    .enumerate()
                    .fold((0usize, f32::NEG_INFINITY), |(bi, bv), (j, &v)| {
                        if v > bv {
                            (j, v)
                        } else {
                            (bi, bv)
                        }
                    })
                    .0
            })
            .collect()
    }

    /// Frobenius norm, `sqrt(Σ v²)`.
    #[must_use]
    pub fn frobenius_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum::<f32>().sqrt()
    }

    /// L2,1 norm: the sum of per-row L2 norms — the matrix norm of the
    /// paper's transductive (Eq. 10) and inductive (Eq. 12) losses.
    #[must_use]
    pub fn l21_norm(&self) -> f32 {
        (0..self.rows())
            .map(|i| self.row(i).iter().map(|v| v * v).sum::<f32>().sqrt())
            .sum()
    }

    /// Squared Euclidean distance between row `i` of `self` and row `j` of
    /// `other`.
    ///
    /// # Panics
    /// Panics on column mismatch.
    #[must_use]
    pub fn row_sq_dist(&self, i: usize, other: &DMat, j: usize) -> f32 {
        assert_eq!(self.cols(), other.cols(), "row_sq_dist: column mismatch");
        self.row(i)
            .iter()
            .zip(other.row(j))
            .map(|(a, b)| (a - b) * (a - b))
            .sum()
    }

    /// Number of entries with absolute value above `threshold`.
    #[must_use]
    pub fn count_above(&self, threshold: f32) -> usize {
        self.as_slice().iter().filter(|v| v.abs() > threshold).count()
    }

    /// Maximum entry (NEG_INFINITY for an empty matrix).
    #[must_use]
    pub fn max(&self) -> f32 {
        self.as_slice().iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// Minimum entry (INFINITY for an empty matrix).
    #[must_use]
    pub fn min(&self) -> f32 {
        self.as_slice().iter().copied().fold(f32::INFINITY, f32::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    fn fixture() -> DMat {
        DMat::from_rows(&[&[1., -2., 3.], &[0., 4., 0.]])
    }

    #[test]
    fn sums_and_means() {
        let m = fixture();
        assert!(approx_eq(m.sum(), 6.0, 1e-6));
        assert!(approx_eq(m.mean(), 1.0, 1e-6));
        assert_eq!(m.row_sums(), vec![2.0, 4.0]);
        assert_eq!(m.col_sums(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn argmax_picks_first_on_ties() {
        let m = DMat::from_rows(&[&[1., 3., 3.], &[5., 2., 5.]]);
        assert_eq!(m.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn norms() {
        let m = DMat::from_rows(&[&[3., 4.], &[0., 0.]]);
        assert!(approx_eq(m.frobenius_norm(), 5.0, 1e-6));
        assert!(approx_eq(m.l21_norm(), 5.0, 1e-6));
        let m2 = DMat::from_rows(&[&[3., 4.], &[6., 8.]]);
        assert!(approx_eq(m2.l21_norm(), 15.0, 1e-5));
    }

    #[test]
    fn row_distance() {
        let a = DMat::from_rows(&[&[0., 0.]]);
        let b = DMat::from_rows(&[&[3., 4.]]);
        assert!(approx_eq(a.row_sq_dist(0, &b, 0), 25.0, 1e-6));
    }

    #[test]
    fn count_above_threshold() {
        let m = fixture();
        assert_eq!(m.count_above(0.5), 4);
        assert_eq!(m.count_above(3.5), 1);
    }

    #[test]
    fn extrema() {
        let m = fixture();
        assert_eq!(m.max(), 4.0);
        assert_eq!(m.min(), -2.0);
    }
}
