//! Element-wise arithmetic and row-level operations on [`DMat`].

use crate::DMat;

impl DMat {
    /// `self + other`, element-wise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn add(&self, other: &DMat) -> DMat {
        self.zip_with(other, |a, b| a + b)
    }

    /// `self - other`, element-wise.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn sub(&self, other: &DMat) -> DMat {
        self.zip_with(other, |a, b| a - b)
    }

    /// Hadamard (element-wise) product.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn hadamard(&self, other: &DMat) -> DMat {
        self.zip_with(other, |a, b| a * b)
    }

    /// `self * s`, element-wise.
    #[must_use]
    pub fn scale(&self, s: f32) -> DMat {
        self.map(|v| v * s)
    }

    /// In-place `self += other`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &DMat) {
        assert_eq!(self.shape(), other.shape(), "add_assign: shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += *b;
        }
    }

    /// In-place `self += s * other` (axpy).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, s: f32, other: &DMat) {
        assert_eq!(self.shape(), other.shape(), "axpy: shape mismatch");
        for (a, b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += s * *b;
        }
    }

    /// In-place scalar multiply.
    pub fn scale_assign(&mut self, s: f32) {
        for v in self.as_mut_slice() {
            *v *= s;
        }
    }

    /// New matrix with `f` applied to every entry.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> DMat {
        DMat::from_vec(self.rows(), self.cols(), self.as_slice().iter().map(|&v| f(v)).collect())
    }

    /// Applies `f` to every entry in place.
    pub fn map_assign(&mut self, f: impl Fn(f32) -> f32) {
        for v in self.as_mut_slice() {
            *v = f(*v);
        }
    }

    /// Element-wise combination of two equal-shape matrices.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    #[must_use]
    pub fn zip_with(&self, other: &DMat, f: impl Fn(f32, f32) -> f32) -> DMat {
        assert_eq!(self.shape(), other.shape(), "zip_with: shape mismatch");
        DMat::from_vec(
            self.rows(),
            self.cols(),
            self.as_slice().iter().zip(other.as_slice()).map(|(&a, &b)| f(a, b)).collect(),
        )
    }

    /// ReLU, `max(v, 0)`.
    #[must_use]
    pub fn relu(&self) -> DMat {
        self.map(|v| v.max(0.0))
    }

    /// Logistic sigmoid `1 / (1 + e^{-v})`, numerically stable at both tails.
    #[must_use]
    pub fn sigmoid(&self) -> DMat {
        self.map(sigmoid_scalar)
    }

    /// Adds `row` (a length-`cols` vector) to every row — the bias broadcast.
    ///
    /// # Panics
    /// Panics when `row.len() != self.cols()`.
    #[must_use]
    pub fn add_row_broadcast(&self, row: &[f32]) -> DMat {
        assert_eq!(row.len(), self.cols(), "add_row_broadcast: length mismatch");
        let mut out = self.clone();
        for i in 0..out.rows() {
            for (v, b) in out.row_mut(i).iter_mut().zip(row) {
                *v += *b;
            }
        }
        out
    }

    /// Multiplies row `i` by `scales[i]` — the diagonal left-product
    /// `diag(scales) · self` used by degree normalisation.
    ///
    /// # Panics
    /// Panics when `scales.len() != self.rows()`.
    #[must_use]
    pub fn scale_rows(&self, scales: &[f32]) -> DMat {
        assert_eq!(scales.len(), self.rows(), "scale_rows: length mismatch");
        let mut out = self.clone();
        for (i, &s) in scales.iter().enumerate() {
            for v in out.row_mut(i) {
                *v *= s;
            }
        }
        out
    }

    /// In-place variant of [`scale_rows`](Self::scale_rows): multiplies row
    /// `i` by `scales[i]` without allocating a new matrix.
    ///
    /// # Panics
    /// Panics when `scales.len() != self.rows()`.
    pub fn scale_rows_assign(&mut self, scales: &[f32]) {
        assert_eq!(scales.len(), self.rows(), "scale_rows_assign: length mismatch");
        for (i, &s) in scales.iter().enumerate() {
            for v in self.row_mut(i) {
                *v *= s;
            }
        }
    }

    /// Row-wise softmax.
    #[must_use]
    pub fn softmax_rows(&self) -> DMat {
        let mut out = self.clone();
        for i in 0..out.rows() {
            softmax_in_place(out.row_mut(i));
        }
        out
    }

}

/// Numerically stable scalar logistic sigmoid: never exponentiates a
/// positive argument, so it cannot overflow for large `|x|`.
#[inline]
#[must_use]
pub fn sigmoid_scalar(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// In-place max-shifted softmax over a slice.
pub(crate) fn softmax_in_place(row: &mut [f32]) {
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;

    #[test]
    fn elementwise_arithmetic() {
        let a = DMat::from_rows(&[&[1., 2.], &[3., 4.]]);
        let b = DMat::from_rows(&[&[5., 6.], &[7., 8.]]);
        assert_eq!(a.add(&b), DMat::from_rows(&[&[6., 8.], &[10., 12.]]));
        assert_eq!(b.sub(&a), DMat::from_rows(&[&[4., 4.], &[4., 4.]]));
        assert_eq!(a.hadamard(&b), DMat::from_rows(&[&[5., 12.], &[21., 32.]]));
        assert_eq!(a.scale(2.0), DMat::from_rows(&[&[2., 4.], &[6., 8.]]));
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = DMat::from_rows(&[&[1., 1.]]);
        let g = DMat::from_rows(&[&[2., 4.]]);
        a.axpy(-0.5, &g);
        assert_eq!(a, DMat::from_rows(&[&[0., -1.]]));
    }

    #[test]
    fn relu_clamps_negatives() {
        let a = DMat::from_rows(&[&[-1., 0., 2.]]);
        assert_eq!(a.relu(), DMat::from_rows(&[&[0., 0., 2.]]));
    }

    #[test]
    fn sigmoid_is_stable_and_symmetric() {
        assert!(approx_eq(sigmoid_scalar(0.0), 0.5, 1e-6));
        assert!(sigmoid_scalar(100.0) <= 1.0);
        assert!(sigmoid_scalar(-100.0) >= 0.0);
        let s = sigmoid_scalar(3.0) + sigmoid_scalar(-3.0);
        assert!(approx_eq(s, 1.0, 1e-6));
    }

    #[test]
    fn softmax_rows_are_distributions() {
        let a = DMat::from_rows(&[&[1., 2., 3.], &[1000., 1000., 1000.]]);
        let s = a.softmax_rows();
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!(approx_eq(sum, 1.0, 1e-5));
        }
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!(approx_eq(s.get(1, 0), 1.0 / 3.0, 1e-5));
    }

    #[test]
    fn broadcast_and_row_scaling() {
        let a = DMat::from_rows(&[&[1., 2.], &[3., 4.]]);
        assert_eq!(
            a.add_row_broadcast(&[10., 20.]),
            DMat::from_rows(&[&[11., 22.], &[13., 24.]])
        );
        assert_eq!(a.scale_rows(&[2.0, 0.0]), DMat::from_rows(&[&[2., 4.], &[0., 0.]]));
        let mut b = a.clone();
        b.scale_rows_assign(&[2.0, 0.0]);
        assert_eq!(b, a.scale_rows(&[2.0, 0.0]));
    }
}
