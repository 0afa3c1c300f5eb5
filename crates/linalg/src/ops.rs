//! Element-wise arithmetic and row-level operations on [`DMat`].

use crate::DMat;
use std::ops::Range;
use std::sync::Mutex;

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

    /// Writes every row with `f(i, row_i)` in one row-parallel pass of at
    /// least `min_rows` rows per task. Each row is written by one task with
    /// the serial arithmetic, so the result does not depend on the thread
    /// count.
    pub fn par_fill_rows(&mut self, min_rows: usize, f: impl Fn(usize, &mut [f32]) + Sync) {
        let cols = self.cols();
        mcond_par::parallel_row_chunks(self.as_mut_slice(), cols, min_rows, |rows, chunk| {
            for (i, dst) in rows.zip(chunk.chunks_mut(cols)) {
                f(i, dst);
            }
        });
    }

    /// [`par_fill_rows`](Self::par_fill_rows) over two matrices with the
    /// same row count at once: `f(i, self_i, other_i)`.
    ///
    /// # Panics
    /// Panics when the row counts differ or `other` has no columns.
    pub fn par_fill_rows_zip(
        &mut self,
        other: &mut DMat,
        min_rows: usize,
        f: impl Fn(usize, &mut [f32], &mut [f32]) + Sync,
    ) {
        let (rows, cols, other_cols) = (self.rows(), self.cols(), other.cols());
        assert!(other.rows() == rows && other_cols > 0, "par_fill_rows_zip: shape mismatch");
        let per_task = rows.div_ceil(4 * mcond_par::max_threads()).max(min_rows.max(1));
        let ranges: Vec<Range<usize>> =
            (0..rows).step_by(per_task).map(|lo| lo..(lo + per_task).min(rows)).collect();
        // `self`'s rows of each task, claimed by the task handed `other`'s.
        let mut rest = self.as_mut_slice();
        let windows: Vec<Mutex<&mut [f32]>> = ranges
            .iter()
            .map(|r| {
                let (head, tail) = std::mem::take(&mut rest).split_at_mut(r.len() * cols);
                rest = tail;
                Mutex::new(head)
            })
            .collect();
        mcond_par::parallel_row_ranges(other.as_mut_slice(), other_cols, &ranges, |r, theirs| {
            let mut mine = windows[r.start / per_task].lock().expect("one task locks each window");
            for (ii, i) in r.enumerate() {
                let row = &mut mine[ii * cols..(ii + 1) * cols];
                f(i, row, &mut theirs[ii * other_cols..(ii + 1) * other_cols]);
            }
        });
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

/// Numerically stable scalar logistic sigmoid: exponentiates only `-|x|`,
/// so it cannot overflow for large `|x|`. The sign picks the numerator
/// (`1` or `e^{-|x|}`) instead of a branch around two `exp` calls, so a
/// row of random signs costs no mispredictions; `exp` sees the argument
/// the two-branch form gave it, so the result has the same bits.
#[inline]
#[must_use]
pub fn sigmoid_scalar(x: f32) -> f32 {
    let e = (-x.abs()).exp();
    (if x >= 0.0 { 1.0 } else { e }) / (1.0 + e)
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
    fn sigmoid_matches_the_two_branch_form_bitwise() {
        fn two_branch(x: f32) -> f32 {
            if x >= 0.0 {
                let e = (-x).exp();
                1.0 / (1.0 + e)
            } else {
                let e = x.exp();
                e / (1.0 + e)
            }
        }
        let mut xs = vec![0.0, -0.0, f32::MIN_POSITIVE, -f32::MIN_POSITIVE, 1e-40, -1e-40];
        xs.extend([88.7, -88.7, 104.0, -104.0, f32::MAX, f32::MIN, f32::INFINITY, f32::NEG_INFINITY]);
        let mut rng = crate::MatRng::seed_from(5);
        xs.extend_from_slice(rng.normal(1, 4096, 0.0, 4.0).as_slice());
        for x in xs {
            assert_eq!(sigmoid_scalar(x).to_bits(), two_branch(x).to_bits(), "x = {x:e}");
        }
        assert!(sigmoid_scalar(f32::NAN).is_nan());
    }

    #[test]
    fn row_passes_match_serial_loops_at_any_thread_count() {
        let x = crate::MatRng::seed_from(6).normal(300, 5, 0.0, 1.0);
        let mut want = (DMat::zeros(300, 5), DMat::zeros(300, 1));
        for i in 0..300 {
            want.0.row_mut(i).copy_from_slice(&x.row(i).iter().map(|v| v * 2.0).collect::<Vec<_>>());
            want.1.set(i, 0, x.row(i).iter().sum());
        }
        for threads in [1, 4] {
            let (mut a, mut b, mut c) = (DMat::zeros(300, 5), DMat::zeros(300, 1), DMat::zeros(300, 0));
            mcond_par::with_thread_limit(threads, || {
                a.par_fill_rows(16, |i, row| {
                    for (d, v) in row.iter_mut().zip(x.row(i)) {
                        *d = v * 2.0;
                    }
                });
                c.par_fill_rows_zip(&mut b, 16, |i, empty, sum| {
                    assert!(empty.is_empty());
                    sum[0] = x.row(i).iter().sum();
                });
            });
            assert!(a.bit_eq(&want.0) && b.bit_eq(&want.1), "{threads} thread(s)");
        }
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
