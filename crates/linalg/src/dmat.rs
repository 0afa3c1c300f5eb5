//! The dense matrix type and its structural operations.

use std::fmt;

/// A dense, row-major `f32` matrix.
///
/// This is the single tensor type of the workspace. All GNN layers, losses
/// and the condensation objectives operate on `DMat` (dense) and
/// `mcond_sparse::Csr` (sparse adjacency) values.
///
/// Storage is a flat `Vec<f32>` of length `rows * cols`; element `(i, j)`
/// lives at `data[i * cols + j]`.
#[derive(Clone, PartialEq)]
pub struct DMat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl DMat {
    /// An `rows x cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// An `rows x cols` matrix with every entry set to `value`.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// The `n x n` identity matrix.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major flat buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "DMat::from_vec: buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self { rows, cols, data }
    }

    /// Builds a matrix from row slices; all rows must have equal length.
    ///
    /// # Panics
    /// Panics if rows have inconsistent lengths.
    #[must_use]
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "DMat::from_rows: ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Number of rows.
    #[inline]
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of entries.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix has no entries.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the flat row-major buffer.
    #[inline]
    #[must_use]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Bitwise equality: same shape and every entry has identical bits.
    ///
    /// Unlike `==` this treats `NaN` payloads as equal to themselves and
    /// distinguishes `0.0` from `-0.0` — exactly the contract a
    /// serialisation round-trip must satisfy.
    #[must_use]
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// `true` when every entry is finite (no `NaN`, no `±Inf`).
    ///
    /// Subnormal values are finite and pass. This is the input-hygiene
    /// check the serving layer runs on request features: one non-finite
    /// entry would otherwise spread through every downstream matmul.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Mutable view of the flat row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element accessor.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of row `i`.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a new vector.
    #[must_use]
    pub fn col(&self, j: usize) -> Vec<f32> {
        (0..self.rows).map(|i| self.get(i, j)).collect()
    }

    /// Materialised transpose.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let mut out = Self::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j];
            }
        }
        out
    }

    /// A new matrix holding the given rows (in the given order, duplicates
    /// allowed) — the dense gather used for mini-batching and coresets.
    ///
    /// # Panics
    /// Panics if any index is out of bounds.
    #[must_use]
    pub fn select_rows(&self, indices: &[usize]) -> Self {
        let mut out = Self::zeros(indices.len(), self.cols);
        for (dst, &src) in indices.iter().enumerate() {
            assert!(src < self.rows, "select_rows: row {src} out of bounds ({})", self.rows);
            out.row_mut(dst).copy_from_slice(self.row(src));
        }
        out
    }

    /// Vertical concatenation `[self; other]`.
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    #[must_use]
    pub fn vstack(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.cols, "vstack: column mismatch");
        let mut data = Vec::with_capacity(self.data.len() + other.data.len());
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&other.data);
        Self { rows: self.rows + other.rows, cols: self.cols, data }
    }

    /// Horizontal concatenation `[self, other]`.
    ///
    /// # Panics
    /// Panics on row-count mismatch.
    #[must_use]
    pub fn hstack(&self, other: &Self) -> Self {
        assert_eq!(self.rows, other.rows, "hstack: row mismatch");
        let cols = self.cols + other.cols;
        let mut out = Self::zeros(self.rows, cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
        out
    }

    /// The sub-matrix made of rows `lo..hi`.
    ///
    /// # Panics
    /// Panics if `lo > hi` or `hi > rows`.
    #[must_use]
    pub fn slice_rows(&self, lo: usize, hi: usize) -> Self {
        assert!(lo <= hi && hi <= self.rows, "slice_rows: bad range {lo}..{hi}");
        Self {
            rows: hi - lo,
            cols: self.cols,
            data: self.data[lo * self.cols..hi * self.cols].to_vec(),
        }
    }
}

impl fmt::Debug for DMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DMat {}x{} [", self.rows, self.cols)?;
        let show = self.rows.min(6);
        for i in 0..show {
            let row = self.row(i);
            let shown: Vec<String> =
                row.iter().take(8).map(|v| format!("{v:>9.4}")).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let m = DMat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.get(0, 2), 3.0);
        assert_eq!(m.get(1, 0), 4.0);
        assert_eq!(m.row(1), &[4., 5., 6.]);
        assert_eq!(m.col(1), vec![2., 5.]);
    }

    #[test]
    fn eye_is_identity_under_get() {
        let m = DMat::eye(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(m.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn transpose_round_trip() {
        let m = DMat::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(2, 1), 6.0);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn select_rows_gathers_with_duplicates() {
        let m = DMat::from_rows(&[&[1., 1.], &[2., 2.], &[3., 3.]]);
        let s = m.select_rows(&[2, 0, 2]);
        assert_eq!(s.row(0), &[3., 3.]);
        assert_eq!(s.row(1), &[1., 1.]);
        assert_eq!(s.row(2), &[3., 3.]);
    }

    #[test]
    fn stack_operations() {
        let a = DMat::from_rows(&[&[1., 2.]]);
        let b = DMat::from_rows(&[&[3., 4.]]);
        assert_eq!(a.vstack(&b), DMat::from_rows(&[&[1., 2.], &[3., 4.]]));
        assert_eq!(a.hstack(&b), DMat::from_rows(&[&[1., 2., 3., 4.]]));
    }

    #[test]
    fn slice_rows_extracts_block() {
        let m = DMat::from_rows(&[&[1.], &[2.], &[3.], &[4.]]);
        let s = m.slice_rows(1, 3);
        assert_eq!(s.shape(), (2, 1));
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(1, 0), 3.0);
    }

    #[test]
    fn all_finite_detects_every_non_finite_class() {
        let mut m = DMat::from_rows(&[&[1.0, -2.5], &[0.0, -0.0]]);
        assert!(m.all_finite());
        // Subnormals are finite.
        m.set(0, 0, f32::MIN_POSITIVE / 2.0);
        assert!(m.get(0, 0) != 0.0 && m.get(0, 0).is_subnormal());
        assert!(m.all_finite());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let mut poisoned = m.clone();
            poisoned.set(1, 1, bad);
            assert!(!poisoned.all_finite(), "{bad} accepted");
        }
        // Empty matrices are vacuously finite.
        assert!(DMat::zeros(0, 3).all_finite());
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_length_mismatch_panics() {
        let _ = DMat::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    #[should_panic(expected = "column mismatch")]
    fn vstack_mismatch_panics() {
        let a = DMat::zeros(1, 2);
        let b = DMat::zeros(1, 3);
        let _ = a.vstack(&b);
    }
}
