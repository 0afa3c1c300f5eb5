//! Compressed-sparse-row matrices and the SpMM kernel.
//!
//! # Parallel execution
//!
//! Both SpMM flavours row-partition their **output** across the
//! `mcond-par` pool once the touched work (`nnz · d`) is large enough:
//!
//! * [`Csr::spmm`] splits its output rows into **nnz-balanced** ranges
//!   (row-count-balanced chunks would starve workers on power-law degree
//!   distributions), each task owning a disjoint `&mut` stripe;
//! * [`Csr::spmm_t`] partitions by output row too — i.e. by *column* of
//!   `self` — and each task binary-searches every CSR row for the column
//!   window it owns, turning the serial scatter into a race-free gather.
//!
//! Per output element the floating-point accumulation order is identical
//! to the serial kernels (ascending source position), so results are
//! bit-for-bit independent of `MCOND_THREADS`.
//!
//! # SIMD
//!
//! Both kernels stream the CSR arrays directly (one `indptr` window per
//! row, then a single pass over that row's column/value slices) and
//! accumulate each touched dense row with [`mcond_linalg::simd::axpy`] —
//! a lane-widened `y += v · x` gather. The lane bodies are instantiated
//! plainly and behind an `avx2` `#[target_feature]` wrapper and picked by
//! [`mcond_linalg::simd::simd_level`], resolved **once per kernel entry**
//! and threaded through the pool fan-out.
//!
//! Unlike the dense GEMM tiers, every SpMM level is **bitwise identical**
//! to the scalar reference: `axpy` performs exactly `y[i] = y[i] + v*x[i]`
//! per element (multiply then add, no FMA, ascending `i`), so widening the
//! lanes changes neither the per-element operation nor its order.
//! `MCOND_SIMD` therefore affects SpMM speed but never SpMM bits.
//!
//! The parallel `spmm` additionally hands its nnz-balanced ranges to the
//! pool **heaviest-first** ([`mcond_par::parallel_row_ranges_ordered`]):
//! claim order is pure scheduling, so this, too, cannot change results.

use crate::Coo;
use mcond_linalg::simd::{self, SimdLevel};
use mcond_linalg::DMat;
use std::ops::Range;

/// An immutable CSR sparse matrix with `f32` values.
///
/// Row `i`'s entries live at `indptr[i]..indptr[i+1]` in `cols`/`vals`,
/// with column indices sorted ascending and no duplicates (guaranteed by
/// construction through [`Coo::to_csr`]).
#[derive(Clone, Debug, PartialEq)]
pub struct Csr {
    rows: usize,
    cols_n: usize,
    indptr: Vec<u64>,
    cols: Vec<u32>,
    vals: Vec<f32>,
}


/// Reports SpMM work to the observability counters: nonzeros touched, an
/// estimate of bytes moved (index + value per nnz, plus one dense row of
/// `d` f32 values read and written per nnz), and the flop count
/// (`2 · nnz · d` — one multiply and one add per touched dense value),
/// mirroring `linalg.matmul.flops` so bench harnesses can derive GFLOP/s
/// for sparse and dense kernels the same way.
fn count_spmm(nnz: usize, d: usize) {
    mcond_obs::counter_add("sparse.spmm.nnz", nnz as u64);
    mcond_obs::counter_add("sparse.spmm.bytes", (nnz * (8 + 8 * d)) as u64);
    mcond_obs::counter_add("sparse.spmm.flops", (2 * nnz * d) as u64);
}

/// Minimum `nnz · d` work before an SpMM fans out to the pool; small
/// products stay on the serial path where dispatch overhead would dominate.
/// DESIGN §4d has the row that keeps it at `2¹⁶` rather than `2¹⁸`.
const PAR_MIN_WORK: usize = 1 << 16;

/// Scalar reference row-gather: the `MCOND_SIMD=0` baseline the lane tiers
/// must match bitwise. Streams the CSR arrays — `indptr` is read once per
/// row, then the row's column/value slices are walked in one pass.
fn spmm_rows_scalar(
    indptr: &[u64],
    cols: &[u32],
    vals: &[f32],
    rhs: &DMat,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let d = rhs.cols();
    for (ii, i) in rows.enumerate() {
        let (s, e) = (indptr[i] as usize, indptr[i + 1] as usize);
        let out_row = &mut out[ii * d..(ii + 1) * d];
        for (&c, &v) in cols[s..e].iter().zip(&vals[s..e]) {
            for (o, x) in out_row.iter_mut().zip(rhs.row(c as usize)) {
                *o += v * *x;
            }
        }
    }
}

/// Lane-widened row gather — same traversal as [`spmm_rows_scalar`] with
/// the inner accumulation replaced by [`simd::axpy`] (bitwise identical
/// per element; see the module docs). Instantiated once per `target_feature`
/// wrapper below so LLVM re-vectorises it at each register width.
#[inline(always)]
fn spmm_rows_lanes(
    indptr: &[u64],
    cols: &[u32],
    vals: &[f32],
    rhs: &DMat,
    rows: Range<usize>,
    out: &mut [f32],
) {
    let d = rhs.cols();
    for (ii, i) in rows.enumerate() {
        let (s, e) = (indptr[i] as usize, indptr[i + 1] as usize);
        let out_row = &mut out[ii * d..(ii + 1) * d];
        for (&c, &v) in cols[s..e].iter().zip(&vals[s..e]) {
            simd::axpy(v, rhs.row(c as usize), out_row);
        }
    }
}

fn spmm_rows_portable(
    indptr: &[u64],
    cols: &[u32],
    vals: &[f32],
    rhs: &DMat,
    rows: Range<usize>,
    out: &mut [f32],
) {
    spmm_rows_lanes(indptr, cols, vals, rhs, rows, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn spmm_rows_avx2(
    indptr: &[u64],
    cols: &[u32],
    vals: &[f32],
    rhs: &DMat,
    rows: Range<usize>,
    out: &mut [f32],
) {
    spmm_rows_lanes(indptr, cols, vals, rhs, rows, out);
}

/// Column-window gather for `spmm_t`, scalar reference tier.
fn spmm_t_cols_scalar(
    indptr: &[u64],
    cols: &[u32],
    vals: &[f32],
    n_rows: usize,
    rhs: &DMat,
    cols_range: Range<usize>,
    out: &mut [f32],
) {
    let d = rhs.cols();
    let (clo, chi) = (cols_range.start as u32, cols_range.end as u32);
    for i in 0..n_rows {
        let (s, e) = (indptr[i] as usize, indptr[i + 1] as usize);
        let row_cols = &cols[s..e];
        let lo = row_cols.partition_point(|&c| c < clo);
        let hi = lo + row_cols[lo..].partition_point(|&c| c < chi);
        if lo == hi {
            continue;
        }
        let src = rhs.row(i);
        for (&c, &v) in row_cols[lo..hi].iter().zip(&vals[s + lo..s + hi]) {
            let dst = &mut out[(c as usize - cols_range.start) * d..][..d];
            for (o, x) in dst.iter_mut().zip(src) {
                *o += v * *x;
            }
        }
    }
}

/// Lane-widened twin of [`spmm_t_cols_scalar`]; same bitwise contract as
/// [`spmm_rows_lanes`].
#[inline(always)]
fn spmm_t_cols_lanes(
    indptr: &[u64],
    cols: &[u32],
    vals: &[f32],
    n_rows: usize,
    rhs: &DMat,
    cols_range: Range<usize>,
    out: &mut [f32],
) {
    let d = rhs.cols();
    let (clo, chi) = (cols_range.start as u32, cols_range.end as u32);
    for i in 0..n_rows {
        let (s, e) = (indptr[i] as usize, indptr[i + 1] as usize);
        let row_cols = &cols[s..e];
        let lo = row_cols.partition_point(|&c| c < clo);
        let hi = lo + row_cols[lo..].partition_point(|&c| c < chi);
        if lo == hi {
            continue;
        }
        let src = rhs.row(i);
        for (&c, &v) in row_cols[lo..hi].iter().zip(&vals[s + lo..s + hi]) {
            simd::axpy(v, src, &mut out[(c as usize - cols_range.start) * d..][..d]);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn spmm_t_cols_portable(
    indptr: &[u64],
    cols: &[u32],
    vals: &[f32],
    n_rows: usize,
    rhs: &DMat,
    cols_range: Range<usize>,
    out: &mut [f32],
) {
    spmm_t_cols_lanes(indptr, cols, vals, n_rows, rhs, cols_range, out);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn spmm_t_cols_avx2(
    indptr: &[u64],
    cols: &[u32],
    vals: &[f32],
    n_rows: usize,
    rhs: &DMat,
    cols_range: Range<usize>,
    out: &mut [f32],
) {
    spmm_t_cols_lanes(indptr, cols, vals, n_rows, rhs, cols_range, out);
}

impl Csr {
    /// Builds from raw CSR arrays. Callers must uphold the sortedness and
    /// uniqueness invariants; prefer [`Coo::to_csr`].
    ///
    /// # Panics
    /// Panics when the arrays are structurally inconsistent.
    #[must_use]
    pub fn from_raw(
        rows: usize,
        cols_n: usize,
        indptr: Vec<u64>,
        cols: Vec<u32>,
        vals: Vec<f32>,
    ) -> Self {
        assert_eq!(indptr.len(), rows + 1, "Csr: indptr length");
        assert_eq!(cols.len(), vals.len(), "Csr: cols/vals length mismatch");
        assert_eq!(*indptr.last().unwrap_or(&0) as usize, cols.len(), "Csr: indptr tail");
        // A real assert, not a debug_assert: every SpMM read indexes the
        // dense operand by these columns, so an out-of-range entry would
        // panic (or worse, silently read a wrong row) deep inside a kernel.
        assert!(cols.iter().all(|&c| (c as usize) < cols_n), "Csr: column out of range");
        Self { rows, cols_n, indptr, cols, vals }
    }

    /// An empty (all-zero) matrix.
    #[must_use]
    pub fn empty(rows: usize, cols: usize) -> Self {
        Self::from_raw(rows, cols, vec![0; rows + 1], Vec::new(), Vec::new())
    }

    /// The same matrix with its column space widened to `new_cols`
    /// (entries untouched — the added columns are structurally empty).
    /// Used when a sparse block built against an older, narrower index
    /// space is replayed against a grown one: column ids are stable under
    /// growth, so only the width metadata changes.
    ///
    /// # Panics
    /// Panics when `new_cols` is smaller than the current column count.
    #[must_use]
    pub fn widen_cols(&self, new_cols: usize) -> Self {
        assert!(
            new_cols >= self.cols_n,
            "widen_cols: cannot shrink {} columns to {new_cols}",
            self.cols_n
        );
        Self { cols_n: new_cols, ..self.clone() }
    }

    /// Stacks `other`'s rows below this matrix's rows, **bitwise
    /// preserving** both operands' row structure (no re-sort, no
    /// duplicate merge, no zero drop — unlike a round-trip through
    /// [`Coo::to_csr`](crate::Coo::to_csr)). Used when a live base
    /// appends promoted rows to the mapping `M`: existing rows must not
    /// be perturbed by the append.
    ///
    /// # Panics
    /// Panics when the column counts disagree.
    #[must_use]
    pub fn append_rows(&self, other: &Csr) -> Self {
        assert_eq!(
            self.cols_n, other.cols_n,
            "append_rows: column counts disagree ({} vs {})",
            self.cols_n, other.cols_n
        );
        let mut indptr = self.indptr.clone();
        let base_nnz = *indptr.last().expect("indptr is never empty");
        indptr.extend(other.indptr[1..].iter().map(|&p| base_nnz + p));
        let mut cols = self.cols.clone();
        cols.extend_from_slice(&other.cols);
        let mut vals = self.vals.clone();
        vals.extend_from_slice(&other.vals);
        Self::from_raw(self.rows + other.rows, self.cols_n, indptr, cols, vals)
    }

    /// The sparse identity.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let indptr = (0..=n as u64).collect();
        let cols = (0..n as u32).collect();
        let vals = vec![1.0; n];
        Self::from_raw(n, n, indptr, cols, vals)
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
        self.cols_n
    }

    /// Number of stored non-zeros.
    #[inline]
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Column indices of row `i`.
    #[inline]
    #[must_use]
    pub fn row_cols(&self, i: usize) -> &[u32] {
        &self.cols[self.indptr[i] as usize..self.indptr[i + 1] as usize]
    }

    /// Values of row `i`, parallel to [`Csr::row_cols`].
    #[inline]
    #[must_use]
    pub fn row_vals(&self, i: usize) -> &[f32] {
        &self.vals[self.indptr[i] as usize..self.indptr[i + 1] as usize]
    }

    /// Bitwise equality: identical shape, structure, and value bits.
    ///
    /// Unlike `==` this treats `NaN` values as equal to themselves and
    /// distinguishes `0.0` from `-0.0` — the contract a serialisation
    /// round-trip must satisfy.
    #[must_use]
    pub fn bit_eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols_n == other.cols_n
            && self.indptr == other.indptr
            && self.cols == other.cols
            && self
                .vals
                .iter()
                .zip(&other.vals)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self.vals.len() == other.vals.len()
    }

    /// `true` when every stored value is finite (no `NaN`, no `±Inf`).
    ///
    /// Structure is irrelevant here — only values can be non-finite — and
    /// subnormal values pass. The serving layer uses this to reject
    /// poisoned incremental/interconnect blocks before they reach a kernel.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.vals.iter().all(|v| v.is_finite())
    }

    /// Iterator over `(row, col, value)` of all stored entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |i| {
            self.row_cols(i)
                .iter()
                .zip(self.row_vals(i))
                .map(move |(&c, &v)| (i, c as usize, v))
        })
    }

    /// Point lookup via binary search (O(log nnz(row))).
    #[must_use]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        let cols = self.row_cols(i);
        match cols.binary_search(&(j as u32)) {
            Ok(pos) => self.row_vals(i)[pos],
            Err(_) => 0.0,
        }
    }

    /// Out-degree (number of stored entries) of each row.
    #[must_use]
    pub fn row_nnz(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|i| (self.indptr[i + 1] - self.indptr[i]) as usize)
            .collect()
    }

    /// Weighted degree (sum of values) of each row.
    #[must_use]
    pub fn row_weighted_degrees(&self) -> Vec<f32> {
        (0..self.rows).map(|i| self.row_vals(i).iter().sum()).collect()
    }

    /// Splits `0..rows` into up to `target_chunks` ranges of roughly equal
    /// stored-entry count — the load-balanced partition the parallel SpMM
    /// uses (row-count chunks would be skewed by hub nodes).
    ///
    /// The ranges tile `0..rows` in ascending order; empty trailing rows
    /// fold into the last range.
    #[must_use]
    pub fn nnz_balanced_row_ranges(&self, target_chunks: usize) -> Vec<Range<usize>> {
        if self.rows == 0 {
            return Vec::new();
        }
        let per_chunk = (self.nnz() / target_chunks.max(1)).max(1) as u64;
        let mut ranges = Vec::new();
        let mut start = 0usize;
        while start < self.rows {
            let goal = self.indptr[start] + per_chunk;
            // First row boundary whose cumulative nnz reaches the goal.
            let rel = self.indptr[start + 1..=self.rows].partition_point(|&x| x < goal);
            let end = (start + 1 + rel).min(self.rows);
            ranges.push(start..end);
            start = end;
        }
        ranges
    }

    /// [`Csr::spmm`] restricted to output rows `rows`, writing into the
    /// caller-provided stripe `out` (`rows.len() * d` values), at the
    /// caller-resolved SIMD tier. All tiers produce identical bits; see the
    /// module docs.
    fn spmm_rows(&self, rhs: &DMat, rows: Range<usize>, out: &mut [f32], level: SimdLevel) {
        let (ip, cs, vs) = (&self.indptr, &self.cols, &self.vals);
        match level {
            SimdLevel::Scalar => spmm_rows_scalar(ip, cs, vs, rhs, rows, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the level only resolves to Avx2 when runtime
            // detection confirmed the features (simd::simd_level clamps).
            SimdLevel::Avx2 => unsafe { spmm_rows_avx2(ip, cs, vs, rhs, rows, out) },
            _ => spmm_rows_portable(ip, cs, vs, rhs, rows, out),
        }
    }

    /// Sparse × dense product `self · rhs` — the message-passing kernel.
    ///
    /// Fans out across nnz-balanced output-row ranges when the work is
    /// large enough; results are bitwise identical to the serial path.
    ///
    /// # Panics
    /// Panics when `rhs.rows() != self.cols()`.
    #[must_use]
    pub fn spmm(&self, rhs: &DMat) -> DMat {
        assert_eq!(
            rhs.rows(),
            self.cols_n,
            "spmm: {}x{} · {}x{}",
            self.rows,
            self.cols_n,
            rhs.rows(),
            rhs.cols()
        );
        let d = rhs.cols();
        count_spmm(self.nnz(), d);
        let mut out = DMat::zeros(self.rows, d);
        let threads = mcond_par::max_threads();
        let level = simd::simd_level();
        if threads > 1 && self.nnz() * d >= PAR_MIN_WORK && d > 0 {
            let ranges = self.nnz_balanced_row_ranges(threads * 4);
            // Claim the heaviest ranges first: nnz balancing is only
            // approximate on skewed degree distributions, and a hub-heavy
            // chunk started last would run alone at the tail. Scheduling
            // only — results are identical for any claim order.
            let mut order: Vec<usize> = (0..ranges.len()).collect();
            order.sort_by_key(|&i| {
                std::cmp::Reverse(self.indptr[ranges[i].end] - self.indptr[ranges[i].start])
            });
            mcond_par::parallel_row_ranges_ordered(
                out.as_mut_slice(),
                d,
                &ranges,
                &order,
                |rows, chunk| {
                    self.spmm_rows(rhs, rows, chunk, level);
                },
            );
        } else {
            self.spmm_rows(rhs, 0..self.rows, out.as_mut_slice(), level);
        }
        out
    }

    /// [`Csr::spmm_t`] restricted to output rows (= columns of `self`)
    /// `cols_range`, writing into the stripe `out`. Gathers instead of
    /// scattering: for each CSR row, binary-search the slice of entries
    /// whose column falls in the owned window. For a fixed output row the
    /// contributions still arrive in ascending source-row order — the same
    /// additions, in the same order, as a serial scatter would make.
    fn spmm_t_cols(&self, rhs: &DMat, cols_range: Range<usize>, out: &mut [f32], level: SimdLevel) {
        let (ip, cs, vs, nr) = (&self.indptr, &self.cols, &self.vals, self.rows);
        match level {
            SimdLevel::Scalar => spmm_t_cols_scalar(ip, cs, vs, nr, rhs, cols_range, out),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: level resolution clamps to runtime-detected features.
            SimdLevel::Avx2 => unsafe { spmm_t_cols_avx2(ip, cs, vs, nr, rhs, cols_range, out) },
            _ => spmm_t_cols_portable(ip, cs, vs, nr, rhs, cols_range, out),
        }
    }

    /// `selfᵀ · rhs` without materialising the transpose (scatter variant of
    /// [`Csr::spmm`]); used by autodiff backward passes.
    ///
    /// The parallel path partitions by output row (= column of `self`) and
    /// gathers, so it needs no atomics and stays bitwise identical to the
    /// serial scatter.
    ///
    /// # Panics
    /// Panics when `rhs.rows() != self.rows()`.
    #[must_use]
    pub fn spmm_t(&self, rhs: &DMat) -> DMat {
        assert_eq!(rhs.rows(), self.rows, "spmm_t: row mismatch");
        let d = rhs.cols();
        count_spmm(self.nnz(), d);
        let mut out = DMat::zeros(self.cols_n, d);
        let threads = mcond_par::max_threads();
        let level = simd::simd_level();
        // The gather re-scans row *indices* once per task, so demand a bit
        // more work than plain spmm before going parallel.
        if threads > 1 && self.nnz() * d >= 2 * PAR_MIN_WORK && d > 0 && self.cols_n > 1 {
            mcond_par::parallel_row_chunks(out.as_mut_slice(), d, 16, |cols_range, chunk| {
                self.spmm_t_cols(rhs, cols_range, chunk, level);
            });
        } else {
            // Serial path: the full-window gather visits each (row, col)
            // pair exactly once in the same order as the classic scatter,
            // so this stays bitwise identical to the historical kernel.
            self.spmm_t_cols(rhs, 0..self.cols_n, out.as_mut_slice(), level);
        }
        out
    }

    /// Materialises the matrix densely (tests and small synthetic graphs).
    #[must_use]
    pub fn to_dense(&self) -> DMat {
        let mut out = DMat::zeros(self.rows, self.cols_n);
        for (i, j, v) in self.iter() {
            out.set(i, j, v);
        }
        out
    }

    /// Converts a dense matrix to CSR, keeping entries with `|v| > 0`.
    #[must_use]
    pub fn from_dense(m: &DMat) -> Self {
        let mut coo = Coo::with_capacity(m.rows(), m.cols(), m.count_above(0.0));
        for i in 0..m.rows() {
            for (j, &v) in m.row(i).iter().enumerate() {
                if v != 0.0 {
                    coo.push(i, j, v);
                }
            }
        }
        coo.to_csr()
    }

    /// Materialised transpose in CSR form.
    #[must_use]
    pub fn transpose(&self) -> Csr {
        let mut coo = Coo::with_capacity(self.cols_n, self.rows, self.nnz());
        for (i, j, v) in self.iter() {
            coo.push(j, i, v);
        }
        coo.to_csr()
    }

    /// Extracts the sub-matrix of the given rows (in order), keeping all
    /// columns.
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    #[must_use]
    pub fn select_rows(&self, indices: &[usize]) -> Csr {
        let mut indptr = Vec::with_capacity(indices.len() + 1);
        indptr.push(0u64);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for &i in indices {
            assert!(i < self.rows, "select_rows: {i} out of bounds");
            cols.extend_from_slice(self.row_cols(i));
            vals.extend_from_slice(self.row_vals(i));
            indptr.push(cols.len() as u64);
        }
        Csr::from_raw(indices.len(), self.cols_n, indptr, cols, vals)
    }

    /// Induced subgraph: keeps rows and columns in `nodes`, relabelling them
    /// to `0..nodes.len()` in order. `nodes` must be duplicate-free.
    ///
    /// # Panics
    /// Panics when an index is out of bounds.
    #[must_use]
    pub fn induced_subgraph(&self, nodes: &[usize]) -> Csr {
        let mut relabel = vec![u32::MAX; self.cols_n];
        for (new, &old) in nodes.iter().enumerate() {
            assert!(old < self.rows, "induced_subgraph: {old} out of bounds");
            relabel[old] = new as u32;
        }
        let mut coo = Coo::new(nodes.len(), nodes.len());
        for (new_i, &old_i) in nodes.iter().enumerate() {
            for (&c, &v) in self.row_cols(old_i).iter().zip(self.row_vals(old_i)) {
                let new_j = relabel[c as usize];
                if new_j != u32::MAX {
                    coo.push(new_i, new_j as usize, v);
                }
            }
        }
        coo.to_csr()
    }

    /// A copy with `f` applied to every stored value; entries mapped to zero
    /// are kept structurally (use sparsification to drop them).
    #[must_use]
    pub fn map_values(&self, f: impl Fn(f32) -> f32) -> Csr {
        let mut out = self.clone();
        for v in &mut out.vals {
            *v = f(*v);
        }
        out
    }

    /// Bytes needed to store the matrix (indptr + cols + vals) — the storage
    /// model used by the paper's memory comparisons.
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<u64>()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.vals.len() * std::mem::size_of::<f32>()
    }

    /// Block matrix `[[self, bᵀ], [b, c]]` where `b : n x rows(self)` is the
    /// incremental adjacency of `n` new nodes and `c : n x n` their
    /// interconnections — Eq. (3)/(11) of the paper.
    ///
    /// # Panics
    /// Panics on dimension mismatches or when `self` is not square.
    #[must_use]
    pub fn block_extend(&self, b: &Csr, c: &Csr) -> Csr {
        assert_eq!(self.rows, self.cols_n, "block_extend: base must be square");
        assert_eq!(b.cols(), self.rows, "block_extend: incremental column count");
        assert_eq!(c.rows(), b.rows(), "block_extend: corner row count");
        assert_eq!(c.cols(), b.rows(), "block_extend: corner must be square");
        let n_new = b.rows();
        let total = self.rows + n_new;
        let mut coo = Coo::with_capacity(total, total, self.nnz() + 2 * b.nnz() + c.nnz());
        for (i, j, v) in self.iter() {
            coo.push(i, j, v);
        }
        for (i, j, v) in b.iter() {
            coo.push(self.rows + i, j, v);
            coo.push(j, self.rows + i, v);
        }
        for (i, j, v) in c.iter() {
            coo.push(self.rows + i, self.rows + j, v);
        }
        coo.to_csr()
    }
}

/// Sparse × sparse product specialised for `a · M` (tall-thin result): the
/// left factor's rows are short and the result has few columns, so each
/// output row is accumulated densely and written straight into the CSR
/// arrays, in ascending column order, keeping only non-zero sums.
///
/// A row whose fanout (`Σ_k nnz(M_k)` over its entries `k`) reaches the
/// result width is **swept**: it accumulates with no bookkeeping, then
/// the whole width is scanned once — the width is at most the fanout, so
/// this is the cheap side. A narrower row (a few entries of a wide `M`,
/// such as the identity mapping over an original graph) **tracks** the
/// columns it touched, sorts them and resets only those, so it never pays
/// for the width. Either way the conversion costs `O(Σ_i fanout_i)`, and
/// each output element is accumulated in the same order (ascending `k`,
/// then `M_k`'s entries), so the two sides are bitwise interchangeable.
///
/// `a` may be narrower than `m` has rows (a batch assembled before the
/// mapping grew): its columns address a prefix of `m`'s rows.
///
/// # Panics
/// Panics when `a` has more columns than `m` has rows.
#[must_use]
pub fn spmm_sparse(a: &Csr, m: &Csr) -> Csr {
    assert!(a.cols() <= m.rows(), "spmm_sparse: left columns must index the right factor's rows");
    let width = m.cols();
    let mut indptr = Vec::with_capacity(a.rows() + 1);
    indptr.push(0u64);
    let mut cols: Vec<u32> = Vec::new();
    let mut vals: Vec<f32> = Vec::new();
    let mut acc = vec![0f32; width];
    let mut seen = vec![false; width];
    let mut touched: Vec<u32> = Vec::new();
    for i in 0..a.rows() {
        let (ks, avs) = (a.row_cols(i), a.row_vals(i));
        let fanout: u64 = ks
            .iter()
            .map(|&k| m.indptr[k as usize + 1] - m.indptr[k as usize])
            .sum();
        if fanout >= width as u64 {
            // Sweep: accumulate blind, then scan the whole width.
            for (&k, &av) in ks.iter().zip(avs) {
                for (&c, &mv) in m.row_cols(k as usize).iter().zip(m.row_vals(k as usize)) {
                    acc[c as usize] += av * mv;
                }
            }
            for (c, v) in acc.iter_mut().enumerate() {
                if *v != 0.0 {
                    cols.push(c as u32);
                    vals.push(*v);
                }
                *v = 0.0;
            }
        } else {
            // Track: remember the columns touched, emit and reset only those.
            touched.clear();
            for (&k, &av) in ks.iter().zip(avs) {
                for (&c, &mv) in m.row_cols(k as usize).iter().zip(m.row_vals(k as usize)) {
                    let cu = c as usize;
                    if !seen[cu] {
                        seen[cu] = true;
                        touched.push(c);
                    }
                    acc[cu] += av * mv;
                }
            }
            touched.sort_unstable();
            for &c in &touched {
                let cu = c as usize;
                if acc[cu] != 0.0 {
                    cols.push(c);
                    vals.push(acc[cu]);
                }
                acc[cu] = 0.0;
                seen[cu] = false;
            }
        }
        indptr.push(cols.len() as u64);
    }
    Csr::from_raw(a.rows(), width, indptr, cols, vals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Csr {
        // [[0, 1, 0], [2, 0, 3], [0, 0, 4]]
        let mut coo = Coo::new(3, 3);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 2.0);
        coo.push(1, 2, 3.0);
        coo.push(2, 2, 4.0);
        coo.to_csr()
    }

    #[test]
    fn structure_accessors() {
        let m = small();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_cols(1), &[0, 2]);
        assert_eq!(m.row_vals(1), &[2.0, 3.0]);
        assert_eq!(m.get(1, 2), 3.0);
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(m.row_nnz(), vec![1, 2, 1]);
        assert_eq!(m.row_weighted_degrees(), vec![1.0, 5.0, 4.0]);
    }

    #[test]
    fn spmm_matches_dense() {
        let m = small();
        let x = DMat::from_rows(&[&[1., 2.], &[3., 4.], &[5., 6.]]);
        let sparse = m.spmm(&x);
        let dense = m.to_dense().matmul(&x);
        assert_eq!(sparse, dense);
    }

    #[test]
    fn spmm_t_matches_transpose_spmm() {
        let m = small();
        let x = DMat::from_rows(&[&[1., 0.], &[0., 1.], &[1., 1.]]);
        assert_eq!(m.spmm_t(&x), m.transpose().spmm(&x));
    }

    #[test]
    fn dense_round_trip() {
        let m = small();
        assert_eq!(Csr::from_dense(&m.to_dense()), m);
    }

    #[test]
    fn select_rows_keeps_rows() {
        let m = small();
        let s = m.select_rows(&[2, 0]);
        assert_eq!(s.rows(), 2);
        assert_eq!(s.get(0, 2), 4.0);
        assert_eq!(s.get(1, 1), 1.0);
    }

    #[test]
    fn induced_subgraph_relabels() {
        let m = small();
        let s = m.induced_subgraph(&[1, 2]);
        assert_eq!(s.rows(), 2);
        // original (1,2,3.0) -> (0,1); (2,2,4.0) -> (1,1); (1,0) dropped.
        assert_eq!(s.get(0, 1), 3.0);
        assert_eq!(s.get(1, 1), 4.0);
        assert_eq!(s.nnz(), 2);
    }

    #[test]
    fn append_rows_preserves_both_operands_bitwise() {
        let top = small();
        // Bottom rows carry an explicit zero and an unsorted-within-COO
        // duplicate-free pattern; append must keep them verbatim where a
        // Coo round-trip would drop/merge.
        let bottom = Csr::from_raw(2, 3, vec![0, 2, 3], vec![2, 0, 1], vec![0.0, -1.5, 7.0]);
        let stacked = top.append_rows(&bottom);
        assert_eq!(stacked.rows(), 5);
        assert_eq!(stacked.cols(), 3);
        assert_eq!(stacked.nnz(), top.nnz() + bottom.nnz());
        for i in 0..3 {
            assert_eq!(stacked.row_cols(i), top.row_cols(i));
            assert_eq!(stacked.row_vals(i), top.row_vals(i));
        }
        for i in 0..2 {
            assert_eq!(stacked.row_cols(3 + i), bottom.row_cols(i));
            assert_eq!(stacked.row_vals(3 + i), bottom.row_vals(i));
        }
        // Appending nothing is an identity, including on empty matrices.
        assert!(top.append_rows(&Csr::empty(0, 3)).bit_eq(&top));
    }

    #[test]
    #[should_panic(expected = "append_rows: column counts disagree")]
    fn append_rows_rejects_width_mismatch() {
        let _ = small().append_rows(&Csr::empty(1, 4));
    }

    #[test]
    fn block_extend_builds_eq3_layout() {
        let a = Csr::eye(2);
        // one new node connected to original node 1 with weight 0.5
        let mut b = Coo::new(1, 2);
        b.push(0, 1, 0.5);
        let ext = a.block_extend(&b.to_csr(), &Csr::empty(1, 1));
        assert_eq!(ext.rows(), 3);
        assert_eq!(ext.get(2, 1), 0.5);
        assert_eq!(ext.get(1, 2), 0.5);
        assert_eq!(ext.get(0, 0), 1.0);
        assert_eq!(ext.get(2, 2), 0.0);
    }

    #[test]
    fn storage_bytes_counts_arrays() {
        let m = small();
        assert_eq!(m.storage_bytes(), 4 * 8 + 4 * 4 + 4 * 4);
    }

    #[test]
    fn eye_is_identity_under_spmm() {
        let x = DMat::from_rows(&[&[1., 2.], &[3., 4.]]);
        assert_eq!(Csr::eye(2).spmm(&x), x);
    }

    #[test]
    #[should_panic(expected = "column out of range")]
    fn from_raw_rejects_out_of_range_column() {
        let _ = Csr::from_raw(1, 2, vec![0, 1], vec![2], vec![1.0]);
    }

    #[test]
    fn all_finite_checks_values_only() {
        let m = small();
        assert!(m.all_finite());
        assert!(Csr::empty(3, 3).all_finite());
        // Subnormal values are finite.
        let tiny = m.map_values(|_| f32::MIN_POSITIVE / 4.0);
        assert!(tiny.row_vals(0)[0].is_subnormal() && tiny.all_finite());
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let poisoned = m.map_values(|v| if v == 3.0 { bad } else { v });
            assert!(!poisoned.all_finite(), "{bad} accepted");
        }
    }

    // `block_extend` feeds the extended adjacency straight into message
    // passing, so a shape mismatch must fail loudly here (documented
    // asserts) rather than produce a silently wrong extended graph. These
    // pin the exact failure for each block.

    #[test]
    #[should_panic(expected = "base must be square")]
    fn block_extend_rejects_rectangular_base() {
        let base = Csr::empty(2, 3);
        let _ = base.block_extend(&Csr::empty(1, 2), &Csr::empty(1, 1));
    }

    #[test]
    #[should_panic(expected = "incremental column count")]
    fn block_extend_rejects_wrong_incremental_width() {
        // Incremental block indexes a 5-node base, but the base has 2.
        let _ = Csr::eye(2).block_extend(&Csr::empty(1, 5), &Csr::empty(1, 1));
    }

    #[test]
    #[should_panic(expected = "corner row count")]
    fn block_extend_rejects_interconnect_row_mismatch() {
        // 1 new node but a 2-row interconnect.
        let _ = Csr::eye(2).block_extend(&Csr::empty(1, 2), &Csr::empty(2, 2));
    }

    #[test]
    #[should_panic(expected = "corner must be square")]
    fn block_extend_rejects_rectangular_interconnect() {
        let _ = Csr::eye(2).block_extend(&Csr::empty(1, 2), &Csr::empty(1, 3));
    }

    /// Deterministic pseudo-random graph big enough to clear the parallel
    /// thresholds, with skewed row lengths so the nnz-balanced partition
    /// and the spmm_t column windows both get exercised on ragged input.
    fn random_csr(rows: usize, cols: usize, seed: u64) -> Csr {
        let mut state = seed | 1;
        let mut next = move || {
            // xorshift64* — plenty for test data.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut coo = Coo::new(rows, cols);
        for i in 0..rows {
            let deg = 1 + (next() as usize % 16) + if i % 37 == 0 { 64 } else { 0 };
            for _ in 0..deg {
                let c = (next() as usize) % cols;
                let v = ((next() % 2000) as f32 - 1000.0) / 500.0;
                coo.push(i, c, v);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn nnz_balanced_ranges_tile_all_rows() {
        let m = random_csr(300, 200, 9);
        let ranges = m.nnz_balanced_row_ranges(8);
        let mut cursor = 0;
        for r in &ranges {
            assert_eq!(r.start, cursor);
            assert!(r.end > r.start);
            cursor = r.end;
        }
        assert_eq!(cursor, m.rows());
        // Balance: no chunk should hold more than ~3x its fair nnz share.
        let fair = m.nnz() / 8;
        for r in &ranges {
            let chunk_nnz = (m.indptr[r.end] - m.indptr[r.start]) as usize;
            assert!(chunk_nnz <= 3 * fair.max(1), "chunk {r:?} holds {chunk_nnz} nnz");
        }
    }

    /// The determinism contract: spmm and spmm_t outputs are bitwise
    /// identical whether the pool runs 1 thread or 4 — the parallel paths
    /// never reorder any per-element accumulation.
    #[test]
    fn parallel_spmm_is_bitwise_deterministic() {
        let m = random_csr(500, 300, 17);
        let mut x = DMat::zeros(300, 64);
        for i in 0..300 {
            for j in 0..64 {
                x.set(i, j, ((i * 64 + j) as f32).sin());
            }
        }
        let mut y = DMat::zeros(500, 64);
        for i in 0..500 {
            for j in 0..64 {
                y.set(i, j, ((i * 64 + j) as f32).cos());
            }
        }
        assert!(m.nnz() * 64 >= 2 * PAR_MIN_WORK, "test graph too small to fan out");
        let serial = mcond_par::with_thread_limit(1, || (m.spmm(&x), m.spmm_t(&y)));
        let parallel = mcond_par::with_thread_limit(4, || (m.spmm(&x), m.spmm_t(&y)));
        assert_eq!(serial.0.as_slice(), parallel.0.as_slice(), "spmm drifted");
        assert_eq!(serial.1.as_slice(), parallel.1.as_slice(), "spmm_t drifted");
    }

    /// The SpMM-specific SIMD contract (stronger than the dense one):
    /// every lane tier is **bitwise identical to the scalar reference**, at
    /// every thread count — `MCOND_SIMD` may never change sparse results.
    #[test]
    fn spmm_is_bitwise_identical_across_simd_levels() {
        let m = random_csr(500, 300, 29);
        let mut x = DMat::zeros(300, 48);
        for i in 0..300 {
            for j in 0..48 {
                x.set(i, j, ((i * 48 + j) as f32).sin() * 3.0);
            }
        }
        let mut y = DMat::zeros(500, 48);
        for i in 0..500 {
            for j in 0..48 {
                y.set(i, j, ((i * 48 + j) as f32).cos() * 3.0);
            }
        }
        let reference = simd::with_simd_level(SimdLevel::Scalar, || {
            mcond_par::with_thread_limit(1, || {
                (m.spmm(&x), m.spmm_t(&y))
            })
        });
        for level in simd::available_levels() {
            for threads in [1, 4] {
                let got = simd::with_simd_level(level, || {
                    mcond_par::with_thread_limit(threads, || {
                        (m.spmm(&x), m.spmm_t(&y))
                    })
                });
                let tag = format!("{} @ {threads} threads", level.name());
                assert_eq!(got.0.as_slice(), reference.0.as_slice(), "spmm drifted ({tag})");
                assert_eq!(got.1.as_slice(), reference.1.as_slice(), "spmm_t drifted ({tag})");
            }
        }
    }

    /// Ragged dense widths exercise the axpy tail path (`d` not a multiple
    /// of the lane width), including the empty-rhs edge.
    #[test]
    fn spmm_simd_handles_ragged_widths() {
        let m = random_csr(64, 40, 31);
        for d in [0, 1, 3, 7, 8, 9, 17] {
            let mut x = DMat::zeros(40, d);
            for i in 0..40 {
                for j in 0..d {
                    x.set(i, j, ((i * d + j) as f32).sin());
                }
            }
            let reference =
                simd::with_simd_level(SimdLevel::Scalar, || (m.spmm(&x), m.spmm_t(&m.spmm(&x))));
            for level in simd::available_levels() {
                let got = simd::with_simd_level(level, || (m.spmm(&x), m.spmm_t(&m.spmm(&x))));
                assert_eq!(got.0.as_slice(), reference.0.as_slice(), "d={d} {}", level.name());
                assert_eq!(got.1.as_slice(), reference.1.as_slice(), "d={d} {}", level.name());
            }
        }
    }

    /// The heaviest-first claim order must be a valid permutation on skewed
    /// graphs (hub rows) — exercised implicitly by spmm, pinned here by
    /// running a hub-heavy product at 4 threads and checking against the
    /// dense result.
    #[test]
    fn heaviest_first_schedule_preserves_results_on_hub_graphs() {
        // One hub row holding ~half the nnz plus a uniform remainder.
        let mut coo = Coo::new(200, 200);
        for j in 0..200 {
            coo.push(7, j, (j as f32 + 1.0) / 100.0);
        }
        for i in 0..200 {
            for k in 0..3 {
                coo.push(i, (i * 13 + k * 67 + 1) % 200, 1.0);
            }
        }
        let m = coo.to_csr();
        let mut x = DMat::zeros(200, 96);
        for i in 0..200 {
            for j in 0..96 {
                x.set(i, j, ((i * 96 + j) as f32).sin());
            }
        }
        assert!(m.nnz() * 96 >= PAR_MIN_WORK, "hub graph too small to fan out");
        let serial = mcond_par::with_thread_limit(1, || m.spmm(&x));
        let parallel = mcond_par::with_thread_limit(4, || m.spmm(&x));
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn spmm_sparse_matches_dense_product() {
        let mut a = Coo::new(2, 3);
        a.push(0, 1, 2.0);
        a.push(1, 2, 3.0);
        a.push(1, 0, 1.0);
        let a = a.to_csr();
        let mut m = Coo::new(3, 2);
        m.push(0, 0, 1.0);
        m.push(1, 1, 4.0);
        m.push(2, 0, 5.0);
        let m = m.to_csr();
        let product = spmm_sparse(&a, &m).to_dense();
        let reference = a.to_dense().matmul(&m.to_dense());
        assert_eq!(product, reference);
    }

    /// The touched-column reset must behave exactly like the full
    /// accumulator sweep on the hard cases: rows that are structurally
    /// empty (skipped outright), columns whose contributions cancel to an
    /// exact zero (dropped, but still reset for the next row), and
    /// out-of-order column touches (emitted ascending).
    #[test]
    fn spmm_sparse_handles_empty_rows_and_cancellation() {
        // 5 rows, only rows 1 and 3 non-empty.
        let mut a = Coo::new(5, 4);
        a.push(1, 0, 1.0);
        a.push(1, 1, -1.0);
        a.push(3, 1, 2.0);
        let a = a.to_csr();
        // m rows 0 and 1 hit the same column 2 with equal weight, so row 1
        // of the product cancels to exact zero there; column 0 is touched
        // by m row 1 only.
        let mut m = Coo::new(4, 3);
        m.push(0, 2, 3.0);
        m.push(1, 2, 3.0);
        m.push(1, 0, 4.0);
        let m = m.to_csr();
        let product = spmm_sparse(&a, &m);
        let reference = a.to_dense().matmul(&m.to_dense());
        assert_eq!(product.to_dense(), reference);
        // The cancelled (1, 2) entry is structurally absent, not a stored
        // zero, and the empty rows contributed nothing.
        assert_eq!(product.row_cols(1), &[0]);
        assert_eq!(product.row_cols(3), &[0, 2]);
        assert_eq!(product.nnz(), 3);
        for i in [0, 2, 4] {
            assert!(product.row_cols(i).is_empty());
        }
    }
}
