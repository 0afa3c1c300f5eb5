//! Graph normalisations.
//!
//! GCN-style symmetric normalisation (Eq. 1 of the paper):
//! `Â = D̃^{-1/2} Ã D̃^{-1/2}` where `Ã = A + I` and `D̃` its degree matrix.
//! Row normalisation `D^{-1} A` is used for incremental adjacencies where
//! the new nodes have no self-loop in the base graph.

use crate::{Coo, Csr};
use mcond_linalg::DMat;

/// Symmetric GCN normalisation with self-loops: `D̃^{-1/2} (A + I) D̃^{-1/2}`.
///
/// For a binary adjacency the self-loop makes every `D̃` entry ≥ 1, but
/// weighted inputs do reach this function with non-positive degrees: the
/// learned synthetic `A'` can carry negative weights that cancel the
/// self-loop, and extended blocks built from an all-pruned mapping row
/// (preserved empty by [`renormalize_rows`]) contribute zero mass. Such
/// rows get `inv_sqrt = 0` — a zero row, meaning the node neither sends
/// nor receives messages — because the alternative (`1/sqrt(d)` with
/// `d <= 0`) would inject NaN/Inf into every downstream logit, which the
/// serving layer explicitly forbids.
///
/// # Panics
/// Panics when `adj` is not square.
#[must_use]
pub fn sym_normalize(adj: &Csr) -> Csr {
    assert_eq!(adj.rows(), adj.cols(), "sym_normalize: adjacency must be square");
    let n = adj.rows();
    // Degrees of Ã = A + I.
    let mut deg = vec![1.0f32; n]; // self-loop contributes 1
    for (i, _, v) in adj.iter() {
        deg[i] += v;
    }
    let inv_sqrt: Vec<f32> =
        deg.iter().map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }).collect();
    let mut coo = Coo::with_capacity(n, n, adj.nnz() + n);
    for (i, j, v) in adj.iter() {
        coo.push(i, j, v * inv_sqrt[i] * inv_sqrt[j]);
    }
    for (i, &s) in inv_sqrt.iter().enumerate() {
        coo.push(i, i, s * s);
    }
    coo.to_csr()
}

/// Symmetric GCN normalisation of a dense (synthetic) adjacency: adds the
/// self-loop, then scales by `D̃^{-1/2}` on both sides. Used for the learned
/// `A'` which is dense during training.
///
/// # Panics
/// Panics when `adj` is not square.
#[must_use]
pub fn sym_normalize_dense(adj: &DMat) -> DMat {
    sym_normalize_dense_with_scale(adj).0
}

/// [`sym_normalize_dense`] together with the `D̃^{-1/2}` diagonal it scaled
/// by (zero where the degree is not positive) — the by-product the
/// differentiable tape op keeps for its backward rule.
///
/// # Panics
/// Panics when `adj` is not square.
#[must_use]
pub fn sym_normalize_dense_with_scale(adj: &DMat) -> (DMat, Vec<f32>) {
    assert_eq!(adj.rows(), adj.cols(), "sym_normalize_dense: adjacency must be square");
    let n = adj.rows();
    let mut tilde = adj.clone();
    for i in 0..n {
        let v = tilde.get(i, i) + 1.0;
        tilde.set(i, i, v);
    }
    let deg = tilde.row_sums();
    let inv_sqrt: Vec<f32> =
        deg.iter().map(|&d| if d > 0.0 { 1.0 / d.sqrt() } else { 0.0 }).collect();
    let mut out = tilde;
    for i in 0..n {
        let si = inv_sqrt[i];
        for (j, v) in out.row_mut(i).iter_mut().enumerate() {
            *v *= si * inv_sqrt[j];
        }
    }
    (out, inv_sqrt)
}

/// Row (random-walk) normalisation of a dense matrix: `D^{-1} A` with
/// zero rows preserved. Used for `aM` blocks where new nodes aggregate from
/// synthetic neighbours.
#[must_use]
pub fn row_normalize_dense(m: &DMat) -> DMat {
    let mut out = m.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let s: f32 = row.iter().sum();
        if s != 0.0 {
            for v in row {
                *v /= s;
            }
        }
    }
    out
}

/// Row (random-walk) renormalisation of a CSR matrix: rescales each row
/// with a *positive, finite* sum to sum to 1; every other row — empty,
/// cancelling, negative, or non-finite — passes through unchanged. Used on
/// the sparsified mapping `M`, whose rows leave Eq. 15 normalised but lose
/// mass when thresholding (Eq. 14) drops small entries — renormalising
/// restores the "distribution over synthetic nodes" semantics the
/// inductive propagation `a M` relies on.
///
/// Rescaling by a negative sum would flip every sign in the row, and a
/// zero-cancelling or overflowed sum would emit ±Inf/NaN weights; both
/// would be silently wrong attachment distributions, so such rows are left
/// exactly as they arrived (downstream coverage accounting and the
/// serving-layer finiteness audit decide what to do with them).
#[must_use]
pub fn renormalize_rows(m: &Csr) -> Csr {
    let mut indptr = Vec::with_capacity(m.rows() + 1);
    indptr.push(0u64);
    let mut cols = Vec::with_capacity(m.nnz());
    let mut vals = Vec::with_capacity(m.nnz());
    for i in 0..m.rows() {
        let s: f32 = m.row_vals(i).iter().sum();
        cols.extend_from_slice(m.row_cols(i));
        if s > 0.0 && s.is_finite() {
            vals.extend(m.row_vals(i).iter().map(|&v| v / s));
        } else {
            vals.extend_from_slice(m.row_vals(i));
        }
        indptr.push(cols.len() as u64);
    }
    Csr::from_raw(m.rows(), m.cols(), indptr, cols, vals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcond_linalg::approx_eq;

    fn path_graph(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n - 1 {
            coo.push_sym(i, i + 1, 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn sym_normalize_matches_dense_reference() {
        let g = path_graph(4);
        let sparse = sym_normalize(&g).to_dense();
        let dense = sym_normalize_dense(&g.to_dense());
        for (a, b) in sparse.as_slice().iter().zip(dense.as_slice()) {
            assert!(approx_eq(*a, *b, 1e-5), "{a} vs {b}");
        }
    }

    #[test]
    fn sym_normalize_is_symmetric() {
        let g = path_graph(5);
        let norm = sym_normalize(&g);
        let dense = norm.to_dense();
        for i in 0..5 {
            for j in 0..5 {
                assert!(approx_eq(dense.get(i, j), dense.get(j, i), 1e-6));
            }
        }
    }

    #[test]
    fn sym_normalize_isolated_node_gets_unit_self_loop() {
        // node 2 is isolated; Ã gives it degree 1 so Â[2][2] = 1.
        let mut coo = Coo::new(3, 3);
        coo.push_sym(0, 1, 1.0);
        let norm = sym_normalize(&coo.to_csr());
        assert!(approx_eq(norm.get(2, 2), 1.0, 1e-6));
    }

    #[test]
    fn sym_normalize_two_regular_values() {
        // Two connected nodes: Ã = [[1,1],[1,1]], deg = 2, Â = all 0.5.
        let mut coo = Coo::new(2, 2);
        coo.push_sym(0, 1, 1.0);
        let norm = sym_normalize(&coo.to_csr()).to_dense();
        for v in norm.as_slice() {
            assert!(approx_eq(*v, 0.5, 1e-6));
        }
    }

    #[test]
    fn row_normalize_preserves_zero_rows_and_makes_distributions() {
        let m = DMat::from_rows(&[&[2., 2., 0.], &[0., 0., 0.], &[1., 1., 2.]]);
        let r = row_normalize_dense(&m);
        assert!(approx_eq(r.row(0).iter().sum::<f32>(), 1.0, 1e-6));
        assert_eq!(r.row(1), &[0., 0., 0.]);
        assert!(approx_eq(r.get(2, 2), 0.5, 1e-6));
    }

    #[test]
    fn renormalize_rows_restores_distributions() {
        let mut coo = Coo::new(3, 2);
        coo.push(0, 0, 0.3);
        coo.push(0, 1, 0.3);
        // row 1 empty (all entries pruned by thresholding)
        coo.push(2, 1, 0.125);
        let r = renormalize_rows(&coo.to_csr());
        assert!(approx_eq(r.row_vals(0).iter().sum::<f32>(), 1.0, 1e-6));
        assert!(approx_eq(r.get(0, 0), 0.5, 1e-6));
        assert_eq!(r.row_nnz(), vec![2, 0, 1]);
        assert!(approx_eq(r.get(2, 1), 1.0, 1e-6));
        // Structure untouched: same nnz, same columns.
        assert_eq!(r.nnz(), 3);
    }

    #[test]
    fn renormalize_rows_guards_non_positive_and_non_finite_sums() {
        // Row 0: cancelling sum (0.5 - 0.5 = 0) — dividing would emit ±Inf.
        // Row 1: negative sum — dividing would flip every sign.
        // Row 2: overflowing sum (f32::MAX + f32::MAX = +Inf) — dividing
        //         would zero the row through Inf.
        // Row 3: healthy positive row — still rescaled to a distribution.
        let mut coo = Coo::new(4, 2);
        coo.push(0, 0, 0.5);
        coo.push(0, 1, -0.5);
        coo.push(1, 0, -0.25);
        coo.push(1, 1, -0.75);
        coo.push(2, 0, f32::MAX);
        coo.push(2, 1, f32::MAX);
        coo.push(3, 0, 0.2);
        coo.push(3, 1, 0.6);
        let m = coo.to_csr();
        let r = renormalize_rows(&m);
        // Guarded rows pass through bitwise untouched.
        for i in 0..3 {
            assert_eq!(r.row_cols(i), m.row_cols(i), "row {i} columns changed");
            assert_eq!(r.row_vals(i), m.row_vals(i), "row {i} values changed");
        }
        // The healthy row is still renormalised.
        assert!(approx_eq(r.get(3, 0), 0.25, 1e-6));
        assert!(approx_eq(r.get(3, 1), 0.75, 1e-6));
        // Nothing in the output is non-finite — the whole point.
        assert!(r.all_finite());
    }

    #[test]
    fn spectral_radius_of_normalized_adjacency_is_bounded() {
        // Power iteration on Â of a path graph: eigenvalues lie in [-1, 1].
        let g = path_graph(8);
        let norm = sym_normalize(&g);
        let mut v = DMat::filled(8, 1, 1.0);
        for _ in 0..50 {
            v = norm.spmm(&v);
            let n = v.frobenius_norm();
            if n > 0.0 {
                v.scale_assign(1.0 / n);
            }
        }
        let rayleigh = v.transpose().matmul(&norm.spmm(&v)).get(0, 0);
        assert!(rayleigh <= 1.0 + 1e-4, "spectral radius {rayleigh} > 1");
    }
}
