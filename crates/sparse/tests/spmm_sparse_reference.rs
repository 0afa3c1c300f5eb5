//! `spmm_sparse` against the kernel it replaced, bitwise.
//!
//! [`reference`] is the previous `a · M` kernel, kept unchanged as a
//! test-side reference: every row tracks the columns it touched, and the
//! emitted entries go through a `Coo` round trip. The kernel under test
//! sweeps a row densely when its fanout reaches the result width and
//! tracks it otherwise; the cases below land on both sides of that rule
//! (asserted, not assumed) and must produce the same structure and the
//! same value bits — exact-zero cancellations dropped, `-0.0` sums
//! dropped, empty rows empty.

use mcond_linalg::MatRng;
use mcond_sparse::{spmm_sparse, Coo, Csr};

/// The previous `spmm_sparse`, unchanged but for formatting.
fn reference(a: &Csr, m: &Csr) -> Csr {
    assert!(
        a.cols() <= m.rows(),
        "spmm_sparse: left columns must index the right factor's rows"
    );
    let mut coo = Coo::new(a.rows(), m.cols());
    let mut acc = vec![0f32; m.cols()];
    let mut seen = vec![false; m.cols()];
    let mut touched: Vec<u32> = Vec::new();
    for i in 0..a.rows() {
        if a.row_cols(i).is_empty() {
            continue;
        }
        touched.clear();
        for (&k, &av) in a.row_cols(i).iter().zip(a.row_vals(i)) {
            let k = k as usize;
            for (&c, &mv) in m.row_cols(k).iter().zip(m.row_vals(k)) {
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
                coo.push(i, cu, acc[cu]);
            }
            acc[cu] = 0.0;
            seen[cu] = false;
        }
    }
    coo.to_csr()
}

/// A value palette that makes exact cancellations likely (dyadic values
/// sum exactly) and carries stored `0.0`/`-0.0` entries, plus a
/// continuous draw for ordinary rounding.
fn value(rng: &mut MatRng) -> f32 {
    match rng.index(8) {
        0 => -0.0,
        1 => 0.0,
        2 => 1.0,
        3 => -1.0,
        4 => 0.5,
        5 => -0.5,
        _ => rng.standard_normal(),
    }
}

/// Raw CSR (no `Coo`, so explicit zeros and `-0.0` stay stored) whose row
/// lengths are drawn from `0..=max_row`, about one row in five empty.
fn random_csr(rng: &mut MatRng, rows: usize, cols: usize, max_row: usize) -> Csr {
    let mut indptr = vec![0u64];
    let (mut cs, mut vs) = (Vec::new(), Vec::new());
    for _ in 0..rows {
        let len = if rng.index(5) == 0 {
            0
        } else {
            rng.index(max_row.min(cols) + 1)
        };
        let mut picked = rng.sample_indices(cols, len);
        picked.sort_unstable();
        for c in picked {
            cs.push(c as u32);
            vs.push(value(rng));
        }
        indptr.push(cs.len() as u64);
    }
    Csr::from_raw(rows, cols, indptr, cs, vs)
}

/// Rows of `a` on each side of the rule: (swept, tracked).
fn sides(a: &Csr, m: &Csr) -> (usize, usize) {
    let nnz = m.row_nnz();
    (0..a.rows()).fold((0, 0), |(sweep, track), i| {
        let fanout: usize = a.row_cols(i).iter().map(|&k| nnz[k as usize]).sum();
        if fanout >= m.cols() {
            (sweep + 1, track)
        } else {
            (sweep, track + 1)
        }
    })
}

/// `spmm_sparse(a, m)`, after checking it against the reference.
fn assert_same(a: &Csr, m: &Csr, tag: &str) -> Csr {
    let got = spmm_sparse(a, m);
    let want = reference(a, m);
    assert!(
        got.bit_eq(&want),
        "{tag}: spmm_sparse drifted from the reference"
    );
    assert!(
        (0..got.rows())
            .flat_map(|i| got.row_vals(i))
            .all(|&v| v != 0.0),
        "{tag}: stored a zero"
    );
    got
}

#[test]
fn random_products_match_the_reference_bitwise() {
    for width in [1usize, 8, 39, 64] {
        let (mut swept, mut tracked) = (0, 0);
        for case in 0..40u64 {
            let mut rng = MatRng::seed_from(0x5A5E ^ ((width as u64) << 16) ^ case);
            let k = 20 + rng.index(60);
            let m_row = 1 + rng.index(width);
            let m = random_csr(&mut rng, k, width, m_row);
            // Half the cases are prefix-width: `a` addresses only the
            // first rows of `m`.
            let a_cols = if case % 2 == 0 { k } else { 1 + rng.index(k) };
            let a_row = 1 + rng.index(10);
            let a = random_csr(&mut rng, 30, a_cols, a_row);
            let (s, t) = sides(&a, &m);
            swept += s;
            tracked += t;
            assert_same(&a, &m, &format!("width {width} case {case}"));
        }
        assert!(
            swept > 0 && tracked > 0,
            "width {width}: swept {swept}, tracked {tracked}"
        );
    }
}

/// The original graph's identity mapping (width 2600): ordinary request
/// rows are far narrower than the width and track; one full row sweeps.
#[test]
fn identity_mapping_matches_the_reference_bitwise() {
    let n = 2600;
    let m = Csr::eye(n);
    for case in 0..8u64 {
        let mut rng = MatRng::seed_from(0x1D ^ case);
        let mut a = random_csr(&mut rng, 100, n, 12);
        if case == 0 {
            let full = Csr::from_raw(
                1,
                n,
                vec![0, n as u64],
                (0..n as u32).collect(),
                vec![0.25; n],
            );
            a = a.append_rows(&full);
        }
        let (s, t) = sides(&a, &m);
        assert!(
            t > 0 && (case != 0 || s == 1),
            "case {case}: swept {s}, tracked {t}"
        );
        assert_same(&a, &m, &format!("identity case {case}"));
    }
}

/// Hand-built edge cases on both sides of the rule: a sum that cancels to
/// an exact zero, a sum of `-0.0` products, and structurally empty rows,
/// all of which must leave no stored entry.
#[test]
fn cancellations_and_signed_zeros_are_dropped_on_both_sides() {
    // m: rows 0 and 1 equal, row 2 all `-0.0`, row 3 empty.
    let m = |w: u32| {
        Csr::from_raw(
            4,
            w as usize,
            vec![0, 2, 4, 6, 6],
            vec![0, w - 1, 0, w - 1, 0, w - 1],
            vec![1.5, -2.0, 1.5, -2.0, -0.0, -0.0],
        )
    };
    // a row 0: +m0 - m1 (cancels); row 1: empty; row 2: -0.0·m0 + m2;
    // row 3: m3 only (fanout 0); row 4: m0 + m2 (survives).
    let a = Csr::from_raw(
        5,
        4,
        vec![0, 2, 2, 4, 5, 7],
        vec![0, 1, 0, 2, 3, 0, 2],
        vec![1.0, -1.0, -0.0, 1.0, 1.0, 1.0, 1.0],
    );
    // Widths 2 and 4 sweep rows 0, 2 and 4 (fanout 4); width 100 tracks them.
    for w in [2u32, 4, 100] {
        let m = m(w);
        let got = assert_same(&a, &m, &format!("width {w}"));
        for i in 0..4 {
            assert!(
                got.row_cols(i).is_empty(),
                "width {w}: row {i} kept {:?}",
                got.row_vals(i)
            );
        }
        assert_eq!(got.row_cols(4), &[0, w - 1], "width {w}");
        assert_eq!(got.row_vals(4), &[1.5, -2.0], "width {w}");
    }
}
