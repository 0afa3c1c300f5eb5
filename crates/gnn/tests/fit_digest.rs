//! Bitwise guard on `train()`: an FNV-1a digest of a fit's parameters and
//! loss trace, pinned for an SGC fit (the calibration and Whole-model fit)
//! and a GCN fit (the architecture the served models train with) on the
//! pubmed-small training graph.
//!
//! A change to how a fit is evaluated that claims the same bits (reusing
//! the propagation of the constant features across epochs, say) must
//! leave these alone. The runs pin the scalar SIMD tier and repeat at 1
//! and 4 threads, as `mcond-core`'s `condense_digest` does.

use mcond_gnn::{train, GnnKind, GnnModel, GraphOps, TrainConfig};
use mcond_graph::{load_dataset, Scale};
use mcond_linalg::simd::{with_simd_level, SimdLevel};

/// 64-bit FNV-1a over the little-endian bits of `f32` words.
fn fnv(words: impl IntoIterator<Item = f32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn fit_digest(kind: GnnKind, hidden: usize, epochs: usize) -> u64 {
    let data = load_dataset("pubmed", Scale::Small, 0).expect("bundled dataset");
    let g = data.original_graph();
    let ops = GraphOps::from_adj(&g.adj);
    let cfg = TrainConfig { epochs, lr: 0.03, ..TrainConfig::default() };
    let mut model = GnnModel::new(kind, g.feature_dim(), hidden, g.num_classes, 0);
    let report = train(&mut model, &ops, &g.features, &g.labels, &cfg, None);
    let params = model.params().iter().flat_map(|p| p.as_slice().iter().copied());
    fnv(params.chain(report.losses))
}

fn assert_fit_digest(kind: GnnKind, hidden: usize, epochs: usize, expected: u64) {
    for threads in [1, 4] {
        let got = with_simd_level(SimdLevel::Scalar, || {
            mcond_par::with_thread_limit(threads, || fit_digest(kind, hidden, epochs))
        });
        assert_eq!(
            got,
            expected,
            "{} at {threads} thread(s): digest {got:#018x}, pinned {expected:#018x}",
            kind.name()
        );
    }
}

#[test]
fn sgc_fit_digest_is_pinned() {
    assert_fit_digest(GnnKind::Sgc, 0, 40, 0xf77d_e0c0_5446_549b);
}

#[test]
fn gcn_fit_digest_is_pinned() {
    assert_fit_digest(GnnKind::Gcn, 64, 20, 0x51b2_ead0_9d50_eba1);
}
