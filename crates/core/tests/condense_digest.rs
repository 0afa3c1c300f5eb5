//! Bitwise guard on Algorithm 1: an FNV-1a digest of everything
//! `condense()` returns, pinned for three quick pubmed-small configurations.
//!
//! Kernel rewrites that claim "same bits" (fused tape ops, parallel row
//! passes, branch-free activations) must leave these digests unchanged. The
//! runs pin the scalar SIMD tier, whose kernels do not regroup sums, and
//! repeat at 1 and 4 threads. A deliberate change of the arithmetic (a
//! regrouped float sum) is a re-baseline: recompute the constants and say
//! so in the change log.

use mcond_core::{condense, Condensed, McondConfig};
use mcond_graph::{load_dataset, Scale};
use mcond_linalg::simd::{with_simd_level, SimdLevel};
use mcond_linalg::DMat;
use mcond_sparse::Csr;

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, bytes: [u8; 4]) {
        for b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn len(&mut self, n: usize) {
        self.word((n as u32).to_le_bytes());
    }

    fn floats(&mut self, values: &[f32]) {
        self.len(values.len());
        for v in values {
            self.word(v.to_bits().to_le_bytes());
        }
    }

    fn dense(&mut self, m: &DMat) {
        self.len(m.rows());
        self.len(m.cols());
        self.floats(m.as_slice());
    }

    fn sparse(&mut self, m: &Csr) {
        self.len(m.rows());
        self.len(m.cols());
        self.len(m.nnz());
        for (i, j, v) in m.iter() {
            self.len(i);
            self.len(j);
            self.word(v.to_bits().to_le_bytes());
        }
    }
}

fn digest(c: &Condensed) -> u64 {
    let mut h = Fnv::new();
    h.sparse(&c.synthetic.adj);
    h.dense(&c.synthetic.features);
    h.len(c.synthetic.labels.len());
    for &y in &c.synthetic.labels {
        h.len(y);
    }
    h.sparse(&c.mapping);
    h.dense(&c.dense_adj);
    h.dense(&c.dense_mapping);
    let hist = &c.history;
    for trace in [
        &hist.grad_loss,
        &hist.structure_loss,
        &hist.transductive_loss,
        &hist.inductive_loss,
        &hist.mapping_loss,
    ] {
        h.floats(trace);
    }
    h.0
}

fn quick_cfg() -> McondConfig {
    McondConfig {
        ratio: 0.03,
        outer_loops: 2,
        relay_steps: 4,
        mapping_steps: 6,
        structure_batch: 64,
        support_cap: 24,
        ..McondConfig::default()
    }
}

fn assert_digest(name: &str, cfg: &McondConfig, expected: u64) {
    let data = load_dataset("pubmed", Scale::Small, 0).expect("bundled dataset");
    for threads in [1, 4] {
        let got = with_simd_level(SimdLevel::Scalar, || {
            mcond_par::with_thread_limit(threads, || digest(&condense(&data, cfg)))
        });
        assert_eq!(
            got, expected,
            "{name} at {threads} thread(s): digest {got:#018x}, pinned {expected:#018x}"
        );
    }
}

#[test]
fn full_mcond_digest_is_pinned() {
    assert_digest("full MCond", &quick_cfg(), 0x7626_2855_2f11_d9c2);
}

#[test]
fn row_batched_random_init_digest_is_pinned() {
    let cfg = McondConfig { transductive_batch: 64, class_aware_init: false, ..quick_cfg() };
    assert_digest("transductive_batch 64, random init", &cfg, 0x1626_3bbb_4a73_1bdb);
}

#[test]
fn no_inductive_loss_digest_is_pinned() {
    let cfg = McondConfig { use_inductive_loss: false, ..quick_cfg() };
    assert_digest("no inductive loss", &cfg, 0xb1b1_906b_47aa_a26c);
}
