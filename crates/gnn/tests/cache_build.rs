//! `FrozenBase::new` propagates between sites only: the product of the
//! last site's operand feeds nothing, so it is never computed.
//!
//! Alone in its test binary because it reads process-wide kernel counters.

use mcond_gnn::{FrozenBase, GnnKind, GnnModel};
use mcond_linalg::MatRng;
use mcond_sparse::{sym_normalize, Coo};

#[test]
fn cache_build_runs_one_spmm_fewer_than_it_has_sites() {
    mcond_obs::enable_metrics();
    let mut ring = Coo::new(9, 9);
    for i in 0..9 {
        ring.push_sym(i, (i + 1) % 9, 1.0);
    }
    let adj = ring.to_csr();
    let x = MatRng::seed_from(3).normal(9, 4, 0.0, 1.0);
    let sym_nnz = sym_normalize(&adj).nnz() as u64;
    let spmm_nnz = || mcond_obs::snapshot().counter("sparse.spmm.nnz");
    for kind in GnnKind::ALL {
        for hops in 1..=3 {
            let mut model = GnnModel::new(kind, 4, 6, 3, 1);
            model.hops = hops;
            let before = spmm_nnz();
            let frozen = FrozenBase::new(&model, &adj, &x);
            // SAGE propagates with the mean kernel, which has no self-loops.
            let per_spmm = if kind == GnnKind::Sage { adj.nnz() as u64 } else { sym_nnz };
            assert_eq!(
                spmm_nnz() - before,
                (frozen.sites() as u64 - 1) * per_spmm,
                "{} hops={hops}: {} sites",
                kind.name(),
                frozen.sites()
            );
        }
    }
}
