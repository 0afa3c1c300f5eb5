//! The shared operand of [`Tape::l21_gram_dist`](crate::Tape::l21_gram_dist).

use mcond_linalg::DMat;
use std::sync::Arc;

/// A target `Z` (`N x d`) as seen through a fixed `H` (`N' x d`): the
/// statistics `P = Z Hᵀ` (`N x N'`), `G = H Hᵀ` (`N' x N'`) and `‖Z_i‖²`,
/// with which `‖Z_i − M_i H‖² = ‖Z_i‖² − 2 M_i·P_i + M_i G M_iᵀ` needs no
/// `d`-wide work. Built once for as long as `Z` and `H` stay fixed.
pub struct GramTarget {
    pub(crate) cross: DMat,
    pub(crate) gram: Arc<DMat>,
    pub(crate) sq_norms: Vec<f32>,
}

impl GramTarget {
    /// The statistics of `z` against `h`.
    ///
    /// # Panics
    /// Panics when `z` and `h` differ in width.
    #[must_use]
    pub fn new(z: &DMat, h: &DMat) -> Self {
        assert_eq!(z.cols(), h.cols(), "GramTarget::new: z and h differ in width");
        let sq_norms = (0..z.rows()).map(|i| z.row(i).iter().map(|v| v * v).sum()).collect();
        Self { cross: z.matmul_nt(h), gram: Arc::new(h.matmul_nt(h)), sq_norms }
    }

    /// The target restricted to rows `ids` of `Z` (duplicates allowed);
    /// `G` is shared, not copied.
    #[must_use]
    pub fn select_rows(&self, ids: &[usize]) -> Self {
        Self {
            cross: self.cross.select_rows(ids),
            gram: Arc::clone(&self.gram),
            sq_norms: ids.iter().map(|&i| self.sq_norms[i]).collect(),
        }
    }

    /// Number of target rows `N`.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.cross.rows()
    }
}
