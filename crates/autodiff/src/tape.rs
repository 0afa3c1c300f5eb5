//! The tape: node storage, op records, and construction primitives.

use crate::gram::GramTarget;
use mcond_linalg::DMat;
use mcond_sparse::Csr;
use std::sync::Arc;

/// Handle to a node on a [`Tape`].
///
/// `Var`s are cheap copyable indices; they are only meaningful with the tape
/// that created them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Var(pub(crate) usize);

/// Operation record for one tape node.
///
/// Each variant stores the *input* node ids plus whatever constant payload
/// the backward pass needs. Heavyweight constants (sparse matrices, index
/// lists, pair samples) are reference-counted so cloning a tape op is cheap.
#[derive(Clone)]
pub(crate) enum Op {
    /// Input: parameter (receives gradient) or constant (does not).
    Leaf,
    /// `A · B`.
    MatMul(usize, usize),
    /// `S · B` with a constant sparse left factor.
    SpMM(Arc<Csr>, usize),
    /// `A + B`.
    Add(usize, usize),
    /// `A ⊙ B`.
    Hadamard(usize, usize),
    /// `c · A`.
    ScaleConst(usize, f32),
    /// `max(A, 0)`.
    Relu(usize),
    /// Logistic sigmoid.
    Sigmoid(usize),
    /// `Aᵀ`.
    Transpose(usize),
    /// `[A; B]` (rows of A on top).
    VStack(usize, usize),
    /// Rows `lo..hi` of `A`.
    SliceRows(usize, usize, usize),
    /// Row gather by index list (duplicates allowed).
    SelectRows(usize, Arc<Vec<usize>>),
    /// `A + 1·bias`: adds a `1 x d` bias row to every row of `A`.
    AddRowBroadcast(usize, usize),
    /// `diag(v) · A` for an `n x 1` column `v`.
    ScaleRows(usize, usize),
    /// Element-wise `x^{-1/2}`, zero where `x <= 0`.
    InvSqrt(usize),
    /// Eq. (15) as one op: `Y_ij = max(σ(X_ij) / Σ_k σ(X_ik) − ε, 0)`
    /// (zero-sum rows are not divided). The cache is `[σ(X) | rowsum]`,
    /// one row per input row; `ε` is not needed by the backward rule.
    SigmoidRowNormalize(usize),
    /// Differentiable `D̃^{-1/2}(A + I)D̃^{-1/2}` on a dense square input.
    SymNormalize(usize),
    /// For `P, Q : n x h`, builds the `n² x h` matrix whose row `i·n + j` is
    /// `P_i + Q_j` — the first MLP_Φ layer of Eq. (6) over every pair.
    PairSum(usize, usize),
    /// For `Z : n² x 1`, builds the `n x n` matrix `(Z_{i·n+j} + Z_{j·n+i})/2`
    /// — the symmetrisation of Eq. (6).
    PairMeanSym(usize),
    /// Scalar softmax cross-entropy of logits vs integer labels (mean over
    /// rows).
    SoftmaxCrossEntropy(usize, Arc<Vec<usize>>),
    /// `(softmax(X) - onehot(labels)) / N` — the *gradient error* matrix `E`
    /// such that the analytic SGC weight gradient is `ZᵀE` (Eq. 4 inner
    /// term).
    SoftmaxError(usize, Arc<Vec<usize>>),
    /// Scalar `Σ_i ‖A_i − B_i‖₂` (Eq. 10 / Eq. 12) with no difference
    /// node; the cache is the per-row norms.
    L21Dist(usize, usize),
    /// Scalar `Σ_i ‖Z_i − M_i H‖₂` from `M` and the target's `d`-free
    /// statistics (Eq. 10), with the per-row norms; the cache is `Q = M G`.
    L21GramDist(usize, Arc<GramTarget>, DMat),
    /// Scalar `Σ_j (1 - cos(A_:j, B_:j))` over columns (Eq. 5).
    CosineColDist(usize, usize),
    /// Scalar binary cross-entropy over sampled node pairs `(i, j, target)`
    /// with logits `H_i · H_j` (Eq. 8 with negative samples).
    PairBce(usize, Arc<Vec<(u32, u32, f32)>>),
}

pub(crate) struct Node {
    /// Shared so a leaf can borrow a matrix its caller keeps; computed
    /// nodes wrap their value once.
    pub value: Arc<DMat>,
    pub op: Op,
    /// Whether any gradient can flow into this node (a parameter, or an op
    /// with at least one grad-requiring input).
    pub requires_grad: bool,
    /// Op-specific forward by-product reused by backward (e.g. softmax).
    pub cache: Option<DMat>,
}

/// A define-by-run computation tape.
///
/// Record operations through the builder methods, then call
/// [`Tape::backward`] on a scalar node. The training loops build one tape
/// per step. Loop-invariant operands are kept in an `Arc<DMat>` by the
/// caller and registered as leaves without a copy; so can a parameter be,
/// when the caller drops the tape before the optimiser mutates it (the
/// mapping `M` is), or else it is copied onto the tape.
#[derive(Default)]
pub struct Tape {
    pub(crate) nodes: Vec<Node>,
}

impl Tape {
    /// An empty tape.
    #[must_use]
    pub fn new() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Drops all nodes, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.nodes.clear();
    }

    /// Number of recorded nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when no nodes are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a trainable leaf; its gradient is produced by
    /// [`Tape::backward`]. An `Arc<DMat>` is shared, not copied.
    pub fn param(&mut self, value: impl Into<Arc<DMat>>) -> Var {
        self.push(value, Op::Leaf, true, None)
    }

    /// Records a constant leaf; no gradient is accumulated for it. An
    /// `Arc<DMat>` is shared, not copied.
    pub fn constant(&mut self, value: impl Into<Arc<DMat>>) -> Var {
        self.push(value, Op::Leaf, false, None)
    }

    /// The forward value of `v`.
    #[must_use]
    pub fn value(&self, v: Var) -> &DMat {
        &self.nodes[v.0].value
    }

    /// Whether a gradient can flow into `v`: it is a parameter, or was
    /// computed from one. A value for which this is `false` is a function
    /// of constants alone.
    #[must_use]
    pub fn requires_grad(&self, v: Var) -> bool {
        self.rg(v.0)
    }

    /// The forward value of a scalar (1×1) node.
    ///
    /// # Panics
    /// Panics when `v` is not 1×1.
    #[must_use]
    pub fn scalar(&self, v: Var) -> f32 {
        let m = self.value(v);
        assert_eq!(m.shape(), (1, 1), "scalar: node is {}x{}", m.rows(), m.cols());
        m.get(0, 0)
    }

    pub(crate) fn push(
        &mut self,
        value: impl Into<Arc<DMat>>,
        op: Op,
        requires_grad: bool,
        cache: Option<DMat>,
    ) -> Var {
        self.nodes.push(Node { value: value.into(), op, requires_grad, cache });
        Var(self.nodes.len() - 1)
    }

    pub(crate) fn rg(&self, id: usize) -> bool {
        self.nodes[id].requires_grad
    }
}
