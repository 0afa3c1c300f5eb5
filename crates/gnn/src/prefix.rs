//! The base prefix: what a served forward pass computes on the base rows
//! before any propagation reaches them.
//!
//! A request changes the extended graph, so every value a `prop` reaches
//! is computed per request. A value no `prop` reaches is a dense op chain
//! over the input alone, and its base rows read only the base features
//! and the parameters: GCN's `X'W₀`, the self term `X'W₀` of SAGE and
//! Cheby, APPNP's MLP `H₀` and its teleport `αH₀` (SGC propagates its
//! input first and has none). [`BasePrefix::new`] runs `GnnModel::run`
//! once over the base rows, computing those values only, and keeps each
//! one a request reads — the operand of a `prop`, or of a dense op whose
//! other operand a `prop` reached. A site is the `n`-th such value the
//! program makes; [`GnnModel::predict_split`] counts them the same way
//! and reads a kept site instead of computing it, the same op on the same
//! operands, so the logits keep their bits. Nothing here knows an
//! architecture: which sites exist is the program's dataflow.

use crate::model::{input, into_dmat, made, Evaluator, Kernel, Mat, Mats, Rows};
use crate::GnnModel;
use mcond_linalg::DMat;
use std::rc::Rc;

/// The base rows of every value of a model's forward pass that no
/// propagation reaches, computed once per `(model, base features)` pair
/// and read by every [`GnnModel::predict_split`] over that base. Derived,
/// never stored: a server builds it at construction.
pub struct BasePrefix {
    rows: usize,
    /// Every value no `prop` reaches, in the order the program makes
    /// them: its base rows where a request reads them.
    sites: Vec<Option<DMat>>,
}

impl BasePrefix {
    /// Runs `model`'s program over the base features `x_base` alone,
    /// keeping the base rows of each value no propagation reaches and
    /// something request-dependent reads.
    ///
    /// # Panics
    /// Panics when `x_base` is not as wide as the model's input weight.
    #[must_use]
    pub fn new(model: &GnnModel, x_base: &DMat) -> Self {
        let mut record = Record { sites: Vec::new() };
        model.run(&mut record, model.params(), Some((None, input(x_base))));
        let sites = record.sites.into_iter().map(|s| s.map(into_dmat)).collect();
        Self { rows: x_base.rows(), sites }
    }

    /// Number of base rows the prefix was computed on.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The kept base halves, in site order.
    pub fn kept(&self) -> impl Iterator<Item = &DMat> {
        self.sites.iter().flatten()
    }

    /// Number of sites, kept or not.
    pub(crate) fn len(&self) -> usize {
        self.sites.len()
    }

    /// Site `i`'s base rows, `None` when nothing reads them.
    ///
    /// # Panics
    /// Panics when the program makes more sites than the prefix has: it
    /// was built for another model.
    pub(crate) fn site(&self, i: usize) -> Option<&DMat> {
        self.sites.get(i).expect("predict_split: prefix built for another model").as_ref()
    }
}

/// A value of [`Record`]: its base rows and the site that made them
/// (`None`: the input) while no `prop` reaches it, else `None`.
type Pure<'a> = Option<(Option<usize>, Mat<'a>)>;

/// [`BasePrefix::new`]: the program over the base rows, computing nothing
/// a `prop` reaches.
struct Record<'a> {
    sites: Vec<Option<Mat<'a>>>,
}

impl<'a> Record<'a> {
    /// A value no `prop` reaches, made at the next site.
    fn site(&mut self, m: DMat) -> Pure<'a> {
        self.sites.push(None);
        Some((Some(self.sites.len() - 1), made(m)))
    }

    /// Something request-dependent reads `v`: keep its base rows (the
    /// caller passes the input's).
    fn read(&mut self, v: &Pure<'a>) {
        if let Some((Some(site), m)) = v {
            self.sites[*site] = Some(Rc::clone(m));
        }
    }
}

impl<'a> Evaluator for Record<'a> {
    type V = Pure<'a>;
    fn prop(&mut self, _: Kernel, v: &Pure<'a>, _: Rows) -> Pure<'a> {
        self.read(v);
        None
    }
    fn output_rows(&mut self, _: &Pure<'a>) -> Pure<'a> {
        None
    }
}

impl<'a> Mats for Record<'a> {
    fn map(&mut self, v: &Pure<'a>, f: impl Fn(&DMat) -> DMat) -> Pure<'a> {
        let (_, m) = v.as_ref()?;
        self.site(f(m))
    }
    fn zip(&mut self, a: &Pure<'a>, b: &Pure<'a>, f: impl Fn(&DMat, &DMat) -> DMat) -> Pure<'a> {
        if let (Some((_, x)), Some((_, y))) = (a, b) {
            return self.site(f(x, y));
        }
        self.read(a);
        self.read(b);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GnnKind;
    use mcond_linalg::MatRng;

    /// Which base halves each architecture keeps (7 base rows, 4
    /// features, hidden 6, 3 classes): the values no `prop` reaches that a
    /// request reads, and nothing else.
    #[test]
    fn each_architecture_keeps_the_values_no_propagation_reaches() {
        let x_base = MatRng::seed_from(3).normal(7, 4, 0.0, 1.0);
        for (kind, hops, kept) in [
            (GnnKind::Sgc, 2, vec![]),
            (GnnKind::Gcn, 2, vec![(7, 6)]),
            (GnnKind::Sage, 2, vec![(7, 6)]),
            (GnnKind::Cheby, 2, vec![(7, 6)]),
            // H₀ = MLP(X'), read by the first hop; αH₀, added after it.
            (GnnKind::Appnp, 2, vec![(7, 3), (7, 3)]),
            // One hop: the teleport is only ever added to output rows.
            (GnnKind::Appnp, 1, vec![(7, 3)]),
            (GnnKind::Appnp, 0, vec![]),
        ] {
            let mut model = GnnModel::new(kind, 4, 6, 3, 5);
            model.hops = hops;
            let prefix = BasePrefix::new(&model, &x_base);
            let shapes: Vec<_> = prefix.kept().map(DMat::shape).collect();
            assert_eq!(shapes, kept, "{} hops={hops}", kind.name());
            assert_eq!(prefix.rows(), 7);
        }
        // GCN's one site is X'W₀ itself.
        let gcn = GnnModel::new(GnnKind::Gcn, 4, 6, 3, 5);
        let kept: Vec<_> = BasePrefix::new(&gcn, &x_base).kept().cloned().collect();
        assert_eq!(kept, vec![x_base.matmul(&gcn.params()[0])]);
    }

    #[test]
    #[should_panic(expected = "prefix built on another base")]
    fn a_prefix_refuses_a_base_of_another_row_count() {
        use crate::{BaseDegrees, GraphOps};
        use mcond_sparse::Csr;
        let model = GnnModel::new(GnnKind::Gcn, 4, 6, 3, 5);
        let mut rng = MatRng::seed_from(4);
        let prefix = BasePrefix::new(&model, &rng.normal(7, 4, 0.0, 1.0));
        let (base, inc, inter) = (Csr::eye(8), Csr::empty(1, 8), Csr::empty(1, 1));
        let deg = BaseDegrees::of(&base);
        let ops = GraphOps::extended(&base, &inc, &inter, &deg);
        let x_base = rng.normal(8, 4, 0.0, 1.0);
        let _ = model.predict_split(&ops, &prefix, &x_base, &rng.normal(1, 4, 0.0, 1.0));
    }
}
