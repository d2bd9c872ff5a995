//! Generating-function evaluation over and/xor trees (§3.3, Theorem 1).
//!
//! A *variable assignment* maps each leaf (tuple alternative) to one of the
//! formal variables `x`, `y`, or the constant 1 (an arbitrary constant is
//! also allowed for generality). The generating function of the tree is then
//! defined recursively:
//!
//! * a leaf evaluates to its assigned variable;
//! * an ∨ node evaluates to
//!   `(1 − Σ_h p_h) + Σ_h p_h · F_{v_h}` — a probability-weighted mixture of
//!   its children plus the leftover "nothing happens" mass;
//! * an ∧ node evaluates to the product of its children.
//!
//! Theorem 1: the coefficient of `x^i y^j` in the root's polynomial is the
//! total probability of the possible worlds containing exactly `i` leaves
//! assigned `x` and exactly `j` leaves assigned `y`.
//!
//! Both univariate ([`AndXorTree::genfunc1`]) and bivariate
//! ([`AndXorTree::genfunc2`]) evaluation are provided, with optional degree
//! truncation so Top-k computations stay `O(n·k)` instead of `O(n²)`.
//! [`AndXorTree::genfunc_dual`] evaluates the pair `(G(1,y), ∂ₓG(1,y))` of an
//! `x`/`y` assignment as one dual number per node, which is all the Jaccard
//! expectation needs, at univariate cost.

use crate::tree::{AndXorTree, Node, NodeId, NodeKind};
use cpdb_genfunc::{Poly1, Poly2, Truncation};
use cpdb_model::Alternative;

/// The variable assigned to a leaf in a bivariate generating function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum VarAssignment {
    /// The constant 1 — the leaf is ignored.
    One,
    /// The variable `x`.
    X,
    /// The variable `y`.
    Y,
    /// An arbitrary constant (rarely needed; `Constant(1.0)` equals `One`).
    Constant(f64),
}

impl AndXorTree {
    /// Evaluates the univariate generating function in which each leaf is
    /// assigned `x` (when `assign` returns `true`) or the constant 1.
    ///
    /// With `Truncation::Degree(k)`, coefficients above degree `k` are
    /// discarded throughout the computation.
    pub fn genfunc1<F>(&self, trunc: Truncation, mut assign: F) -> Poly1
    where
        F: FnMut(&Alternative) -> bool,
    {
        self.genfunc1_node(self.root(), trunc, &mut assign)
    }

    fn genfunc1_node<F>(&self, id: NodeId, trunc: Truncation, assign: &mut F) -> Poly1
    where
        F: FnMut(&Alternative) -> bool,
    {
        match &self.nodes[id.0] {
            Node::Leaf(a) => {
                if assign(a) {
                    Poly1::x()
                } else {
                    Poly1::constant(1.0)
                }
            }
            Node::Inner { kind, children } => match kind {
                NodeKind::Xor => {
                    let evaluated: Vec<(f64, Poly1)> = children
                        .iter()
                        .map(|(c, p)| (*p, self.genfunc1_node(*c, trunc, assign)))
                        .collect();
                    let mut combined = Poly1::xor_combine(&evaluated);
                    if let Truncation::Degree(k) = trunc {
                        combined.truncate_degree(k);
                    }
                    combined
                }
                NodeKind::And => {
                    let mut acc = Poly1::constant(1.0);
                    for (c, _) in children {
                        let child = self.genfunc1_node(*c, trunc, assign);
                        acc = acc.mul_truncated(&child, trunc);
                    }
                    acc
                }
            },
        }
    }

    /// Evaluates the bivariate generating function under the given leaf →
    /// variable assignment, with independent truncation of the `x` and `y`
    /// degrees.
    pub fn genfunc2<F>(&self, trunc_x: Truncation, trunc_y: Truncation, mut assign: F) -> Poly2
    where
        F: FnMut(&Alternative) -> VarAssignment,
    {
        self.genfunc2_node(self.root(), trunc_x, trunc_y, &mut assign)
    }

    fn genfunc2_node<F>(
        &self,
        id: NodeId,
        trunc_x: Truncation,
        trunc_y: Truncation,
        assign: &mut F,
    ) -> Poly2
    where
        F: FnMut(&Alternative) -> VarAssignment,
    {
        match &self.nodes[id.0] {
            Node::Leaf(a) => match assign(a) {
                VarAssignment::One => Poly2::constant(1.0),
                VarAssignment::X => Poly2::x(),
                VarAssignment::Y => Poly2::y(),
                VarAssignment::Constant(c) => Poly2::constant(c),
            },
            Node::Inner { kind, children } => match kind {
                NodeKind::Xor => {
                    let evaluated: Vec<(f64, Poly2)> = children
                        .iter()
                        .map(|(c, p)| (*p, self.genfunc2_node(*c, trunc_x, trunc_y, assign)))
                        .collect();
                    Poly2::xor_combine(&evaluated)
                }
                NodeKind::And => {
                    // Ping-pong the accumulator through one reusable scratch
                    // polynomial so the ∧ fold allocates O(1) buffers instead
                    // of one per child (bit-identical to the allocating path).
                    let mut acc = Poly2::constant(1.0);
                    let mut scratch = Poly2::zero();
                    for (c, _) in children {
                        let child = self.genfunc2_node(*c, trunc_x, trunc_y, assign);
                        acc.mul_truncated_into(&child, trunc_x, trunc_y, &mut scratch);
                        std::mem::swap(&mut acc, &mut scratch);
                    }
                    acc
                }
            },
        }
    }

    /// Evaluates the bivariate generating function `G(x, y)` of the
    /// assignment "`x` where `in_x` returns `true`, `y` elsewhere" as the
    /// dual number `(G(1,y), ∂ₓG(1,y))`, into `out`'s buffers.
    ///
    /// Setting `x = 1 + ε` with `ε² = 0` turns every node's polynomial into a
    /// pair `(V, D)` of univariate polynomials in `y`:
    ///
    /// * a leaf assigned `x` is `(1, 1)`, a leaf assigned `y` is `(y, 0)`;
    /// * an ∨ node is `(1 − Σ p_h) + Σ p_h·(V_h, D_h)`;
    /// * an ∧ node multiplies its children, `(V,D)·(V',D') = (VV', VD' + DV')`.
    ///
    /// `[yʲ]V = Σᵢ [xⁱyʲ]G` and `[yʲ]D = Σᵢ i·[xⁱyʲ]G`, so every statistic
    /// that is linear in `i` for fixed `j` reads off `(V, D)` without the
    /// `x` dimension: `O(n²)` per evaluation instead of `O(n³)`.
    pub fn genfunc_dual<F>(&self, out: &mut DualGenfunc, mut in_x: F)
    where
        F: FnMut(&Alternative) -> bool,
    {
        let (value, deriv) = self.dual_node(self.root(), &mut in_x, &mut out.pool);
        let old_value = std::mem::replace(&mut out.value, value);
        let old_deriv = std::mem::replace(&mut out.deriv, deriv);
        out.pool.push(old_value);
        out.pool.push(old_deriv);
    }

    fn dual_node<F>(
        &self,
        id: NodeId,
        in_x: &mut F,
        pool: &mut Vec<Vec<f64>>,
    ) -> (Vec<f64>, Vec<f64>)
    where
        F: FnMut(&Alternative) -> bool,
    {
        let mut value = take_buffer(pool);
        let mut deriv = take_buffer(pool);
        match &self.nodes[id.0] {
            Node::Leaf(a) => {
                if in_x(a) {
                    value.push(1.0);
                    deriv.push(1.0);
                } else {
                    value.extend_from_slice(&[0.0, 1.0]);
                }
            }
            Node::Inner {
                kind: NodeKind::Xor,
                children,
            } => {
                value.push(1.0 - children.iter().map(|(_, p)| *p).sum::<f64>());
                for (c, p) in children {
                    let (child_value, child_deriv) = self.dual_node(*c, in_x, pool);
                    add_scaled(&mut value, &child_value, *p);
                    add_scaled(&mut deriv, &child_deriv, *p);
                    pool.push(child_value);
                    pool.push(child_deriv);
                }
            }
            Node::Inner {
                kind: NodeKind::And,
                children,
            } => {
                value.push(1.0);
                let mut next_value = take_buffer(pool);
                let mut next_deriv = take_buffer(pool);
                for (c, _) in children {
                    let (child_value, child_deriv) = self.dual_node(*c, in_x, pool);
                    next_value.clear();
                    convolve_add(&mut next_value, &value, &child_value);
                    next_deriv.clear();
                    convolve_add(&mut next_deriv, &value, &child_deriv);
                    convolve_add(&mut next_deriv, &deriv, &child_value);
                    std::mem::swap(&mut value, &mut next_value);
                    std::mem::swap(&mut deriv, &mut next_deriv);
                    pool.push(child_value);
                    pool.push(child_deriv);
                }
                pool.push(next_value);
                pool.push(next_deriv);
            }
        }
        (value, deriv)
    }

    /// Example 1 of the paper: the distribution of possible-world sizes —
    /// assign `x` to every leaf; the coefficient of `x^i` is `Pr(|pw| = i)`.
    pub fn world_size_distribution(&self) -> Poly1 {
        self.genfunc1(Truncation::None, |_| true)
    }

    /// Example 2 of the paper: the distribution of `|pw ∩ S|` for a leaf
    /// subset `S` described by the predicate.
    pub fn membership_count_distribution<F>(&self, in_subset: F) -> Poly1
    where
        F: FnMut(&Alternative) -> bool,
    {
        let mut f = in_subset;
        self.genfunc1(Truncation::None, |a| f(a))
    }
}

/// The result buffers of [`AndXorTree::genfunc_dual`]: the coefficients of
/// `G(1, y)` and `∂ₓG(1, y)`, plus spare buffers, so that repeated
/// evaluations (one per candidate of a scan) stop allocating once the
/// largest node polynomial has been seen.
///
/// An empty derivative is the zero polynomial: subtrees without an
/// `x`-assigned leaf carry no derivative terms, and the ∧ product skips them.
#[derive(Debug, Clone, Default)]
pub struct DualGenfunc {
    value: Vec<f64>,
    deriv: Vec<f64>,
    pool: Vec<Vec<f64>>,
}

impl DualGenfunc {
    /// Empty buffers; evaluate with [`AndXorTree::genfunc_dual`].
    pub fn new() -> Self {
        Self::default()
    }

    /// The coefficients of `G(1, y)`: index `j` is `Pr(j y-leaves present)`.
    pub fn value(&self) -> &[f64] {
        &self.value
    }

    /// The coefficients of `∂ₓG(1, y)`: index `j` is the expected number of
    /// `x`-leaves present jointly with exactly `j` `y`-leaves. Never longer
    /// than [`DualGenfunc::value`].
    pub fn deriv(&self) -> &[f64] {
        &self.deriv
    }
}

fn take_buffer(pool: &mut Vec<Vec<f64>>) -> Vec<f64> {
    let mut buffer = pool.pop().unwrap_or_default();
    buffer.clear();
    buffer
}

/// `out += s·a`, growing `out` as needed.
fn add_scaled(out: &mut Vec<f64>, a: &[f64], s: f64) {
    if out.len() < a.len() {
        out.resize(a.len(), 0.0);
    }
    for (o, &c) in out.iter_mut().zip(a) {
        *o += s * c;
    }
}

/// `out += a·b` (full product), growing `out` as needed; an empty factor is
/// the zero polynomial. The shorter factor drives the outer loop, so the
/// inner loop runs over the long accumulator.
fn convolve_add(out: &mut Vec<f64>, a: &[f64], b: &[f64]) {
    if a.is_empty() || b.is_empty() {
        return;
    }
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let len = short.len() + long.len() - 1;
    if out.len() < len {
        out.resize(len, 0.0);
    }
    for (i, &c) in short.iter().enumerate() {
        if c == 0.0 {
            continue;
        }
        for (o, &d) in out[i..i + long.len()].iter_mut().zip(long) {
            *o += c * d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::AndXorTreeBuilder;
    use cpdb_genfunc::approx_eq;
    use cpdb_model::WorldModel;

    fn independent_tree(probs: &[f64]) -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for (i, &p) in probs.iter().enumerate() {
            let leaf = b.leaf_parts(i as u64, i as f64 * 10.0);
            xors.push(b.xor_node(vec![(leaf, p)]));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    #[test]
    fn world_size_distribution_of_independent_tuples() {
        let tree = independent_tree(&[0.5, 0.5, 0.5]);
        let dist = tree.world_size_distribution();
        // Binomial(3, 0.5).
        let expected = [0.125, 0.375, 0.375, 0.125];
        for (i, e) in expected.iter().enumerate() {
            assert!(approx_eq(dist.coeff(i), *e), "i={i}");
        }
        assert!(approx_eq(dist.total_mass(), 1.0));
    }

    #[test]
    fn size_distribution_matches_enumeration() {
        let mut b = AndXorTreeBuilder::new();
        let a1 = b.leaf_parts(1, 1.0);
        let a2 = b.leaf_parts(1, 2.0);
        let x1 = b.xor_node(vec![(a1, 0.3), (a2, 0.2)]);
        let l2 = b.leaf_parts(2, 3.0);
        let l3 = b.leaf_parts(3, 4.0);
        let and23 = b.and_node(vec![l2, l3]);
        let x2 = b.xor_node(vec![(and23, 0.6)]);
        let root = b.and_node(vec![x1, x2]);
        let tree = b.build(root).unwrap();

        let dist = tree.world_size_distribution();
        let ws = tree.enumerate_worlds();
        for size in 0..=3usize {
            let brute: f64 = ws
                .worlds()
                .iter()
                .filter(|(w, _)| w.len() == size)
                .map(|(_, p)| *p)
                .sum();
            assert!(
                approx_eq(dist.coeff(size), brute),
                "size {size}: genfunc {} vs enumeration {brute}",
                dist.coeff(size)
            );
        }
    }

    #[test]
    fn membership_count_matches_enumeration() {
        let tree = independent_tree(&[0.9, 0.4, 0.6, 0.2]);
        let subset = |a: &Alternative| a.key.0.is_multiple_of(2);
        let dist = tree.membership_count_distribution(subset);
        let ws = tree.enumerate_worlds();
        for count in 0..=2usize {
            let brute: f64 = ws
                .worlds()
                .iter()
                .filter(|(w, _)| {
                    w.alternatives().iter().filter(|a| a.key.0 % 2 == 0).count() == count
                })
                .map(|(_, p)| *p)
                .sum();
            assert!(approx_eq(dist.coeff(count), brute), "count {count}");
        }
    }

    #[test]
    fn truncated_genfunc_matches_full_prefix() {
        let tree = independent_tree(&[0.2, 0.3, 0.4, 0.5, 0.6]);
        let full = tree.genfunc1(Truncation::None, |_| true);
        let trunc = tree.genfunc1(Truncation::Degree(2), |_| true);
        for i in 0..=2 {
            assert!(approx_eq(full.coeff(i), trunc.coeff(i)), "i={i}");
        }
        assert!(trunc.len() <= 3);
    }

    #[test]
    fn bivariate_split_matches_univariate_marginals() {
        let tree = independent_tree(&[0.5, 0.25, 0.75]);
        // x for key 0, y for key 2, constant for key 1.
        let g2 = tree.genfunc2(Truncation::None, Truncation::None, |a| match a.key.0 {
            0 => VarAssignment::X,
            2 => VarAssignment::Y,
            _ => VarAssignment::One,
        });
        // Coefficient of x^1 y^1 should be 0.5 * 0.75.
        assert!(approx_eq(g2.coeff(1, 1), 0.375));
        assert!(approx_eq(g2.coeff(0, 0), 0.5 * 0.25));
        assert!(approx_eq(g2.total_mass(), 1.0));
        // Marginalising y reproduces the membership count of {key 0}.
        let marg = g2.marginal_x();
        let direct = tree.membership_count_distribution(|a| a.key.0 == 0);
        for i in 0..2 {
            assert!(approx_eq(marg.coeff(i), direct.coeff(i)));
        }
    }

    #[test]
    fn dual_genfunc_is_the_x_derivative_of_the_bivariate_one_at_x_1() {
        // Two alternatives of key 1 under one ∨ (one in x, one in y), an ∧
        // bundle under a sub-unit ∨, and a certain leaf.
        let mut b = AndXorTreeBuilder::new();
        let a1 = b.leaf_parts(1, 1.0);
        let a2 = b.leaf_parts(1, 2.0);
        let x1 = b.xor_node(vec![(a1, 0.3), (a2, 0.5)]);
        let l2 = b.leaf_parts(2, 3.0);
        let l3 = b.leaf_parts(3, 4.0);
        let and23 = b.and_node(vec![l2, l3]);
        let x2 = b.xor_node(vec![(and23, 0.6)]);
        let l4 = b.leaf_parts(4, 5.0);
        let root = b.and_node(vec![x1, x2, l4]);
        let tree = b.build(root).unwrap();

        let in_x = |a: &Alternative| a.value.0 == 1.0 || a.key.0 == 3;
        let g2 = tree.genfunc2(Truncation::None, Truncation::None, |a| {
            if in_x(a) {
                VarAssignment::X
            } else {
                VarAssignment::Y
            }
        });
        let mut dual = DualGenfunc::new();
        // Evaluate twice: the second pass runs on recycled buffers.
        for _ in 0..2 {
            tree.genfunc_dual(&mut dual, in_x);
            assert!(dual.deriv().len() <= dual.value().len());
            for j in 0..g2.cols().max(dual.value().len()) {
                let value: f64 = (0..g2.rows()).map(|i| g2.coeff(i, j)).sum();
                let deriv: f64 = (0..g2.rows()).map(|i| i as f64 * g2.coeff(i, j)).sum();
                let got_value = dual.value().get(j).copied().unwrap_or(0.0);
                let got_deriv = dual.deriv().get(j).copied().unwrap_or(0.0);
                assert!(approx_eq(got_value, value), "[y^{j}] G(1,y)");
                assert!(approx_eq(got_deriv, deriv), "[y^{j}] ∂ₓG(1,y)");
            }
        }

        // With no x-leaf the derivative is the (empty) zero polynomial.
        tree.genfunc_dual(&mut dual, |_| false);
        assert!(dual.deriv().is_empty());
        assert!(approx_eq(dual.value().iter().sum(), 1.0));
    }

    #[test]
    fn constant_assignment_scales_mass() {
        let tree = independent_tree(&[1.0]);
        let g = tree.genfunc2(Truncation::None, Truncation::None, |_| {
            VarAssignment::Constant(0.0)
        });
        // The only leaf always appears and contributes factor 0.
        assert!(approx_eq(g.total_mass(), 0.0));
    }
}
