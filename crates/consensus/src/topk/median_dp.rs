//! Median Top-k answer under the symmetric-difference metric (§5.2, Thm 4).
//!
//! The *median* answer must be the Top-k answer of some possible world. From
//! the proof of Theorem 3, minimising `E[d_Δ(τ, τ_pw)]` over candidates of
//! size `|τ|` amounts to maximising `Σ_{t ∈ τ} (Pr(r(t) ≤ k) − ½)`, so the
//! median answer is the possible Top-k answer maximising that sum.
//!
//! The paper's algorithm (Theorem 4) enumerates score thresholds `a`: a set
//! `S` of `k` tuples all scoring `≥ a` is the Top-k answer of some possible
//! world exactly when `S` is a possible world of the tree *restricted to
//! leaves with score ≥ a* and has size exactly `k`. For each threshold a
//! knapsack-style dynamic program over the tree computes, for every node and
//! every size `i ≤ k`, the best achievable `Σ P(t)` over worlds of that size
//! generated by the (restricted) subtree; the best root entry of size `k`
//! over all thresholds is the median answer.
//!
//! Worlds with fewer than `k` tuples are handled by additionally considering,
//! at the no-restriction threshold, root entries of every size `i < k`
//! (such a world *is* its own Top-k answer), scored with the size-aware
//! objective `Σ (P(t) − ½)`.
//!
//! Only the winning cell needs a witness set. So the threshold scan runs a
//! *value-only* DP: the tree is flattened once per query into a program of
//! table pushes and folds (each leaf's `P(t)` looked up once), and every
//! threshold replays it over one flat `f64` stack of tables whose buffers
//! are reused across nodes and thresholds. It performs the same float
//! additions and strict `>` comparisons in the same order as the witness DP
//! (`subtree_dp`), so it picks the same threshold and size; the witness DP
//! then runs once, for that threshold, and yields the same key set the
//! all-thresholds witness scan would. Answers are bit-identical to that
//! scan, without its per-cell `Vec<TupleKey>` clones.

use super::context::TopKContext;
use cpdb_andxor::{AndXorTree, NodeId, NodeKind};
use cpdb_model::TupleKey;
use cpdb_rankagg::TopKList;

/// One witness-DP cell: the best achievable objective and the witnessing
/// set of tuple keys, for a fixed subtree and a fixed world size.
type Cell = Option<(f64, Vec<TupleKey>)>;

/// The profit of a cell no world of the subtree reaches. Reachable profits
/// are finite sums of probabilities, so `profit > UNREACHABLE` holds exactly
/// for the cells the witness DP holds as `Some`.
const UNREACHABLE: f64 = f64::NEG_INFINITY;

/// The median Top-k answer under the symmetric-difference metric, together
/// with its exact expected distance.
#[derive(Debug, Clone, PartialEq)]
pub struct MedianTopK {
    /// The selected answer (ordered by decreasing `Pr(r(t) ≤ k)`).
    pub answer: TopKList,
    /// Its exact expected normalised symmetric-difference distance.
    pub expected_distance: f64,
}

/// Theorem 4: computes the median Top-k answer of an and/xor tree in
/// polynomial time.
pub fn median_topk_sym_diff(tree: &AndXorTree, ctx: &TopKContext) -> MedianTopK {
    let k = ctx.k();
    let mut thresholds = tree.distinct_values();
    // Highest thresholds first is conventional; order does not matter.
    thresholds.reverse();

    let program = ValueProgram::compile(tree, ctx, k);
    let mut dp = ValueDp::default();
    // The best candidate so far: its objective, and the threshold and size
    // whose root cell holds it.
    let mut best: Option<(f64, Option<f64>, usize)> = None;
    let mut consider = |profit: f64, threshold: Option<f64>, size: usize| {
        if profit > UNREACHABLE {
            let objective = profit - 0.5 * size as f64;
            if best.is_none_or(|(b, _, _)| objective > b) {
                best = Some((objective, threshold, size));
            }
        }
    };
    // Candidate Top-k answers of size exactly k, one DP per threshold.
    for &a in &thresholds {
        if let Some(&profit) = dp.run(&program, Some(a)).get(k) {
            consider(profit, Some(a), k);
        }
    }
    // Candidate answers that are entire (small) worlds of size < k.
    if k > 0 {
        for (size, &profit) in dp.run(&program, None).iter().enumerate().take(k) {
            consider(profit, None, size);
        }
    }

    // One witness pass, for the winning threshold and size only.
    let mut keys = best
        .and_then(|(_, threshold, size)| {
            subtree_dp(tree, tree.root(), ctx, k, threshold)
                .into_iter()
                .nth(size)
                .flatten()
        })
        .map_or_else(Vec::new, |(_, keys)| keys);
    keys.sort_by(|a, b| {
        ctx.topk_probability(*b)
            .partial_cmp(&ctx.topk_probability(*a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.cmp(b))
    });
    let answer = TopKList::from_ranked(keys.iter().map(|t| t.0));
    let expected_distance = super::sym_diff::expected_sym_diff_distance(ctx, &answer);
    MedianTopK {
        answer,
        expected_distance,
    }
}

/// One instruction of the value DP: the tree flattened in the order
/// [`subtree_dp`] visits it, with each leaf's score and `Pr(r(t) ≤ k)`
/// looked up once per query rather than once per threshold. Each node's
/// table has `width` cells, sizes `0..width`; no world of the subtree is
/// larger than its leaf count, so wider cells would never be reached.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Push a leaf's table (width `min(k, 1) + 1`).
    Leaf { value: f64, profit: f64 },
    /// Push an ∨ node's table; the empty world is reachable when the node
    /// keeps leftover mass.
    Xor { width: usize, empty: bool },
    /// Push an ∧ node's table, holding only the empty world.
    And { width: usize },
    /// Pop the top table into the ∨ table beneath it (cellwise strict max).
    XorFold,
    /// Pop the top table into the ∧ table beneath it (knapsack product).
    AndFold,
}

/// The flattened tree of [`Step`]s, compiled once per query.
struct ValueProgram {
    steps: Vec<Step>,
    /// `min(k, 1) + 1`: a leaf reaches size 1 only when `k ≥ 1`.
    leaf_width: usize,
}

impl ValueProgram {
    fn compile(tree: &AndXorTree, ctx: &TopKContext, k: usize) -> Self {
        let mut steps = Vec::with_capacity(2 * tree.node_count());
        Self::compile_node(tree, tree.root(), ctx, k, &mut steps);
        ValueProgram {
            steps,
            leaf_width: k.min(1) + 1,
        }
    }

    /// Appends the steps of the subtree at `node`; returns its table width.
    fn compile_node(
        tree: &AndXorTree,
        node: NodeId,
        ctx: &TopKContext,
        k: usize,
        steps: &mut Vec<Step>,
    ) -> usize {
        if let Some(alt) = tree.leaf_alternative(node) {
            steps.push(Step::Leaf {
                value: alt.value.0,
                profit: ctx.topk_probability(alt.key),
            });
            return k.min(1) + 1;
        }
        let children = tree.children(node);
        let open = steps.len();
        if tree.node_kind(node) == Some(NodeKind::Xor) {
            let leftover: f64 = 1.0 - children.iter().map(|(_, p)| *p).sum::<f64>();
            let empty = leftover > 1e-12;
            steps.push(Step::Xor { width: 1, empty });
            let mut width = 1;
            for (child, p) in children {
                if *p <= 0.0 {
                    continue;
                }
                width = width.max(Self::compile_node(tree, *child, ctx, k, steps));
                steps.push(Step::XorFold);
            }
            steps[open] = Step::Xor { width, empty };
            width
        } else {
            steps.push(Step::And { width: 1 });
            let mut largest = 0;
            for (child, _) in children {
                largest += Self::compile_node(tree, *child, ctx, k, steps) - 1;
                steps.push(Step::AndFold);
            }
            let width = largest.min(k) + 1;
            steps[open] = Step::And { width };
            width
        }
    }
}

/// The value DP's buffers, reused across nodes and thresholds: one flat
/// stack of tables, their start offsets, and the knapsack's output row.
#[derive(Debug, Default)]
struct ValueDp {
    cells: Vec<f64>,
    frames: Vec<usize>,
    next: Vec<f64>,
}

impl ValueDp {
    /// Runs the program under a score threshold and returns the root table:
    /// cell `i` is the best `Σ Pr(r(t) ≤ k)` over size-`i` worlds of the
    /// restricted tree, or [`UNREACHABLE`]. The profits, and the strict `>`
    /// comparisons that pick them, are those of [`subtree_dp`], in its
    /// order; only the witness sets are left out.
    fn run(&mut self, program: &ValueProgram, threshold: Option<f64>) -> &[f64] {
        self.cells.clear();
        self.frames.clear();
        for step in &program.steps {
            match *step {
                Step::Leaf { value, profit } => {
                    let start = self.push(program.leaf_width);
                    if threshold.is_none_or(|a| value >= a) {
                        // A leaf that survives the restriction always
                        // materialises, so size 0 is unreachable from it.
                        if program.leaf_width > 1 {
                            self.cells[start + 1] = profit;
                        }
                    } else {
                        // Restricted away: contributes the empty set.
                        self.cells[start] = 0.0;
                    }
                }
                Step::Xor { width, empty } => {
                    let start = self.push(width);
                    if empty {
                        self.cells[start] = 0.0;
                    }
                }
                Step::And { width } => {
                    let start = self.push(width);
                    self.cells[start] = 0.0;
                }
                Step::XorFold => {
                    let (parent, child) = self.pop();
                    let (table, child_table) = self.cells.split_at_mut(child);
                    for (cell, &profit) in table[parent..].iter_mut().zip(child_table.iter()) {
                        if profit > *cell {
                            *cell = profit;
                        }
                    }
                    self.cells.truncate(child);
                }
                Step::AndFold => {
                    let (parent, child) = self.pop();
                    let (table, child_table) = self.cells.split_at(child);
                    let table = &table[parent..];
                    self.next.clear();
                    self.next.resize(table.len(), UNREACHABLE);
                    for (i, &profit_a) in table.iter().enumerate() {
                        if profit_a == UNREACHABLE {
                            continue;
                        }
                        let fits = table.len() - i;
                        for (j, &profit_b) in child_table.iter().take(fits).enumerate() {
                            if profit_b == UNREACHABLE {
                                continue;
                            }
                            let profit = profit_a + profit_b;
                            if profit > self.next[i + j] {
                                self.next[i + j] = profit;
                            }
                        }
                    }
                    self.cells[parent..child].copy_from_slice(&self.next);
                    self.cells.truncate(child);
                }
            }
        }
        &self.cells
    }

    /// Pushes a table of `width` unreachable cells; returns its offset.
    fn push(&mut self, width: usize) -> usize {
        let start = self.cells.len();
        self.frames.push(start);
        self.cells.resize(start + width, UNREACHABLE);
        start
    }

    /// Pops the top table's frame: returns the offsets of the table beneath
    /// it and of the popped table.
    fn pop(&mut self) -> (usize, usize) {
        let child = self.frames.pop().unwrap_or_default();
        let parent = self.frames.last().copied().unwrap_or_default();
        (parent, child)
    }
}

/// Dynamic program over the subtree rooted at `node`, restricted to leaves
/// with score `≥ threshold` (no restriction when `threshold` is `None`).
/// Returns, for each size `0 ≤ i ≤ k`, the best `Σ Pr(r(t) ≤ k)` over worlds
/// of exactly that size generated by the restricted subtree, with a
/// witnessing key set (or `None` when no such world exists).
fn subtree_dp(
    tree: &AndXorTree,
    node: NodeId,
    ctx: &TopKContext,
    k: usize,
    threshold: Option<f64>,
) -> Vec<Cell> {
    let mut table: Vec<Cell> = vec![None; k + 1];
    if let Some(alt) = tree.leaf_alternative(node) {
        let included = threshold.is_none_or(|a| alt.value.0 >= a);
        if included {
            if k >= 1 {
                table[1] = Some((ctx.topk_probability(alt.key), vec![alt.key]));
            }
            // A leaf that survives the restriction always materialises, so
            // size 0 is unreachable from it.
        } else {
            // Restricted away: contributes the empty set.
            table[0] = Some((0.0, Vec::new()));
        }
    } else if tree.node_kind(node) == Some(NodeKind::Xor) {
        let children = tree.children(node);
        let leftover: f64 = 1.0 - children.iter().map(|(_, p)| *p).sum::<f64>();
        if leftover > 1e-12 {
            table[0] = Some((0.0, Vec::new()));
        }
        for (child, p) in children {
            if *p <= 0.0 {
                continue;
            }
            let child_table = subtree_dp(tree, *child, ctx, k, threshold);
            for (i, cell) in child_table.into_iter().enumerate() {
                if let Some((profit, keys)) = cell {
                    if table[i]
                        .as_ref()
                        .is_none_or(|(existing, _)| profit > *existing)
                    {
                        table[i] = Some((profit, keys));
                    }
                }
            }
        }
    } else {
        // ∧: knapsack combination of the children.
        table[0] = Some((0.0, Vec::new()));
        for (child, _) in tree.children(node) {
            let child_table = subtree_dp(tree, *child, ctx, k, threshold);
            let mut next: Vec<Cell> = vec![None; k + 1];
            for (i, cell) in table.iter().enumerate() {
                let Some((profit_a, keys_a)) = cell else {
                    continue;
                };
                for (j, child_cell) in child_table.iter().enumerate() {
                    if i + j > k {
                        break;
                    }
                    let Some((profit_b, keys_b)) = child_cell else {
                        continue;
                    };
                    let profit = profit_a + profit_b;
                    if next[i + j]
                        .as_ref()
                        .is_none_or(|(existing, _)| profit > *existing)
                    {
                        let mut keys = keys_a.clone();
                        keys.extend_from_slice(keys_b);
                        next[i + j] = Some((profit, keys));
                    }
                }
            }
            table = next;
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use cpdb_andxor::figure1::figure1_correlated_tree;
    use cpdb_andxor::AndXorTreeBuilder;
    use cpdb_model::WorldModel;

    fn independent_tree(specs: &[(u64, f64, f64)]) -> AndXorTree {
        let mut b = AndXorTreeBuilder::new();
        let mut xors = Vec::new();
        for &(key, score, p) in specs {
            let l = b.leaf_parts(key, score);
            xors.push(b.xor_node(vec![(l, p)]));
        }
        let root = b.and_node(xors);
        b.build(root).unwrap()
    }

    /// The all-thresholds scan that carries a witness key set in every DP
    /// cell: the reference [`median_topk_sym_diff`] must reproduce bit for
    /// bit.
    fn median_topk_sym_diff_reference(tree: &AndXorTree, ctx: &TopKContext) -> MedianTopK {
        let k = ctx.k();
        let mut thresholds = tree.distinct_values();
        thresholds.reverse();

        let mut best: Option<(f64, Vec<TupleKey>)> = None;
        for &a in &thresholds {
            let table = subtree_dp(tree, tree.root(), ctx, k, Some(a));
            if let Some((profit, keys)) = &table[k] {
                let objective = profit - 0.5 * k as f64;
                if best.as_ref().is_none_or(|(b, _)| objective > *b) {
                    best = Some((objective, keys.clone()));
                }
            }
        }
        if k > 0 {
            let table = subtree_dp(tree, tree.root(), ctx, k, None);
            for (size, cell) in table.iter().enumerate().take(k) {
                if let Some((profit, keys)) = cell {
                    let objective = profit - 0.5 * size as f64;
                    if best.as_ref().is_none_or(|(b, _)| objective > *b) {
                        best = Some((objective, keys.clone()));
                    }
                }
            }
        }

        let (_, mut keys) = best.unwrap_or((0.0, Vec::new()));
        keys.sort_by(|a, b| {
            ctx.topk_probability(*b)
                .partial_cmp(&ctx.topk_probability(*a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.cmp(b))
        });
        let answer = TopKList::new(keys.iter().map(|t| t.0).collect()).unwrap();
        let expected_distance = super::super::sym_diff::expected_sym_diff_distance(ctx, &answer);
        MedianTopK {
            answer,
            expected_distance,
        }
    }

    fn assert_matches_brute_force(tree: &AndXorTree, k: usize) {
        let ctx = TopKContext::new(tree, k);
        let median = median_topk_sym_diff(tree, &ctx);
        let ws = tree.enumerate_worlds();
        let (brute, brute_cost) = oracle::brute_force_median_topk(&ws, k, |a, b| {
            oracle::sym_diff_distance_fixed_k(k, a, b)
        });
        let direct = oracle::expected_topk_distance(&median.answer, &ws, k, |a, b| {
            oracle::sym_diff_distance_fixed_k(k, a, b)
        });
        assert!(
            (direct - brute_cost).abs() < 1e-9,
            "k={k}: DP answer {} (cost {direct}) vs brute {} (cost {brute_cost})",
            median.answer,
            brute
        );
        // The DP answer must itself be the Top-k answer of a possible world.
        let possible: Vec<_> = ws
            .worlds()
            .iter()
            .filter(|(_, p)| *p > 0.0)
            .map(|(w, _)| {
                let mut keys: Vec<u64> = oracle::world_topk(w, k).items().to_vec();
                keys.sort_unstable();
                keys
            })
            .collect();
        let mut got: Vec<u64> = median.answer.items().to_vec();
        got.sort_unstable();
        assert!(
            possible.contains(&got),
            "answer {got:?} is not the Top-{k} of any possible world"
        );
    }

    #[test]
    fn theorem4_matches_brute_force_on_independent_tuples() {
        let tree = independent_tree(&[
            (1, 90.0, 0.3),
            (2, 80.0, 0.9),
            (3, 70.0, 0.6),
            (4, 60.0, 0.7),
            (5, 50.0, 0.2),
        ]);
        for k in 1..=4 {
            assert_matches_brute_force(&tree, k);
        }
    }

    #[test]
    fn theorem4_matches_brute_force_on_figure1_tree() {
        let tree = figure1_correlated_tree();
        for k in 1..=3 {
            assert_matches_brute_force(&tree, k);
        }
    }

    #[test]
    fn theorem4_matches_brute_force_on_bid_alternatives() {
        // Attribute-level uncertainty: the same tuple has different possible
        // scores, so the threshold loop over distinct values matters.
        let mut b = AndXorTreeBuilder::new();
        let a1 = b.leaf_parts(1, 100.0);
        let a2 = b.leaf_parts(1, 10.0);
        let x1 = b.xor_node(vec![(a1, 0.3), (a2, 0.65)]);
        let b1 = b.leaf_parts(2, 90.0);
        let b2 = b.leaf_parts(2, 20.0);
        let x2 = b.xor_node(vec![(b1, 0.5), (b2, 0.5)]);
        let c1 = b.leaf_parts(3, 50.0);
        let x3 = b.xor_node(vec![(c1, 0.8)]);
        let root = b.and_node(vec![x1, x2, x3]);
        let tree = b.build(root).unwrap();
        for k in 1..=3 {
            assert_matches_brute_force(&tree, k);
        }
    }

    #[test]
    fn theorem4_matches_brute_force_on_random_trees() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..6 {
            let n = rng.gen_range(3..7);
            let specs: Vec<(u64, f64, f64)> = (0..n)
                .map(|i| (i as u64, rng.gen_range(0.0..100.0), rng.gen_range(0.1..1.0)))
                .collect();
            let tree = independent_tree(&specs);
            let k = rng.gen_range(1..=n.min(3));
            assert_matches_brute_force(&tree, k);
            let _ = trial;
        }
    }

    #[test]
    fn small_worlds_are_valid_median_answers() {
        // Only one tuple exists, but k = 3: the median answer is that single
        // tuple (the Top-3 of the only non-empty world).
        let tree = independent_tree(&[(7, 42.0, 0.9)]);
        let ctx = TopKContext::new(&tree, 3);
        let median = median_topk_sym_diff(&tree, &ctx);
        assert_eq!(median.answer.items(), &[7]);
    }

    #[test]
    fn value_scan_is_bit_identical_to_the_witness_scan() {
        use cpdb_workloads::distributions::ScoreDistribution;
        use cpdb_workloads::generators::{
            random_andxor_tree, random_scored_bid_tree, AndXorTreeConfig, BidConfig,
        };
        let mut trees = Vec::new();
        for seed in 0..8u64 {
            trees.push(random_scored_bid_tree(&BidConfig {
                num_blocks: 12 + seed as usize,
                alternatives_per_block: 1 + (seed % 3) as usize,
                maybe_fraction: 0.4,
                scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
                seed,
            }));
            trees.push(random_andxor_tree(&AndXorTreeConfig {
                num_leaves: 16 + 2 * seed as usize,
                depth: 1 + (seed % 3) as usize,
                fanout: 2 + (seed % 3) as usize,
                scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
                seed,
            }));
        }
        // Equal scores and probabilities: every threshold and every DP cell
        // ties, so only the comparison order picks the answer.
        trees.push(independent_tree(&[
            (1, 50.0, 0.5),
            (2, 50.0, 0.5),
            (3, 50.0, 0.5),
            (4, 40.0, 0.5),
            (5, 40.0, 0.5),
            (6, 30.0, 0.5),
            (7, 30.0, 0.5),
        ]));
        assert!(trees.len() >= 16);
        for (t, tree) in trees.iter().enumerate() {
            for k in 0..=6 {
                let ctx = TopKContext::new(tree, k);
                let got = median_topk_sym_diff(tree, &ctx);
                let want = median_topk_sym_diff_reference(tree, &ctx);
                assert_eq!(got.answer, want.answer, "tree {t}, k = {k}");
                assert_eq!(
                    got.expected_distance.to_bits(),
                    want.expected_distance.to_bits(),
                    "tree {t}, k = {k}"
                );
            }
        }
    }
}
