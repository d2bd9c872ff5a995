//! The seeded `TreeDelta` stream of the write workloads.
//!
//! Targets are picked from the tree the delta will be applied to (structural
//! deltas renumber node ids), and every delta is valid by construction, so
//! no write in a run is refused.

use crate::stats::Rng;
use cpdb_andxor::{AndXorTree, NodeId, TreeDelta};

/// Scores are drawn from the generators' default range.
const SCORE_RANGE: f64 = 1000.0;

/// Which delta kinds the stream draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// ≈45% ∨-edge probability, ≈35% leaf value, ≈10% insert alternative,
    /// ≈9% remove alternative, ≈1% insert tuple block: the block inserts
    /// keep tuple growth near 5% over a run of ~1000 writes.
    Ingest,
    /// Probability and value updates only (≈55% / 45%): the non-structural
    /// tail a correlated tree accumulates between snapshots.
    Reweight,
}

#[derive(Debug, Clone)]
pub struct DeltaStream {
    rng: Rng,
    mix: Mix,
    next_key: u64,
}

impl DeltaStream {
    pub fn new(seed: u64, mix: Mix, tree: &AndXorTree) -> Self {
        let next_key = tree.keys().iter().map(|k| k.0 + 1).max().unwrap_or(0);
        DeltaStream {
            rng: Rng::new(seed),
            mix,
            next_key,
        }
    }

    /// The next delta, valid against `tree`.
    pub fn next_delta(&mut self, tree: &AndXorTree) -> TreeDelta {
        let roll = self.rng.below(1000);
        match (self.mix, roll) {
            (Mix::Ingest, 0..=449) | (Mix::Reweight, 0..=549) => self.probability(tree),
            (Mix::Ingest, 450..=799) | (Mix::Reweight, _) => self.value(tree),
            (Mix::Ingest, 800..=899) => self
                .insert_alternative(tree)
                .unwrap_or_else(|| self.probability(tree)),
            (Mix::Ingest, 900..=989) => self
                .remove_alternative(tree)
                .unwrap_or_else(|| self.value(tree)),
            (Mix::Ingest, _) => self.insert_block(tree),
        }
    }

    fn score(&mut self) -> f64 {
        self.rng.unit() * SCORE_RANGE
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[self.rng.below(items.len())])
    }

    fn probability(&mut self, tree: &AndXorTree) -> TreeDelta {
        let xors = tree.xor_nodes();
        let xor = self
            .pick(&xors)
            .expect("every generated tree has an ∨ node");
        let children = tree.children(xor);
        let (child, old) = children[self.rng.below(children.len())];
        let slack = 1.0 - mass(tree, xor);
        let wanted = old * (0.5 + self.rng.unit());
        TreeDelta::XorEdgeProbability {
            xor,
            child,
            probability: wanted.min(old + slack.max(0.0) * 0.999).max(1e-3),
        }
    }

    fn value(&mut self, tree: &AndXorTree) -> TreeDelta {
        let leaves = tree.leaf_nodes();
        let leaf = self.pick(&leaves).expect("every generated tree has a leaf");
        TreeDelta::LeafValue {
            leaf,
            value: self.score(),
        }
    }

    /// A new alternative for a block with probability mass to spare.
    fn insert_alternative(&mut self, tree: &AndXorTree) -> Option<TreeDelta> {
        let open: Vec<(NodeId, u64, f64)> = blocks(tree)
            .into_iter()
            .filter_map(|(xor, key)| {
                let slack = 1.0 - mass(tree, xor);
                (slack > 0.02).then_some((xor, key, slack))
            })
            .collect();
        let (xor, key, slack) = self.pick(&open)?;
        Some(TreeDelta::InsertAlternative {
            xor,
            key,
            value: self.score(),
            probability: slack * 0.5,
        })
    }

    /// Drops one alternative of a block that has at least two.
    fn remove_alternative(&mut self, tree: &AndXorTree) -> Option<TreeDelta> {
        let wide: Vec<NodeId> = blocks(tree)
            .into_iter()
            .map(|(xor, _)| xor)
            .filter(|&xor| tree.children(xor).len() >= 2)
            .collect();
        let xor = self.pick(&wide)?;
        let children = tree.children(xor);
        let (leaf, _) = children[self.rng.below(children.len())];
        Some(TreeDelta::RemoveAlternative { xor, leaf })
    }

    fn insert_block(&mut self, tree: &AndXorTree) -> TreeDelta {
        let key = self.next_key;
        self.next_key += 1;
        let alternatives = vec![
            (self.score(), 0.1 + 0.4 * self.rng.unit()),
            (self.score(), 0.1 + 0.4 * self.rng.unit()),
        ];
        TreeDelta::InsertTupleBlock {
            under: tree.root(),
            key,
            alternatives,
        }
    }
}

fn mass(tree: &AndXorTree, xor: NodeId) -> f64 {
    tree.children(xor).iter().map(|(_, p)| p).sum()
}

/// The ∨ nodes whose children are all leaves of one tuple key (BID blocks),
/// with that key.
fn blocks(tree: &AndXorTree) -> Vec<(NodeId, u64)> {
    tree.xor_nodes()
        .into_iter()
        .filter_map(|xor| {
            let mut keys = tree
                .children(xor)
                .iter()
                .map(|(c, _)| tree.leaf_alternative(*c).map(|a| a.key.0));
            let first = keys.next()??;
            keys.all(|k| k == Some(first)).then_some((xor, first))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpdb_workloads::{random_scored_bid_tree, BidConfig};

    #[test]
    fn every_generated_delta_applies() {
        let mut tree = random_scored_bid_tree(&BidConfig {
            num_blocks: 12,
            alternatives_per_block: 2,
            seed: 3,
            ..BidConfig::default()
        });
        let mut stream = DeltaStream::new(3, Mix::Ingest, &tree);
        for _ in 0..300 {
            let delta = stream.next_delta(&tree);
            tree = tree.apply_delta(&delta).expect("valid by construction").0;
        }
    }
}
