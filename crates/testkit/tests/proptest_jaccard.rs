//! Property-based conformance for the dual-number Jaccard prefix scan: on
//! random and/xor trees (multi-alternative keys, nested ∧ bundles under ∨
//! choices, sub-unit block masses) and random BID trees, every prefix score
//! of [`jaccard::prefix_scores`] equals the bivariate Lemma 1 evaluation
//! [`jaccard::expected_jaccard_distance`] to `1e-12`, and
//! [`jaccard::best_prefix_world`] picks the world that a per-prefix scan
//! scored with Lemma 1 picks.

use cpdb_andxor::{AndXorTree, AndXorTreeBuilder};
use cpdb_consensus::jaccard;
use cpdb_model::PossibleWorld;
use cpdb_workloads::distributions::ScoreDistribution;
use cpdb_workloads::generators::{random_scored_bid_tree, BidConfig};
use proptest::prelude::*;

/// Strategy: a root ∧ node over ∨ blocks. Each block edge is a leaf of a
/// fresh key, another alternative of the block's first key, or an ∧ bundle
/// of a fresh leaf and a nested one-leaf ∨.
fn random_tree() -> impl Strategy<Value = AndXorTree> {
    prop::collection::vec(
        prop::collection::vec((0usize..3, 0.05f64..1.0, 0.0f64..100.0), 1..4),
        1..5,
    )
    .prop_map(|blocks| {
        let mut b = AndXorTreeBuilder::new();
        let mut next_key = 0u64;
        let mut fresh = |b: &mut AndXorTreeBuilder, score: f64| {
            next_key += 1;
            (next_key, b.leaf_parts(next_key, score))
        };
        let mut xors = Vec::new();
        for block in &blocks {
            let total: f64 = block.iter().map(|(_, w, _)| *w).sum::<f64>() * 1.25;
            let mut block_key = None;
            let mut edges = Vec::new();
            for &(kind, w, score) in block {
                let node = match (kind, block_key) {
                    (1, Some(key)) => b.leaf_parts(key, score + 0.5),
                    (2, _) => {
                        let (_, outer) = fresh(&mut b, score);
                        let (_, inner) = fresh(&mut b, score / 2.0);
                        let nested = b.xor_node(vec![(inner, w)]);
                        b.and_node(vec![outer, nested])
                    }
                    _ => {
                        let (key, leaf) = fresh(&mut b, score);
                        block_key.get_or_insert(key);
                        leaf
                    }
                };
                edges.push((node, w / total));
            }
            xors.push(b.xor_node(edges));
        }
        let root = b.and_node(xors);
        b.build(root)
            .expect("construction keeps keys disjoint under ∧ and mass ≤ 1")
    })
}

/// Strategy: the tree of a random BID relation with 1–3 alternatives per
/// block and some "maybe" blocks.
fn random_bid_tree() -> impl Strategy<Value = AndXorTree> {
    (1usize..7, 1usize..4, 0u64..10_000).prop_map(|(blocks, alternatives, seed)| {
        random_scored_bid_tree(&BidConfig {
            num_blocks: blocks,
            alternatives_per_block: alternatives,
            maybe_fraction: 0.4,
            scores: ScoreDistribution::Uniform { lo: 0.0, hi: 100.0 },
            seed,
        })
    })
}

/// Scores every prefix against Lemma 1 and replays the per-prefix bivariate
/// scan the dual-number scan replaces.
fn assert_scan_matches_lemma1(tree: &AndXorTree) {
    let sorted = jaccard::prefix_candidates(tree);
    let (members, scores) = jaccard::prefix_scores(tree, &sorted);
    let listed: Vec<_> = sorted.iter().map(|(alt, _)| *alt).collect();
    assert_eq!(members, listed, "the scan dropped a prefix candidate");
    let mut reference = (PossibleWorld::empty(), f64::INFINITY);
    for (w, &score) in scores.iter().enumerate() {
        let prefix = PossibleWorld::new(members[..w].to_vec())
            .expect("prefix candidates hold one alternative per key");
        let lemma1 = jaccard::expected_jaccard_distance(tree, &prefix);
        assert!(
            (score - lemma1).abs() < 1e-12,
            "prefix {w}: dual {score} vs Lemma 1 {lemma1}"
        );
        if lemma1 < reference.1 {
            reference = (prefix, lemma1);
        }
    }
    let best = jaccard::best_prefix_world(tree, &sorted);
    assert_eq!(
        best.world, reference.0,
        "the dual scan and the bivariate scan picked different worlds"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dual_scan_matches_lemma1_on_random_andxor_trees(tree in random_tree()) {
        assert_scan_matches_lemma1(&tree);
    }

    #[test]
    fn dual_scan_matches_lemma1_on_random_bid_trees(tree in random_bid_tree()) {
        assert_scan_matches_lemma1(&tree);
    }
}
