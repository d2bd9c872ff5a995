//! Consensus worlds under the Jaccard distance (§4.2, Lemmas 1–2).
//!
//! The Jaccard distance `d_J(S₁, S₂) = |S₁ Δ S₂| / |S₁ ∪ S₂]` couples the
//! tuples, so the expected distance no longer decomposes per tuple. The paper
//! shows two facts that still make the problem tractable:
//!
//! * **Lemma 1** — for any candidate world `W`, `E[d_J(W, pw)]` can be read
//!   off a bivariate generating function in which members of `W` map to `x`
//!   and non-members to `y`: the coefficient of `x^i y^j` is the probability
//!   that `|W ∩ pw| = i` and `|pw \ W| = j`, and such a world is at distance
//!   `(|W| − i + j) / (|W| + j)`.
//! * **Lemma 2** — for tuple-independent databases the mean world is a
//!   *prefix* of the tuples sorted by decreasing probability, so scanning the
//!   `n + 1` prefixes and scoring each with Lemma 1 finds it in polynomial
//!   time. The same scan over the highest-probability alternative of each
//!   block gives the median world for BID databases.
//!
//! The scan does not need the whole bivariate function. With `w = |W|`,
//! `i = |W ∩ pw|` and `j = |pw \ W|`, a world at distance
//! `(w − i + j)/(w + j) = 1 − i/(w + j)` is *linear in `i`* for fixed `j`,
//! so
//!
//! `E[d_J] = Pr(w + j > 0) − Σ_j [yʲ] ∂ₓG(1, y) / (w + j)`
//!
//! needs only `G(1, y)` and `∂ₓG(1, y)`. Both are univariate polynomials,
//! carried through the tree as one dual number `(V, D)` per node
//! ([`AndXorTree::genfunc_dual`]): a member leaf is `(1, 1)`, any other leaf
//! `(y, 0)`, an ∨ node mixes its children, and an ∧ node multiplies them by
//! the product rule `(V,D)·(V',D') = (VV', VD' + DV')`. Each prefix then
//! costs `O(n²)` instead of the `O(n³)` of Lemma 1's bivariate function, and
//! the `n + 1`-prefix scan `O(n³)` instead of `O(n⁴)`.
//! [`expected_jaccard_distance`] keeps the bivariate Lemma 1 evaluation as
//! the reference for arbitrary candidates.

use cpdb_andxor::{AndXorTree, DualGenfunc, VarAssignment};
use cpdb_genfunc::Truncation;
use cpdb_model::{Alternative, BidDb, PossibleWorld, TupleIndependentDb};
use std::collections::{HashMap, HashSet};

/// Lemma 1: the exact expected Jaccard distance between a candidate world and
/// the random world of an and/xor tree.
pub fn expected_jaccard_distance(tree: &AndXorTree, candidate: &PossibleWorld) -> f64 {
    let members: HashSet<Alternative> = candidate.alternatives().iter().copied().collect();
    let w = members.len();
    let poly = tree.genfunc2(Truncation::None, Truncation::None, |a| {
        if members.contains(a) {
            VarAssignment::X
        } else {
            VarAssignment::Y
        }
    });
    poly.expectation_with(|i, j| {
        let union = w + j;
        if union == 0 {
            0.0
        } else {
            (w - i + j) as f64 / union as f64
        }
    })
}

/// The result of a consensus-world search: the chosen world and its expected
/// distance.
#[derive(Debug, Clone, PartialEq)]
pub struct JaccardConsensus {
    /// The selected world.
    pub world: PossibleWorld,
    /// Its exact expected Jaccard distance to the random world.
    pub expected_distance: f64,
}

/// Lemma 2: the mean world of a tuple-independent database under the Jaccard
/// distance, found by scanning prefixes of the probability-sorted tuple list
/// and scoring each prefix exactly with Lemma 1.
pub fn mean_world_tuple_independent(db: &TupleIndependentDb) -> JaccardConsensus {
    let tree = cpdb_andxor::convert::from_tuple_independent(db)
        .expect("tuple-independent databases always satisfy the tree constraints");
    let sorted = db.sorted_by_probability_desc();
    best_prefix_world(&tree, &sorted)
}

/// The median world of a BID database under the Jaccard distance: only the
/// highest-probability alternative of each block can participate (per §4.2),
/// and the candidates are again prefixes by probability.
pub fn median_world_bid(db: &BidDb) -> JaccardConsensus {
    let tree = cpdb_andxor::convert::from_bid(db)
        .expect("BID databases always satisfy the tree constraints");
    let mut best_alts: Vec<(Alternative, f64)> =
        db.blocks().iter().map(|b| b.best_alternative()).collect();
    best_alts.sort_by(|(a1, p1), (a2, p2)| {
        p2.partial_cmp(p1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a1.key.cmp(&a2.key))
    });
    best_prefix_world(&tree, &best_alts)
}

/// The candidate list the prefix scan works on, derived directly from an
/// and/xor tree: the highest-marginal-probability alternative of every tuple
/// key, sorted by decreasing probability (ties broken by key). For
/// tuple-independent trees this is exactly the Lemma 2 candidate order; for
/// BID trees it is the §4.2 median candidate order. This is the caching seam
/// used by `cpdb_engine` — the list is computed once per tree and reused by
/// every Jaccard query.
pub fn prefix_candidates(tree: &AndXorTree) -> Vec<(Alternative, f64)> {
    prefix_candidates_from_marginals(&tree.alternative_probabilities())
}

/// [`prefix_candidates`] from an already-computed marginal-probability table,
/// so callers that cache `alternative_probabilities` (the engine does, for
/// symmetric-difference set queries) avoid a second tree walk.
pub fn prefix_candidates_from_marginals(
    marginals: &HashMap<Alternative, f64>,
) -> Vec<(Alternative, f64)> {
    let mut best: HashMap<cpdb_model::TupleKey, (Alternative, f64)> = HashMap::new();
    for (&alt, &p) in marginals {
        match best.entry(alt.key) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((alt, p));
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                let (cur, cur_p) = *e.get();
                let better = p
                    .partial_cmp(&cur_p)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| alt.value.0.total_cmp(&cur.value.0))
                    .is_gt();
                if better {
                    e.insert((alt, p));
                }
            }
        }
    }
    let mut sorted: Vec<(Alternative, f64)> = best.into_values().collect();
    sorted.sort_by(|(a1, p1), (a2, p2)| {
        p2.partial_cmp(p1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a1.key.cmp(&a2.key))
    });
    sorted
}

/// Scores every prefix of `sorted` (including the empty prefix) and returns
/// the best one; ties go to the shorter prefix.
pub fn best_prefix_world(tree: &AndXorTree, sorted: &[(Alternative, f64)]) -> JaccardConsensus {
    let (members, scores) = prefix_scores(tree, sorted);
    let mut best = 0;
    for (m, &d) in scores.iter().enumerate().skip(1) {
        if d < scores[best] {
            best = m;
        }
    }
    JaccardConsensus {
        world: PossibleWorld::from_trusted(members[..best].to_vec()),
        expected_distance: scores[best],
    }
}

/// The prefix scan behind [`best_prefix_world`]: the candidate list with
/// later alternatives of an already-listed key dropped (so every prefix
/// holds one alternative per key), and the exact expected Jaccard distance
/// of each of its `len + 1` prefixes, empty prefix first.
///
/// Each prefix `W` is scored from the dual number `(G(1,y), ∂ₓG(1,y))` of
/// [`AndXorTree::genfunc_dual`] (members of `W` ↦ `x`, other leaves ↦ `y`)
/// instead of the full bivariate `G(x,y)` of
/// [`expected_jaccard_distance`]: `O(n²)` per prefix instead of `O(n³)`.
pub fn prefix_scores(
    tree: &AndXorTree,
    sorted: &[(Alternative, f64)],
) -> (Vec<Alternative>, Vec<f64>) {
    let mut listed = HashSet::with_capacity(sorted.len());
    let members: Vec<Alternative> = sorted
        .iter()
        .map(|(alt, _)| *alt)
        .filter(|alt| listed.insert(alt.key))
        .collect();
    let position: HashMap<Alternative, usize> = members
        .iter()
        .enumerate()
        .map(|(m, alt)| (*alt, m))
        .collect();
    let mut dual = DualGenfunc::new();
    let scores = (0..=members.len())
        .map(|w| {
            tree.genfunc_dual(&mut dual, |a| position.get(a).is_some_and(|&m| m < w));
            jaccard_from_dual(&dual, w)
        })
        .collect();
    (members, scores)
}

/// `E[d_J(W, pw)]` for `|W| = w` from the dual generating function: with
/// `i = |W ∩ pw|` and `j = |pw \ W|`, `d_J = 1 − i/(w+j)` whenever
/// `w + j > 0` (and 0 otherwise), so
/// `E[d_J] = Σ_{j : w+j>0} ([yʲ]G(1,y) − [yʲ]∂ₓG(1,y) / (w+j))`.
fn jaccard_from_dual(dual: &DualGenfunc, w: usize) -> f64 {
    let deriv = dual.deriv();
    dual.value()
        .iter()
        .enumerate()
        .filter(|&(j, _)| w + j > 0)
        .map(|(j, &v)| v - deriv.get(j).copied().unwrap_or(0.0) / (w + j) as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use cpdb_model::{BidBlock, WorldModel};

    fn jaccard(a: &PossibleWorld, b: &PossibleWorld) -> f64 {
        a.jaccard_distance(b)
    }

    #[test]
    fn lemma1_matches_enumeration() {
        let db = TupleIndependentDb::from_triples(&[
            (1, 1.0, 0.8),
            (2, 2.0, 0.5),
            (3, 3.0, 0.3),
            (4, 4.0, 0.6),
        ])
        .unwrap();
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        let ws = db.enumerate_worlds();
        let candidates = [
            PossibleWorld::empty(),
            PossibleWorld::new(vec![Alternative::new(1, 1.0)]).unwrap(),
            PossibleWorld::new(vec![Alternative::new(1, 1.0), Alternative::new(4, 4.0)]).unwrap(),
            PossibleWorld::new(vec![
                Alternative::new(1, 1.0),
                Alternative::new(2, 2.0),
                Alternative::new(3, 3.0),
                Alternative::new(4, 4.0),
            ])
            .unwrap(),
        ];
        for cand in &candidates {
            let exact = expected_jaccard_distance(&tree, cand);
            let brute = oracle::expected_world_distance(cand, &ws, jaccard);
            assert!(
                (exact - brute).abs() < 1e-9,
                "candidate {cand}: genfunc {exact} vs enumeration {brute}"
            );
        }
    }

    #[test]
    fn lemma1_matches_enumeration_on_correlated_tree() {
        let tree = cpdb_andxor::figure1::figure1_correlated_tree();
        let ws = tree.enumerate_worlds();
        for (cand, _) in ws.worlds() {
            let exact = expected_jaccard_distance(&tree, cand);
            let brute = oracle::expected_world_distance(cand, &ws, jaccard);
            assert!((exact - brute).abs() < 1e-9);
        }
    }

    #[test]
    fn lemma2_mean_world_matches_brute_force() {
        let db = TupleIndependentDb::from_triples(&[
            (1, 1.0, 0.9),
            (2, 2.0, 0.8),
            (3, 3.0, 0.45),
            (4, 4.0, 0.2),
            (5, 5.0, 0.65),
        ])
        .unwrap();
        let consensus = mean_world_tuple_independent(&db);
        let ws = db.enumerate_worlds();
        let (_, brute_cost) = oracle::brute_force_mean_world(&ws, jaccard);
        assert!(
            (consensus.expected_distance - brute_cost).abs() < 1e-9,
            "prefix scan {} vs brute force {brute_cost}",
            consensus.expected_distance
        );
        // The chosen world is a prefix of the probability order.
        assert!(consensus.world.contains(&Alternative::new(1, 1.0)));
        assert!(consensus.world.contains(&Alternative::new(2, 2.0)));
    }

    #[test]
    fn lemma2_prefix_structure_holds_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..8 {
            let n = rng.gen_range(3..8);
            let triples: Vec<(u64, f64, f64)> = (0..n)
                .map(|i| (i as u64, i as f64, rng.gen_range(0.05..0.95)))
                .collect();
            let db = TupleIndependentDb::from_triples(&triples).unwrap();
            let consensus = mean_world_tuple_independent(&db);
            let ws = db.enumerate_worlds();
            let (_, brute_cost) = oracle::brute_force_mean_world(&ws, jaccard);
            assert!(
                consensus.expected_distance <= brute_cost + 1e-9,
                "prefix scan {} vs brute force {brute_cost}",
                consensus.expected_distance
            );
        }
    }

    #[test]
    fn bid_median_is_a_possible_world_and_beats_random_candidates() {
        let db = BidDb::new(vec![
            BidBlock::from_pairs(1, &[(10.0, 0.7), (11.0, 0.2)]).unwrap(),
            BidBlock::from_pairs(2, &[(20.0, 0.5), (21.0, 0.5)]).unwrap(),
            BidBlock::from_pairs(3, &[(30.0, 0.3)]).unwrap(),
        ])
        .unwrap();
        let consensus = median_world_bid(&db);
        let ws = db.enumerate_worlds();
        // The answer must be a possible world (it only uses one alternative
        // per block).
        assert!(ws
            .worlds()
            .iter()
            .any(|(w, p)| *p > 0.0 && *w == consensus.world));
        // And it should not be beaten by any single-block-best candidate
        // prefix that the algorithm considered.
        let empty_cost = oracle::expected_world_distance(&PossibleWorld::empty(), &ws, jaccard);
        assert!(consensus.expected_distance <= empty_cost + 1e-9);
    }

    #[test]
    fn prefix_candidates_match_model_sorted_orders() {
        // Tuple-independent: same order as the db's probability sort.
        let db = TupleIndependentDb::from_triples(&[
            (1, 1.0, 0.9),
            (2, 2.0, 0.2),
            (3, 3.0, 0.65),
            (4, 4.0, 0.65),
        ])
        .unwrap();
        let tree = cpdb_andxor::convert::from_tuple_independent(&db).unwrap();
        assert_eq!(prefix_candidates(&tree), db.sorted_by_probability_desc());
        // And the scan over them reproduces the Lemma 2 consensus exactly.
        assert_eq!(
            best_prefix_world(&tree, &prefix_candidates(&tree)),
            mean_world_tuple_independent(&db)
        );

        // BID: same answer as the block-best median scan.
        let bid = BidDb::new(vec![
            BidBlock::from_pairs(1, &[(10.0, 0.7), (11.0, 0.2)]).unwrap(),
            BidBlock::from_pairs(2, &[(20.0, 0.4), (21.0, 0.5)]).unwrap(),
            BidBlock::from_pairs(3, &[(30.0, 0.3)]).unwrap(),
        ])
        .unwrap();
        let bid_tree = cpdb_andxor::convert::from_bid(&bid).unwrap();
        assert_eq!(
            best_prefix_world(&bid_tree, &prefix_candidates(&bid_tree)),
            median_world_bid(&bid)
        );
    }

    #[test]
    fn prefix_scores_match_lemma1_on_every_prefix() {
        let bid = BidDb::new(vec![
            BidBlock::from_pairs(1, &[(10.0, 0.7), (11.0, 0.2)]).unwrap(),
            BidBlock::from_pairs(2, &[(20.0, 0.4), (21.0, 0.5)]).unwrap(),
            BidBlock::from_pairs(3, &[(30.0, 0.3)]).unwrap(),
        ])
        .unwrap();
        for tree in [
            cpdb_andxor::figure1::figure1_correlated_tree(),
            cpdb_andxor::convert::from_bid(&bid).unwrap(),
        ] {
            let (members, scores) = prefix_scores(&tree, &prefix_candidates(&tree));
            assert_eq!(scores.len(), members.len() + 1);
            for (w, d) in scores.iter().enumerate() {
                let world = PossibleWorld::new(members[..w].to_vec()).unwrap();
                let lemma1 = expected_jaccard_distance(&tree, &world);
                assert!((d - lemma1).abs() < 1e-12, "prefix {w}: {d} vs {lemma1}");
            }
        }
    }

    #[test]
    fn repeated_keys_in_the_candidate_list_are_dropped() {
        let tree = cpdb_andxor::figure1::figure1_correlated_tree();
        let sorted = prefix_candidates(&tree);
        let mut repeated = Vec::new();
        for &(alt, p) in &sorted {
            repeated.push((alt, p));
            repeated.push((Alternative::new(alt.key.0, alt.value.0 + 0.5), p));
        }
        assert_eq!(
            best_prefix_world(&tree, &repeated),
            best_prefix_world(&tree, &sorted)
        );
    }

    #[test]
    fn empty_database_has_zero_distance() {
        let db = TupleIndependentDb::from_triples(&[]).unwrap();
        let consensus = mean_world_tuple_independent(&db);
        assert!(consensus.world.is_empty());
        assert_eq!(consensus.expected_distance, 0.0);
    }
}
