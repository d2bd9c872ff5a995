//! `serve`: read-only traffic against a warm engine — the paper's serving
//! regime, where query kernels do nearly all the work.
//!
//! Traffic is dealt in decks of 400 queries with a fixed composition (the
//! seed shuffles each deck and generates the data), so every run answers
//! the same share of each family and `k`, and no percentile can move
//! between cost tiers because a rare family happened to be drawn more.

use crate::stats::{median, ms, ratio, Rng};
use crate::tally::{Outcome, Tally};
use crate::Opts;
use cpdb_consensus::aggregate::GroupByInstance;
use cpdb_engine::{
    Answer, BaselineKind, ConsensusEngine, ConsensusEngineBuilder, EngineError, Query, SetMetric,
    TopKMetric, Variant,
};
use cpdb_workloads::{random_groupby_instance, random_scored_bid_tree, BidConfig, GroupByConfig};
use std::time::Instant;

/// The `k` values every Top-k family cycles through.
pub const KS: [usize; 5] = [1, 3, 5, 10, 20];
/// KwikCluster restarts of the clustering family.
const CLUSTERING_RESTARTS: usize = 2;

#[derive(Debug, Clone)]
pub struct Config {
    /// BID blocks (tuples) of the served tree, two alternatives each.
    pub blocks: usize,
    /// Rows × groups of the attached group-by instance.
    pub groupby: (usize, usize),
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Config {
    pub fn full() -> Self {
        Config {
            blocks: 200,
            groupby: (40, 5),
            setup_reps: 3,
        }
    }
}

/// Query families, one kernel metric each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    TopkSymdiff,
    TopkIntersection,
    TopkFootrule,
    TopkKendall,
    TopkMedian,
    Baseline,
    SetSymdiff,
    Aggregate,
    Clustering,
    SetJaccard,
}

impl Family {
    /// Queries per 400-query deck. Shares: 45% Top-k lookups, 12% Kendall,
    /// 8% median, 15% baselines, 10.25% set symmetric difference, 5%
    /// aggregates, 4.5% clustering, 0.25% Jaccard. One Jaccard answer costs
    /// as much as the rest of a 200-query deck, so its share is half the
    /// suggested 0.5%: it still sets a third of serve time, and a deck's
    /// time no longer swings with that one call.
    const DECK: [(Family, usize); 10] = [
        (Family::TopkSymdiff, 60),
        (Family::TopkIntersection, 60),
        (Family::TopkFootrule, 60),
        (Family::TopkKendall, 48),
        (Family::TopkMedian, 32),
        (Family::Baseline, 60),
        (Family::SetSymdiff, 41),
        (Family::Aggregate, 20),
        (Family::Clustering, 18),
        (Family::SetJaccard, 1),
    ];

    /// The kernel metric name and the unit scale from milliseconds.
    pub fn metric(self) -> (&'static str, f64) {
        match self {
            Family::TopkSymdiff => ("kernel.topk_symdiff_us", 1e3),
            Family::TopkIntersection => ("kernel.topk_intersection_us", 1e3),
            Family::TopkFootrule => ("kernel.topk_footrule_us", 1e3),
            Family::TopkKendall => ("kernel.topk_kendall_ms", 1.0),
            Family::TopkMedian => ("kernel.topk_median_ms", 1.0),
            Family::Baseline => ("kernel.baseline_us", 1e3),
            Family::SetSymdiff => ("kernel.set_symdiff_us", 1e3),
            Family::Aggregate => ("kernel.aggregate_us", 1e3),
            Family::Clustering => ("kernel.clustering_ms", 1.0),
            Family::SetJaccard => ("kernel.set_jaccard_ms", 1.0),
        }
    }

    /// The `i`-th query of this family within a deck.
    fn query(self, i: usize) -> Query {
        let k = KS[i % KS.len()];
        let topk = |metric, variant| Query::TopK { k, metric, variant };
        let alternate = |a, b| if i.is_multiple_of(2) { a } else { b };
        match self {
            Family::TopkSymdiff => topk(TopKMetric::SymmetricDifference, Variant::Mean),
            Family::TopkIntersection => topk(TopKMetric::Intersection, Variant::Mean),
            Family::TopkFootrule => topk(TopKMetric::Footrule, Variant::Mean),
            Family::TopkKendall => topk(TopKMetric::Kendall, Variant::Mean),
            Family::TopkMedian => topk(TopKMetric::SymmetricDifference, Variant::Median),
            Family::Baseline => {
                let k = KS[(i / 3) % KS.len()];
                let kind = match i % 3 {
                    0 => BaselineKind::GlobalTopK { k },
                    1 => BaselineKind::ProbabilisticThreshold { k, threshold: 0.5 },
                    _ => BaselineKind::ExpectedScore { k },
                };
                Query::Baseline { kind }
            }
            Family::SetSymdiff => Query::SetConsensus {
                metric: SetMetric::SymmetricDifference,
                variant: alternate(Variant::Mean, Variant::Median),
            },
            Family::Aggregate => Query::Aggregate {
                variant: alternate(Variant::Mean, Variant::Median),
            },
            Family::Clustering => Query::Clustering {
                restarts: CLUSTERING_RESTARTS,
            },
            Family::SetJaccard => Query::SetConsensus {
                metric: SetMetric::Jaccard,
                variant: Variant::Mean,
            },
        }
    }
}

/// The distinct queries of a deck and the deck as indices into them.
pub struct Deck {
    pub universe: Vec<(Family, Query)>,
    pub cards: Vec<usize>,
}

impl Deck {
    pub fn new() -> Self {
        let mut universe: Vec<(Family, Query)> = Vec::new();
        let mut cards = Vec::new();
        for (family, count) in Family::DECK {
            for i in 0..count {
                let query = family.query(i);
                let at = match universe.iter().position(|(_, q)| *q == query) {
                    Some(at) => at,
                    None => {
                        universe.push((family, query));
                        universe.len() - 1
                    }
                };
                cards.push(at);
            }
        }
        Deck { universe, cards }
    }
}

/// The generated data of the BID workloads (`serve` and `ingest`).
pub struct Inputs {
    pub tree: cpdb_andxor::AndXorTree,
    pub groupby: GroupByInstance,
}

pub fn inputs(blocks: usize, groupby: (usize, usize), seed: u64) -> Result<Inputs, String> {
    let tree = random_scored_bid_tree(&BidConfig {
        num_blocks: blocks,
        alternatives_per_block: 2,
        maybe_fraction: 0.3,
        seed,
        ..BidConfig::default()
    });
    let rows = random_groupby_instance(&GroupByConfig {
        num_tuples: groupby.0,
        num_groups: groupby.1,
        seed,
        ..GroupByConfig::default()
    });
    let groupby = GroupByInstance::new(rows).map_err(|e| e.to_string())?;
    Ok(Inputs { tree, groupby })
}

/// Builds an engine at shipped defaults: only the seed and the group-by
/// instance are set.
pub fn build(
    tree: &cpdb_andxor::AndXorTree,
    groupby: &GroupByInstance,
    seed: u64,
) -> Result<ConsensusEngine, String> {
    ConsensusEngineBuilder::new(tree.clone())
        .seed(seed)
        .groupby(groupby.clone())
        .build()
        .map_err(|e| e.to_string())
}

/// Cold build times of the generating-function artifacts, in ms.
#[derive(Default)]
struct ColdBuilds {
    rank_context: Vec<f64>,
    preference_matrix: Vec<f64>,
    coclustering: Vec<f64>,
}

/// One set-up: generate, build, build every shared artifact, and answer
/// every query but Jaccard once. Jaccard is left out because each answer
/// reruns its uncached prefix scan (~1.5 s at 200 blocks), which would
/// dominate set-up; its small candidate table is built by the first
/// Jaccard query of the loop.
fn set_up(
    config: &Config,
    opts: &Opts,
    deck: &Deck,
    cold: &mut ColdBuilds,
) -> Result<ConsensusEngine, String> {
    let inputs = inputs(config.blocks, config.groupby, opts.seed)?;
    let engine = build(&inputs.tree, &inputs.groupby, opts.seed)?;
    for k in KS {
        let t = Instant::now();
        engine.context(k).map_err(|e| e.to_string())?;
        cold.rank_context.push(ms(t));
    }
    let t = Instant::now();
    std::hint::black_box(engine.preference_matrix());
    cold.preference_matrix.push(ms(t));
    let t = Instant::now();
    std::hint::black_box(engine.coclustering_weights());
    cold.coclustering.push(ms(t));
    let warm: Vec<Query> = deck
        .universe
        .iter()
        .filter(|(f, _)| *f != Family::SetJaccard)
        .map(|(_, q)| q.clone())
        .collect();
    for answer in engine.run_batch(&warm) {
        answer.map_err(|e| e.to_string())?;
    }
    Ok(engine)
}

/// Cache hits, cache builds and rank-context builds of the engine's shared
/// artifacts, read through the unified metrics surface.
pub fn cache_counts(engine: &ConsensusEngine) -> (u64, u64, u64) {
    let snapshot = engine.metrics_snapshot();
    let sum = |suffix: &str| -> u64 {
        [
            "rank_context",
            "preference",
            "coclustering",
            "marginal",
            "key_index",
        ]
        .iter()
        .filter_map(|a| snapshot.counter(&format!("engine.cache.{a}_{suffix}")))
        .sum()
    };
    let rank_builds = snapshot
        .counter("engine.cache.rank_context_builds")
        .unwrap_or(0);
    (sum("hits"), sum("builds"), rank_builds)
}

/// Latencies (ms) of one phase, per distinct query of the deck.
type PerQuery = Vec<Vec<f64>>;

/// Deals whole decks until `seconds` of query time have been measured.
fn serve_phase(
    engine: &ConsensusEngine,
    deck: &Deck,
    reference: &[Result<Answer, EngineError>],
    rng: &mut Rng,
    seconds: f64,
) -> (Tally, PerQuery) {
    let mut tally = Tally::default();
    let mut per_query: PerQuery = vec![Vec::new(); deck.universe.len()];
    let mut cards = deck.cards.clone();
    while tally.busy_s < seconds {
        rng.shuffle(&mut cards);
        for &card in &cards {
            let t = Instant::now();
            let answer = engine.run(&deck.universe[card].1);
            let elapsed_ms = ms(t);
            tally.busy_s += elapsed_ms / 1e3;
            tally.op_ms.push(elapsed_ms);
            tally.read_ms.push(elapsed_ms);
            tally.check(matches!((&answer, &reference[card]), (Ok(a), Ok(b)) if a == b));
            per_query[card].push(elapsed_ms);
        }
        tally.end_round();
    }
    (tally, per_query)
}

/// The `k` of a Top-k or baseline query: the rank context it reads.
pub fn query_k(query: &Query) -> Option<usize> {
    match query {
        Query::TopK { k, .. } => Some(*k),
        Query::Baseline { kind } => Some(kind.k()),
        _ => None,
    }
}

/// The realised number of queries per family and per `k`, as JSON.
fn realised_mix(deck: &Deck, per_query: &PerQuery) -> String {
    let count = |keep: &dyn Fn(&(Family, Query)) -> bool| -> usize {
        deck.universe
            .iter()
            .zip(per_query)
            .filter(|(entry, _)| keep(entry))
            .map(|(_, samples)| samples.len())
            .sum()
    };
    let families: Vec<String> = Family::DECK
        .iter()
        .map(|(family, _)| format!("\"{family:?}\": {}", count(&|(f, _)| f == family)))
        .collect();
    let ks: Vec<String> = KS
        .iter()
        .map(|&k| format!("\"{k}\": {}", count(&|(_, q)| query_k(q) == Some(k))))
        .collect();
    format!(
        "\"family_counts\": {{{}}}, \"k_counts\": {{{}}}",
        families.join(", "),
        ks.join(", ")
    )
}

pub fn run(config: &Config, opts: &Opts) -> Result<Outcome, String> {
    let deck = Deck::new();
    let mut cold = ColdBuilds::default();
    let mut setups = Vec::new();
    let mut engine = None;
    for _ in 0..config.setup_reps.max(1) {
        let t = Instant::now();
        engine = Some(set_up(config, opts, &deck, &mut cold)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let engine = engine.expect("at least one set-up ran");

    // The correctness oracle: every distinct query answered once by a
    // freshly built engine with no sink attached.
    let inputs = inputs(config.blocks, config.groupby, opts.seed)?;
    let fresh = build(&inputs.tree, &inputs.groupby, opts.seed)?;
    let reference = fresh.run_batch_serial(
        &deck
            .universe
            .iter()
            .map(|(_, q)| q.clone())
            .collect::<Vec<_>>(),
    );

    let mut rng = Rng::new(opts.seed);
    let (untraced, served) =
        serve_phase(&engine, &deck, &reference, &mut rng, opts.phase_seconds());
    let mut layers = vec![
        ("genfunc.rank_context_ms", median(&cold.rank_context)),
        (
            "genfunc.preference_matrix_ms",
            median(&cold.preference_matrix),
        ),
        ("genfunc.coclustering_ms", median(&cold.coclustering)),
    ];
    let traced = if opts.trace {
        let (hits0, builds0, rank0) = cache_counts(&engine);
        let (tally, per_query) =
            serve_phase(&engine, &deck, &reference, &mut rng, opts.phase_seconds());
        let (hits1, builds1, rank1) = cache_counts(&engine);
        for (family, _) in Family::DECK {
            let samples: Vec<f64> = deck
                .universe
                .iter()
                .zip(&per_query)
                .filter(|((f, _), _)| *f == family)
                .flat_map(|(_, samples)| samples.iter().copied())
                .collect();
            let (name, scale) = family.metric();
            layers.push((name, median(&samples) * scale));
        }
        let (hits, builds) = ((hits1 - hits0) as f64, (builds1 - builds0) as f64);
        layers.push(("engine.cache_hit_ratio", ratio(hits, hits + builds)));
        layers.push((
            "engine.rank_context_builds_per_read",
            ratio((rank1 - rank0) as f64, tally.op_ms.len() as f64),
        ));
        Some(tally)
    } else {
        None
    };

    let detail = format!(
        "{{\"workload\": \"serve\", \"blocks\": {}, \"alternatives\": 2, \"maybe_fraction\": 0.3, \
         \"groupby\": [{}, {}], \"reads\": {}, {}, \"setup_reps\": {}, {}}}",
        config.blocks,
        config.groupby.0,
        config.groupby.1,
        untraced.op_ms.len(),
        realised_mix(&deck, &served),
        setups.len(),
        crate::resolved_config(&fresh),
    );
    Ok(Outcome {
        setup_s: median(&setups),
        untraced,
        traced,
        gates: Tally::default(),
        layers,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_has_the_stated_shares() {
        let deck = Deck::new();
        assert_eq!(deck.cards.len(), 400);
        let jaccard = deck
            .cards
            .iter()
            .filter(|&&c| deck.universe[c].0 == Family::SetJaccard)
            .count();
        assert_eq!(jaccard, 1);
    }

    #[test]
    fn smoke() {
        let config = Config {
            blocks: 20,
            groupby: (6, 3),
            setup_reps: 1,
        };
        let dir = std::path::PathBuf::from(".perfbench-run/serve-smoke");
        let opts = Opts {
            seed: 5,
            seconds: 0.2,
            trace: true,
            dir,
        };
        let outcome = run(&config, &opts).expect("serve runs");
        assert_eq!(outcome.untraced.failed, 0);
        assert!(outcome.traced.as_ref().expect("traced phase").op_ms.len() >= 400);
        assert!(outcome.result_line(false).contains("\"correct\": true"));
    }
}
