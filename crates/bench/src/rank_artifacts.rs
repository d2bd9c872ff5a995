//! The `rank_artifacts` scenario: legacy-vs-batch cold builds of the
//! rank-PMF table, the Kendall tournament and the co-clustering weights,
//! written to `BENCH_rank_artifacts.json`.
//!
//! "Legacy" is the pre-batch cold-build path: one generating-function sweep
//! per key for the rank-PMF table, one per ordered pair for the Kendall
//! tournament, one per pair for the co-clustering weights. "Batch" is the
//! single-sweep evaluator of `cpdb_andxor::batch` the engine now routes
//! through.

use crate::harness::{best_of, Json, Outcome, REPS, SEED};
use crate::Table;
use cpdb_andxor::AndXorTree;
use cpdb_consensus::clustering::CoClusteringWeights;
use cpdb_model::TupleKey;
use cpdb_parallel::resolve_threads;
use cpdb_workloads::{random_clustering_tree, ClusteringConfig};
use std::collections::HashMap;

/// The scored-BID workload both rank-table and tournament measurements run
/// on (`n` blocks × 2 alternatives, the `scaling_tree` family).
pub fn rank_workload(n: usize, seed: u64) -> AndXorTree {
    crate::experiments::scaling_tree(n, seed)
}

/// The attribute-uncertainty workload the co-clustering measurement runs on
/// (shared values across keys, so same-value co-occurrences actually occur).
pub fn clustering_workload(n: usize, seed: u64) -> AndXorTree {
    random_clustering_tree(&ClusteringConfig {
        num_tuples: n,
        num_values: 8,
        cohesion: 0.7,
        absence: 0.1,
        seed,
    })
}

/// Legacy rank-PMF table: one per-tuple generating-function sweep per key
/// (what `TopKContext::new` did before the batch evaluator).
pub fn legacy_rank_table(tree: &AndXorTree, k: usize) -> HashMap<TupleKey, Vec<f64>> {
    tree.keys()
        .into_iter()
        .map(|key| (key, tree.rank_pmf(key, k)))
        .collect()
}

/// Batch rank-PMF table ([`AndXorTree::batch_rank_pmfs`]).
pub fn batch_rank_table(
    tree: &AndXorTree,
    k: usize,
    threads: usize,
) -> HashMap<TupleKey, Vec<f64>> {
    tree.batch_rank_pmfs(k, threads)
}

/// Legacy Kendall tournament: two generating-function sweeps per ordered
/// pair (what `preference_matrix` did before the batch evaluator). Row-major
/// over `keys`.
pub fn legacy_tournament(tree: &AndXorTree, keys: &[TupleKey]) -> Vec<f64> {
    let n = keys.len();
    let mut out = vec![0.0; n * n];
    for (i, &a) in keys.iter().enumerate() {
        for (j, &b) in keys.iter().enumerate() {
            if i != j {
                out[i * n + j] = tree.pairwise_order_probability(a, b);
            }
        }
    }
    out
}

/// Batch Kendall tournament ([`AndXorTree::batch_pairwise_order`]).
pub fn batch_tournament(tree: &AndXorTree, keys: &[TupleKey], threads: usize) -> Vec<f64> {
    tree.batch_pairwise_order(keys, threads)
}

/// Legacy co-clustering weights: one generating-function sweep per pair.
pub fn legacy_cocluster(tree: &AndXorTree) -> CoClusteringWeights {
    CoClusteringWeights::from_tree_per_pair(tree)
}

/// Batch co-clustering weights.
pub fn batch_cocluster(tree: &AndXorTree, threads: usize) -> CoClusteringWeights {
    CoClusteringWeights::from_tree_with_parallelism(tree, threads)
}

/// Largest absolute difference between two rank tables over all keys/ranks.
pub fn rank_table_max_diff(
    a: &HashMap<TupleKey, Vec<f64>>,
    b: &HashMap<TupleKey, Vec<f64>>,
) -> f64 {
    let mut max = 0.0f64;
    for (key, pa) in a {
        let pb = &b[key];
        for (x, y) in pa.iter().zip(pb) {
            max = max.max((x - y).abs());
        }
    }
    max
}

/// Largest absolute difference between two row-major matrices.
pub fn matrix_max_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

/// Largest absolute difference between two co-clustering weight sets.
pub fn cocluster_max_diff(a: &CoClusteringWeights, b: &CoClusteringWeights) -> f64 {
    let keys = a.keys();
    let mut max = 0.0f64;
    for (idx, &i) in keys.iter().enumerate() {
        for &j in keys.iter().skip(idx + 1) {
            max = max.max((a.weight(i, j) - b.weight(i, j)).abs());
        }
    }
    max
}

/// One artifact's legacy and batch cold builds.
pub struct Comparison {
    /// Artifact label (the JSON key).
    pub name: &'static str,
    /// Legacy per-tuple build, best of [`REPS`] ms.
    pub legacy_ms: f64,
    /// Batch build on one thread, best of [`REPS`] ms.
    pub batch_single_ms: f64,
    /// Batch build on every machine thread, best of [`REPS`] ms.
    pub batch_parallel_ms: f64,
    /// Largest absolute difference between the legacy and batch results.
    pub max_abs_diff: f64,
}

impl Comparison {
    /// `legacy / batch(1)`.
    pub fn speedup_single(&self) -> f64 {
        self.legacy_ms / self.batch_single_ms
    }

    /// `legacy / batch(T)`.
    pub fn speedup_parallel(&self) -> f64 {
        self.legacy_ms / self.batch_parallel_ms
    }
}

/// The measured workload and its three comparisons.
pub struct RankArtifactsResult {
    /// Scored-BID blocks.
    pub n: usize,
    /// Rank-table depth.
    pub k: usize,
    /// Threads behind the parallel column.
    pub threads: usize,
    /// Rank-PMF table, Kendall tournament, co-clustering weights.
    pub comparisons: Vec<Comparison>,
}

fn compare<T>(
    name: &'static str,
    legacy: impl Fn() -> T,
    batch: impl Fn(usize) -> T,
    threads: usize,
    diff: impl Fn(&T, &T) -> f64,
) -> Comparison {
    let max_abs_diff = diff(&legacy(), &batch(1));
    Comparison {
        name,
        legacy_ms: best_of(REPS, &legacy) * 1e3,
        batch_single_ms: best_of(REPS, || batch(1)) * 1e3,
        batch_parallel_ms: best_of(REPS, || batch(threads)) * 1e3,
        max_abs_diff,
    }
}

/// Times every artifact's legacy and batch cold builds on an `n`-block
/// workload at depth `k`.
pub fn measure(n: usize, k: usize) -> RankArtifactsResult {
    let threads = resolve_threads(0);
    let tree = rank_workload(n, SEED);
    let keys = tree.keys();
    let ctree = clustering_workload(n, SEED);
    let comparisons = vec![
        compare(
            "rank_pmf_table",
            || legacy_rank_table(&tree, k),
            |t| batch_rank_table(&tree, k, t),
            threads,
            rank_table_max_diff,
        ),
        compare(
            "kendall_tournament",
            || legacy_tournament(&tree, &keys),
            |t| batch_tournament(&tree, &keys, t),
            threads,
            |a, b| matrix_max_diff(a, b),
        ),
        compare(
            "coclustering_weights",
            || legacy_cocluster(&ctree),
            |t| batch_cocluster(&ctree, t),
            threads,
            cocluster_max_diff,
        ),
    ];
    RankArtifactsResult {
        n,
        k,
        threads,
        comparisons,
    }
}

/// The gate: every batch build agrees with its legacy twin to 1e-9 and is
/// no slower on one thread.
pub fn gate(r: &RankArtifactsResult) -> Vec<String> {
    let mut failures = Vec::new();
    for c in &r.comparisons {
        if c.max_abs_diff > 1e-9 {
            failures.push(format!(
                "{} batch diverges from the per-tuple path by {:.2e}",
                c.name, c.max_abs_diff
            ));
        }
        if c.speedup_single() < 1.0 {
            failures.push(format!(
                "{} batch cold build ({:.3} ms) is slower than legacy ({:.3} ms)",
                c.name, c.batch_single_ms, c.legacy_ms
            ));
        }
    }
    failures
}

/// The `BENCH_rank_artifacts.json` document.
pub fn json(r: &RankArtifactsResult) -> Json {
    let mut builds = Json::object();
    for c in &r.comparisons {
        builds = builds.field(
            c.name,
            Json::object()
                .field("legacy_ms", Json::fixed(c.legacy_ms, 3))
                .field("batch_single_thread_ms", Json::fixed(c.batch_single_ms, 3))
                .field("batch_parallel_ms", Json::fixed(c.batch_parallel_ms, 3))
                .field("speedup_single_thread", Json::fixed(c.speedup_single(), 2))
                .field("speedup_parallel", Json::fixed(c.speedup_parallel(), 2))
                .field("max_abs_diff", Json::sci(c.max_abs_diff)),
        );
    }
    Json::object()
        .field("schema", "cpdb.rank_artifacts.v1")
        .field(
            "workload",
            Json::object()
                .field("n", r.n)
                .field("k", r.k)
                .field("seed", SEED)
                .field("reps", REPS)
                .field("parallel_threads", r.threads),
        )
        .field("cold_builds", builds)
}

fn table(r: &RankArtifactsResult) -> String {
    let mut t = Table::new(
        &format!(
            "rank_artifacts cold builds — n = {}, k = {}, best of {REPS}, {} thread(s) for the parallel column",
            r.n, r.k, r.threads
        ),
        &["artifact", "legacy ms", "batch(1) ms", "batch(T) ms", "x1", "xT", "max |Δ|"],
    );
    for c in &r.comparisons {
        t.add_row(vec![
            c.name.to_string(),
            format!("{:.3}", c.legacy_ms),
            format!("{:.3}", c.batch_single_ms),
            format!("{:.3}", c.batch_parallel_ms),
            format!("{:.1}x", c.speedup_single()),
            format!("{:.1}x", c.speedup_parallel()),
            format!("{:.2e}", c.max_abs_diff),
        ]);
    }
    t.render()
}

/// Runs the scenario: `--n` blocks, `--k` rank depth.
pub fn scenario(n: usize, k: usize) -> Outcome {
    let r = measure(n, k);
    Outcome {
        table: table(&r),
        json: json(&r),
        failures: gate(&r),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legacy_and_batch_artifacts_agree_on_a_small_workload() {
        let tree = rank_workload(24, 11);
        let keys = tree.keys();
        assert!(
            rank_table_max_diff(&legacy_rank_table(&tree, 5), &batch_rank_table(&tree, 5, 1))
                < 1e-12
        );
        assert!(
            matrix_max_diff(
                &legacy_tournament(&tree, &keys),
                &batch_tournament(&tree, &keys, 1)
            ) < 1e-12
        );
        let ctree = clustering_workload(16, 11);
        assert!(cocluster_max_diff(&legacy_cocluster(&ctree), &batch_cocluster(&ctree, 1)) < 1e-12);
    }
}
