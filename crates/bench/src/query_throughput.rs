//! The `query_throughput` scenario: sustained mixed-workload query
//! throughput, written to `BENCH_query_throughput.json`.
//!
//! The workload models production serving traffic against one
//! [`ConsensusEngine`]: mixed batches of Top-k queries (all four metrics plus
//! the symmetric-difference median), set-consensus, aggregate, clustering,
//! and baseline queries at several `k`, with each distinct query repeated
//! `dup` times — real traffic repeats popular queries, which is exactly what
//! the batch executor's dedup amortises. Two executors answer the same batch:
//!
//! * **serial** — [`ConsensusEngine::run_batch_serial`], the plain `run`
//!   loop (one query at a time, no dedup);
//! * **parallel** — [`ConsensusEngine::run_batch`], deduplicated fan-out
//!   dispatch (each artifact is built once by the first query that needs
//!   it).
//!
//! Both are measured **cold** (fresh engine, artifact builds included) and
//! **warm** (engine already holds every artifact — the paper's serving
//! regime, where consensus answers are cheap once the generating-function
//! work is done). Answers are bit-identical between the two executors; the
//! scenario asserts it on every run.
//!
//! The report records `machine_threads` (what
//! `std::thread::available_parallelism` saw): on a single-core runner the
//! parallel wins come from the batch executor's dedup amortisation alone;
//! multi-core runners add thread-level speedup on top.

use crate::harness::{best_of, Json, Outcome, REPS, SEED};
use crate::Table;
use cpdb_consensus::aggregate::GroupByInstance;
use cpdb_engine::{
    Answer, BaselineKind, ConsensusEngine, ConsensusEngineBuilder, EngineError, Query, SetMetric,
    TopKMetric, Variant,
};
use cpdb_parallel::resolve_threads;

/// Copies of each distinct query in the duplicated (gated) batches; every
/// run also measures the all-unique `dup = 1` batch.
const DUP: usize = 4;

/// Builder thread counts measured per batch.
const THREADS: [usize; 4] = [1, 2, 4, 8];

/// The `k`s of the mixed batch.
const KS: [usize; 2] = [5, 10];

/// The scored-BID serving tree (`n` blocks × 2 alternatives, the same
/// `scaling_tree` family the artifact benches use).
pub fn serving_tree(n: usize, seed: u64) -> cpdb_andxor::AndXorTree {
    crate::experiments::scaling_tree(n, seed)
}

/// A deterministic group-by instance so aggregate queries participate in the
/// mixed traffic.
pub fn serving_groupby(groups: usize, tuples: usize) -> GroupByInstance {
    let probs: Vec<Vec<f64>> = (0..tuples)
        .map(|t| {
            let mut row: Vec<f64> = (0..groups)
                .map(|v| ((t * 7 + v * 13) % 10) as f64 + 1.0)
                .collect();
            let total: f64 = row.iter().sum();
            row.iter_mut().for_each(|p| *p /= total);
            row
        })
        .collect();
    GroupByInstance::new(probs).expect("rows are normalised")
}

/// Builds the serving engine for the workload (`threads` = builder knob, `0`
/// = auto).
pub fn serving_engine(n: usize, seed: u64, threads: usize) -> ConsensusEngine {
    ConsensusEngineBuilder::new(serving_tree(n, seed))
        .seed(seed)
        .kendall_distance_samples(64)
        .groupby(serving_groupby(4, 12))
        .threads(threads)
        .build()
        .expect("valid serving configuration")
}

/// The mixed serving batch: every query family over the given `k`s, each
/// distinct query repeated `dup` times (interleaved, as traffic would
/// arrive). `dup = 1` gives an all-unique batch.
pub fn mixed_batch(ks: &[usize], dup: usize) -> Vec<Query> {
    let mut distinct = Vec::new();
    for &k in ks {
        for metric in [
            TopKMetric::SymmetricDifference,
            TopKMetric::Intersection,
            TopKMetric::Footrule,
            TopKMetric::Kendall,
        ] {
            distinct.push(Query::TopK {
                k,
                metric,
                variant: Variant::Mean,
            });
        }
        distinct.push(Query::TopK {
            k,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Median,
        });
        distinct.push(Query::Baseline {
            kind: BaselineKind::GlobalTopK { k },
        });
        distinct.push(Query::Baseline {
            kind: BaselineKind::ProbabilisticThreshold { k, threshold: 0.4 },
        });
    }
    distinct.push(Query::SetConsensus {
        metric: SetMetric::SymmetricDifference,
        variant: Variant::Mean,
    });
    distinct.push(Query::SetConsensus {
        metric: SetMetric::Jaccard,
        variant: Variant::Mean,
    });
    distinct.push(Query::Aggregate {
        variant: Variant::Mean,
    });
    distinct.push(Query::Clustering { restarts: 4 });
    let mut batch = Vec::with_capacity(distinct.len() * dup.max(1));
    for _ in 0..dup.max(1) {
        batch.extend(distinct.iter().cloned());
    }
    batch
}

/// Asserts the two executors returned bit-identical batches (the contract
/// every throughput number in the report relies on).
pub fn assert_identical(
    serial: &[Result<Answer, EngineError>],
    parallel: &[Result<Answer, EngineError>],
) {
    assert_eq!(
        serial, parallel,
        "parallel run_batch diverged from the serial loop"
    );
}

/// Serial and parallel QPS of one batch shape at one thread count.
pub struct QpsScenario {
    /// Copies of each distinct query in the batch.
    pub dup: usize,
    /// Builder thread count.
    pub threads: usize,
    /// Queries per batch.
    pub batch_len: usize,
    /// Warm engine, plain `run` loop.
    pub warm_serial_qps: f64,
    /// Warm engine, `run_batch`.
    pub warm_parallel_qps: f64,
    /// Fresh engine per run, plain `run` loop.
    pub cold_serial_qps: f64,
    /// Fresh engine per run, `run_batch`.
    pub cold_parallel_qps: f64,
}

impl QpsScenario {
    /// The JSON key, `dup<d>_t<threads>`.
    pub fn label(&self) -> String {
        format!("dup{}_t{}", self.dup, self.threads)
    }

    /// Warm `parallel / serial`.
    pub fn warm_speedup(&self) -> f64 {
        self.warm_parallel_qps / self.warm_serial_qps
    }

    /// Cold `parallel / serial`.
    pub fn cold_speedup(&self) -> f64 {
        self.cold_parallel_qps / self.cold_serial_qps
    }
}

/// Every measured scenario of one run.
pub struct QueryThroughputResult {
    /// Scored-BID blocks.
    pub n: usize,
    /// What `std::thread::available_parallelism` saw.
    pub machine_threads: usize,
    /// One entry per `(dup, threads)`.
    pub scenarios: Vec<QpsScenario>,
}

fn measure_one(n: usize, dup: usize, threads: usize) -> QpsScenario {
    let batch = mixed_batch(&KS, dup);
    let qps = |best_seconds: f64| batch.len() as f64 / best_seconds;
    // Warm: one engine with every artifact built; answers must agree.
    let warm = serving_engine(n, SEED, threads);
    assert_identical(&warm.run_batch_serial(&batch), &warm.run_batch(&batch));
    QpsScenario {
        dup,
        threads,
        batch_len: batch.len(),
        warm_serial_qps: qps(best_of(REPS, || warm.run_batch_serial(&batch))),
        warm_parallel_qps: qps(best_of(REPS, || warm.run_batch(&batch))),
        // Cold: a fresh engine per run, artifact builds on the clock.
        cold_serial_qps: qps(best_of(REPS, || {
            serving_engine(n, SEED, threads).run_batch_serial(&batch)
        })),
        cold_parallel_qps: qps(best_of(REPS, || {
            serving_engine(n, SEED, threads).run_batch(&batch)
        })),
    }
}

/// Measures the all-unique and the `DUP`-duplicated batch at every
/// thread count on an `n`-block engine.
pub fn measure(n: usize) -> QueryThroughputResult {
    QueryThroughputResult {
        n,
        machine_threads: resolve_threads(0),
        scenarios: [1, DUP]
            .into_iter()
            .flat_map(|dup| THREADS.map(|threads| measure_one(n, dup, threads)))
            .collect(),
    }
}

/// The gate: on every duplicated (`dup > 1`) batch the warm parallel
/// executor is no slower than the serial loop. The all-unique and cold
/// scenarios are reported, not gated.
pub fn gate(r: &QueryThroughputResult) -> Vec<String> {
    r.scenarios
        .iter()
        .filter(|s| s.dup > 1 && s.warm_speedup() < 1.0)
        .map(|s| {
            format!(
                "{} warm parallel batch ({:.1} q/s) is slower than the serial loop ({:.1} q/s)",
                s.label(),
                s.warm_parallel_qps,
                s.warm_serial_qps
            )
        })
        .collect()
}

/// The `BENCH_query_throughput.json` document.
pub fn json(r: &QueryThroughputResult) -> Json {
    let mut scenarios = Json::object();
    for s in &r.scenarios {
        scenarios = scenarios.field(
            s.label(),
            Json::object()
                .field("dup", s.dup)
                .field("threads", s.threads)
                .field("batch_len", s.batch_len)
                .field("warm_serial_qps", Json::fixed(s.warm_serial_qps, 1))
                .field("warm_parallel_qps", Json::fixed(s.warm_parallel_qps, 1))
                .field(
                    "warm_parallel_over_serial",
                    Json::fixed(s.warm_speedup(), 2),
                )
                .field("cold_serial_qps", Json::fixed(s.cold_serial_qps, 1))
                .field("cold_parallel_qps", Json::fixed(s.cold_parallel_qps, 1))
                .field(
                    "cold_parallel_over_serial",
                    Json::fixed(s.cold_speedup(), 2),
                ),
        );
    }
    Json::object()
        .field("schema", "cpdb.query_throughput.v1")
        .field(
            "workload",
            Json::object()
                .field("n", r.n)
                .field("seed", SEED)
                .field("reps", REPS)
                .field("ks", KS.map(Json::from).to_vec())
                .field("machine_threads", r.machine_threads),
        )
        .field(
            "note",
            "mixed serving batches; dup = copies of each distinct query per batch \
             (production traffic repeats popular queries). Parallel = run_batch \
             (deduplicated fan-out, each artifact built once); serial = plain run loop. \
             Answers bit-identical between executors on every measurement. On a 1-thread \
             machine the parallel win is dedup amortisation; extra cores multiply it.",
        )
        .field("scenarios", scenarios)
}

fn table(r: &QueryThroughputResult) -> String {
    let mut t = Table::new(
        &format!(
            "query_throughput — n = {}, best of {REPS}, mixed batch over k ∈ {KS:?}, machine threads = {}",
            r.n, r.machine_threads
        ),
        &[
            "scenario",
            "batch",
            "warm serial q/s",
            "warm parallel q/s",
            "x",
            "cold serial q/s",
            "cold parallel q/s",
            "x",
        ],
    );
    for s in &r.scenarios {
        t.add_row(vec![
            s.label(),
            s.batch_len.to_string(),
            format!("{:.1}", s.warm_serial_qps),
            format!("{:.1}", s.warm_parallel_qps),
            format!("{:.2}x", s.warm_speedup()),
            format!("{:.1}", s.cold_serial_qps),
            format!("{:.1}", s.cold_parallel_qps),
            format!("{:.2}x", s.cold_speedup()),
        ]);
    }
    t.render()
}

/// Runs the scenario on an `--n`-block engine.
pub fn scenario(n: usize) -> Outcome {
    let r = measure(n);
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
    fn mixed_batch_executors_agree_and_dedup_counts() {
        let engine = serving_engine(16, 3, 2);
        let batch = mixed_batch(&[2, 4], 3);
        let parallel = engine.run_batch(&batch);
        let serial = serving_engine(16, 3, 1).run_batch_serial(&batch);
        assert_identical(&serial, &parallel);
        // dup = 3 ⇒ two thirds of the batch are dedup clones.
        assert_eq!(
            engine.cache_stats().batch_dedup_hits,
            batch.len() / 3 * 2,
            "{:?}",
            engine.cache_stats()
        );
    }
}
