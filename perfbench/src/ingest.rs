//! `ingest`: a durable `LiveEngine` on the real filesystem taking one
//! seeded delta and then two reads per iteration.
//!
//! Every write crosses validate → patch → WAL fsync → publish, and the
//! default cadence compacts in the background every 32 writes. Most deltas
//! drop the rank contexts, so reads pay the generating-function rebuild that
//! `serve` never sees: work moved from writes to reads shows up here.

use crate::deltas::{DeltaStream, Mix};
use crate::serve::{build, cache_counts, inputs, query_k};
use crate::stats::{median, ms, percentile, ratio, Rng};
use crate::tally::{Outcome, Tally};
use crate::Opts;
use cpdb_consensus::aggregate::GroupByInstance;
use cpdb_engine::{BaselineKind, Query, SetMetric, TopKMetric, TreeDelta, Variant};
use cpdb_live::{LiveEngine, StoreOptions};
use cpdb_obs::{MetricsSnapshot, Obs};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Config {
    /// BID blocks (tuples) of the initial tree, two alternatives each.
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
            // Set-up is ~30 ms, mostly one snapshot fsync: more
            // repetitions steady its median.
            setup_reps: 7,
        }
    }
}

/// Writes per round of the loop: two snapshot cadences, so every round
/// pays the same share of compactions.
const ROUND_WRITES: usize = 64;

/// The lookup reads of the loop, with their kernel metric names.
fn reads() -> Vec<(&'static str, Query)> {
    let mut reads = Vec::new();
    for k in [5, 10] {
        for (name, metric) in [
            ("kernel.topk_symdiff_us", TopKMetric::SymmetricDifference),
            ("kernel.topk_intersection_us", TopKMetric::Intersection),
            ("kernel.topk_footrule_us", TopKMetric::Footrule),
        ] {
            let variant = Variant::Mean;
            reads.push((name, Query::TopK { k, metric, variant }));
        }
        let kind = BaselineKind::GlobalTopK { k };
        reads.push(("kernel.baseline_us", Query::Baseline { kind }));
    }
    let (metric, variant) = (SetMetric::SymmetricDifference, Variant::Mean);
    reads.push((
        "kernel.set_symdiff_us",
        Query::SetConsensus { metric, variant },
    ));
    let variant = Variant::Mean;
    reads.push(("kernel.aggregate_us", Query::Aggregate { variant }));
    reads
}

/// One set-up: generate, build at defaults, warm the artifacts a serving
/// engine holds, and start a durable engine (writes the epoch-0 snapshot).
fn set_up(config: &Config, opts: &Opts, dir: &Path) -> Result<LiveEngine, String> {
    let inputs = inputs(config.blocks, config.groupby, opts.seed)?;
    let engine = build(&inputs.tree, &inputs.groupby, opts.seed)?;
    engine.preference_matrix();
    engine.coclustering_weights();
    for (_, query) in reads() {
        engine.run(&query).map_err(|e| e.to_string())?;
    }
    LiveEngine::new_durable(engine, dir).map_err(|e| e.to_string())
}

/// What the traced phase measures besides the tally.
#[derive(Default)]
struct Trace {
    andxor_us: Vec<f64>,
    patch_ms: Vec<f64>,
    wal_us: Vec<f64>,
    publish_us: Vec<f64>,
    rank_context_ms: Vec<f64>,
    kernel_ms: Vec<(&'static str, f64)>,
    decisions: [usize; 3],
    /// Realised deltas per kind, in `DELTA_KINDS` order.
    kinds: [usize; 5],
}

const DELTA_KINDS: [&str; 5] = [
    "xor_edge_probability",
    "leaf_value",
    "insert_alternative",
    "remove_alternative",
    "insert_tuple_block",
];

fn delta_kind(delta: &TreeDelta) -> usize {
    match delta {
        TreeDelta::XorEdgeProbability { .. } => 0,
        TreeDelta::LeafValue { .. } => 1,
        TreeDelta::InsertAlternative { .. } => 2,
        TreeDelta::RemoveAlternative { .. } => 3,
        TreeDelta::InsertTupleBlock { .. } => 4,
    }
}

fn histogram_sum_ns(snapshot: &MetricsSnapshot, name: &str) -> u64 {
    snapshot.histogram(name).map_or(0, |h| h.sum_ns)
}

/// Runs write-then-two-reads iterations until `seconds` have been spent
/// inside `apply` and the reads. Every read is checked against a freshly
/// built engine on the same tree (outside the timed calls).
fn ingest_phase(
    live: &LiveEngine,
    stream: &mut DeltaStream,
    rng: &mut Rng,
    groupby: &GroupByInstance,
    seed: u64,
    seconds: f64,
    obs: Option<&Obs>,
) -> (Tally, Trace) {
    let reads = reads();
    let mut tally = Tally::default();
    let mut trace = Trace::default();
    while tally.busy_s < seconds {
        let snapshot = live.snapshot();
        let delta = stream.next_delta(snapshot.tree());
        trace.kinds[delta_kind(&delta)] += 1;
        let wal_before = obs.map(|o| histogram_sum_ns(&o.snapshot(), "store.wal.append"));
        if obs.is_some() {
            let t = Instant::now();
            let applied = snapshot.tree().apply_delta(&delta);
            trace.andxor_us.push(ms(t) * 1e3);
            let t = Instant::now();
            let patched = snapshot.engine().apply_delta(&delta);
            trace.patch_ms.push(ms(t));
            tally.check(applied.is_ok() && patched.is_ok());
        }
        drop(snapshot);
        let t = Instant::now();
        let outcome = live.apply(&delta);
        let apply_ms = ms(t);
        tally.busy_s += apply_ms / 1e3;
        tally.op_ms.push(apply_ms);
        tally.check(outcome.is_ok());
        if let (Ok(applied), Some(obs), Some(before)) = (&outcome, obs, wal_before) {
            let report = &applied.report;
            for (slot, n) in [report.patched(), report.invalidated(), report.kept()]
                .into_iter()
                .enumerate()
            {
                trace.decisions[slot] += n;
            }
            let wal_us =
                (histogram_sum_ns(&obs.snapshot(), "store.wal.append") - before) as f64 / 1e3;
            let patch_us = trace.patch_ms.last().copied().unwrap_or(0.0) * 1e3;
            trace.wal_us.push(wal_us);
            trace.publish_us.push(apply_ms * 1e3 - patch_us - wal_us);
        }

        for _ in 0..2 {
            let (kernel, query) = &reads[rng.below(reads.len())];
            let snapshot = live.snapshot();
            if let (Some(k), Some(_)) = (query_k(query), obs) {
                let (_, _, before) = cache_counts(&snapshot);
                let t = Instant::now();
                let built = snapshot.context(k);
                let elapsed = ms(t);
                // The untraced read does this build inside `run`; keep it
                // in the loop's time so both phases' throughput compare.
                tally.busy_s += elapsed / 1e3;
                tally.check(built.is_ok());
                if cache_counts(&snapshot).2 > before {
                    trace.rank_context_ms.push(elapsed);
                }
            }
            let t = Instant::now();
            let answer = snapshot.run(query);
            let read_ms = ms(t);
            tally.busy_s += read_ms / 1e3;
            tally.read_ms.push(read_ms);
            trace.kernel_ms.push((kernel, read_ms));
            let expected = build(snapshot.tree(), groupby, seed)
                .and_then(|fresh| fresh.run(query).map_err(|e| e.to_string()));
            tally.check(matches!((&answer, &expected), (Ok(a), Ok(b)) if a == b));
        }
        if tally.op_ms.len() % ROUND_WRITES == 0 {
            tally.end_round();
        }
    }
    (tally, trace)
}

/// Size in bytes of the newest snapshot file in `dir`.
pub fn newest_snapshot_bytes(dir: &Path) -> f64 {
    let newest = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let name = entry.file_name().into_string().ok()?;
            let epoch: u64 = name
                .strip_prefix("snapshot-")?
                .strip_suffix(".cpdb")?
                .parse()
                .ok()?;
            Some((epoch, entry.metadata().ok()?.len()))
        })
        .max();
    newest.map_or(0.0, |(_, bytes)| bytes as f64)
}

fn store_dir(live: &LiveEngine) -> std::path::PathBuf {
    let store = live.store().expect("set-up builds a durable engine");
    store.dir().to_path_buf()
}

/// Answers of every read on `live`'s current epoch.
fn probe(
    live: &LiveEngine,
) -> (
    u64,
    Vec<Result<cpdb_engine::Answer, cpdb_engine::EngineError>>,
) {
    let snapshot = live.snapshot();
    let answers = reads().iter().map(|(_, q)| snapshot.run(q)).collect();
    (snapshot.epoch(), answers)
}

pub fn run(config: &Config, opts: &Opts) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut live = None;
    for rep in 0..config.setup_reps.max(1) {
        if let Some(previous) = live.take() {
            let _ = std::fs::remove_dir_all(store_dir(&previous));
        }
        let t = Instant::now();
        live = Some(set_up(
            config,
            opts,
            &opts.dir.join(format!("store-{rep}")),
        )?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up ran");
    let dir = store_dir(&live);
    let groupby = inputs(config.blocks, config.groupby, opts.seed)?.groupby;
    let mut stream = DeltaStream::new(opts.seed, Mix::Ingest, live.snapshot().tree());
    let mut rng = Rng::new(opts.seed);
    let mut gates = Tally::default();

    let (untraced, realised) = ingest_phase(
        &live,
        &mut stream,
        &mut rng,
        &groupby,
        opts.seed,
        opts.phase_seconds(),
        None,
    );
    let mut layers = Vec::new();
    let traced = if opts.trace {
        // Reopen with one sink behind the store, the live layer and the
        // engine, so the WAL-append and compaction series are recorded.
        live.await_compaction();
        let epoch = live.epoch();
        drop(live);
        let obs = Obs::enabled();
        let options = StoreOptions {
            obs: obs.clone(),
            ..StoreOptions::default()
        };
        live = LiveEngine::open_with(&dir, options).map_err(|e| e.to_string())?;
        gates.check(live.epoch() == epoch);
        let (hits0, builds0, rank0) = cache_counts(&live.snapshot());
        let before = obs.snapshot();
        let (tally, trace) = ingest_phase(
            &live,
            &mut stream,
            &mut rng,
            &groupby,
            opts.seed,
            opts.phase_seconds(),
            Some(&obs),
        );
        live.await_compaction();
        let after = obs.snapshot();
        let (hits1, builds1, rank1) = cache_counts(&live.snapshot());
        let writes = tally.op_ms.len() as f64;
        let delta = |name: &str| {
            (after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0)) as f64
        };
        let histogram = |name: &str| {
            let (a, b) = (after.histogram(name), before.histogram(name));
            let count = a.map_or(0, |h| h.count) - b.map_or(0, |h| h.count);
            let sum_ns = a.map_or(0, |h| h.sum_ns) - b.map_or(0, |h| h.sum_ns);
            (count as f64, sum_ns as f64)
        };
        let (snapshots, snapshot_ns) = histogram("store.snapshot.write");
        let (compactions, _) = histogram("live.compaction");
        let (hits, builds) = ((hits1 - hits0) as f64, (builds1 - builds0) as f64);
        layers.extend([
            ("andxor.apply_us", median(&trace.andxor_us)),
            ("engine.patch_ms_p50", percentile(&trace.patch_ms, 0.5)),
            ("engine.patch_ms_p99", percentile(&trace.patch_ms, 0.99)),
            (
                "engine.delta_patched_per_write",
                trace.decisions[0] as f64 / writes,
            ),
            (
                "engine.delta_invalidated_per_write",
                trace.decisions[1] as f64 / writes,
            ),
            (
                "engine.delta_kept_per_write",
                trace.decisions[2] as f64 / writes,
            ),
            ("engine.cache_hit_ratio", ratio(hits, hits + builds)),
            (
                "engine.rank_context_builds_per_read",
                ratio((rank1 - rank0) as f64, tally.read_ms.len() as f64),
            ),
            ("genfunc.rank_context_ms", median(&trace.rank_context_ms)),
            ("store.wal_append_us_p50", percentile(&trace.wal_us, 0.5)),
            ("store.wal_append_us_p99", percentile(&trace.wal_us, 0.99)),
            ("store.fsyncs_per_write", delta("store.vfs.fsyncs") / writes),
            (
                "store.bytes_written_per_write",
                delta("store.vfs.bytes_written") / writes,
            ),
            (
                "store.snapshot_write_ms",
                ratio(snapshot_ns / 1e6, snapshots),
            ),
            ("store.snapshot_bytes", newest_snapshot_bytes(&dir)),
            ("live.apply_ms_p50", percentile(&tally.op_ms, 0.5)),
            ("live.apply_ms_p99", percentile(&tally.op_ms, 0.99)),
            ("live.publish_us", median(&trace.publish_us)),
            ("live.compactions_per_1k_writes", compactions * 1e3 / writes),
        ]);
        for (name, _) in reads() {
            if layers.iter().any(|(n, _)| *n == name) {
                continue;
            }
            let samples: Vec<f64> = trace
                .kernel_ms
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|(_, v)| v * 1e3)
                .collect();
            layers.push((name, median(&samples)));
        }
        Some(tally)
    } else {
        None
    };

    // Durability gate: a restart with no sink recovers the last
    // acknowledged epoch and answers every read exactly like the writer.
    live.await_compaction();
    let written = probe(&live);
    let tuples = live.snapshot().tree().keys().len();
    let config_json = crate::resolved_config(live.snapshot().engine());
    drop(live);
    let reopened = LiveEngine::open(&dir).map_err(|e| e.to_string());
    gates.check(matches!(&reopened, Ok(r) if probe(r) == written));

    let count = |names: &[&str], of: &dyn Fn(usize) -> usize| -> String {
        let members: Vec<String> = names
            .iter()
            .enumerate()
            .map(|(i, name)| format!("\"{name}\": {}", of(i)))
            .collect();
        members.join(", ")
    };
    let mut kernels: Vec<&str> = reads().iter().map(|(name, _)| *name).collect();
    kernels.sort_unstable();
    kernels.dedup();
    let read_counts = count(&kernels, &|i| {
        realised
            .kernel_ms
            .iter()
            .filter(|(n, _)| *n == kernels[i])
            .count()
    });
    let detail = format!(
        "{{\"workload\": \"ingest\", \"blocks\": {}, \"alternatives\": 2, \"maybe_fraction\": 0.3, \
         \"groupby\": [{}, {}], \"writes\": {}, \"reads\": {}, \"delta_counts\": {{{}}}, \
         \"read_counts\": {{{}}}, \"tuples_at_end\": {tuples}, \"setup_reps\": {}, \
         \"snapshot_every\": 32, \"store_options\": \"default\", \"fsync\": \"every write\", {config_json}}}",
        config.blocks,
        config.groupby.0,
        config.groupby.1,
        untraced.op_ms.len(),
        untraced.read_ms.len(),
        count(&DELTA_KINDS, &|i| realised.kinds[i]),
        read_counts,
        setups.len(),
    );
    Ok(Outcome {
        setup_s: median(&setups),
        untraced,
        traced,
        gates,
        layers,
        detail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        let config = Config {
            blocks: 20,
            groupby: (6, 3),
            setup_reps: 2,
        };
        let opts = Opts {
            seed: 9,
            seconds: 0.3,
            trace: true,
            dir: std::path::PathBuf::from(".perfbench-run/ingest-smoke"),
        };
        let _ = std::fs::remove_dir_all(&opts.dir);
        let outcome = run(&config, &opts).expect("ingest runs");
        let _ = std::fs::remove_dir_all(&opts.dir);
        let _ = std::fs::remove_dir(".perfbench-run");
        assert_eq!(outcome.untraced.failed + outcome.gates.failed, 0);
        assert!(outcome.untraced.op_ms.len() >= 2);
        assert_eq!(outcome.traced.as_ref().expect("traced phase").failed, 0);
        assert!(outcome.result_line(true).contains("\"correct\": true"));
    }
}
