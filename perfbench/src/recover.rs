//! `recover`: restart and replica catch-up on a nested and/xor tree — the
//! paper's general correlated model, where snapshot decode, WAL replay and
//! segment fetch/verify/replay do most of the work.
//!
//! Set-up leaves a closed primary behind: a warm snapshot, a 16-delta WAL
//! tail (half the default 32-delta cadence, the expected tail at a random
//! crash) and an outbox holding the shipped anchor and tail. Each cycle
//! restarts the primary's store and brings a fresh follower to its epoch.

use crate::deltas::{DeltaStream, Mix};
use crate::ingest::newest_snapshot_bytes;
use crate::serve::{cache_counts, KS};
use crate::stats::{median, ms, percentile, ratio};
use crate::tally::{Outcome, Tally};
use crate::Opts;
use cpdb_engine::{
    Answer, BaselineKind, ConsensusEngine, ConsensusEngineBuilder, EngineError, Query, SetMetric,
    TopKMetric, Variant,
};
use cpdb_live::{LiveEngine, StoreOptions};
use cpdb_obs::Obs;
use cpdb_replica::{check_divergence, epoch_digest, Follower, Primary, Transport};
use cpdb_store::{std_vfs, Store};
use cpdb_workloads::{random_andxor_tree, AndXorTreeConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Config {
    /// Leaves of the nested and/xor tree.
    pub leaves: usize,
    /// Grouping layers and fan-out of the tree.
    pub depth: usize,
    pub fanout: usize,
    /// Deltas in the WAL tail left behind the snapshot.
    pub tail: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Config {
    pub fn full() -> Self {
        Config {
            leaves: 500,
            depth: 2,
            fanout: 4,
            tail: 16,
            setup_reps: 3,
        }
    }
}

/// The reads answered after every restart and catch-up: a Top-k read at
/// every `k` of `serve`, each paying the rank-context rebuild the replayed
/// deltas forced, then other lookup families. The time to answer the whole
/// set is one read sample; every answer is compared with the closed
/// primary's.
fn probes() -> Vec<Query> {
    let mut probes: Vec<Query> = KS
        .iter()
        .map(|&k| Query::TopK {
            k,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Mean,
        })
        .collect();
    probes.extend([
        Query::TopK {
            k: 10,
            metric: TopKMetric::Footrule,
            variant: Variant::Mean,
        },
        Query::SetConsensus {
            metric: SetMetric::SymmetricDifference,
            variant: Variant::Mean,
        },
        Query::Baseline {
            kind: BaselineKind::GlobalTopK { k: 10 },
        },
    ]);
    probes
}

type Answers = Vec<Result<Answer, EngineError>>;

/// What a cycle must reproduce: the closed primary's epoch, state digest
/// and probe answers, all taken with no sink attached.
struct Primary0 {
    store: PathBuf,
    outbox: PathBuf,
    epoch: u64,
    digest: u32,
    answers: Answers,
}

/// Cold generating-function builds and ship times of one set-up, in ms.
#[derive(Default)]
struct SetupTimes {
    preference_matrix: Vec<f64>,
    coclustering: Vec<f64>,
    ship: Vec<f64>,
}

fn set_up(
    config: &Config,
    opts: &Opts,
    rep: usize,
    times: &mut SetupTimes,
) -> Result<Primary0, String> {
    let store = opts.dir.join(format!("primary-{rep}"));
    let outbox = opts.dir.join(format!("outbox-{rep}"));
    let engine = ConsensusEngineBuilder::new(tree(config, opts.seed))
        .seed(opts.seed)
        .build()
        .map_err(|e| e.to_string())?;
    warm(&engine, times)?;
    let live = LiveEngine::new_durable(engine, &store).map_err(|e| e.to_string())?;
    let primary = Primary::attach(live, std_vfs(), &outbox).map_err(|e| e.to_string())?;
    ship(&primary, times)?;
    let mut stream = DeltaStream::new(opts.seed, Mix::Reweight, primary.snapshot().tree());
    for _ in 0..config.tail {
        let delta = stream.next_delta(primary.snapshot().tree());
        primary.apply(&delta).map_err(|e| e.to_string())?;
    }
    ship(&primary, times)?;
    let snapshot = primary.snapshot();
    let answers = probes().iter().map(|q| snapshot.run(q)).collect();
    Ok(Primary0 {
        store,
        outbox,
        epoch: snapshot.epoch(),
        digest: epoch_digest(&snapshot),
        answers,
    })
}

fn tree(config: &Config, seed: u64) -> cpdb_andxor::AndXorTree {
    random_andxor_tree(&AndXorTreeConfig {
        num_leaves: config.leaves,
        depth: config.depth,
        fanout: config.fanout,
        seed,
        ..AndXorTreeConfig::default()
    })
}

fn ship(primary: &Primary, times: &mut SetupTimes) -> Result<(), String> {
    let t = Instant::now();
    primary.ship().map_err(|e| e.to_string())?;
    times.ship.push(ms(t));
    Ok(())
}

/// Builds the artifact families `serve` uses before the snapshot is cut.
fn warm(engine: &ConsensusEngine, times: &mut SetupTimes) -> Result<(), String> {
    for k in KS {
        engine.context(k).map_err(|e| e.to_string())?;
    }
    let t = Instant::now();
    std::hint::black_box(engine.preference_matrix());
    times.preference_matrix.push(ms(t));
    let t = Instant::now();
    std::hint::black_box(engine.coclustering_weights());
    times.coclustering.push(ms(t));
    for query in probes() {
        engine.run(&query).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Per-cycle layer timings of the traced phase, in ms unless named.
#[derive(Default)]
struct Trace {
    store_open: Vec<f64>,
    from_export: Vec<f64>,
    replay_per_record: Vec<f64>,
    patch: Vec<f64>,
    andxor_us: Vec<f64>,
    open_s: Vec<f64>,
    bootstrap: Vec<f64>,
    sync: Vec<f64>,
    catchup_s: Vec<f64>,
    hits: u64,
    builds: u64,
}

/// The restart path taken apart: store recovery, engine import, and the
/// replay of each WAL record.
fn decompose(dir: &Path, options: StoreOptions, trace: &mut Trace) -> Result<(), String> {
    let t = Instant::now();
    let (store, recovered) = Store::open_with(dir, options).map_err(|e| e.to_string())?;
    trace.store_open.push(ms(t));
    drop(store);
    let (_, export) = recovered.snapshot.ok_or("store holds no snapshot")?;
    let t = Instant::now();
    let mut engine = ConsensusEngine::from_export(&export).map_err(|e| e.to_string())?;
    trace.from_export.push(ms(t));
    let replay = Instant::now();
    for (_, delta) in &recovered.wal {
        let t = Instant::now();
        std::hint::black_box(
            engine
                .tree()
                .apply_delta(delta)
                .map_err(|e| e.to_string())?,
        );
        trace.andxor_us.push(ms(t) * 1e3);
        let t = Instant::now();
        engine = engine.apply_delta(delta).map_err(|e| e.to_string())?.0;
        trace.patch.push(ms(t));
    }
    let records = recovered.wal.len() as f64;
    trace.replay_per_record.push(ratio(ms(replay), records));
    Ok(())
}

/// Restart-and-catch-up cycles until `seconds` have been spent inside
/// them.
fn recover_phase(
    primary: &Primary0,
    dir: &Path,
    seconds: f64,
    obs: Option<&Obs>,
) -> Result<(Tally, Trace), String> {
    let options = StoreOptions {
        obs: obs.cloned().unwrap_or_default(),
        ..StoreOptions::default()
    };
    let probes = probes();
    let mut tally = Tally::default();
    let mut trace = Trace::default();
    let mut cycle = 0;
    while tally.busy_s < seconds {
        if obs.is_some() {
            decompose(&primary.store, options.clone(), &mut trace)?;
        }
        // `open_s` runs from the restart to the first answered read.
        let t = Instant::now();
        let reopened = match LiveEngine::open_with(&primary.store, options.clone()) {
            Ok(live) => live,
            Err(_) => {
                tally.check(false);
                break;
            }
        };
        let snapshot = reopened.snapshot();
        let first = Instant::now();
        let mut answers = vec![snapshot.run(&probes[0])];
        let open_s = t.elapsed().as_secs_f64();
        answers.extend(probes[1..].iter().map(|q| snapshot.run(q)));
        tally.read_ms.push(ms(first));
        tally.check(
            snapshot.epoch() == primary.epoch
                && epoch_digest(&snapshot) == primary.digest
                && answers == primary.answers,
        );

        let replica = dir.join(format!("replica-{cycle}"));
        let t = Instant::now();
        let follower = Transport::new(
            std_vfs(),
            &primary.outbox,
            std_vfs(),
            &replica.join("inbox"),
        )
        .map_err(|e| e.to_string())
        .and_then(|transport| {
            Follower::open(transport, &replica.join("store"), options.clone())
                .map_err(|e| e.to_string())
        });
        let bootstrap_ms = ms(t);
        let synced = follower.and_then(|mut f| f.sync().map(|_| f).map_err(|e| e.to_string()));
        let catchup_s = t.elapsed().as_secs_f64();
        if let Ok(follower) = &synced {
            let replica = follower.snapshot();
            let first = Instant::now();
            let answers: Answers = probes.iter().map(|q| replica.run(q)).collect();
            tally.read_ms.push(ms(first));
            tally.check(answers == primary.answers);
        }
        tally.check(
            matches!(&synced, Ok(f) if f.applied_epoch() == primary.epoch
            && check_divergence(&snapshot, &f.snapshot(), &probes).is_ok()),
        );

        // Both are recovery operations: time until a restarted primary or
        // a new replica serves the primary's epoch.
        tally.busy_s += open_s + catchup_s;
        tally.op_ms.extend([open_s * 1e3, catchup_s * 1e3]);
        tally.end_round();
        if obs.is_some() {
            let (hits, builds, _) = cache_counts(&snapshot);
            trace.hits += hits;
            trace.builds += builds;
            trace.open_s.push(open_s);
            trace.bootstrap.push(bootstrap_ms);
            trace.sync.push(catchup_s * 1e3 - bootstrap_ms);
            trace.catchup_s.push(catchup_s);
        }
        drop((synced, snapshot, reopened));
        let _ = std::fs::remove_dir_all(&replica);
        cycle += 1;
    }
    Ok((tally, trace))
}

fn dir_bytes(dir: &Path) -> f64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| entry.metadata().ok())
        .map(|meta| meta.len() as f64)
        .sum()
}

pub fn run(config: &Config, opts: &Opts) -> Result<Outcome, String> {
    let mut times = SetupTimes::default();
    let mut setups = Vec::new();
    let mut primary: Option<Primary0> = None;
    for rep in 0..config.setup_reps.max(1) {
        if let Some(previous) = primary.take() {
            let _ = std::fs::remove_dir_all(&previous.store);
            let _ = std::fs::remove_dir_all(&previous.outbox);
        }
        let t = Instant::now();
        primary = Some(set_up(config, opts, rep, &mut times)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let primary = primary.expect("at least one set-up ran");
    let (untraced, _) = recover_phase(&primary, &opts.dir, opts.phase_seconds(), None)?;

    let mut layers = vec![
        (
            "genfunc.preference_matrix_ms",
            median(&times.preference_matrix),
        ),
        ("genfunc.coclustering_ms", median(&times.coclustering)),
        ("replica.ship_ms", median(&times.ship)),
        ("replica.shipped_bytes", dir_bytes(&primary.outbox)),
        (
            "store.snapshot_bytes",
            newest_snapshot_bytes(&primary.store),
        ),
    ];
    let traced = if opts.trace {
        let obs = Obs::enabled();
        let (tally, trace) = recover_phase(&primary, &opts.dir, opts.phase_seconds(), Some(&obs))?;
        let quarantines = obs.snapshot().counter("replica.quarantines").unwrap_or(0);
        let (hits, builds) = (trace.hits as f64, trace.builds as f64);
        layers.extend([
            ("store.open_ms", median(&trace.store_open)),
            ("engine.from_export_ms", median(&trace.from_export)),
            (
                "live.replay_ms_per_record",
                median(&trace.replay_per_record),
            ),
            ("engine.patch_ms_p50", percentile(&trace.patch, 0.5)),
            ("engine.patch_ms_p99", percentile(&trace.patch, 0.99)),
            ("andxor.apply_us", median(&trace.andxor_us)),
            ("engine.cache_hit_ratio", ratio(hits, hits + builds)),
            ("live.open_s", median(&trace.open_s)),
            ("replica.bootstrap_ms", median(&trace.bootstrap)),
            ("replica.sync_ms", median(&trace.sync)),
            ("replica.catchup_s", median(&trace.catchup_s)),
            ("replica.quarantines", quarantines as f64),
        ]);
        Some(tally)
    } else {
        None
    };

    let engine = ConsensusEngineBuilder::new(tree(config, opts.seed))
        .seed(opts.seed)
        .build()
        .map_err(|e| e.to_string())?;
    let detail = format!(
        "{{\"workload\": \"recover\", \"leaves\": {}, \"depth\": {}, \"fanout\": {}, \"tail_deltas\": {}, \
         \"epoch\": {}, \"cycles\": {}, \"recovery_ops\": {}, \"probe_sets\": {}, \"setup_reps\": {}, \
         \"snapshot_every\": 32, \"store_options\": \"default\", {}}}",
        config.leaves,
        config.depth,
        config.fanout,
        config.tail,
        primary.epoch,
        untraced.op_ms.len() / 2,
        untraced.op_ms.len(),
        untraced.read_ms.len(),
        setups.len(),
        crate::resolved_config(&engine),
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
    fn smoke() {
        let config = Config {
            leaves: 40,
            depth: 2,
            fanout: 4,
            tail: 4,
            setup_reps: 1,
        };
        let opts = Opts {
            seed: 11,
            seconds: 0.2,
            trace: true,
            dir: PathBuf::from(".perfbench-run/recover-smoke"),
        };
        let _ = std::fs::remove_dir_all(&opts.dir);
        let outcome = run(&config, &opts).expect("recover runs");
        let _ = std::fs::remove_dir_all(&opts.dir);
        let _ = std::fs::remove_dir(".perfbench-run");
        assert_eq!(outcome.untraced.failed, 0);
        assert_eq!(outcome.traced.as_ref().expect("traced phase").failed, 0);
        assert!(outcome.result_line(false).contains("\"correct\": true"));
    }
}
