//! The `replication` scenario, written to `BENCH_replication.json`.
//!
//! Three questions the read-replica layer must answer with numbers:
//!
//! * **How fast does a fresh follower catch up, as a function of shipped
//!   WAL length?** Per segment length the workload ships one anchor plus
//!   one segment of that many records, then times a cold
//!   [`Follower`] bootstrap-and-replay
//!   (`open` + `sync`, best of `reps`). Every measurement asserts the
//!   caught-up follower passes the full divergence check against the
//!   primary — digest and probe answers bit-identical.
//!
//! * **What is the ship throughput?** The one-shot segment cut
//!   ([`Primary::ship`]: WAL filter, CRC
//!   framing, atomic write, manifest commit) is timed and divided by the
//!   shipped segment bytes.
//!
//! * **How stale does a steady-state replica run?** With the primary
//!   applying and shipping every delta and the follower syncing every
//!   `sync_every` deltas, the epoch lag is sampled before every sync;
//!   the mean and maximum quantify the staleness a read replica serves at
//!   a given sync cadence.

use crate::harness::{leaf_deltas, Json, Outcome, ScratchDir, REPS, SEED};
use crate::Table;
use cpdb_engine::{Query, TopKMetric, Variant};
use cpdb_live::LiveEngine;
use cpdb_replica::{check_divergence, Follower, Primary, Transport};
use cpdb_store::{std_vfs, StoreOptions};
use std::time::Instant;

/// Deltas the primary applies in each staleness run.
const TOTAL: usize = 48;

/// Follower sync cadences (deltas between syncs) of the staleness runs.
const CADENCES: [usize; 2] = [1, 8];

/// Catch-up and ship-throughput numbers at one shipped-segment length.
pub struct CatchUpResult {
    /// Records in the shipped segment.
    pub shipped_records: usize,
    /// Total shipped bytes (anchor + segment + manifest).
    pub shipped_bytes: u64,
    /// Milliseconds for the one-shot segment cut and manifest commit.
    pub ship_ms: f64,
    /// Ship throughput in MB/s (`shipped_bytes / ship_ms`).
    pub ship_mb_per_s: f64,
    /// Milliseconds for a cold follower to bootstrap from the anchor and
    /// replay the segment (`Follower::open` + `sync`, best of `reps`).
    pub catch_up_ms: f64,
}

/// Steady-state staleness at one sync cadence.
pub struct StalenessResult {
    /// Deltas between follower syncs.
    pub sync_every: usize,
    /// Mean epoch lag sampled before every sync.
    pub mean_lag: f64,
    /// Maximum epoch lag observed.
    pub max_lag: u64,
}

/// The conformance probe asserted on every measured catch-up.
fn probe() -> Vec<Query> {
    [1usize, 2]
        .into_iter()
        .map(|k| Query::TopK {
            k,
            metric: TopKMetric::SymmetricDifference,
            variant: Variant::Mean,
        })
        .collect()
}

/// A primary over `n` blocks with its store and outbox on fresh on-disk
/// temp directories, anchor already shipped. Returns the primary and the
/// two directories (store, outbox).
fn on_disk_primary(n: usize, seed: u64) -> (Primary, ScratchDir, ScratchDir) {
    let store_dir = ScratchDir::new("replication_pstore");
    let outbox = ScratchDir::new("replication_outbox");
    let live = LiveEngine::new_durable(
        crate::update_throughput::live_engine(crate::update_throughput::live_tree(n, seed), seed),
        store_dir.path(),
    )
    .expect("fresh store directory is creatable");
    live.set_snapshot_every(u64::MAX); // hold compaction off: pure WAL shipping
    let primary =
        Primary::attach(live, std_vfs(), outbox.path()).expect("fresh outbox is claimable");
    primary.ship().expect("anchor ship succeeds");
    (primary, store_dir, outbox)
}

/// Total size of the shipped files in `outbox`.
fn shipped_bytes(outbox: &std::path::Path) -> u64 {
    std::fs::read_dir(outbox)
        .expect("outbox is readable")
        .map(|e| e.expect("outbox entry is readable"))
        .map(|e| e.metadata().expect("outbox entry has metadata").len())
        .sum()
}

/// A cold follower catch-up over fresh inbox and local-store directories;
/// returns the elapsed milliseconds and asserts full divergence parity
/// with `primary`.
fn cold_catch_up(primary: &Primary, outbox: &std::path::Path, probe: &[Query]) -> f64 {
    let inbox = ScratchDir::new("replication_inbox");
    let fstore = ScratchDir::new("replication_fstore");
    let start = Instant::now();
    let transport = Transport::new(std_vfs(), outbox, std_vfs(), inbox.path())
        .expect("inbox directory is creatable");
    let mut follower = Follower::open(transport, fstore.path(), StoreOptions::default())
        .expect("follower bootstraps from the shipped anchor");
    follower.sync().expect("catch-up sync succeeds");
    let elapsed = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        follower.applied_epoch(),
        primary.epoch(),
        "catch-up stopped short of the primary"
    );
    check_divergence(&primary.snapshot(), &follower.snapshot(), probe)
        .expect("caught-up follower diverged from the primary");
    elapsed
}

/// Measures ship throughput and cold-follower catch-up latency at each
/// shipped-segment length in `lens` for an `n`-block fleet.
pub fn measure_catch_up(n: usize, seed: u64, reps: usize, lens: &[usize]) -> Vec<CatchUpResult> {
    let probe = probe();
    lens.iter()
        .map(|&records| {
            let (primary, _store, outbox) = on_disk_primary(n, seed);
            let outbox = outbox.path();
            let deltas = leaf_deltas(primary.snapshot().tree(), records);
            for delta in &deltas {
                primary.apply(delta).expect("leaf updates are valid");
            }
            let before = shipped_bytes(outbox);
            let start = Instant::now();
            primary.ship().expect("segment ship succeeds");
            let ship_ms = start.elapsed().as_secs_f64() * 1e3;
            let bytes = shipped_bytes(outbox);
            let segment_bytes = bytes.saturating_sub(before);
            let mut catch_up_ms = f64::INFINITY;
            for _ in 0..reps.max(1) {
                catch_up_ms = catch_up_ms.min(cold_catch_up(&primary, outbox, &probe));
            }
            CatchUpResult {
                shipped_records: records,
                shipped_bytes: bytes,
                ship_ms,
                ship_mb_per_s: segment_bytes as f64 / 1e6 / (ship_ms / 1e3),
                catch_up_ms,
            }
        })
        .collect()
}

/// Measures steady-state staleness over `total` deltas at each sync
/// cadence in `cadences`: the primary ships every delta, the follower
/// syncs every `sync_every`-th, and the epoch lag is sampled before every
/// sync.
pub fn measure_staleness(
    n: usize,
    seed: u64,
    total: usize,
    cadences: &[usize],
) -> Vec<StalenessResult> {
    let probe = probe();
    cadences
        .iter()
        .map(|&sync_every| {
            let (primary, _store, outbox) = on_disk_primary(n, seed);
            let inbox = ScratchDir::new("replication_inbox");
            let fstore = ScratchDir::new("replication_fstore");
            let transport = Transport::new(std_vfs(), outbox.path(), std_vfs(), inbox.path())
                .expect("inbox directory is creatable");
            let mut follower = Follower::open(transport, fstore.path(), StoreOptions::default())
                .expect("follower bootstraps");
            follower.sync().expect("initial sync succeeds");

            let deltas = leaf_deltas(primary.snapshot().tree(), total);
            let mut lags = Vec::with_capacity(total);
            for (i, delta) in deltas.iter().enumerate() {
                primary.apply(delta).expect("leaf updates are valid");
                primary.ship().expect("per-delta ship succeeds");
                lags.push(primary.epoch() - follower.applied_epoch());
                if (i + 1) % sync_every.max(1) == 0 {
                    follower.sync().expect("steady-state sync succeeds");
                }
            }
            follower.sync().expect("final sync succeeds");
            check_divergence(&primary.snapshot(), &follower.snapshot(), &probe)
                .expect("steady-state follower diverged from the primary");

            StalenessResult {
                sync_every,
                mean_lag: lags.iter().sum::<u64>() as f64 / lags.len().max(1) as f64,
                max_lag: lags.iter().copied().max().unwrap_or(0),
            }
        })
        .collect()
}

/// The gate: at the per-delta sync cadence the follower never lags the
/// primary by more than the one epoch it has not fetched yet. (Follower
/// bit-identity is asserted inside the workload.)
pub fn gate(staleness: &[StalenessResult]) -> Vec<String> {
    staleness
        .iter()
        .filter(|s| s.sync_every == 1 && s.max_lag > 1)
        .map(|s| {
            format!(
                "per-delta sync cadence observed a lag of {} epochs",
                s.max_lag
            )
        })
        .collect()
}

/// The `BENCH_replication.json` document.
pub fn json(n: usize, catch_up: &[CatchUpResult], staleness: &[StalenessResult]) -> Json {
    let mut lens = Json::object();
    for r in catch_up {
        lens = lens.field(
            r.shipped_records,
            Json::object()
                .field("shipped_bytes", r.shipped_bytes)
                .field("ship_ms", Json::fixed(r.ship_ms, 3))
                .field("ship_mb_per_s", Json::fixed(r.ship_mb_per_s, 1))
                .field("catch_up_ms", Json::fixed(r.catch_up_ms, 3)),
        );
    }
    let mut cadences = Json::object();
    for s in staleness {
        cadences = cadences.field(
            s.sync_every,
            Json::object()
                .field("mean_lag", Json::fixed(s.mean_lag, 3))
                .field("max_lag", s.max_lag),
        );
    }
    Json::object()
        .field("bench", "replication")
        .field("n", n)
        .field("seed", SEED)
        .field("reps", REPS)
        .field("total_epochs", TOTAL)
        .field("shipped_wal_lengths", lens)
        .field("staleness_by_sync_cadence", cadences)
}

/// Runs the scenario on an `--n`-block fleet at each shipped-WAL length in
/// `--lens`.
pub fn scenario(n: usize, lens: &[usize]) -> Outcome {
    let catch_up = measure_catch_up(n, SEED, REPS, lens);
    let staleness = measure_staleness(n, SEED, TOTAL, &CADENCES);
    let mut t = Table::new(
        &format!("replication — n = {n}, best of {REPS}"),
        &[
            "shipped records",
            "shipped bytes",
            "ship ms",
            "ship MB/s",
            "catch-up ms",
        ],
    );
    for r in &catch_up {
        t.add_row(vec![
            r.shipped_records.to_string(),
            r.shipped_bytes.to_string(),
            format!("{:.3}", r.ship_ms),
            format!("{:.1}", r.ship_mb_per_s),
            format!("{:.3}", r.catch_up_ms),
        ]);
    }
    let mut table = t.render();
    for s in &staleness {
        table += &format!(
            "staleness — sync every {:>2} deltas over {TOTAL} epochs: mean lag {:.2}, max lag {}\n",
            s.sync_every, s.mean_lag, s.max_lag
        );
    }
    Outcome {
        table,
        json: json(n, &catch_up, &staleness),
        failures: gate(&staleness),
    }
}
