//! The `persistence` scenario: durable writes, snapshot writes and restart
//! paths per fleet size, written to `BENCH_persistence.json`.
//!
//! The workload models the restart path of a durable serving engine: a
//! [`cpdb_live::LiveEngine`] is created on disk, absorbs one delta of every
//! supported kind (each WAL-logged and fsynced before publication), and is
//! then reopened. The measurement compares:
//!
//! * **warm start** — [`cpdb_live::LiveEngine::open`]: decode the epoch-0
//!   snapshot (configuration, tree, and every built artifact, bit-exact) and
//!   replay the WAL tail through the delta-aware maintenance path;
//! * **snapshot-only start** — the same open after [`persist_snapshot`]
//!   compacted the WAL into a fresh snapshot (no replay work left);
//! * **cold rebuild** — the pre-`cpdb_store` alternative: build a fresh
//!   engine from the final tree and recompute the warm artifact families
//!   from scratch.
//!
//! Every measurement first asserts that the reopened engine answers the
//! probe batch bit-identically to the writer it recovered from.
//!
//! [`persist_snapshot`]: cpdb_live::LiveEngine::persist_snapshot

use crate::harness::{best_of, Json, Outcome, ScratchDir, REPS, SEED};
use crate::update_throughput::{
    delta_suite, live_engine, live_tree, probe, warm_maintained_artifacts,
};
use crate::Table;
use cpdb_live::LiveEngine;
use std::path::Path;
use std::time::Instant;

/// One measured persistence round-trip at a given fleet size.
pub struct PersistenceResult {
    /// Fleet size (scored BID blocks).
    pub n: usize,
    /// Deltas logged to the WAL before the measured reopen.
    pub deltas_applied: usize,
    /// Size of the compacted snapshot file on disk.
    pub snapshot_bytes: u64,
    /// Size of the WAL before compaction (header + logged records).
    pub wal_bytes: u64,
    /// Milliseconds for a durable apply (WAL append + fsync + publish),
    /// averaged over the delta suite.
    pub durable_apply_ms: f64,
    /// Milliseconds to write + fsync + atomically publish a snapshot of the
    /// final epoch (best of `reps`).
    pub snapshot_write_ms: f64,
    /// Milliseconds for `LiveEngine::open`: snapshot decode + WAL replay
    /// (best of `reps`).
    pub warm_open_ms: f64,
    /// Milliseconds for `LiveEngine::open` after compaction: snapshot decode
    /// only (best of `reps`).
    pub snapshot_only_open_ms: f64,
    /// Milliseconds to rebuild the same serving state cold: fresh engine
    /// from the final tree + recomputing the warm artifact families (best of
    /// `reps`).
    pub cold_build_ms: f64,
}

impl PersistenceResult {
    /// `cold / warm` — how much faster a restart is when it recovers the
    /// persisted artifacts instead of recomputing them.
    pub fn cold_over_warm(&self) -> f64 {
        self.cold_build_ms / self.warm_open_ms
    }

    /// Snapshot write throughput in MB/s.
    pub fn snapshot_write_mbps(&self) -> f64 {
        (self.snapshot_bytes as f64 / 1e6) / (self.snapshot_write_ms / 1e3)
    }

    /// Snapshot load throughput in MB/s (decode + validate + rebuild).
    pub fn snapshot_load_mbps(&self) -> f64 {
        (self.snapshot_bytes as f64 / 1e6) / (self.snapshot_only_open_ms / 1e3)
    }
}

/// Builds a durable engine in `dir` and logs one delta of every supported
/// kind to its WAL. Returns the number of logged deltas (= the final
/// epoch) and the mean milliseconds per durable apply.
fn durable_writer(dir: &Path, n: usize, seed: u64) -> (usize, f64) {
    let tree = live_tree(n, seed);
    let engine = live_engine(tree.clone(), seed);
    warm_maintained_artifacts(&engine);
    let live = LiveEngine::new_durable(engine, dir).expect("creating durable engine");
    // One durable apply per delta kind; each WAL append is fsynced before
    // the epoch publishes. Deltas address nodes by id, so each one is
    // regenerated against the tree it will actually mutate.
    let kinds = delta_suite(&tree).len();
    let mut apply_total_ms = 0.0;
    for i in 0..kinds {
        let current = live.snapshot().tree().clone();
        let (kind, delta) = delta_suite(&current).swap_remove(i);
        let start = Instant::now();
        live.apply(&delta)
            .unwrap_or_else(|e| panic!("applying suite delta {kind}: {e}"));
        apply_total_ms += start.elapsed().as_secs_f64() * 1e3;
    }
    (kinds, apply_total_ms / kinds as f64)
}

/// Measures one persistence round-trip: durable writes, snapshot write, warm
/// reopen (snapshot + WAL replay), snapshot-only reopen, and the cold
/// rebuild it replaces — asserting recovered ≡ writer answers throughout.
pub fn measure_persistence(n: usize, seed: u64, reps: usize) -> PersistenceResult {
    let queries = probe();
    let scratch = ScratchDir::new("persistence");
    let dir = scratch.path();
    let (deltas_applied, durable_apply_ms) = durable_writer(dir, n, seed);
    let live = LiveEngine::open(dir).expect("reopening the writer");

    let expected = live.snapshot();
    let expected_answers = expected.run_batch_serial(&queries);
    let final_tree = expected.tree().clone();
    let wal_bytes = std::fs::metadata(dir.join("wal.cpdb"))
        .expect("WAL exists after durable applies")
        .len();
    drop(expected);
    drop(live);

    // Warm start: epoch-0 snapshot decode + full WAL replay.
    let warm_open_ms = best_of(reps, || {
        let reopened = LiveEngine::open(dir).expect("warm reopen");
        assert_eq!(reopened.epoch(), deltas_applied as u64);
        reopened
    }) * 1e3;
    let reopened = LiveEngine::open(dir).expect("warm reopen");
    assert_eq!(
        reopened.snapshot().run_batch_serial(&queries),
        expected_answers,
        "warm-started engine diverges from the writer it recovered"
    );

    // Snapshot of the final epoch (also compacts the WAL).
    let snapshot_write_ms = best_of(reps, || {
        reopened
            .persist_snapshot()
            .expect("snapshotting the final epoch")
    }) * 1e3;
    let snapshot_bytes = std::fs::metadata(dir.join(format!("snapshot-{deltas_applied}.cpdb")))
        .expect("final-epoch snapshot exists")
        .len();
    drop(reopened);

    // Snapshot-only start: the WAL was compacted, so open is pure decode.
    let snapshot_only_open_ms = best_of(reps, || {
        let reopened = LiveEngine::open(dir).expect("snapshot-only reopen");
        assert_eq!(reopened.epoch(), deltas_applied as u64);
        reopened
    }) * 1e3;
    let reopened = LiveEngine::open(dir).expect("snapshot-only reopen");
    assert_eq!(
        reopened.snapshot().run_batch_serial(&queries),
        expected_answers,
        "snapshot-only start diverges from the writer it recovered"
    );
    drop(reopened);

    // The alternative: recompute everything from the final tree.
    let cold_build_ms = best_of(reps, || {
        let cold = live_engine(final_tree.clone(), seed);
        warm_maintained_artifacts(&cold);
        cold
    }) * 1e3;
    let cold = live_engine(final_tree.clone(), seed);
    warm_maintained_artifacts(&cold);
    assert_eq!(
        cold.run_batch_serial(&queries),
        expected_answers,
        "cold rebuild diverges from the recovered serving state"
    );

    PersistenceResult {
        n,
        deltas_applied,
        snapshot_bytes,
        wal_bytes,
        durable_apply_ms,
        snapshot_write_ms,
        warm_open_ms,
        snapshot_only_open_ms,
        cold_build_ms,
    }
}

/// The gate: the warm start is no slower than the cold rebuild at any
/// size. (Recovered ≡ writer answers are asserted inside the workload.)
pub fn gate(results: &[PersistenceResult]) -> Vec<String> {
    results
        .iter()
        .filter(|r| r.cold_over_warm() < 1.0)
        .map(|r| {
            format!(
                "warm start at n = {} ({:.3} ms) is slower than the cold rebuild ({:.3} ms)",
                r.n, r.warm_open_ms, r.cold_build_ms
            )
        })
        .collect()
}

/// The `BENCH_persistence.json` document.
pub fn json(results: &[PersistenceResult]) -> Json {
    let mut sizes = Json::object();
    for r in results {
        sizes = sizes.field(
            r.n,
            Json::object()
                .field("deltas_logged", r.deltas_applied)
                .field("snapshot_bytes", r.snapshot_bytes)
                .field("wal_bytes", r.wal_bytes)
                .field("durable_apply_ms", Json::fixed(r.durable_apply_ms, 3))
                .field("snapshot_write_ms", Json::fixed(r.snapshot_write_ms, 3))
                .field(
                    "snapshot_write_mb_per_s",
                    Json::fixed(r.snapshot_write_mbps(), 1),
                )
                .field("warm_open_ms", Json::fixed(r.warm_open_ms, 3))
                .field(
                    "snapshot_only_open_ms",
                    Json::fixed(r.snapshot_only_open_ms, 3),
                )
                .field(
                    "snapshot_load_mb_per_s",
                    Json::fixed(r.snapshot_load_mbps(), 1),
                )
                .field("cold_build_ms", Json::fixed(r.cold_build_ms, 3))
                .field("cold_over_warm", Json::fixed(r.cold_over_warm(), 2)),
        );
    }
    Json::object()
        .field("schema", "cpdb.persistence.v1")
        .field(
            "workload",
            Json::object()
                .field("seed", SEED)
                .field("reps", REPS)
                .field("deltas", "one per TreeDelta kind"),
        )
        .field(
            "note",
            "durable scored-BID serving engine: every apply appends a checksummed, \
             fsynced WAL record before the epoch publishes. warm open = LiveEngine::open \
             (versioned snapshot decode with per-section CRC verification + WAL tail replay \
             through the delta-aware maintenance path); snapshot-only open = the same after \
             persist_snapshot compacted the WAL; cold build = fresh engine from the final tree \
             + recomputing the warm artifact families. Recovered engines answer bit-identically \
             to their writer on every measurement.",
        )
        .field("sizes", sizes)
}

/// Runs the scenario once per fleet size in `--sizes`.
pub fn scenario(sizes: &[usize]) -> Outcome {
    let results: Vec<PersistenceResult> = sizes
        .iter()
        .map(|&n| measure_persistence(n, SEED, REPS))
        .collect();
    let mut t = Table::new(
        &format!("persistence — sizes = {sizes:?}, best of {REPS}"),
        &[
            "n",
            "snap bytes",
            "write ms",
            "warm open ms",
            "snap open ms",
            "cold build ms",
            "apply ms",
            "x",
        ],
    );
    for r in &results {
        t.add_row(vec![
            r.n.to_string(),
            r.snapshot_bytes.to_string(),
            format!("{:.3}", r.snapshot_write_ms),
            format!("{:.3}", r.warm_open_ms),
            format!("{:.3}", r.snapshot_only_open_ms),
            format!("{:.3}", r.cold_build_ms),
            format!("{:.3}", r.durable_apply_ms),
            format!("{:.2}x", r.cold_over_warm()),
        ]);
    }
    Outcome {
        table: t.render(),
        json: json(&results),
        failures: gate(&results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_recovers_and_measures() {
        let r = measure_persistence(24, 5, 1);
        assert_eq!(r.n, 24);
        assert_eq!(r.deltas_applied, 5);
        assert!(r.snapshot_bytes > 0);
        // Header + five framed records.
        assert!(r.wal_bytes > 12);
        assert!(r.durable_apply_ms > 0.0);
        assert!(r.snapshot_write_ms > 0.0);
        assert!(r.warm_open_ms > 0.0);
        assert!(r.snapshot_only_open_ms > 0.0);
        assert!(r.cold_build_ms > 0.0);
        assert!(r.snapshot_write_mbps() > 0.0);
        assert!(r.snapshot_load_mbps() > 0.0);
    }
}
