//! The `fault_recovery` scenario, written to `BENCH_fault_recovery.json`.
//!
//! Two questions the robustness layer must answer with numbers:
//!
//! * **How fast is recovery, as a function of WAL length?** Per WAL length
//!   the workload measures the store-level recovery scan
//!   ([`cpdb_store::Store::open`]: snapshot read + WAL scan/validate), the
//!   full warm start ([`cpdb_live::LiveEngine::open`]: scan, export
//!   decode, delta replay), and the degraded-mode round-trip
//!   ([`cpdb_live::LiveEngine::try_recover`] after an injected append
//!   failure: re-probe + epoch verification + resume) — the last one on a
//!   [`cpdb_store::FaultVfs`], which is how the fault is injected
//!   deterministically. Every measurement asserts the recovered engine
//!   serves the writer's exact epoch.
//!
//! * **What does the [`cpdb_store::Vfs`] indirection cost on the durable
//!   hot path?** The durable-apply hot path is `write_all` + `sync_data`
//!   per record; the workload times identical operations through the
//!   production [`cpdb_store::StdVfs`] (dynamic dispatch through
//!   `Box<dyn VfsFile>`) and through `std::fs::File` directly, on the same
//!   buffers. The scenario's `--check` gate asserts the indirection costs
//!   at most 2% of a durable append: the dispatch delta is resolved on
//!   the buffered write path (where ~25 ns is measurable) and divided by
//!   the durable-append floor (see [`VfsOverheadResult::overhead_pct`]).
//!   The abstraction the fault injection hangs off must be free in
//!   production.

use crate::harness::{best_of, iq_mean, leaf_deltas, Json, Outcome, ScratchDir, REPS, SEED};
use crate::Table;
use cpdb_live::{LiveEngine, LiveError};
use cpdb_store::{std_vfs, FaultVfs, RetryPolicy, Store, StoreOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Durable appends per side per rep in the floor measurement.
const APPENDS: usize = 256;

/// Bytes per write on both the buffered and the durable path.
const BUF_BYTES: usize = 4096;

/// Recovery latencies at one WAL length.
pub struct RecoveryResult {
    /// WAL records replayed by recovery.
    pub wal_records: usize,
    /// WAL file size (header + records).
    pub wal_bytes: u64,
    /// Milliseconds for the store-level recovery scan
    /// ([`Store::open`]: snapshot read + WAL scan, best of `reps`).
    pub store_scan_ms: f64,
    /// Milliseconds for the full warm start ([`LiveEngine::open`]:
    /// scan + export decode + delta replay, best of `reps`).
    pub warm_open_ms: f64,
    /// Milliseconds for the degraded-mode round-trip
    /// ([`LiveEngine::try_recover`]: WAL re-probe + epoch verification,
    /// best of `reps`).
    pub try_recover_ms: f64,
}

/// The VFS-indirection measurement on the durable-apply hot path.
pub struct VfsOverheadResult {
    /// Buffered `write_all` samples per side in the gated measurement.
    pub writes: usize,
    /// Bytes per write.
    pub buf_bytes: usize,
    /// Interquartile-mean microseconds per buffered `write_all` through
    /// `std::fs::File`, sampled op-interleaved with the VFS side.
    pub direct_write_us: f64,
    /// The same statistic through the production [`cpdb_store::StdVfs`]
    /// (dynamic dispatch through `Box<dyn VfsFile>`).
    pub via_vfs_write_us: f64,
    /// Durable appends (`write_all` + `sync_data`) per side in the
    /// floor measurement that supplies the gate's denominator.
    pub durable_appends: usize,
    /// Fastest single durable append through `std::fs::File`, in
    /// microseconds — the cost of one hot-path operation, and the
    /// denominator of [`overhead_pct`](Self::overhead_pct).
    pub direct_durable_us: f64,
    /// The same floor through the production [`cpdb_store::StdVfs`].
    pub via_vfs_durable_us: f64,
}

impl VfsOverheadResult {
    /// The indirection's measured cost per call, in microseconds:
    /// `via_vfs_write_us - direct_write_us`.
    ///
    /// Measured on the buffered write path because that is where a
    /// ~tens-of-nanoseconds dynamic dispatch is actually resolvable:
    /// op-interleaved sampling puts both sides in every noise regime the
    /// machine passes through, and the interquartile mean discards the
    /// scheduler/steal spikes that make extreme statistics (minima,
    /// burst totals) diverge by several percent on virtualised hardware.
    pub fn indirection_us(&self) -> f64 {
        self.via_vfs_write_us - self.direct_write_us
    }

    /// The gated number: the indirection cost as a percentage of one
    /// durable append — `indirection_us / direct_durable_us`.
    ///
    /// The durable-apply hot path pays the dispatch in front of the same
    /// syscalls on both sides, so its overhead is the dispatch cost
    /// ([`indirection_us`](Self::indirection_us), ~25 ns with
    /// retpoline-era indirect calls) against the cost of one durable
    /// append (`write_all` + `sync_data`, ~100 µs — the fsync dominates
    /// by two orders of magnitude). Dividing the *measured delta* by the
    /// *measured append floor* asserts exactly that claim while staying
    /// numerically stable: timing whole durable appends on both sides
    /// and comparing them directly would put the device's run-to-run
    /// fast-path drift (several percent on virtualised disks) in the
    /// numerator and swamp a 2% budget with noise.
    pub fn overhead_pct(&self) -> f64 {
        self.indirection_us() / self.direct_durable_us * 100.0
    }
}

/// Measures recovery latency at each WAL length in `wal_lens` for an
/// `n`-block fleet: the writer logs that many deltas (compaction held
/// off), then the store scan, the warm start, and the degraded-mode
/// round-trip are each timed best-of-`reps`.
pub fn measure_recovery(
    n: usize,
    seed: u64,
    reps: usize,
    wal_lens: &[usize],
) -> Vec<RecoveryResult> {
    wal_lens
        .iter()
        .map(|&records| {
            let tree = crate::update_throughput::live_tree(n, seed);
            let deltas = leaf_deltas(&tree, records);

            // On-disk writer for the open-path measurements.
            let scratch = ScratchDir::new("fault_recovery_open");
            let dir = scratch.path();
            let live = LiveEngine::new_durable(
                crate::update_throughput::live_engine(tree.clone(), seed),
                dir,
            )
            .expect("fresh store directory is creatable");
            live.set_snapshot_every(u64::MAX); // hold compaction off: pure WAL replay
            for delta in &deltas {
                live.apply(delta).expect("leaf updates are valid");
            }
            let final_epoch = live.epoch();
            drop(live);
            let wal_bytes = std::fs::metadata(dir.join("wal.cpdb"))
                .expect("wal file exists")
                .len();

            let store_scan_ms = best_of(reps, || {
                let (_store, recovered) = Store::open(dir).expect("store recovers");
                assert_eq!(recovered.epoch(), final_epoch, "scan lost an epoch");
            }) * 1e3;
            let warm_open_ms = best_of(reps, || {
                let reopened = LiveEngine::open(dir).expect("warm start succeeds");
                assert_eq!(reopened.epoch(), final_epoch, "warm start lost an epoch");
            }) * 1e3;
            drop(scratch);

            // Degraded round-trip on a FaultVfs: one injected append
            // failure degrades the writer; try_recover re-probes the same
            // WAL and resumes. Each rep re-degrades so the probe always
            // covers the full log.
            let vfs = FaultVfs::new();
            let options = || StoreOptions {
                vfs: Arc::new(vfs.clone()),
                retry: RetryPolicy::no_delay(1),
                ..StoreOptions::default()
            };
            let fault_dir = PathBuf::from("/bench/fault");
            let live = LiveEngine::new_durable_with(
                crate::update_throughput::live_engine(tree, seed),
                &fault_dir,
                options(),
            )
            .expect("fresh in-memory store is creatable");
            live.set_snapshot_every(u64::MAX);
            for delta in &deltas {
                live.apply(delta).expect("leaf updates are valid");
            }
            let poison = &deltas[0];
            let mut try_recover_ms = f64::INFINITY;
            for _ in 0..reps.max(1) {
                vfs.fail_at(vfs.op_count(), std::io::ErrorKind::StorageFull, false);
                match live.apply(poison) {
                    Err(LiveError::Degraded(_)) => {}
                    other => panic!("injected fault did not degrade the writer: {other:?}"),
                }
                vfs.clear_faults();
                let start = Instant::now();
                let health = live.try_recover().expect("recovery succeeds");
                try_recover_ms = try_recover_ms.min(start.elapsed().as_secs_f64() * 1e3);
                assert!(health.is_healthy(), "recovery left the engine degraded");
            }

            RecoveryResult {
                wal_records: records,
                wal_bytes,
                store_scan_ms,
                warm_open_ms,
                try_recover_ms,
            }
        })
        .collect()
}

/// Times identical operations through the production
/// [`cpdb_store::StdVfs`] and through `std::fs::File` directly: the cost
/// of the VFS indirection on the durable-apply hot path. The gated
/// statistic is the op-interleaved interquartile mean of buffered
/// `write_all` latencies; full durable appends (`write_all` +
/// `sync_data`, `APPENDS × REPS` per side) are floor-timed for the
/// denominator.
pub fn measure_vfs_overhead() -> VfsOverheadResult {
    let scratch = ScratchDir::new("fault_recovery_vfs");
    let dir = scratch.path();
    std::fs::create_dir_all(dir).expect("temp dir is creatable");
    let buf = vec![0xA5u8; BUF_BYTES];

    let vfs = std_vfs();

    // Gated measurement: op-interleaved buffered writes. Alternating a
    // single direct op with a single VFS op puts both sides in every
    // noise regime the machine passes through; the interquartile mean
    // then discards the scheduler/steal spikes that make extreme
    // statistics (minima, burst totals) diverge by several percent on
    // virtualised hardware. Both files are truncated back periodically
    // so the working set stays in a few pages of cache on each side.
    const WRITES: usize = 16_384;
    const TRUNCATE_EVERY: usize = 256;
    let mut f_direct = std::fs::File::create(dir.join("direct.bin")).expect("file is creatable");
    let mut f_via = vfs
        .create_truncated(&dir.join("via_vfs.bin"))
        .expect("file is creatable");
    let mut direct_samples = Vec::with_capacity(WRITES);
    let mut via_samples = Vec::with_capacity(WRITES);
    for i in 0..WRITES {
        if i % TRUNCATE_EVERY == 0 {
            f_direct.set_len(0).expect("truncate succeeds");
            f_direct.seek(SeekFrom::End(0)).expect("seek succeeds");
            f_via.set_len(0).expect("truncate succeeds");
            f_via.seek_end().expect("seek succeeds");
        }
        let start = Instant::now();
        f_direct.write_all(&buf).expect("write succeeds");
        direct_samples.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        f_via.write_all(&buf).expect("write succeeds");
        via_samples.push(start.elapsed().as_secs_f64() * 1e6);
    }
    let direct_write_us = iq_mean(direct_samples);
    let via_vfs_write_us = iq_mean(via_samples);

    // Floors on the full durable append (write + fsync), also
    // op-interleaved: the denominator of the gated overhead. The two
    // sides' floors are reported for context but never compared against
    // each other — the device's fast path drifts several percent
    // run-to-run, which is exactly the noise the gate's delta/floor
    // construction keeps out of the numerator.
    let durable_appends = APPENDS * REPS;
    let mut d_direct =
        std::fs::File::create(dir.join("durable_direct.bin")).expect("file is creatable");
    let mut d_via = vfs
        .create_truncated(&dir.join("durable_via_vfs.bin"))
        .expect("file is creatable");
    let mut direct_durable_us = f64::INFINITY;
    let mut via_vfs_durable_us = f64::INFINITY;
    for _ in 0..durable_appends {
        let start = Instant::now();
        d_direct.write_all(&buf).expect("write succeeds");
        d_direct.sync_data().expect("fsync succeeds");
        direct_durable_us = direct_durable_us.min(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        d_via.write_all(&buf).expect("write succeeds");
        d_via.sync_data().expect("fsync succeeds");
        via_vfs_durable_us = via_vfs_durable_us.min(start.elapsed().as_secs_f64() * 1e6);
    }

    VfsOverheadResult {
        writes: WRITES,
        buf_bytes: BUF_BYTES,
        direct_write_us,
        via_vfs_write_us,
        durable_appends,
        direct_durable_us,
        via_vfs_durable_us,
    }
}

/// The gate: the VFS indirection costs at most 2% of one durable append.
/// (Recoveries that miss an epoch are asserted inside the workload.)
pub fn gate(vfs: &VfsOverheadResult) -> Vec<String> {
    let pct = vfs.overhead_pct();
    if pct <= 2.0 {
        Vec::new()
    } else {
        vec![format!(
            "VFS indirection costs {pct:.3}% of a durable append (budget: 2%)"
        )]
    }
}

/// The `BENCH_fault_recovery.json` document.
pub fn json(n: usize, recovery: &[RecoveryResult], vfs: &VfsOverheadResult) -> Json {
    let mut lens = Json::object();
    for r in recovery {
        lens = lens.field(
            r.wal_records,
            Json::object()
                .field("wal_bytes", r.wal_bytes)
                .field("store_scan_ms", Json::fixed(r.store_scan_ms, 3))
                .field("warm_open_ms", Json::fixed(r.warm_open_ms, 3))
                .field("try_recover_ms", Json::fixed(r.try_recover_ms, 3)),
        );
    }
    Json::object()
        .field("bench", "fault_recovery")
        .field("n", n)
        .field("seed", SEED)
        .field("reps", REPS)
        .field("wal_lengths", lens)
        .field(
            "vfs_overhead",
            Json::object()
                .field("writes", vfs.writes)
                .field("buf_bytes", vfs.buf_bytes)
                .field("direct_write_us", Json::fixed(vfs.direct_write_us, 4))
                .field("via_vfs_write_us", Json::fixed(vfs.via_vfs_write_us, 4))
                .field("indirection_us", Json::fixed(vfs.indirection_us(), 4))
                .field("durable_appends", vfs.durable_appends)
                .field("direct_durable_us", Json::fixed(vfs.direct_durable_us, 1))
                .field("via_vfs_durable_us", Json::fixed(vfs.via_vfs_durable_us, 1))
                .field("overhead_pct", Json::fixed(vfs.overhead_pct(), 3)),
        )
}

/// Runs the scenario on an `--n`-block fleet at each WAL length in
/// `--lens`.
pub fn scenario(n: usize, wal_lens: &[usize]) -> Outcome {
    let recovery = measure_recovery(n, SEED, REPS, wal_lens);
    let vfs = measure_vfs_overhead();
    let mut t = Table::new(
        &format!("fault_recovery — n = {n}, best of {REPS}"),
        &[
            "wal records",
            "wal bytes",
            "store scan ms",
            "warm open ms",
            "try_recover ms",
        ],
    );
    for r in &recovery {
        t.add_row(vec![
            r.wal_records.to_string(),
            r.wal_bytes.to_string(),
            format!("{:.3}", r.store_scan_ms),
            format!("{:.3}", r.warm_open_ms),
            format!("{:.3}", r.try_recover_ms),
        ]);
    }
    let table = format!(
        "{}\nvfs indirection — {} buffered writes × {} B: direct {:.4} µs/op, via vfs {:.4} µs/op (delta {:+.4} µs)\n\
         durable floor — {} appends: direct {:.1} µs, via vfs {:.1} µs; indirection = {:+.3}% of one durable append\n",
        t.render(),
        vfs.writes,
        vfs.buf_bytes,
        vfs.direct_write_us,
        vfs.via_vfs_write_us,
        vfs.indirection_us(),
        vfs.durable_appends,
        vfs.direct_durable_us,
        vfs.via_vfs_durable_us,
        vfs.overhead_pct()
    );
    Outcome {
        table,
        json: json(n, &recovery, &vfs),
        failures: gate(&vfs),
    }
}
