//! Every `--check` gate at its bound, and every scenario's JSON writer
//! against the key layout of its committed `BENCH_*.json`, on fabricated
//! results: nothing here measures anything.

use cpdb_bench::fault_recovery::{self, RecoveryResult, VfsOverheadResult};
use cpdb_bench::harness::Json;
use cpdb_bench::observability::{self, MixQueryResult, ObsOverheadResult, SnapshotCostResult};
use cpdb_bench::persistence::{self, PersistenceResult};
use cpdb_bench::query_throughput::{self, QpsScenario, QueryThroughputResult};
use cpdb_bench::rank_artifacts::{self, Comparison, RankArtifactsResult};
use cpdb_bench::replication::{self, CatchUpResult, StalenessResult};
use cpdb_bench::update_throughput::{self, KindResult};
use cpdb_engine::{DeltaImpact, DeltaReport};

/// Every key of a JSON document as a dotted path, in document order.
/// Handles exactly what the bench documents contain: objects, strings
/// without escaped quotes, numbers and flat arrays.
fn key_paths(text: &str) -> Vec<String> {
    let mut paths = Vec::new();
    let mut stack: Vec<Option<String>> = Vec::new();
    let mut pending: Option<String> = None;
    let mut rest = text;
    while let Some(c) = rest.chars().next() {
        rest = &rest[c.len_utf8()..];
        match c {
            '"' => {
                let end = rest.find('"').expect("string is closed");
                let s = rest[..end].to_string();
                rest = rest[end + 1..].trim_start();
                if let Some(after) = rest.strip_prefix(':') {
                    rest = after;
                    let mut path: Vec<&str> = stack.iter().flatten().map(String::as_str).collect();
                    path.push(&s);
                    paths.push(path.join("."));
                    pending = Some(s);
                }
            }
            '{' => stack.push(pending.take()),
            '}' => {
                stack.pop();
            }
            ',' => pending = None,
            _ => {}
        }
    }
    paths
}

/// The written document has the committed one's keys — top level and
/// nested — in the same order.
fn assert_layout(json: &Json, committed: &str) {
    let expected = key_paths(committed);
    assert!(expected.iter().any(|p| p.contains('.')), "{committed}");
    let written = json.render();
    assert_eq!(key_paths(&written), expected, "{written}");
}

// --- rank_artifacts: max |Δ| ≤ 1e-9 and single-thread speedup ≥ 1.0 ---

fn rank_result(legacy_ms: f64, batch_single_ms: f64, max_abs_diff: f64) -> RankArtifactsResult {
    let comparisons = [
        "rank_pmf_table",
        "kendall_tournament",
        "coclustering_weights",
    ]
    .map(|name| Comparison {
        name,
        legacy_ms,
        batch_single_ms,
        batch_parallel_ms: batch_single_ms,
        max_abs_diff,
    })
    .into();
    RankArtifactsResult {
        n: 120,
        k: 10,
        threads: 1,
        comparisons,
    }
}

#[test]
fn rank_artifacts_gate_holds_at_its_bounds() {
    assert!(rank_artifacts::gate(&rank_result(1.0, 1.0, 1e-9)).is_empty());
    assert_eq!(
        rank_artifacts::gate(&rank_result(1.0, 1.0, 1.001e-9)).len(),
        3
    );
    assert_eq!(rank_artifacts::gate(&rank_result(1.0, 1.001, 0.0)).len(), 3);
}

#[test]
fn rank_artifacts_json_keeps_its_layout() {
    assert_layout(
        &rank_artifacts::json(&rank_result(6.4, 0.4, 5e-17)),
        include_str!("../../../BENCH_rank_artifacts.json"),
    );
}

// --- query_throughput: warm parallel / serial ≥ 1.0 on dup > 1 ---

fn qps_result(dup1_ratio: f64, dup4_ratio: f64) -> QueryThroughputResult {
    let scenarios = [(1, dup1_ratio), (4, dup4_ratio)]
        .into_iter()
        .flat_map(|(dup, ratio)| {
            [1, 2, 4, 8].map(|threads| QpsScenario {
                dup,
                threads,
                batch_len: 18 * dup,
                warm_serial_qps: 100.0,
                warm_parallel_qps: 100.0 * ratio,
                cold_serial_qps: 100.0,
                cold_parallel_qps: 50.0,
            })
        })
        .collect();
    QueryThroughputResult {
        n: 120,
        machine_threads: 1,
        scenarios,
    }
}

#[test]
fn query_throughput_gate_holds_at_its_bound() {
    assert!(query_throughput::gate(&qps_result(0.5, 1.0)).is_empty());
    assert_eq!(query_throughput::gate(&qps_result(1.0, 0.999)).len(), 4);
}

#[test]
fn query_throughput_json_keeps_its_layout() {
    assert_layout(
        &query_throughput::json(&qps_result(1.0, 4.0)),
        include_str!("../../../BENCH_query_throughput.json"),
    );
}

// --- update_throughput: probability-delta patch speedup ≥ 1.0 ---

fn kinds(patch_ms: f64, rebuild_ms: f64) -> Vec<KindResult> {
    [
        "xor_probability",
        "leaf_value_order_preserving",
        "insert_alternative",
        "remove_alternative",
        "insert_tuple_block",
    ]
    .into_iter()
    .map(|kind| KindResult {
        kind,
        patch_ms,
        rebuild_ms,
        report: DeltaReport {
            impact: DeltaImpact {
                affected_keys: Default::default(),
                probabilities_changed: true,
                values_changed: false,
                membership_changed: false,
                rank_order_preserved: true,
            },
            decisions: Vec::new(),
        },
    })
    .collect()
}

#[test]
fn update_throughput_gate_holds_at_its_bound() {
    assert!(update_throughput::gate(&kinds(2.0, 2.0)).is_empty());
    assert_eq!(update_throughput::gate(&kinds(2.002, 2.0)).len(), 1);
    assert_eq!(update_throughput::gate(&kinds(2.0, 2.0)[1..]).len(), 1);
}

#[test]
fn update_throughput_json_keeps_its_layout() {
    assert_layout(
        &update_throughput::json(120, &kinds(2.4, 161.1)),
        include_str!("../../../BENCH_update_throughput.json"),
    );
}

// --- persistence: cold_over_warm ≥ 1.0 at every n ---

fn sizes(warm_open_ms: [f64; 3]) -> Vec<PersistenceResult> {
    [50, 120, 200]
        .into_iter()
        .zip(warm_open_ms)
        .map(|(n, warm_open_ms)| PersistenceResult {
            n,
            deltas_applied: 5,
            snapshot_bytes: 63_677,
            wal_bytes: 241,
            durable_apply_ms: 1.0,
            snapshot_write_ms: 2.0,
            warm_open_ms,
            snapshot_only_open_ms: 0.5,
            cold_build_ms: 8.0,
        })
        .collect()
}

#[test]
fn persistence_gate_holds_at_its_bound_at_every_size() {
    assert!(persistence::gate(&sizes([8.0, 8.0, 8.0])).is_empty());
    assert_eq!(persistence::gate(&sizes([1.0, 8.008, 1.0])).len(), 1);
}

#[test]
fn persistence_json_keeps_its_layout() {
    assert_layout(
        &persistence::json(&sizes([3.6, 16.0, 40.1])),
        include_str!("../../../BENCH_persistence.json"),
    );
}

// --- fault_recovery: VFS overhead ≤ 2% of a durable append ---

fn vfs(via_vfs_write_us: f64) -> VfsOverheadResult {
    VfsOverheadResult {
        writes: 16_384,
        buf_bytes: 4096,
        direct_write_us: 1.0,
        via_vfs_write_us,
        durable_appends: 768,
        direct_durable_us: 100.0,
        via_vfs_durable_us: 100.0,
    }
}

#[test]
fn fault_recovery_gate_holds_at_its_bound() {
    assert_eq!(vfs(3.0).overhead_pct(), 2.0);
    assert!(fault_recovery::gate(&vfs(3.0)).is_empty());
    assert_eq!(fault_recovery::gate(&vfs(3.001)).len(), 1);
}

#[test]
fn fault_recovery_json_keeps_its_layout() {
    let recovery: Vec<RecoveryResult> = [8, 64, 256]
        .map(|wal_records| RecoveryResult {
            wal_records,
            wal_bytes: 276,
            store_scan_ms: 0.04,
            warm_open_ms: 0.5,
            try_recover_ms: 0.03,
        })
        .into();
    assert_layout(
        &fault_recovery::json(80, &recovery, &vfs(1.02)),
        include_str!("../../../BENCH_fault_recovery.json"),
    );
}

// --- replication: per-delta cadence max_lag ≤ 1 ---

fn staleness(per_delta_max_lag: u64) -> Vec<StalenessResult> {
    vec![
        StalenessResult {
            sync_every: 1,
            mean_lag: 1.0,
            max_lag: per_delta_max_lag,
        },
        StalenessResult {
            sync_every: 8,
            mean_lag: 4.5,
            max_lag: 8,
        },
    ]
}

#[test]
fn replication_gate_holds_at_its_bound() {
    assert!(replication::gate(&staleness(1)).is_empty());
    assert_eq!(replication::gate(&staleness(2)).len(), 1);
}

#[test]
fn replication_json_keeps_its_layout() {
    let catch_up: Vec<CatchUpResult> = [8, 64, 256]
        .map(|shipped_records| CatchUpResult {
            shipped_records,
            shipped_bytes: 7799,
            ship_ms: 0.9,
            ship_mb_per_s: 0.4,
            catch_up_ms: 3.3,
        })
        .into();
    assert_layout(
        &replication::json(80, &catch_up, &staleness(1)),
        include_str!("../../../BENCH_replication.json"),
    );
}

// --- observability: sink overhead ≤ 2% of a probe-mix query ---

fn obs(enabled_span_ns: f64) -> ObsOverheadResult {
    let mix = [
        "set_consensus",
        "topk_sym_diff",
        "topk_footrule",
        "topk_kendall",
    ]
    .map(|kind| MixQueryResult {
        kind,
        plain_us: 10.0,
        instrumented_us: 10.2,
    })
    .into();
    ObsOverheadResult {
        queries: 72,
        mix,
        ops: 200_000,
        counter_ns: 3.0,
        histogram_ns: 19.0,
        event_ns: 90.0,
        enabled_span_ns,
        disabled_span_ns: 5.0,
    }
}

#[test]
fn observability_gate_holds_at_its_bound() {
    assert_eq!(obs(205.0).overhead_pct(), 2.0);
    assert!(observability::gate(&obs(205.0)).is_empty());
    assert_eq!(observability::gate(&obs(205.1)).len(), 1);
}

#[test]
fn observability_json_keeps_its_layout() {
    let introspection = SnapshotCostResult {
        series: 48,
        events: 1024,
        snapshot_us: 2.8,
        to_json_us: 13.4,
        recent_events_us: 33.0,
    };
    assert_layout(
        &observability::json(80, &obs(419.0), &introspection),
        include_str!("../../../BENCH_observability.json"),
    );
}
