//! Exit codes of the `cpdb_bench` binary on bad input: usage errors exit 2
//! before any measurement runs.

use std::process::{Command, Output};

fn cpdb_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cpdb_bench"))
        .args(args)
        .output()
        .expect("the binary runs")
}

fn assert_usage_error(args: &[&str]) {
    let out = cpdb_bench(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?} ran something");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("usage: cpdb_bench"), "{stderr}");
}

#[test]
fn unknown_experiment_exits_non_zero_without_running_any() {
    assert_usage_error(&["experiments", "fig1", "e99"]);
}

#[test]
fn unknown_subcommand_and_bad_flags_are_usage_errors() {
    assert_usage_error(&[]);
    assert_usage_error(&["persistence_roundtrip"]);
    assert_usage_error(&["rank_artifacts", "--seed", "3"]);
    assert_usage_error(&["rank_artifacts", "--n"]);
    assert_usage_error(&["query_throughput", "--n", "0"]);
    assert_usage_error(&["replication", "--lens", "8,x"]);
}

#[test]
fn a_known_experiment_runs() {
    let out = cpdb_bench(&["experiments", "fig1"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("0.080000 | 0.080000"));
}
