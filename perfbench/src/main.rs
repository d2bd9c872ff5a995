//! The consensus-pdb benchmark: three closed-loop workloads, one client
//! thread each, driving the library crates' public API at shipped defaults.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 24 --trace 0
//! ```
//!
//! `--trace 0` measures with no sink attached and prints the end-to-end
//! metrics. `--trace 1` splits the same budget between the untraced loop and
//! the traced loop (sinks attached, the benchmark timing its own calls into
//! each layer) and prints the per-layer metrics, including the tracing
//! overhead between the two.
//! The last stdout line is one JSON object; the line before it records the
//! resolved configuration and the realised workload mix. See
//! `perfbench/README.md` for why each workload exists and which layer metric
//! should move which end-to-end metric.

mod deltas;
mod ingest;
mod recover;
mod serve;
mod stats;
mod tally;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use tally::Outcome;

/// `(name, unit)` of every end-to-end metric, in output order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
];

/// `(name, unit)` of every per-layer metric, in output order. A workload
/// that never calls into a layer reports `0` for its metrics.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("kernel.topk_kendall_ms", "ms"),
    ("kernel.topk_median_ms", "ms"),
    ("kernel.set_jaccard_ms", "ms"),
    ("kernel.clustering_ms", "ms"),
    ("kernel.topk_symdiff_us", "us"),
    ("kernel.topk_intersection_us", "us"),
    ("kernel.topk_footrule_us", "us"),
    ("kernel.set_symdiff_us", "us"),
    ("kernel.aggregate_us", "us"),
    ("kernel.baseline_us", "us"),
    ("genfunc.rank_context_ms", "ms"),
    ("genfunc.preference_matrix_ms", "ms"),
    ("genfunc.coclustering_ms", "ms"),
    ("andxor.apply_us", "us"),
    ("engine.patch_ms_p50", "ms"),
    ("engine.patch_ms_p99", "ms"),
    ("engine.delta_patched_per_write", "count"),
    ("engine.delta_invalidated_per_write", "count"),
    ("engine.delta_kept_per_write", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.rank_context_builds_per_read", "count"),
    ("engine.from_export_ms", "ms"),
    ("store.open_ms", "ms"),
    ("store.wal_append_us_p50", "us"),
    ("store.wal_append_us_p99", "us"),
    ("store.fsyncs_per_write", "count"),
    ("store.bytes_written_per_write", "bytes"),
    ("store.snapshot_write_ms", "ms"),
    ("store.snapshot_bytes", "bytes"),
    ("live.apply_ms_p50", "ms"),
    ("live.apply_ms_p99", "ms"),
    ("live.publish_us", "us"),
    ("live.compactions_per_1k_writes", "count"),
    ("live.replay_ms_per_record", "ms"),
    ("live.open_s", "s"),
    ("replica.ship_ms", "ms"),
    ("replica.bootstrap_ms", "ms"),
    ("replica.sync_ms", "ms"),
    ("replica.catchup_s", "s"),
    ("replica.shipped_bytes", "bytes"),
    ("replica.quarantines", "count"),
    ("trace.overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for the durable stores, inside the checkout.
    pub dir: PathBuf,
}

impl Opts {
    /// Measured seconds of each phase: a traced run splits its budget
    /// between the untraced and the traced phase.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// The engine configuration a run actually used, as JSON members: every
/// knob is the shipped default, and `threads: 0` resolves at run time.
pub fn resolved_config(engine: &cpdb_engine::ConsensusEngine) -> String {
    let export = engine.export();
    let auto = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = std::env::var("CPDB_THREADS").map_or("null".to_string(), |v| format!("{v:?}"));
    format!(
        "\"kendall_distance_samples\": {}, \"kendall\": \"{:?}\", \"intersection\": \"{:?}\", \
         \"k_range\": [{}, {}], \"threads\": {}, \"available_parallelism\": {auto}, \
         \"cpdb_threads_env\": {env}",
        export.kendall_distance_samples,
        export.kendall,
        export.intersection,
        export.k_range.0,
        export.k_range.1,
        export.threads,
    )
}

fn parse_args() -> Result<(String, Opts), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seconds = seconds.unwrap_or(24.0);
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} must lie in (0, 60]"));
    }
    let seed = seed.unwrap_or(1);
    let dir = Path::new(".perfbench-run").join(format!("{workload}-{}", std::process::id()));
    Ok((
        workload,
        Opts {
            seed,
            seconds,
            trace: trace.unwrap_or(false),
            dir,
        },
    ))
}

fn run(workload: &str, opts: &Opts) -> Result<Outcome, String> {
    match workload {
        "serve" => serve::run(&serve::Config::full(), opts),
        "ingest" => ingest::run(&ingest::Config::full(), opts),
        "recover" => recover::run(&recover::Config::full(), opts),
        other => Err(format!(
            "unknown workload {other:?} (serve, ingest, recover)"
        )),
    }
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let _ = std::fs::remove_dir_all(&opts.dir);
    let outcome = run(&workload, &opts);
    let _ = std::fs::remove_dir_all(&opts.dir);
    let _ = std::fs::remove_dir(".perfbench-run");
    match outcome {
        Ok(outcome) => {
            println!("{}", outcome.detail);
            println!("{}", outcome.result_line(opts.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly the metrics
    /// this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let declared = json.matches("\"unit\":").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) is not declared");
        }
    }
}
