//! The pieces every `cpdb_bench` scenario shares: the flag parser, the JSON
//! object writer, the gate outcome, the timing statistics, the scratch
//! directory guard, and the WAL-growing delta sequence.

use cpdb_engine::TreeDelta;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Workload seed of every scenario.
pub const SEED: u64 = 7;

/// Repetitions behind every timed statistic.
pub const REPS: usize = 3;

/// What one scenario run produced: the human-readable report, the
/// `BENCH_*.json` document, and the reason for every gate it failed
/// (empty when every gate held).
pub struct Outcome {
    /// Text report printed to stdout.
    pub table: String,
    /// The JSON document written to `--out`.
    pub json: Json,
    /// One line per failed gate.
    pub failures: Vec<String>,
}

/// A JSON value built by a scenario's writer. Numbers are formatted when
/// the value is built, so each field keeps the precision its report has
/// always used.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A number, already formatted (`null` when not finite).
    Num(String),
    /// A string.
    Str(String),
    /// An array, rendered on one line.
    Arr(Vec<Json>),
    /// An object, fields in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object; add fields with [`field`](Self::field).
    pub fn object() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    ///
    /// # Panics
    /// When `self` is not an object (a bug in the calling writer).
    pub fn field(mut self, key: impl ToString, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("field() on a non-object JSON value {other:?}"),
        }
        self
    }

    /// `x` with `decimals` digits after the point.
    pub fn fixed(x: f64, decimals: usize) -> Json {
        Json::finite(x, || format!("{x:.decimals$}"))
    }

    /// `x` in Rust's shortest exponent notation (`5.551115123125783e-17`).
    pub fn sci(x: f64) -> Json {
        Json::finite(x, || format!("{x:e}"))
    }

    fn finite(x: f64, format: impl FnOnce() -> String) -> Json {
        Json::Num(if x.is_finite() {
            format()
        } else {
            "null".to_string()
        })
    }

    /// The document, pretty-printed with two-space indentation and a
    /// trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        c if c.is_control() => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                let indent = "  ".repeat(depth + 1);
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&indent);
                    Json::Str(key.clone()).write(out, depth + 1);
                    out.push_str(": ");
                    value.write(out, depth + 1);
                }
                if !fields.is_empty() {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                out.push('}');
            }
        }
    }
}

impl From<usize> for Json {
    fn from(x: usize) -> Json {
        Json::Num(x.to_string())
    }
}

impl From<u64> for Json {
    fn from(x: u64) -> Json {
        Json::Num(x.to_string())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

/// One settable flag of a scenario: its name and the default it takes when
/// omitted (also shown in the usage text).
pub type FlagSpec = (&'static str, &'static str);

/// A scenario's parsed command line: `--out PATH`, `--check`, and the
/// scenario's own flags, each validated when read.
pub struct Flags {
    values: HashMap<&'static str, String>,
    /// Where to write the JSON document (stdout when absent).
    pub out: Option<String>,
    /// Whether gate failures make the process exit non-zero.
    pub check: bool,
}

impl Flags {
    /// Parses `args` against the scenario's flag table. Unknown flags and
    /// missing values are errors; omitted flags take their defaults.
    pub fn parse(args: &[String], specs: &[FlagSpec]) -> Result<Flags, String> {
        let mut flags = Flags {
            values: specs.iter().map(|&(n, d)| (n, d.to_string())).collect(),
            out: None,
            check: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--check" {
                flags.check = true;
                continue;
            }
            let mut value = || {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{arg} needs a value"))
            };
            if arg == "--out" {
                flags.out = Some(value()?);
            } else if let Some(&(name, _)) = specs.iter().find(|(n, _)| n == arg) {
                flags.values.insert(name, value()?);
            } else {
                return Err(format!("unknown flag {arg}"));
            }
        }
        Ok(flags)
    }

    /// The positive integer value of flag `name`.
    pub fn count(&self, name: &str) -> Result<usize, String> {
        parse_count(name, &self.values[name])
    }

    /// The comma-separated, distinct positive integers of flag `name`.
    pub fn counts(&self, name: &str) -> Result<Vec<usize>, String> {
        let mut out: Vec<usize> = Vec::new();
        for item in self.values[name].split(',') {
            let x = parse_count(name, item.trim())?;
            if out.contains(&x) {
                return Err(format!("{name} lists {x} twice"));
            }
            out.push(x);
        }
        Ok(out)
    }
}

fn parse_count(name: &str, s: &str) -> Result<usize, String> {
    match s.parse::<usize>() {
        Ok(x) if x > 0 => Ok(x),
        _ => Err(format!("{name} takes positive integers, got {s:?}")),
    }
}

/// Seconds taken by the fastest of `reps` runs of `f` (at least one run).
/// Every run does the full work, so the minimum is the least-noisy sample.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Mean of the middle half of `samples` — robust to the heavy upper tail
/// (scheduler preemption, CPU steal) and to the occasional
/// too-fast-to-trust clock reading at the bottom.
pub fn iq_mean(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let (lo, hi) = (samples.len() / 4, samples.len() * 3 / 4);
    samples[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// A unique path under the system temp dir, removed with everything in it
/// when the guard drops — on the success path and while a failed workload
/// assertion unwinds alike. The directory itself is not created: the
/// stores, outboxes and inboxes that live there create their own.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Reserves a fresh path tagged `tag`.
    pub fn new(tag: &str) -> ScratchDir {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "cpdb_bench_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        ScratchDir(path)
    }

    /// The reserved path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A WAL-growing delta sequence: leaf-value updates cycling over the
/// tree's leaves — always valid, and each one replays through the
/// delta-aware maintenance path on recovery.
pub fn leaf_deltas(tree: &cpdb_andxor::AndXorTree, count: usize) -> Vec<TreeDelta> {
    let leaves = tree.leaf_nodes();
    (0..count)
        .map(|i| TreeDelta::LeafValue {
            leaf: leaves[i % leaves.len()],
            value: 40.0 + (i % 53) as f64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    const SPECS: &[FlagSpec] = &[("--n", "80"), ("--lens", "8,64,256")];

    #[test]
    fn flags_take_defaults_values_out_and_check() {
        let f = Flags::parse(&args("--n 12 --out x.json --check"), SPECS).unwrap();
        assert_eq!(f.count("--n"), Ok(12));
        assert_eq!(f.counts("--lens"), Ok(vec![8, 64, 256]));
        assert_eq!(f.out.as_deref(), Some("x.json"));
        assert!(f.check);
        let f = Flags::parse(&[], SPECS).unwrap();
        assert_eq!(f.count("--n"), Ok(80));
        assert!(!f.check && f.out.is_none());
    }

    #[test]
    fn bad_flags_are_errors_not_panics() {
        for bad in ["--seed 3", "--n", "--out", "--reps 3"] {
            assert!(Flags::parse(&args(bad), SPECS).is_err(), "{bad}");
        }
        for (bad, flag) in [
            ("--n 0", "--n"),
            ("--n -1", "--n"),
            ("--n x", "--n"),
            ("--lens 8,,64", "--lens"),
            ("--lens 8,8", "--lens"),
        ] {
            let f = Flags::parse(&args(bad), SPECS).unwrap();
            assert!(f.count(flag).is_err() || f.counts(flag).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_renders_nested_objects_and_escapes() {
        let doc = Json::object()
            .field("bench", "a \"b\"\n")
            .field(
                "ks",
                Json::from(vec![Json::from(5usize), Json::from(10usize)]),
            )
            .field("inner", Json::object().field("x", Json::fixed(1.23456, 3)))
            .field("nan", Json::fixed(f64::NAN, 2))
            .field("tiny", Json::sci(5e-17))
            .field("empty", Json::object());
        assert_eq!(
            doc.render(),
            "{\n  \"bench\": \"a \\\"b\\\"\\u000a\",\n  \"ks\": [5, 10],\n  \
             \"inner\": {\n    \"x\": 1.235\n  },\n  \"nan\": null,\n  \
             \"tiny\": 5e-17,\n  \"empty\": {}\n}\n"
        );
    }

    #[test]
    fn best_of_takes_the_fastest_run() {
        let mut delays = [20u64, 1, 20].into_iter();
        let best = best_of(3, || {
            std::thread::sleep(std::time::Duration::from_millis(delays.next().unwrap()))
        });
        assert!((0.001..0.020).contains(&best), "{best}");
    }

    #[test]
    fn iq_mean_drops_both_tails() {
        assert_eq!(iq_mean(vec![100.0, 2.0, 0.0, 4.0]), 3.0);
    }

    #[test]
    fn scratch_dir_is_removed_when_a_workload_panics() {
        let mut reserved = None;
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = ScratchDir::new("unwind");
            std::fs::create_dir_all(dir.path().join("store")).unwrap();
            std::fs::write(dir.path().join("store/wal.cpdb"), b"bytes").unwrap();
            reserved = Some(dir.path().to_path_buf());
            panic!("workload assertion failed");
        }));
        assert!(result.is_err());
        let path = reserved.expect("the guard was created");
        assert!(!path.exists(), "{} leaked", path.display());
    }
}
