//! # cpdb-bench — experiment harness shared by the benches and the
//! `cpdb_bench` binary.
//!
//! The paper has no empirical section, so the "tables and figures" this
//! harness regenerates are (a) the two figures of the paper, reproduced
//! exactly, and (b) one validation + one scaling experiment per algorithmic
//! claim, as catalogued in `DESIGN.md` and reported in `EXPERIMENTS.md`.
//!
//! Each gate scenario (`rank_artifacts`, `query_throughput`,
//! `update_throughput`, `persistence`, `fault_recovery`, `replication`,
//! `observability`) lives in its own module as a `scenario` function that
//! returns its text table, its `BENCH_*.json` document and its gate
//! failures; [`harness`] holds what they share.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod fault_recovery;
pub mod harness;
pub mod observability;
pub mod persistence;
pub mod query_throughput;
pub mod rank_artifacts;
pub mod replication;
pub mod table;
pub mod update_throughput;

pub use experiments::*;
pub use table::Table;
