//! `cpdb_bench`: one subcommand per gate scenario, plus the experiment
//! driver.
//!
//! ```text
//! cargo run --release -p cpdb_bench -- <scenario> [flags] [--out FILE] [--check]
//! cargo run --release -p cpdb_bench -- experiments [fig1 e4 ...]
//! ```
//!
//! A scenario prints its table and writes its JSON document to `--out`
//! (stdout without it). With `--check`, every failed gate prints
//! `CHECK FAILED: <scenario>: <reason>` and the process exits 1. A bad
//! subcommand, flag or experiment name prints the usage and exits 2.

use cpdb_bench::harness::{FlagSpec, Flags, Outcome};
use cpdb_bench::{
    experiments, fault_recovery, observability, persistence, query_throughput, rank_artifacts,
    replication, update_throughput,
};
use std::process::ExitCode;

type Run = fn(&Flags) -> Result<Outcome, String>;

const SCENARIOS: [(&str, &[FlagSpec], Run); 7] = [
    ("rank_artifacts", &[("--n", "200"), ("--k", "20")], |f| {
        Ok(rank_artifacts::scenario(f.count("--n")?, f.count("--k")?))
    }),
    ("query_throughput", &[("--n", "120")], |f| {
        Ok(query_throughput::scenario(f.count("--n")?))
    }),
    ("update_throughput", &[("--n", "120")], |f| {
        Ok(update_throughput::scenario(f.count("--n")?))
    }),
    ("persistence", &[("--sizes", "50,120,200")], |f| {
        Ok(persistence::scenario(&f.counts("--sizes")?))
    }),
    (
        "fault_recovery",
        &[("--n", "80"), ("--lens", "8,64,256")],
        |f| {
            Ok(fault_recovery::scenario(
                f.count("--n")?,
                &f.counts("--lens")?,
            ))
        },
    ),
    (
        "replication",
        &[("--n", "80"), ("--lens", "8,64,256")],
        |f| Ok(replication::scenario(f.count("--n")?, &f.counts("--lens")?)),
    ),
    ("observability", &[("--n", "80")], |f| {
        Ok(observability::scenario(f.count("--n")?))
    }),
];

fn usage(error: &str) -> ExitCode {
    eprintln!("error: {error}\n\nusage: cpdb_bench <scenario> [flags] [--out FILE] [--check]");
    for (name, specs, _) in SCENARIOS {
        let flags: Vec<String> = specs.iter().map(|(f, d)| format!("{f} {d}")).collect();
        eprintln!("  {name:<18} {}", flags.join(" "));
    }
    let names: Vec<&str> = experiments::EXPERIMENTS.iter().map(|(n, _)| *n).collect();
    eprintln!("       cpdb_bench experiments [{}]", names.join(" "));
    ExitCode::from(2)
}

fn run_experiments(names: &[String]) -> ExitCode {
    let mut runs: Vec<experiments::Experiment> = Vec::new();
    for name in names {
        match experiments::experiment(name) {
            Some(run) => runs.push(run),
            None => return usage(&format!("unknown experiment {name:?}")),
        }
    }
    if runs.is_empty() {
        runs = experiments::EXPERIMENTS
            .iter()
            .map(|&(_, run)| run)
            .collect();
    }
    println!("# Consensus answers over probabilistic databases — experiment report");
    println!("# (paper: Li & Deshpande, PODS 2009; see EXPERIMENTS.md for the archived run)");
    for table in runs.into_iter().flat_map(|run| run()) {
        table.print();
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage("missing subcommand");
    };
    if command == "experiments" {
        return run_experiments(rest);
    }
    let Some(&(name, specs, run)) = SCENARIOS.iter().find(|(n, _, _)| n == command) else {
        return usage(&format!("unknown subcommand {command:?}"));
    };
    let flags = match Flags::parse(rest, specs) {
        Ok(flags) => flags,
        Err(error) => return usage(&format!("{name}: {error}")),
    };
    let outcome = match run(&flags) {
        Ok(outcome) => outcome,
        Err(error) => return usage(&format!("{name}: {error}")),
    };
    print!("{}", outcome.table);
    let json = outcome.json.render();
    match &flags.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("error: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            println!("wrote {path}");
        }
        None => print!("{json}"),
    }
    if flags.check {
        if !outcome.failures.is_empty() {
            for failure in &outcome.failures {
                eprintln!("CHECK FAILED: {name}: {failure}");
            }
            return ExitCode::FAILURE;
        }
        println!("check passed: {name}");
    }
    ExitCode::SUCCESS
}
