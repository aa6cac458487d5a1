//! `perfbench`: the MF-DFP workspace's seeded benchmark.
//!
//! ```text
//! perfbench --workload <cifar10-offline|serve-open|http-closed> --seed <n> --seconds <n> --trace <0|1>
//! perfbench compare [--spec BENCHMARK.json] <base-runs.log> <change-runs.log>
//! perfbench setup --workload <name>
//! ```
//!
//! A run prints one record line (settings, environment, every metric
//! with its sample summary, the layer and stage breakdowns) and then,
//! as its last line, the result: every end-to-end metric with
//! `--trace 0`, every per-layer metric with `--trace 1`. A failed
//! correctness check prints no result and exits with code 1. See
//! `README.md` for the workloads and what each metric measures.

mod cli;
mod compare;
mod json;
mod layers;
mod loadgen;
mod models;
mod offline;
mod report;
mod serving;
mod setup;
mod stats;

use cli::{Command, Workload};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match cli::parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let result = match command {
        Command::Compare(c) => compare::run(&c).map(|table| print!("{table}")),
        Command::Setup(w) => setup::run_child(w),
        Command::Run(run) => {
            let outcome = match run.workload {
                Workload::Cifar10Offline => offline::run(&run),
                Workload::ServeOpen | Workload::HttpClosed => serving::run(&run),
            };
            outcome.and_then(|o| {
                let line = o.result_line(&run)?;
                println!("{}", o.record_line(&run));
                println!("{line}");
                Ok(())
            })
        }
    };
    if let Err(e) = result {
        eprintln!("perfbench: FAILED: {e}");
        std::process::exit(1);
    }
}
