//! `setup_s`: the time a fresh process takes from the start of its
//! set-up code to the moment the workload could take its first request.
//!
//! Each set-up runs in a child process of its own (`perfbench setup
//! --workload W`), which sets the workload up, prints `ready <seconds>`
//! and exits. A fresh process is what a deployment starts, and it
//! matters here: repeated inside one process, every set-up after the
//! first reuses the same heap layout, and on a shared 2-vCPU VM whole
//! processes ran all their set-ups at one of two speeds 25% apart.
//!
//! The child times itself. Creating the process (fork, exec, loading the
//! binary) is the operating system's cost; on the same VM it took about
//! as long as the whole serve set-up and drifted by a quarter over ten
//! minutes.

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::cli::Workload;
use crate::models::{Model, NetKind};

/// Set-ups in fresh processes per run, half before the measured pass
/// and half after it, so that a slow moment of the host at either end
/// does not set the figure; `setup_s` is their median.
pub const REPS: usize = 24;

/// Times `n` set-ups of `w`, each in a fresh child process, in seconds.
/// Every child is waited for, whether or not it succeeded.
pub fn time_fresh(w: Workload, n: usize) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    (0..n)
        .map(|_| {
            let mut child = Command::new(&exe)
                .args(["setup", "--workload", w.name()])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("starting a set-up process: {e}"))?;
            let mut line = String::new();
            let read = match child.stdout.take() {
                Some(out) => BufReader::new(out).read_line(&mut line).map_err(|e| e.to_string()),
                None => Err("no stdout".into()),
            };
            let status = child.wait().map_err(|e| format!("waiting for set-up process: {e}"))?;
            read.map_err(|e| format!("reading set-up process: {e}"))?;
            match line.trim().strip_prefix("ready ").map(str::parse::<f64>) {
                Some(Ok(seconds)) if status.success() => Ok(seconds),
                _ => Err(format!("set-up process failed ({status}): {line:?}")),
            }
        })
        .collect()
}

/// The child's side: set `w` up, print `ready` and the seconds that
/// took, tear it down.
pub fn run_child(w: Workload) -> Result<(), String> {
    let start = Instant::now();
    let ready = || {
        let seconds = start.elapsed().as_secs_f64();
        let mut out = std::io::stdout().lock();
        writeln!(out, "ready {seconds}").and_then(|()| out.flush()).map_err(|e| e.to_string())
    };
    match w {
        Workload::Cifar10Offline => {
            let model = Model::build(NetKind::Cifar10Full)?;
            ready()?;
            drop(model);
        }
        Workload::ServeOpen | Workload::HttpClosed => {
            let tier = crate::serving::Tier::start(w == Workload::HttpClosed)?;
            ready()?;
            tier.stop()?;
        }
    }
    Ok(())
}
