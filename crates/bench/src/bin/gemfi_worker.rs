//! `gemfi_worker` — a remote campaign worker: connects to a `gemfi_serve`
//! daemon, claims leased experiments, executes them locally and reports
//! results over the line-delimited JSON protocol (DESIGN.md §15).
//!
//! The worker holds nothing durable and writes nothing to disk. It fetches
//! each queue's checkpoint image once (cached by digest), heartbeats its
//! leases at a third of the lease period, and abandons a window the moment
//! heartbeats stop being acknowledged — the server's reaper re-offers the
//! experiment to the next claimant, which re-runs it from the checkpoint.
//! Worker death is therefore always safe, and restarting is just re-running
//! the binary.
//!
//! ```text
//! cargo run --release -p gemfi-bench --bin gemfi_worker -- \
//!     --connect 127.0.0.1:7401 [--name w1] \
//!     [--cpu o3|atomic|inorder|timing] \
//!     [--connect-attempts N] [--reconnect-ms N]
//! ```

use gemfi_bench::{Args, Scale};
use gemfi_campaign::{run_socket_worker, RunnerConfig, WorkerOptions};
use gemfi_cpu::CpuKind;
use gemfi_workloads::Workload;
use std::time::Duration;

const USAGE: &str = "\
usage: gemfi_worker --connect <host:port> [--name <id>] [--cpu o3|atomic|inorder|timing] \
[--connect-attempts N] [--reconnect-ms N]";

fn main() {
    let args = Args::from_env_checked(USAGE);
    let Some(addr) = args.value_of("connect") else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let name = args
        .value_of("name")
        .map(str::to_string)
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let cpu = match args.value_of("cpu") {
        Some("atomic") => CpuKind::Atomic,
        Some("inorder") => CpuKind::InOrder,
        Some("timing") => CpuKind::Timing,
        _ => CpuKind::O3,
    };

    let mut opts = WorkerOptions::new(name.clone());
    opts.runner = RunnerConfig { inject_cpu: cpu, ..RunnerConfig::default() };
    opts.connect_attempts = args.number("connect-attempts", 8u32);
    opts.reconnect_delay = Duration::from_millis(args.number("reconnect-ms", 50u64));

    // The server names a (workload, scale) pair; the worker re-creates the
    // guest from its own registry — only protocol artifacts cross the wire.
    let resolver = |workload: &str, scale: &str| -> Option<Box<dyn Workload>> {
        let scale = Scale::parse(scale)?;
        gemfi_bench::select_workloads(scale, Some(workload)).pop()
    };

    println!("worker {name} -> {addr}");
    match run_socket_worker(addr, &resolver, &opts) {
        Ok(report) => {
            println!(
                "campaign complete: {} claims, {} completed, {} failed, {} stale",
                report.claims, report.completed, report.failed, report.stale
            );
        }
        Err(e) => {
            eprintln!("worker lost the campaign: {e}");
            std::process::exit(1);
        }
    }
}
