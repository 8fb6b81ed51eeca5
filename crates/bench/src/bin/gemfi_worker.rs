//! `gemfi_worker` — a remote campaign worker: connects to a `gemfi_serve`
//! daemon, claims leased experiments, executes them locally and reports
//! results over the line-delimited JSON protocol (DESIGN.md §15).
//!
//! The worker holds nothing durable. It fetches each queue's checkpoint
//! image once (cached by digest), heartbeats its leases at a third of the
//! lease period, and abandons a window the moment heartbeats stop being
//! acknowledged — the server's reaper re-offers the experiment to the next
//! claimant. Worker death is therefore always safe, and restarting is
//! just re-running the binary.
//!
//! ```text
//! cargo run --release -p gemfi-bench --bin gemfi_worker -- \
//!     --connect 127.0.0.1:7401 [--name w1] \
//!     [--cpu o3|atomic|inorder|timing] \
//!     [--snapshot-ticks N --scratch <dir>] \
//!     [--connect-attempts N] [--reconnect-ms N]
//! ```
//!
//! `--snapshot-ticks N` enables periodic mid-run snapshots in `--scratch`:
//! a worker killed mid-experiment resumes that experiment from its last
//! snapshot on the next claim instead of replaying it from the campaign
//! checkpoint.

use gemfi_bench::{Args, Scale};
use gemfi_campaign::{run_socket_worker, RunnerConfig, SnapshotPolicy, WorkerOptions};
use gemfi_cpu::CpuKind;
use gemfi_workloads::Workload;
use std::time::Duration;

const USAGE: &str = "\
usage: gemfi_worker --connect <host:port> [--name <id>] [--cpu o3|atomic|inorder|timing] \
[--snapshot-ticks N --scratch <dir>] [--connect-attempts N] [--reconnect-ms N]";

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
    opts.snapshot = SnapshotPolicy::every(args.number("snapshot-ticks", 0u64));
    opts.scratch_dir = args.value_of("scratch").map(Into::into);
    opts.connect_attempts = args.number("connect-attempts", 8u32);
    opts.reconnect_delay = Duration::from_millis(args.number("reconnect-ms", 50u64));
    if opts.snapshot.enabled() && opts.scratch_dir.is_none() {
        eprintln!("--snapshot-ticks needs --scratch <dir> for the snapshot files");
        std::process::exit(2);
    }

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
