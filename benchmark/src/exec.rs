//! The executors, driven through their real public entry points with
//! tracing off: `run_experiment`, `run_campaign_forked`, `run_campaign_now`,
//! and `CampaignServer` + `run_socket_worker`. One call of [`run_rep`] is one
//! timed repetition of a workload.

use crate::host::cpu_seconds;
use crate::workloads::{Executor, PreparedGuest, WorkloadDef};
use gemfi::Outcome;
use gemfi_campaign::{
    run_campaign_adaptive, run_campaign_forked, run_campaign_now, run_experiment,
    run_socket_worker, AdaptiveOutcome, CampaignServer, CompletedExperiment, ExperimentResult,
    ForkConfig, NowConfig, QueueKind, QueueSpec, RunnerConfig, ServerConfig, ServerReport,
    WorkerOptions,
};
use gemfi_sim::RunExit;
use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Worker threads on the fabric. The reference box has two cores; the
/// caller thread only waits while they run, so never more than two threads
/// do work.
pub const FABRIC_WORKERS: usize = 2;

/// What is compared per experiment across executors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    pub outcome: Outcome,
    /// Total simulated ticks at termination.
    pub ticks: u64,
    /// How the run ended; the fabric reports carry no exit.
    pub exit: Option<RunExit>,
}

impl From<&ExperimentResult> for Verdict {
    fn from(r: &ExperimentResult) -> Verdict {
        Verdict { outcome: r.outcome, ticks: r.ticks, exit: Some(r.exit) }
    }
}

impl From<&CompletedExperiment> for Verdict {
    fn from(r: &CompletedExperiment) -> Verdict {
        Verdict { outcome: r.outcome, ticks: r.ticks, exit: None }
    }
}

/// One repetition's wall time and what came back.
#[derive(Debug, Default)]
pub struct RepResult {
    pub wall_s: f64,
    /// Process user+system CPU seconds over the same interval.
    pub cpu_s: f64,
    /// Verdicts per guest, in spec order (empty for the adaptive workload).
    pub verdicts: Vec<Vec<Verdict>>,
    /// Adaptive conclusions per guest (adaptive workload only).
    pub adaptive: Vec<AdaptiveOutcome>,
    /// Failed attempts retried plus expired leases reclaimed.
    pub retries: u64,
}

impl RepResult {
    pub fn experiments(&self) -> u64 {
        let fixed: usize = self.verdicts.iter().map(Vec::len).sum();
        fixed as u64 + self.adaptive.iter().map(|a| a.experiments).sum::<u64>()
    }
}

/// Wall and process-CPU time of one interval.
pub struct Stopwatch {
    started: Instant,
    cpu0: f64,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch { cpu0: cpu_seconds(), started: Instant::now() }
    }

    /// `(wall seconds, CPU seconds)` since the start.
    pub fn stop(&self) -> (f64, f64) {
        (self.started.elapsed().as_secs_f64(), cpu_seconds() - self.cpu0)
    }
}

/// Scratch space for spool shares and journals: a directory of this run
/// under the benchmark's `out/`, removed when the run ends.
pub struct Scratch {
    root: PathBuf,
    next: Cell<u64>,
}

/// `benchmark/out/` — the only place the benchmark writes.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl Scratch {
    /// # Errors
    ///
    /// Propagates directory-creation errors.
    pub fn new() -> std::io::Result<Scratch> {
        let root = out_dir().join(format!("scratch-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch { root, next: Cell::new(0) })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// A fresh, empty share: every campaign journals durably, so a
    /// repetition must never find (and resume) an earlier one's journal.
    ///
    /// Shares are only removed when the run ends, never between timed
    /// repetitions: ext4 skips inodes deleted in the last minute or more
    /// when it allocates one (`recently_deleted`), so every file a
    /// repetition deleted would slow the creates of the next.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("{tag}-{n}"));
        std::fs::create_dir_all(&dir).expect("create scratch share");
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The queue list of one server: one queue per guest.
fn queue_specs(def: &WorkloadDef, guests: &[PreparedGuest], seed: u64) -> Vec<QueueSpec> {
    guests
        .iter()
        .map(|g| QueueSpec {
            name: g.plan.guest.to_string(),
            priority: 1,
            quota: 0,
            workload: g.plan.guest.to_string(),
            scale: g.scale().to_string(),
            prepared: g.prepared.clone(),
            kind: if def.executor == Executor::AdaptiveSocket {
                QueueKind::Adaptive { config: WorkloadDef::adaptive_config(g.plan.count), seed }
            } else {
                QueueKind::FixedN { specs: g.specs.clone() }
            },
        })
        .collect()
}

/// Starts a campaign server over a fresh share with one queue per guest,
/// runs `worker` on [`FABRIC_WORKERS`] threads against it until every queue
/// is terminal, and shuts it down. The times written to `rep` run from
/// before the server starts (it seeds the share and encodes the
/// checkpoints) until the last worker has seen `complete`.
pub fn run_fleet<T: Send>(
    def: &WorkloadDef,
    guests: &[PreparedGuest],
    seed: u64,
    share: &Path,
    rep: &mut RepResult,
    worker: impl Fn(usize, &str) -> T + Sync,
) -> (ServerReport, Vec<T>) {
    let watch = Stopwatch::start();
    let server = CampaignServer::start(ServerConfig::new(share), queue_specs(def, guests, seed))
        .expect("campaign server starts");
    let addr = server.addr().to_string();
    let reports: Vec<T> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..FABRIC_WORKERS)
            .map(|i| {
                let (worker, addr) = (&worker, addr.as_str());
                scope.spawn(move || worker(i, addr))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("fabric worker thread")).collect()
    });
    assert!(server.wait_complete(Duration::from_secs(60)), "workers left with queues open");
    (rep.wall_s, rep.cpu_s) = watch.stop();
    (server.shutdown().expect("server shutdown"), reports)
}

/// Folds a server report's per-queue results into a repetition result.
pub fn fold_server_report(def: &WorkloadDef, report: ServerReport, rep: &mut RepResult) {
    for queue in report.queues {
        rep.retries += queue.retries + queue.reclaimed;
        if def.executor == Executor::AdaptiveSocket {
            rep.adaptive.push(queue.adaptive.expect("adaptive queue ran to its stopping rule"));
        } else {
            rep.verdicts.push(queue.completed.iter().map(Verdict::from).collect());
        }
    }
}

/// Runs one repetition of `def` through its executor, tracing off.
pub fn run_rep(
    def: &WorkloadDef,
    guests: &[PreparedGuest],
    seed: u64,
    scratch: &Scratch,
) -> RepResult {
    let runner = def.runner();
    let mut rep = RepResult::default();
    match def.executor {
        Executor::Inproc => {
            let watch = Stopwatch::start();
            rep.verdicts = guests.iter().map(|g| inproc_verdicts(g, &runner)).collect();
            (rep.wall_s, rep.cpu_s) = watch.stop();
        }
        Executor::Forked => {
            let watch = Stopwatch::start();
            let fork = ForkConfig::default();
            rep.verdicts = guests
                .iter()
                .map(|g| {
                    run_campaign_forked(&g.prepared, g.workload.as_ref(), &g.specs, &runner, &fork)
                        .iter()
                        .map(Verdict::from)
                        .collect()
                })
                .collect();
            (rep.wall_s, rep.cpu_s) = watch.stop();
        }
        Executor::Spool => {
            spool_rep(guests, &runner, scratch, &mut rep);
        }
        Executor::Socket | Executor::AdaptiveSocket => {
            let share = scratch.fresh("server");
            let (report, _) = run_fleet(def, guests, seed, &share, &mut rep, |i, addr| {
                let mut opts = WorkerOptions::new(format!("w{i}"));
                opts.runner = runner;
                let resolver =
                    |name: &str, scale: &str| crate::workloads::resolve_guest(name, scale);
                run_socket_worker(addr, &resolver, &opts).expect("socket worker finishes")
            });
            fold_server_report(def, report, &mut rep);
        }
    }
    rep
}

/// One spool repetition: `run_campaign_now` per guest, each over a fresh
/// share. Returns the shares, journals still on them.
pub fn spool_rep(
    guests: &[PreparedGuest],
    runner: &RunnerConfig,
    scratch: &Scratch,
    rep: &mut RepResult,
) -> Vec<PathBuf> {
    let shares: Vec<PathBuf> = guests.iter().map(|g| scratch.fresh(g.plan.guest)).collect();
    let watch = Stopwatch::start();
    for (g, share) in guests.iter().zip(&shares) {
        let config = NowConfig::new(FABRIC_WORKERS, 1, share);
        let (_, completed, report) =
            run_campaign_now(&g.prepared, g.workload.as_ref(), &g.specs, runner, &config)
                .expect("spool campaign runs");
        rep.retries += report.retries + report.reclaimed_leases;
        rep.verdicts.push(completed.iter().map(Verdict::from).collect());
    }
    (rep.wall_s, rep.cpu_s) = watch.stop();
    shares
}

/// Sequential `run_experiment` over one guest's specs — the `*_inproc`
/// executor, and every other executor's reference.
pub fn inproc_verdicts(guest: &PreparedGuest, runner: &RunnerConfig) -> Vec<Verdict> {
    guest
        .specs
        .iter()
        .map(|spec| {
            Verdict::from(&run_experiment(&guest.prepared, guest.workload.as_ref(), *spec, runner))
        })
        .collect()
}

/// In-process `run_campaign_adaptive` per guest: the adaptive reference.
pub fn inproc_adaptive(guests: &[PreparedGuest], seed: u64) -> Vec<AdaptiveOutcome> {
    guests
        .iter()
        .map(|g| {
            run_campaign_adaptive(
                &g.prepared,
                g.workload.as_ref(),
                &RunnerConfig::default(),
                None,
                &WorkloadDef::adaptive_config(g.plan.count),
                seed,
            )
        })
        .collect()
}
