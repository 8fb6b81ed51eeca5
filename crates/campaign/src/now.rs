//! Campaign execution on a (simulated) network of workstations — the
//! Sec. III-E protocol, hardened for real clusters:
//!
//! 1. fault-configuration files for all experiments go to a network share;
//! 2. one simulation runs to the activation point and the checkpoint is
//!    stored on the share;
//! 3. each workstation takes a local copy of the checkpoint;
//! 4. each workstation repeatedly claims a remaining experiment from the
//!    share by writing an **expiring lease** ([`crate::lease`]);
//! 5. results move back to the share, and every lifecycle transition is
//!    appended to a durable **journal** ([`crate::journal`]);
//! 6. until no experiments remain.
//!
//! "Workstations" are thread groups sharing one local checkpoint copy; the
//! share is a real spool directory, so the artifacts (fault files, the
//! checkpoint blob, lease files, result files, the journal) are the same
//! ones a physical cluster would exchange over NFS.
//!
//! # One round engine
//!
//! [`Campaign`] is the campaign pipeline's state machine, and the only
//! one: a [`Plan`] yields rounds of draws (a fixed-n campaign is the
//! one-round case), each round's draws are checked against the replayed
//! journal — terminal ones fold straight back, the remainder is spooled,
//! its orphaned leases reaped — and run as one [`WindowScheduler`] window;
//! a finished window folds into the plan, which then decides the next
//! round. Workers only ever see [`Campaign::try_claim`] and
//! [`Campaign::report`]. [`run_campaign_now`] and
//! [`run_campaign_adaptive_now`] are this engine with a fixed or adaptive
//! plan behind [`SpoolTransport`] on in-process worker threads;
//! [`crate::server::CampaignServer`] is the same engine, one per queue,
//! behind the socket. Each worker thread is [`drive_worker`], the very loop
//! a remote socket worker runs — so every recovery path tested here holds
//! for the network backend too.
//!
//! Fault tolerance, on top of the paper's protocol:
//!
//! - A worker that panics releases its lease and journals the failed
//!   attempt; the experiment returns to the pending pool with capped
//!   exponential backoff.
//! - A worker that hangs past its lease deadline is reaped: any other
//!   worker's claim loop breaks the expired lease, raises the runaway
//!   run's [`AbortToken`], and requeues the experiment.
//! - An experiment that exhausts its retries is terminally classified
//!   [`Outcome::Infrastructure`] — counted, never silently dropped.
//! - With [`NowConfig::snapshot_ticks`] set, workers drop periodic mid-run
//!   snapshots ([`crate::snapshot`]) onto the share; a retried attempt
//!   resumes from the last snapshot instead of re-running from the
//!   campaign checkpoint.
//! - A killed campaign resumes: with [`NowConfig::resume`] the engine
//!   replays the journal, verifies it belongs to this campaign (the header
//!   a fresh start would write: experiment count and fault-spec digest, or
//!   seed, stopping rule and cell set — and the checkpoint digest), reaps
//!   orphaned leases, and schedules only the unfinished remainder. The
//!   merged [`OutcomeTable`] and every adaptive per-cell decision are
//!   identical to an uninterrupted run.
//!
//! [`AbortToken`]: gemfi::AbortToken

use crate::adaptive::{AdaptiveConfig, AdaptiveOutcome, AdaptiveState, Plan};
use crate::clock::{system_clock, Clock};
use crate::journal::{CampaignState, ExpState, Journal, JournalEvent};
use crate::lease::LeaseDir;
use crate::report::OutcomeTable;
use crate::runner::{PreparedWorkload, RunnerConfig};
use crate::snapshot::{execute_leased, SnapshotPolicy};
use crate::transport::{SpoolTransport, WorkAssignment};
use crate::window::{
    fault_path, snapshot_path, ClaimOutcome, ReportAck, SchedulerPolicy, WindowScheduler,
    WindowSpec,
};
use crate::worker::{drive_worker, WorkerOptions};
use gemfi::{FaultConfig, FaultSpec, Outcome};
use gemfi_sim::Checkpoint;
use gemfi_workloads::Workload;
use std::collections::BTreeMap;
use std::io::{Error, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Deterministic failure injection for testing the campaign harness itself.
#[derive(Debug, Clone, Default)]
pub struct ChaosConfig {
    /// `(experiment, attempt)` pairs whose execution panics (a simulated
    /// workstation crash). Attempts are 1-based.
    pub panic_on: Vec<(usize, u64)>,
    /// Stop claiming after this many experiments finish *in this process*
    /// and return [`ErrorKind::Interrupted`] — a controlled stand-in for
    /// `kill -9` on the campaign driver. The journal survives; resume
    /// finishes the rest.
    pub halt_after: Option<usize>,
}

/// Cluster shape and fault-tolerance policy.
#[derive(Debug, Clone)]
pub struct NowConfig {
    /// Number of workstations (the paper uses 27).
    pub workstations: usize,
    /// Concurrent experiments per workstation (the paper uses 4).
    pub slots_per_workstation: usize,
    /// The shared spool directory ("network share").
    pub share_dir: PathBuf,
    /// Lease duration: a worker silent for longer than this is presumed
    /// dead and its experiment is reaped.
    pub lease: Duration,
    /// Retries after the first attempt before an experiment is terminally
    /// classified [`Outcome::Infrastructure`].
    pub max_retries: u64,
    /// Base retry backoff; doubles per failed attempt, capped at 64×.
    pub retry_backoff: Duration,
    /// Replay an existing journal and run only the unfinished remainder.
    /// Without a journal on the share this is an ordinary fresh start.
    pub resume: bool,
    /// Mid-run snapshot cadence in simulated ticks; `0` disables. Snapshot
    /// files land on the share next to the experiment's fault file and are
    /// deleted once the experiment reaches a terminal outcome.
    pub snapshot_ticks: u64,
    /// The clock leases and backoffs are judged by. Production uses
    /// [`system_clock`]; tests inject a [`crate::clock::TestClock`].
    pub clock: Arc<dyn Clock>,
    /// Failure injection for harness tests.
    pub chaos: ChaosConfig,
}

impl NowConfig {
    /// A config with the given cluster shape and default fault-tolerance
    /// policy (30 s leases, 2 retries, 50 ms base backoff, fresh start,
    /// system clock, no snapshots).
    pub fn new(
        workstations: usize,
        slots_per_workstation: usize,
        share_dir: impl Into<PathBuf>,
    ) -> NowConfig {
        NowConfig {
            workstations,
            slots_per_workstation,
            share_dir: share_dir.into(),
            lease: Duration::from_secs(30),
            max_retries: 2,
            retry_backoff: Duration::from_millis(50),
            resume: false,
            snapshot_ticks: 0,
            clock: system_clock(),
            chaos: ChaosConfig::default(),
        }
    }

    fn max_attempts(&self) -> u64 {
        self.max_retries + 1
    }

    /// The window-scheduler policy this config implies.
    pub(crate) fn scheduler_policy(&self) -> SchedulerPolicy {
        SchedulerPolicy {
            lease_ms: self.lease.as_millis() as u64,
            max_attempts: self.max_attempts(),
            backoff_ms: self.retry_backoff.as_millis() as u64,
            idle_backoff_ms: 1,
            halt_after: self.chaos.halt_after,
        }
    }
}

/// The terminal record of one experiment, from this run or replayed from
/// the journal on resume.
#[derive(Debug, Clone)]
pub struct CompletedExperiment {
    /// Experiment index.
    pub exp: usize,
    /// The classified outcome ([`Outcome::Infrastructure`] when the harness
    /// exhausted its retries).
    pub outcome: Outcome,
    /// Attempts consumed.
    pub attempts: u64,
    /// Simulated ticks of the completing run (0 for infrastructure
    /// failures).
    pub ticks: u64,
    /// Whether this record was replayed from the journal rather than
    /// executed by this process.
    pub resumed: bool,
}

/// What the cluster did.
#[derive(Debug, Clone)]
pub struct NowReport {
    /// Wall-clock duration of the parallel phase.
    pub wall: Duration,
    /// Experiments completed per workstation in this process (load balance
    /// check).
    pub per_workstation: Vec<usize>,
    /// Total experiments.
    pub experiments: usize,
    /// Experiments whose terminal record was replayed from the journal.
    pub resumed: usize,
    /// Failed attempts that were retried (panics and reaped leases).
    pub retries: u64,
    /// Expired leases broken by the reaper (subset of `retries` plus any
    /// orphans reaped at resume).
    pub reclaimed_leases: u64,
    /// Experiments terminally classified [`Outcome::Infrastructure`].
    pub infrastructure_failures: u64,
}

/// One campaign's round engine on a share: plan → replay → window → fold
/// (see the module docs). Fixed-n and adaptive campaigns, spool and socket
/// transports all drive this one state machine.
pub(crate) struct Campaign {
    plan: Plan,
    share: PathBuf,
    clock: Arc<dyn Clock>,
    policy: SchedulerPolicy,
    workstations: usize,
    /// What the journal held when this process opened it.
    replay: CampaignState,
    /// The journal between windows; a live window owns it.
    journal: Option<Journal>,
    /// The round being executed.
    window: Option<WindowScheduler>,
    /// Plan cell per live-window slot (the fold key).
    cells: Vec<usize>,
    /// Pooled outcomes of every folded experiment.
    table: OutcomeTable,
    /// Terminal records of every folded experiment.
    completed: Vec<CompletedExperiment>,
    resumed: usize,
    retries: u64,
    reclaimed: u64,
    finished_here: usize,
    per_ws: Vec<usize>,
    per_worker: BTreeMap<String, usize>,
    halted: bool,
    done: bool,
}

impl Campaign {
    /// Opens `plan`'s campaign on `share` and plans its first window. A
    /// fresh start clears stale run artifacts, spools the checkpoint
    /// (step 2) and writes the identity header; `resume` over an existing
    /// journal replays it instead, after verifying it was recorded for
    /// this very campaign and the checkpoint still on the share.
    /// `workstations` sizes the spool load-balance vector (0 for the
    /// server).
    ///
    /// # Errors
    ///
    /// I/O errors from the share; [`ErrorKind::InvalidData`] for a journal
    /// of a different campaign or an inconsistent one.
    pub(crate) fn open(
        share: &Path,
        prepared: &PreparedWorkload,
        plan: Plan,
        resume: bool,
        clock: Arc<dyn Clock>,
        policy: SchedulerPolicy,
        workstations: usize,
    ) -> std::io::Result<Campaign> {
        std::fs::create_dir_all(share)?;
        let ckpt_path = share.join("campaign.ckpt");
        let resuming = resume && Journal::path_in(share).exists();
        let replay = if resuming {
            // The checkpoint must be the very one the journal was recorded
            // against; compare digests before trusting any replayed outcome.
            let spooled = Checkpoint::load_header(&ckpt_path)?;
            CampaignState::replay(share, &plan.header(spooled.digest))?
        } else {
            clear_run_artifacts(share)?;
            prepared.checkpoint.save(&ckpt_path)?;
            CampaignState::default()
        };
        let mut journal = Journal::open(share)?;
        if !resuming {
            journal.append(&plan.header(prepared.checkpoint.digest()))?;
        }
        let mut campaign = Campaign {
            plan,
            share: share.to_path_buf(),
            clock,
            policy,
            workstations,
            replay,
            journal: Some(journal),
            window: None,
            cells: Vec::new(),
            table: OutcomeTable::new(),
            completed: Vec::new(),
            resumed: 0,
            retries: 0,
            reclaimed: 0,
            finished_here: 0,
            per_ws: vec![0; workstations],
            per_worker: BTreeMap::new(),
            halted: false,
            done: false,
        };
        campaign.advance()?;
        Ok(campaign)
    }

    /// The round loop's one step: folds the live window once it is
    /// complete, then draws rounds until one has experiments left to
    /// execute (its window goes live) or the plan is exhausted (the
    /// campaign is done). A no-op while a window is in flight.
    ///
    /// # Errors
    ///
    /// I/O errors from the share; [`ErrorKind::InvalidData`] when the
    /// journaled draws do not match the re-derived trajectory.
    pub(crate) fn advance(&mut self) -> std::io::Result<()> {
        if self.done || self.halted {
            return Ok(());
        }
        if let Some(live) = &self.window {
            if live.halted() {
                self.halted = true;
                return Ok(());
            }
            if !live.is_complete() {
                return Ok(());
            }
            let parts = self.window.take().expect("live window").into_parts();
            for (local, done) in parts.completed.into_iter().enumerate() {
                let done = done.expect("a complete window holds every terminal record");
                self.plan.record(self.cells[local], done.outcome);
                self.table.add(done.outcome);
                self.completed.push(done);
            }
            self.retries += parts.retries;
            self.reclaimed += parts.reclaimed;
            self.finished_here += parts.finished_here;
            for (total, n) in self.per_ws.iter_mut().zip(parts.per_ws) {
                *total += n;
            }
            for (worker, n) in parts.per_worker {
                *self.per_worker.entry(worker).or_insert(0) += n;
            }
            self.journal = Some(parts.journal);
            self.plan.end_round();
        }

        let leases = LeaseDir::new(&self.share);
        loop {
            let draws = self.plan.next_round();
            if draws.is_empty() {
                self.done = true;
                return Ok(());
            }
            let journal = self.journal.as_mut().expect("journal held between windows");
            let (mut exps, mut specs, mut attempts) = (Vec::new(), Vec::new(), Vec::new());
            self.cells.clear();
            for d in &draws {
                let exp = d.exp as usize;
                // Commit the whole round's draw decisions to the journal
                // before executing any of them; a journaled prefix must
                // match the re-derived trajectory exactly.
                if let Some(label) = self.plan.draw_label(d) {
                    match self.replay.drawn.get(exp) {
                        Some(journaled) if *journaled != label => {
                            return Err(Error::new(
                                ErrorKind::InvalidData,
                                format!(
                                    "journaled draw {exp} ({} #{}) does not match the \
                                     re-derived trajectory ({} #{})",
                                    journaled.0, journaled.1, label.0, label.1
                                ),
                            ));
                        }
                        Some(_) => {}
                        None => journal.append(&JournalEvent::Drawn {
                            exp: d.exp,
                            cell: label.0,
                            draw: label.1,
                        })?,
                    }
                }
                let replayed = self.replay.experiments.get(exp);
                if let Some((outcome, attempts, ticks)) = replayed.and_then(ExpState::terminal) {
                    // Already terminal in the journal: fold the replayed
                    // record instead of executing it. Infrastructure
                    // failures spent budget but are not evidence — `record`
                    // skips them, exactly as it does live.
                    self.plan.record(d.cell, outcome);
                    self.table.add(outcome);
                    self.completed.push(CompletedExperiment {
                        exp,
                        outcome,
                        attempts,
                        ticks,
                        resumed: true,
                    });
                    self.resumed += 1;
                    continue;
                }
                let mut burned = match replayed {
                    Some(&ExpState::Unfinished { attempts }) => attempts,
                    _ => 0,
                };
                // Step 1: the experiment's configuration onto the share.
                FaultConfig::from_specs(vec![d.spec]).save(&fault_path(&self.share, exp))?;
                if let Some(orphan) = leases.read(exp)? {
                    // A worker of the dead campaign process died holding
                    // this experiment: break the lease whatever its
                    // deadline says, and journal the burned attempt so a
                    // *second* resume still counts it toward the retry cap.
                    leases.release(exp)?;
                    self.reclaimed += 1;
                    burned = burned.max(orphan.attempt);
                    journal.append(&JournalEvent::AttemptFailed {
                        exp: d.exp,
                        attempt: orphan.attempt,
                        worker: orphan.worker,
                        reason: "orphaned lease (campaign restart)".to_string(),
                        spec: Some(d.spec.to_string()),
                    })?;
                }
                exps.push(exp);
                self.cells.push(d.cell);
                specs.push(d.spec);
                attempts.push(burned);
            }
            if exps.is_empty() {
                // Every draw of this round was already terminal in the
                // journal; keep planning.
                self.plan.end_round();
                continue;
            }
            self.window = Some(WindowScheduler::new(WindowSpec {
                share: self.share.clone(),
                clock: Arc::clone(&self.clock),
                policy: self.policy.clone(),
                journal: self.journal.take().expect("journal held between windows"),
                exps,
                specs,
                attempts,
                workstations: self.workstations,
                finished_before: self.finished_here,
            }));
            return Ok(());
        }
    }

    /// Claims the next runnable experiment for `worker`, advancing the
    /// round loop as windows drain. `quota` caps the concurrently leased
    /// experiments (`0` = unlimited).
    ///
    /// # Errors
    ///
    /// See [`Campaign::advance`] and [`WindowScheduler::try_claim`].
    pub(crate) fn try_claim(
        &mut self,
        worker: &str,
        quota: usize,
    ) -> std::io::Result<ClaimOutcome> {
        loop {
            self.advance()?;
            if self.done || self.halted {
                return Ok(ClaimOutcome::Complete);
            }
            let window = self.window.as_mut().expect("advance leaves a live window or finishes");
            if quota > 0 && window.leased() >= quota {
                return Ok(ClaimOutcome::Idle);
            }
            match window.try_claim(worker)? {
                // The window drained (or the chaos halt tripped) under
                // this very claim: advance and look again.
                ClaimOutcome::Complete => {}
                claimed => return Ok(claimed),
            }
        }
    }

    /// Folds a worker's report into the live window via `fold`, then
    /// advances the round loop. A report landing between windows is a
    /// zombie's — the reaper already moved its experiment on.
    ///
    /// # Errors
    ///
    /// I/O errors from the journal or the share.
    pub(crate) fn report(
        &mut self,
        fold: impl FnOnce(&mut WindowScheduler) -> std::io::Result<ReportAck>,
    ) -> std::io::Result<ReportAck> {
        let Some(window) = self.window.as_mut() else { return Ok(ReportAck::Stale) };
        let ack = fold(window)?;
        self.advance()?;
        Ok(ack)
    }

    /// The live window, for lease heartbeats.
    pub(crate) fn window_mut(&mut self) -> Option<&mut WindowScheduler> {
        self.window.as_mut()
    }

    /// Whether the plan is exhausted and every experiment folded.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// `(terminal, drawn, leased)` experiment counts.
    pub(crate) fn progress(&self) -> (u64, u64, u64) {
        let live = self.window.as_ref();
        (
            self.table.total() + live.map_or(0, |w| w.progress().0 as u64),
            self.plan.drawn_total(),
            live.map_or(0, |w| w.leased() as u64),
        )
    }

    /// Failed attempts retried so far.
    pub(crate) fn retries(&self) -> u64 {
        self.retries + self.window.as_ref().map_or(0, WindowScheduler::retries)
    }

    /// Expired and orphaned leases broken so far.
    pub(crate) fn reclaimed(&self) -> u64 {
        self.reclaimed + self.window.as_ref().map_or(0, WindowScheduler::reclaimed)
    }

    /// Terminal records replayed from the journal rather than executed.
    pub(crate) fn resumed(&self) -> usize {
        self.resumed
    }

    /// Pooled outcomes of every folded experiment.
    pub(crate) fn table(&self) -> OutcomeTable {
        self.table
    }

    /// Completions credited per worker: folded windows plus the live one.
    pub(crate) fn worker_counts(&self) -> BTreeMap<String, usize> {
        let mut counts = self.per_worker.clone();
        if let Some(live) = &self.window {
            for (worker, n) in live.per_worker() {
                *counts.entry(worker.clone()).or_insert(0) += n;
            }
        }
        counts
    }

    /// Every terminal record so far, in experiment order.
    pub(crate) fn records(&self) -> Vec<CompletedExperiment> {
        let live = self.window.iter().flat_map(|w| w.completed().iter().flatten());
        let mut records: Vec<_> = self.completed.iter().chain(live).cloned().collect();
        records.sort_by_key(|r| r.exp);
        records
    }

    /// The sequential engine, when the plan is adaptive.
    pub(crate) fn sequential(&self) -> Option<(&AdaptiveConfig, &AdaptiveState)> {
        self.plan.sequential()
    }

    /// The adaptive conclusion, once an adaptive campaign is done.
    pub(crate) fn adaptive_outcome(&self) -> Option<AdaptiveOutcome> {
        let (config, state) = self.plan.sequential().filter(|_| self.done)?;
        Some(state.outcome(config.z, self.table, self.resumed as u64))
    }
}

/// Runs `plan`'s campaign to completion over the workstation pool (steps
/// 3–6): every slot of every workstation is a [`drive_worker`] thread
/// claiming from the one [`Campaign`] through a [`SpoolTransport`].
fn spool_campaign(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    plan: Plan,
    runner: &RunnerConfig,
    config: &NowConfig,
) -> std::io::Result<(Campaign, NowReport)> {
    let campaign = Mutex::new(Campaign::open(
        &config.share_dir,
        prepared,
        plan,
        config.resume,
        Arc::clone(&config.clock),
        config.scheduler_policy(),
        config.workstations,
    )?);
    // Step 3: one local checkpoint copy per workstation.
    let ckpt_path = config.share_dir.join("campaign.ckpt");
    let locals = (0..config.workstations)
        .map(|_| Checkpoint::load(&ckpt_path).map(Arc::new))
        .collect::<std::io::Result<Vec<_>>>()?;
    let snapshot = SnapshotPolicy::every(config.snapshot_ticks);

    let started = Instant::now();
    std::thread::scope(|scope| -> std::io::Result<()> {
        let mut handles = Vec::new();
        for (ws, local) in locals.iter().enumerate() {
            for slot in 0..config.slots_per_workstation {
                let campaign = &campaign;
                handles.push(scope.spawn(move || {
                    let mut opts = WorkerOptions::new(format!("ws{ws}.slot{slot}"));
                    opts.runner = *runner;
                    opts.chaos_panic_on = config.chaos.panic_on.clone();
                    let mut transport =
                        SpoolTransport { campaign, share: config.share_dir.clone(), ws };
                    let mut execute = |assignment: &WorkAssignment| {
                        let snap = snapshot_path(&config.share_dir, assignment.exp);
                        let snap = snapshot.enabled().then_some((snap.as_path(), snapshot));
                        Ok(execute_leased(local, prepared, workload, assignment, runner, snap))
                    };
                    drive_worker(&mut transport, &opts, &mut execute).map(|_| ())
                }));
            }
        }
        for h in handles {
            h.join().expect("worker thread panicked outside catch_unwind")?;
        }
        Ok(())
    })?;
    let wall = started.elapsed();

    let campaign = campaign.into_inner().expect("no worker holds the campaign");
    let (terminal, drawn, _) = campaign.progress();
    if campaign.halted {
        let finished = campaign.finished_here as u64 + terminal - campaign.table.total();
        let progress = match campaign.plan {
            Plan::Fixed { .. } => format!(
                "campaign halted by chaos after {finished} experiments \
                 ({terminal} of {drawn} terminal)"
            ),
            Plan::Adaptive { .. } => format!(
                "adaptive campaign halted by chaos after {finished} experiments ({drawn} drawn)"
            ),
        };
        return Err(Error::new(ErrorKind::Interrupted, format!("{progress}; resume to finish")));
    }
    let report = NowReport {
        wall,
        per_workstation: campaign.per_ws.clone(),
        experiments: drawn as usize,
        resumed: campaign.resumed,
        retries: campaign.retries(),
        reclaimed_leases: campaign.reclaimed(),
        infrastructure_failures: campaign.table.count(Outcome::Infrastructure),
    };
    Ok((campaign, report))
}

/// Runs a whole campaign on the simulated NoW. Returns the merged outcome
/// table, per-experiment terminal records (in experiment order), and the
/// report.
///
/// # Errors
///
/// I/O errors from the share; [`ErrorKind::InvalidData`] when resume finds
/// a journal from a different campaign (count, specs, or checkpoint
/// mismatch); [`ErrorKind::Interrupted`] when
/// [`ChaosConfig::halt_after`] stops the campaign early (the journal
/// remains resumable).
pub fn run_campaign_now(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    config: &NowConfig,
) -> std::io::Result<(OutcomeTable, Vec<CompletedExperiment>, NowReport)> {
    let plan = Plan::fixed(specs.to_vec());
    let (campaign, report) = spool_campaign(prepared, workload, plan, runner, config)?;
    Ok((campaign.table, campaign.records(), report))
}

/// Runs an adaptive (sequential early-stopping) campaign on the NoW: each
/// round the engine draws the next batch per undecided cell, journals
/// every draw, executes the not-yet-terminal remainder as one
/// lease/journal window across the workstations, and folds the outcomes
/// back into the live per-cell stats before re-evaluating the stopping
/// rule.
///
/// Resume ([`NowConfig::resume`]): the engine re-derives the identical
/// draw trajectory from the seed, validates it against the journaled
/// `drawn` records, folds terminal outcomes already recorded, reaps
/// orphaned leases, and executes only what is missing — reaching
/// byte-identical per-cell decisions to an uninterrupted run.
///
/// # Errors
///
/// I/O errors from the share; [`ErrorKind::InvalidData`] when resume finds
/// a journal from a different campaign (seed, checkpoint, stopping rule,
/// or cell set mismatch); [`ErrorKind::Interrupted`] when
/// [`ChaosConfig::halt_after`] stops the campaign early (the journal
/// remains resumable).
pub fn run_campaign_adaptive_now(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    runner: &RunnerConfig,
    config: &NowConfig,
    adaptive: &AdaptiveConfig,
    seed: u64,
) -> std::io::Result<(AdaptiveOutcome, NowReport)> {
    let plan = Plan::adaptive(adaptive.clone(), seed, prepared.stage_events);
    let (campaign, report) = spool_campaign(prepared, workload, plan, runner, config)?;
    let outcome = campaign.adaptive_outcome().expect("an adaptive campaign that ran to its end");
    Ok((outcome, report))
}

/// Removes journal/lease/result/snapshot leftovers so a fresh (non-resume)
/// start cannot mix state from an earlier campaign in the same directory.
fn clear_run_artifacts(share: &Path) -> std::io::Result<()> {
    let journal = Journal::path_in(share);
    if journal.exists() {
        std::fs::remove_file(&journal)?;
    }
    for entry in std::fs::read_dir(share)? {
        let path = entry?.path();
        match path.extension().and_then(|e| e.to_str()) {
            Some("lease") | Some("result") | Some("snap") => std::fs::remove_file(&path)?,
            _ => {}
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::now_ms;
    use crate::runner::prepare_workload;
    use crate::sampler::FaultSampler;
    use gemfi_cpu::CpuKind;
    use gemfi_workloads::pi::MonteCarloPi;

    fn small_campaign(
        points: u64,
        seed: u64,
        experiments: usize,
    ) -> (MonteCarloPi, PreparedWorkload, Vec<FaultSpec>, RunnerConfig) {
        let w = MonteCarloPi { points, init_spins: 30, ..MonteCarloPi::default() };
        let p = prepare_workload(&w).unwrap();
        let mut sampler = FaultSampler::new(seed, p.stage_events, 0, 0);
        let specs: Vec<_> = (0..experiments).map(|_| sampler.sample_any()).collect();
        let runner = RunnerConfig {
            inject_cpu: CpuKind::Atomic,
            finish_cpu: CpuKind::Atomic,
            ..RunnerConfig::default()
        };
        (w, p, specs, runner)
    }

    fn share(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gemfi-now-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn fast_config(workstations: usize, slots: usize, dir: &Path) -> NowConfig {
        NowConfig {
            retry_backoff: Duration::from_millis(1),
            ..NowConfig::new(workstations, slots, dir)
        }
    }

    #[test]
    fn now_executes_every_experiment_and_spools_artifacts() {
        let (w, p, specs, runner) = small_campaign(60, 3, 12);
        let dir = share("basic");
        let cfg = fast_config(3, 2, &dir);
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(table.total(), 12);
        assert_eq!(results.len(), 12);
        assert_eq!(report.experiments, 12);
        assert_eq!(report.per_workstation.iter().sum::<usize>(), 12);
        assert_eq!(report.retries, 0);
        assert_eq!(report.infrastructure_failures, 0);
        // Spool artifacts exist, including the journal and no leaked leases.
        assert!(dir.join("campaign.ckpt").exists());
        assert!(dir.join("exp00000.fault").exists());
        assert!(dir.join("exp00011.result").exists());
        assert!(Journal::path_in(&dir).exists());
        assert!(!dir.join("exp00000.lease").exists(), "leases released");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn now_results_match_serial_execution() {
        let (w, p, specs, runner) = small_campaign(50, 11, 6);
        let serial: Vec<_> = specs
            .iter()
            .map(|s| crate::runner::run_experiment(&p, &w, *s, &runner).outcome)
            .collect();
        let dir = share("serial");
        let cfg = fast_config(2, 2, &dir);
        let (_, results, _) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        let parallel: Vec<_> = results.iter().map(|r| r.outcome).collect();
        assert_eq!(serial, parallel, "determinism across execution modes");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_worker_attempt_is_retried() {
        let (w, p, specs, runner) = small_campaign(50, 5, 6);
        let dir = share("panic");
        let mut cfg = fast_config(2, 2, &dir);
        cfg.chaos.panic_on = vec![(2, 1)]; // first attempt of experiment 2 dies
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(table.total(), 6);
        assert_eq!(report.retries, 1);
        assert_eq!(report.infrastructure_failures, 0);
        assert_eq!(results[2].attempts, 2, "retry consumed a second attempt");
        assert!(results[2].outcome.is_experiment_outcome());
        // The journal recorded the failed attempt with full provenance:
        // the panic payload and the offending fault spec.
        let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
        let failed = events
            .iter()
            .find_map(|e| match e {
                JournalEvent::AttemptFailed { exp: 2, attempt: 1, reason, spec, .. } => {
                    Some((reason.clone(), spec.clone()))
                }
                _ => None,
            })
            .expect("journal has the failed attempt");
        assert!(failed.0.contains("worker panic"), "payload recorded: {}", failed.0);
        assert_eq!(failed.1.as_deref(), Some(specs[2].to_string().as_str()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn exhausted_retries_land_in_the_infrastructure_bucket() {
        let (w, p, specs, runner) = small_campaign(50, 7, 4);
        let dir = share("exhaust");
        let mut cfg = fast_config(1, 2, &dir);
        cfg.max_retries = 2;
        // Every attempt of experiment 1 panics.
        cfg.chaos.panic_on = (1..=3).map(|a| (1, a)).collect();
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(table.total(), 4, "no experiment goes missing");
        assert_eq!(table.count(Outcome::Infrastructure), 1);
        assert_eq!(report.infrastructure_failures, 1);
        assert_eq!(results[1].outcome, Outcome::Infrastructure);
        assert_eq!(results[1].attempts, 3);
        assert!(dir.join("exp00001.result").exists(), "infra failure still writes a result");
        let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, JournalEvent::Failed { exp: 1, attempts: 3, .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn halted_campaign_resumes_to_the_identical_table() {
        let (w, p, specs, runner) = small_campaign(50, 13, 8);
        let serial: Vec<_> = specs
            .iter()
            .map(|s| crate::runner::run_experiment(&p, &w, *s, &runner).outcome)
            .collect();
        let serial_table: OutcomeTable = serial.iter().copied().collect();

        let dir = share("halt");
        let mut cfg = fast_config(2, 1, &dir);
        cfg.chaos.halt_after = Some(3); // ≥ 25% of 8, then "kill -9"
        let err = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Interrupted, "{err}");

        let mut cfg = fast_config(2, 1, &dir);
        cfg.resume = true;
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert!(report.resumed >= 3, "journal replay skipped finished work: {}", report.resumed);
        assert!(report.resumed < 8, "something was left to execute");
        assert_eq!(results.iter().filter(|r| r.resumed).count(), report.resumed);
        let resumed_outcomes: Vec<_> = results.iter().map(|r| r.outcome).collect();
        assert_eq!(resumed_outcomes, serial, "resume reproduces the serial outcomes");
        for o in Outcome::ALL {
            assert_eq!(table.count(o), serial_table.count(o), "{o}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_expired_lease_is_reclaimed_on_resume() {
        let (w, p, specs, runner) = small_campaign(50, 17, 3);
        let dir = share("orphan");
        // Interrupt immediately: journal exists, nothing finished.
        let mut cfg = fast_config(1, 1, &dir);
        cfg.chaos.halt_after = Some(1);
        let _ = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap_err();
        // Fake a worker that died holding experiment 2: an expired lease
        // plus its journaled claim.
        let leases = LeaseDir::new(&dir);
        leases.release(2).unwrap();
        leases.claim(2, "ws9.slot9", 1, now_ms().saturating_sub(10_000)).unwrap().unwrap();
        let mut journal = Journal::open(&dir).unwrap();
        journal
            .append(&JournalEvent::Leased {
                exp: 2,
                worker: "ws9.slot9".into(),
                attempt: 1,
                deadline_ms: now_ms().saturating_sub(10_000),
            })
            .unwrap();
        drop(journal);

        let mut cfg = fast_config(1, 1, &dir);
        cfg.resume = true;
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(table.total(), 3, "reclaimed experiment was re-run");
        assert!(report.reclaimed_leases >= 1, "orphaned lease broken: {report:?}");
        assert!(results[2].outcome.is_experiment_outcome());
        assert!(results[2].attempts >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_campaign() {
        let (w, p, specs, runner) = small_campaign(50, 19, 4);
        let dir = share("mismatch");
        let cfg = fast_config(1, 2, &dir);
        run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        // Same share, different fault set.
        let mut sampler = FaultSampler::new(999, p.stage_events, 0, 0);
        let other: Vec<_> = (0..4).map(|_| sampler.sample_any()).collect();
        let mut cfg = fast_config(1, 2, &dir);
        cfg.resume = true;
        let err = run_campaign_now(&p, &w, &other, &runner, &cfg).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        // And a different experiment count.
        let mut cfg = fast_config(1, 2, &dir);
        cfg.resume = true;
        let err = run_campaign_now(&p, &w, &specs[..3], &runner, &cfg).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_a_finished_campaign_executes_nothing() {
        let (w, p, specs, runner) = small_campaign(50, 23, 5);
        let dir = share("noop");
        let cfg = fast_config(2, 1, &dir);
        let (first, ..) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        let mut cfg = fast_config(2, 1, &dir);
        cfg.resume = true;
        let (again, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(report.resumed, 5);
        assert_eq!(report.per_workstation.iter().sum::<usize>(), 0, "nothing re-executed");
        assert!(results.iter().all(|r| r.resumed));
        for o in Outcome::ALL {
            assert_eq!(first.count(o), again.count(o), "{o}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshotting_campaign_matches_plain_and_cleans_up() {
        let (w, p, specs, runner) = small_campaign(50, 29, 4);
        let plain_dir = share("snapless");
        let cfg = fast_config(2, 1, &plain_dir);
        let (plain, ..) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();

        let dir = share("snapful");
        let mut cfg = fast_config(2, 1, &dir);
        cfg.snapshot_ticks = (p.kernel_ticks / 6).max(1);
        let (snapped, ..) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        for o in Outcome::ALL {
            assert_eq!(plain.count(o), snapped.count(o), "{o}");
        }
        // Every experiment went terminal, so no snapshot survives.
        for i in 0..specs.len() {
            assert!(!snapshot_path(&dir, i).exists(), "exp {i} snapshot cleaned up");
        }
        std::fs::remove_dir_all(&plain_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
