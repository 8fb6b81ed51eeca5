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
//! # One slot table
//!
//! [`Campaign`] is the campaign pipeline's state machine, and the only
//! one — the paper's single pool of remaining experiments. It owns the
//! journal and one table with a slot per drawn experiment, indexed by the
//! global experiment index and alive as long as the campaign: each slot
//! carries its fault spec, its plan cell and one lifecycle state
//! (`pending → leased → terminal`, `journal::ExpState`) that journal replay
//! seeds and every claim, heartbeat, reap and report moves. A [`Plan`] yields
//! rounds of draws (a fixed-n campaign is the one-round case); a round is
//! the *open range* of the table — claims, the reaper and the lease quota
//! look nowhere else, so their cost follows the round, not the campaign. A
//! draw already terminal in the replayed journal folds straight into the
//! plan and the outcome table; any other is spooled, its orphaned lease
//! reaped. When the open range has drained the plan re-evaluates its
//! stopping rule and the next round's draws extend the table. Workers only
//! ever see `Campaign::{try_claim, heartbeat, report_done, report_failed}`.
//! [`run_campaign_now`] and [`run_campaign_adaptive_now`] are this table
//! with a fixed or adaptive plan behind [`SpoolTransport`] on in-process
//! worker threads; [`crate::server::CampaignServer`] is the same table, one
//! per queue, behind the socket. Each worker thread is [`drive_worker`],
//! the very loop a remote socket worker runs — so every recovery path
//! tested here holds for the network backend too.
//!
//! Fault tolerance, on top of the paper's protocol:
//!
//! - A worker that panics releases its lease and journals the failed
//!   attempt; the experiment returns to the pending pool with capped
//!   exponential backoff.
//! - A worker that hangs past its lease deadline is reaped: any other
//!   worker's claim loop breaks the expired lease, raises the runaway
//!   run's [`AbortToken`], and requeues the experiment.
//! - An experiment that exhausts its retries — live, or because a killed
//!   campaign process burned its last permitted attempt — is terminally
//!   classified [`Outcome::Infrastructure`]: counted, never silently
//!   dropped, never run past the cap.
//! - A spooled fault file that turns out missing, empty or corrupt ends
//!   the claiming worker with a campaign-level [`ErrorKind::InvalidData`]
//!   naming the file, the lease handed back — not a panic with it held.
//! - With [`NowConfig::snapshot_ticks`] set, workers drop periodic mid-run
//!   snapshots ([`crate::snapshot`]) onto the share; a retried attempt
//!   resumes from the last snapshot instead of re-running from the
//!   campaign checkpoint.
//! - A killed campaign resumes: with [`NowConfig::resume`] the campaign
//!   replays the journal, verifies it belongs to this campaign (the header
//!   a fresh start would write: experiment count and fault-spec digest, or
//!   seed, stopping rule and cell set — and the checkpoint digest), reaps
//!   orphaned leases, and schedules only the unfinished remainder. The
//!   merged [`OutcomeTable`] and every adaptive per-cell decision are
//!   identical to an uninterrupted run.
//!
//! [`AbortToken`]: gemfi::AbortToken

use crate::adaptive::{AdaptiveConfig, AdaptiveOutcome, AdaptiveState, Draw, Plan};
use crate::clock::{system_clock, Clock};
use crate::journal::{CampaignState, ExpState, Journal, JournalEvent};
use crate::lease::LeaseDir;
use crate::report::OutcomeTable;
use crate::runner::{PreparedWorkload, RunnerConfig};
use crate::snapshot::{execute_leased, SnapshotPolicy};
use crate::transport::{ClaimReply, SpoolTransport, WorkAssignment};
use crate::window::{fault_path, result_path, snapshot_path, ReportAck, SchedulerPolicy};
use crate::worker::{drive_worker, WorkerOptions};
use gemfi::{AbortToken, FaultConfig, FaultSpec, Outcome};
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

    /// The scheduler policy this config implies.
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

/// One drawn experiment: what to inject, which plan cell it is evidence
/// for, and where it is in its lifecycle.
struct Slot {
    cell: usize,
    spec: FaultSpec,
    state: ExpState,
}

impl Slot {
    fn is_leased(&self) -> bool {
        matches!(self.state, ExpState::Leased { .. })
    }
}

/// One campaign on a share: the plan, the journal and the slot table every
/// claim, heartbeat and report lands on (see the module docs). Fixed-n and
/// adaptive campaigns, spool and socket transports all drive this one
/// state machine.
pub(crate) struct Campaign {
    plan: Plan,
    share: PathBuf,
    leases: LeaseDir,
    clock: Arc<dyn Clock>,
    policy: SchedulerPolicy,
    journal: Journal,
    /// Replayed journal state of experiments not drawn yet, in experiment
    /// order; each draw consumes one to seed its slot.
    replayed: std::vec::IntoIter<ExpState>,
    /// Replayed `drawn` labels the re-derived trajectory must match.
    journaled_draws: std::vec::IntoIter<(String, u64)>,
    /// The slot table, indexed by global experiment index.
    slots: Vec<Slot>,
    /// Start of the open round: `slots[round..]` is what claims, the
    /// reaper and the quota look at; everything before it is terminal.
    round: usize,
    /// Slots of the open round that are not terminal yet.
    open: usize,
    /// Pooled outcomes of every terminal experiment.
    table: OutcomeTable,
    resumed: usize,
    retries: u64,
    reclaimed: u64,
    /// Experiments that went terminal in this process (the chaos halt's
    /// count).
    finished_here: usize,
    per_ws: Vec<usize>,
    per_worker: BTreeMap<String, usize>,
    halted: bool,
    done: bool,
}

impl Campaign {
    /// Opens `plan`'s campaign on `share` and draws its first round. A
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
            leases: LeaseDir::new(share),
            clock,
            policy,
            journal,
            replayed: replay.experiments.into_iter(),
            journaled_draws: replay.drawn.into_iter(),
            slots: Vec::new(),
            round: 0,
            open: 0,
            table: OutcomeTable::new(),
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

    /// The round loop's one step, a no-op while the open round still has
    /// work: closes a drained round (the plan re-evaluates its stopping
    /// rule), then draws rounds — extending the table by one slot per draw,
    /// seeded from the replayed journal — until one has experiments left to
    /// execute or the plan is exhausted (the campaign is done).
    fn advance(&mut self) -> std::io::Result<()> {
        while !self.done && !self.halted && self.open == 0 {
            if self.round < self.slots.len() {
                self.plan.end_round();
                self.round = self.slots.len();
            }
            let draws = self.plan.next_round();
            self.done = draws.is_empty();
            for d in &draws {
                self.draw(d)?;
            }
        }
        Ok(())
    }

    /// Appends `d`'s slot to the table. A draw already terminal in the
    /// journal folds straight back; any other is spooled for execution,
    /// its orphaned lease (if any) reaped.
    fn draw(&mut self, d: &Draw) -> std::io::Result<()> {
        let exp = d.exp as usize;
        debug_assert_eq!(exp, self.slots.len(), "draws arrive in experiment order");
        // Commit the whole round's draw decisions to the journal before
        // executing any of them; a journaled prefix must match the
        // re-derived trajectory exactly.
        if let Some(label) = self.plan.draw_label(d) {
            match self.journaled_draws.next() {
                Some(journaled) if journaled != label => {
                    return Err(Error::new(
                        ErrorKind::InvalidData,
                        format!(
                            "journaled draw {exp} ({} #{}) does not match the re-derived \
                             trajectory ({} #{})",
                            journaled.0, journaled.1, label.0, label.1
                        ),
                    ));
                }
                Some(_) => {}
                None => {
                    self.journal.append(&JournalEvent::Drawn {
                        exp: d.exp,
                        cell: label.0,
                        draw: label.1,
                    })?;
                }
            }
        }
        let state = self.replayed.next().unwrap_or(ExpState::FRESH);
        self.slots.push(Slot { cell: d.cell, spec: d.spec, state });
        let mut attempts = match &self.slots[exp].state {
            ExpState::Terminal(done) => {
                // Infrastructure failures spent budget but are not
                // evidence — `record` skips them, exactly as it does live.
                self.plan.record(d.cell, done.outcome);
                self.table.add(done.outcome);
                self.resumed += 1;
                return Ok(());
            }
            ExpState::Pending { attempts, .. } => *attempts,
            ExpState::Leased { .. } => unreachable!("replay never yields a live lease"),
        };
        self.open += 1;
        // Step 1: the experiment's configuration onto the share.
        FaultConfig::from_specs(vec![d.spec]).save(&fault_path(&self.share, exp))?;
        let mut reason = "retries exhausted before the campaign restarted";
        if let Some(orphan) = self.leases.read(exp)? {
            // A worker of the dead campaign process died holding this
            // experiment: break the lease whatever its deadline says, and
            // journal the burned attempt so a *second* resume still counts
            // it toward the retry cap.
            self.leases.release(exp)?;
            self.reclaimed += 1;
            reason = "orphaned lease (campaign restart)";
            attempts = attempts.max(orphan.attempt);
            self.journal.append(&JournalEvent::AttemptFailed {
                exp: d.exp,
                attempt: orphan.attempt,
                worker: orphan.worker,
                reason: reason.to_string(),
                spec: Some(d.spec.to_string()),
            })?;
        }
        // The dead process may have burned the last permitted attempt —
        // orphaned it, or died between journaling its failure and the
        // terminal record: the cap holds across restarts.
        if attempts >= self.policy.max_attempts {
            return self.give_up(exp, attempts, reason);
        }
        self.slots[exp].state = ExpState::Pending { attempts, not_before_ms: 0 };
        Ok(())
    }

    /// Claims the next runnable experiment of the open round for `worker`
    /// on behalf of `queue`: reaps expired leases, then leases the first
    /// pending slot whose backoff has elapsed (lease file + journal + table,
    /// in that order), drawing the next round when this one has drained.
    /// `quota` caps the concurrently leased experiments (`0` = unlimited).
    ///
    /// # Errors
    ///
    /// I/O errors from the journal or the share; [`ErrorKind::InvalidData`]
    /// when the journaled draws do not match the re-derived trajectory.
    pub(crate) fn try_claim(
        &mut self,
        queue: &str,
        worker: &str,
        quota: usize,
    ) -> std::io::Result<ClaimReply> {
        self.reap_expired()?;
        self.advance()?;
        if self.done || self.halted {
            return Ok(ClaimReply::Complete);
        }
        let idle = ClaimReply::Idle { backoff_ms: self.policy.idle_backoff_ms };
        let now = self.clock.now_ms();
        let open = &self.slots[self.round..];
        if quota > 0 && open.iter().filter(|s| s.is_leased()).count() >= quota {
            return Ok(idle);
        }
        let claimable = open.iter().zip(self.round..).find_map(|(slot, exp)| match slot.state {
            ExpState::Pending { attempts, not_before_ms } if now >= not_before_ms => {
                Some((exp, attempts + 1))
            }
            _ => None,
        });
        let Some((exp, attempt)) = claimable else { return Ok(idle) };
        let deadline_ms = now + self.policy.lease_ms;
        self.leases
            .claim(exp, worker, attempt, deadline_ms)?
            .expect("a pending slot has no lease file");
        self.journal.append(&JournalEvent::Leased {
            exp: exp as u64,
            worker: worker.to_string(),
            attempt,
            deadline_ms,
        })?;
        let abort = AbortToken::new();
        self.slots[exp].state = ExpState::Leased {
            attempt,
            deadline_ms,
            worker: worker.to_string(),
            abort: abort.clone(),
        };
        Ok(ClaimReply::Work(WorkAssignment {
            queue: queue.to_string(),
            exp,
            attempt,
            deadline_ms,
            lease_ms: self.policy.lease_ms,
            spec: self.slots[exp].spec,
            abort,
        }))
    }

    /// Renews the lease on an in-flight attempt (the heartbeat path).
    /// Returns the new deadline, or `None` when the caller no longer owns
    /// the experiment (reaped, reassigned, or already terminal) and must
    /// abandon the attempt.
    ///
    /// # Errors
    ///
    /// I/O errors from the lease directory.
    pub(crate) fn heartbeat(
        &mut self,
        exp: usize,
        worker: &str,
        attempt: u64,
    ) -> std::io::Result<Option<u64>> {
        let Some(ExpState::Leased { attempt: a, worker: w, deadline_ms, .. }) =
            self.slots.get_mut(exp).map(|s| &mut s.state)
        else {
            return Ok(None);
        };
        let renewed = self.clock.now_ms() + self.policy.lease_ms;
        // A lease file that vanished under us (external reaper on a real
        // share) is surrendered rather than resurrected.
        if *a != attempt
            || w.as_str() != worker
            || !self.leases.renew(exp, worker, attempt, renewed)?
        {
            return Ok(None);
        }
        *deadline_ms = renewed;
        Ok(Some(renewed))
    }

    /// Whether `attempt` still holds the lease on `exp`; a report from any
    /// other attempt is a zombie's (the reaper already moved the experiment
    /// on) and is dropped, first-terminal-wins.
    fn holds_lease(&self, exp: usize, attempt: u64) -> bool {
        let state = self.slots.get(exp).map(|s| &s.state);
        matches!(state, Some(ExpState::Leased { attempt: a, .. }) if *a == attempt)
    }

    /// Folds a successful terminal outcome: journal, result file, table,
    /// plan, metrics — then advances the round loop. `ws` credits a spool
    /// workstation.
    ///
    /// # Errors
    ///
    /// I/O errors from the journal or the share.
    pub(crate) fn report_done(
        &mut self,
        worker: &str,
        ws: Option<usize>,
        done: CompletedExperiment,
        exit: &str,
    ) -> std::io::Result<ReportAck> {
        let CompletedExperiment { exp, outcome, attempts: attempt, ticks, .. } = done;
        if !self.holds_lease(exp, attempt) {
            return Ok(ReportAck::Stale);
        }
        self.journal.append(&JournalEvent::Done {
            exp: exp as u64,
            attempt,
            outcome,
            exit: exit.to_string(),
            ticks,
        })?;
        std::fs::write(
            result_path(&self.share, exp),
            format!("{} outcome={} exit={}\n", self.slots[exp].spec, outcome, exit),
        )?;
        self.leases.release(exp)?;
        if let Some(n) = ws.and_then(|ws| self.per_ws.get_mut(ws)) {
            *n += 1;
        }
        *self.per_worker.entry(worker.to_string()).or_insert(0) += 1;
        self.finish(done);
        self.advance()?;
        Ok(ReportAck::Accepted)
    }

    /// Folds a failed attempt (panic, abort, simulated death): back to
    /// pending with capped backoff, or terminally
    /// [`Outcome::Infrastructure`] once retries are exhausted.
    ///
    /// # Errors
    ///
    /// I/O errors from the journal or the share.
    pub(crate) fn report_failed(
        &mut self,
        exp: usize,
        attempt: u64,
        worker: &str,
        reason: &str,
    ) -> std::io::Result<ReportAck> {
        if !self.holds_lease(exp, attempt) {
            return Ok(ReportAck::Stale);
        }
        self.attempt_failed(exp, attempt, worker, reason)?;
        self.advance()?;
        Ok(ReportAck::Accepted)
    }

    /// Transitions a failed attempt. The experiment's rendered fault spec
    /// is journaled alongside the failure so an `Infrastructure` row
    /// carries its own reproduction handle.
    fn attempt_failed(
        &mut self,
        exp: usize,
        attempt: u64,
        worker: &str,
        reason: &str,
    ) -> std::io::Result<()> {
        self.journal.append(&JournalEvent::AttemptFailed {
            exp: exp as u64,
            attempt,
            worker: worker.to_string(),
            reason: reason.to_string(),
            spec: Some(self.slots[exp].spec.to_string()),
        })?;
        self.leases.release(exp)?;
        if attempt >= self.policy.max_attempts {
            return self.give_up(exp, attempt, reason);
        }
        self.retries += 1;
        // Capped exponential backoff: base × 2^(attempt-1), at most 64×.
        let backoff = self.policy.backoff_ms << (attempt - 1).min(6);
        self.slots[exp].state =
            ExpState::Pending { attempts: attempt, not_before_ms: self.clock.now_ms() + backoff };
        Ok(())
    }

    /// Terminally classifies `exp` [`Outcome::Infrastructure`]: its retries
    /// are exhausted. Counted and spooled like any result, never dropped.
    fn give_up(&mut self, exp: usize, attempts: u64, reason: &str) -> std::io::Result<()> {
        self.journal.append(&JournalEvent::Failed {
            exp: exp as u64,
            attempts,
            reason: reason.to_string(),
            spec: Some(self.slots[exp].spec.to_string()),
        })?;
        std::fs::write(
            result_path(&self.share, exp),
            format!("outcome={} attempts={attempts} reason={reason}\n", Outcome::Infrastructure),
        )?;
        self.finish(CompletedExperiment {
            exp,
            outcome: Outcome::Infrastructure,
            attempts,
            ticks: 0,
            resumed: false,
        });
        Ok(())
    }

    /// Makes `done` its slot's terminal record: evidence for the plan, a
    /// row of the table, one step toward the chaos halt.
    fn finish(&mut self, done: CompletedExperiment) {
        let slot = &mut self.slots[done.exp];
        self.plan.record(slot.cell, done.outcome);
        self.table.add(done.outcome);
        slot.state = ExpState::Terminal(done);
        self.open -= 1;
        self.finished_here += 1;
        self.halted |= self.policy.halt_after.is_some_and(|n| self.finished_here >= n);
    }

    /// Breaks the open round's expired leases (raising the runaway runs'
    /// abort tokens) and requeues or terminally fails their experiments.
    fn reap_expired(&mut self) -> std::io::Result<()> {
        if self.halted {
            // A halted campaign schedules nothing more; its resume reaps.
            return Ok(());
        }
        let now = self.clock.now_ms();
        for exp in self.round..self.slots.len() {
            let ExpState::Leased { attempt, deadline_ms, ref abort, .. } = self.slots[exp].state
            else {
                continue;
            };
            if now <= deadline_ms {
                continue;
            }
            abort.abort();
            let held = self.leases.reap(exp, now)?;
            let worker = held.map_or_else(|| "unknown".to_string(), |l| l.worker);
            self.reclaimed += 1;
            self.attempt_failed(exp, attempt, &worker, "lease expired")?;
        }
        Ok(())
    }

    /// Whether the plan is exhausted and every experiment terminal.
    pub(crate) fn is_done(&self) -> bool {
        self.done
    }

    /// `(terminal, drawn, leased)` experiment counts.
    pub(crate) fn progress(&self) -> (u64, u64, u64) {
        let leased = self.slots[self.round..].iter().filter(|s| s.is_leased()).count();
        (self.table.total(), self.plan.drawn_total(), leased as u64)
    }

    /// Failed attempts retried so far.
    pub(crate) fn retries(&self) -> u64 {
        self.retries
    }

    /// Expired and orphaned leases broken so far.
    pub(crate) fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Terminal records replayed from the journal rather than executed.
    pub(crate) fn resumed(&self) -> usize {
        self.resumed
    }

    /// Pooled outcomes of every terminal experiment.
    pub(crate) fn table(&self) -> OutcomeTable {
        self.table
    }

    /// Completions credited per worker.
    pub(crate) fn worker_counts(&self) -> &BTreeMap<String, usize> {
        &self.per_worker
    }

    /// Every terminal record so far, in experiment order.
    pub(crate) fn records(&self) -> Vec<CompletedExperiment> {
        self.slots.iter().filter_map(|s| s.state.terminal()).cloned().collect()
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
        let finished = campaign.finished_here;
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
        retries: campaign.retries,
        reclaimed_leases: campaign.reclaimed,
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
/// round the campaign draws the next batch per undecided cell, journals
/// every draw, executes the not-yet-terminal remainder across the
/// workstations — each outcome folding into the live per-cell stats as it
/// lands — and re-evaluates the stopping rule once the round has drained.
///
/// Resume ([`NowConfig::resume`]): the campaign re-derives the identical
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

/// Removes the journal and every per-experiment artifact (fault, lease,
/// result, snapshot) so a fresh (non-resume) start cannot mix state from an
/// earlier campaign in the same directory.
fn clear_run_artifacts(share: &Path) -> std::io::Result<()> {
    let journal = Journal::path_in(share);
    if journal.exists() {
        std::fs::remove_file(&journal)?;
    }
    for entry in std::fs::read_dir(share)? {
        let path = entry?.path();
        if let Some("fault" | "lease" | "result" | "snap") =
            path.extension().and_then(|e| e.to_str())
        {
            std::fs::remove_file(&path)?;
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
    fn a_last_attempt_burned_by_a_dead_campaign_is_not_rerun_past_the_cap() {
        let (w, p, specs, runner) = small_campaign(50, 17, 3);
        let dir = share("last-attempt");
        let mut cfg = fast_config(1, 1, &dir);
        cfg.chaos.halt_after = Some(1);
        let _ = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap_err();
        // The dead campaign's worker held experiment 1 on its last
        // permitted attempt (max_retries 2 → attempt 3) ...
        LeaseDir::new(&dir).claim(1, "ws9.slot9", 3, now_ms() + 60_000).unwrap().unwrap();
        // ... and the campaign died between journaling experiment 2's last
        // failed attempt and its terminal record.
        let mut journal = Journal::open(&dir).unwrap();
        journal
            .append(&JournalEvent::AttemptFailed {
                exp: 2,
                attempt: 3,
                worker: "ws9.slot8".into(),
                reason: "lease expired".into(),
                spec: None,
            })
            .unwrap();
        drop(journal);

        let mut cfg = fast_config(1, 1, &dir);
        cfg.resume = true;
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(table.total(), 3);
        for exp in [1, 2] {
            let done = &results[exp];
            assert_eq!((done.outcome, done.attempts), (Outcome::Infrastructure, 3), "exp {exp}");
        }
        assert_eq!((report.reclaimed_leases, report.infrastructure_failures), (1, 2));
        let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
        assert!(
            !events.iter().any(|e| matches!(e, JournalEvent::Leased { exp: 1 | 2, .. })),
            "no fourth attempt was leased"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    fn open_campaign(dir: &Path, p: &PreparedWorkload, specs: &[FaultSpec]) -> Campaign {
        let cfg = fast_config(1, 1, dir);
        let plan = Plan::fixed(specs.to_vec());
        Campaign::open(dir, p, plan, false, system_clock(), cfg.scheduler_policy(), 1).unwrap()
    }

    #[test]
    fn a_fresh_start_clears_every_artifact_of_the_campaign_before_it() {
        let (_, p, specs, _) = small_campaign(50, 37, 3);
        let dir = share("fresh");
        std::fs::create_dir_all(&dir).unwrap();
        // Leftovers of a larger campaign that ran in this directory.
        let stale = ["exp00001.lease", "exp00002.result", "exp00007.snap", "exp00099.fault"];
        for name in stale.iter().chain(&[crate::journal::JOURNAL_FILE]) {
            std::fs::write(dir.join(name), "stale\n").unwrap();
        }
        let campaign = open_campaign(&dir, &p, &specs);
        for name in stale {
            assert!(!dir.join(name).exists(), "{name} survived the fresh start");
        }
        assert_eq!(campaign.progress(), (0, 3, 0));
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        let fresh = [
            "campaign.ckpt",
            "campaign.journal",
            "exp00000.fault",
            "exp00001.fault",
            "exp00002.fault",
        ];
        assert_eq!(names, fresh);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_damaged_spooled_fault_file_is_a_campaign_error_not_a_worker_panic() {
        use crate::transport::CampaignTransport;
        let (_, p, specs, _) = small_campaign(50, 41, 2);
        let dir = share("damaged");
        let campaign = Mutex::new(open_campaign(&dir, &p, &specs));
        let mut transport = SpoolTransport { campaign: &campaign, share: dir.clone(), ws: 0 };
        // The share is damaged between spooling and the first claim: an
        // empty file, then one that is not a fault spec, then none at all.
        let fault = dir.join("exp00000.fault");
        let damage: [&dyn Fn(); 3] = [
            &|| std::fs::write(&fault, "").unwrap(),
            &|| std::fs::write(&fault, "reg f $").unwrap(),
            &|| std::fs::remove_file(&fault).unwrap(),
        ];
        for (attempt, damage) in (1u64..).zip(damage) {
            damage();
            let err = transport.claim("w").unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
            assert!(err.to_string().contains("exp00000.fault"), "names the file: {err}");
            assert!(!dir.join("exp00000.lease").exists(), "the lease was handed back");
            // The burned attempt is journaled; the share stays resumable.
            let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
            let burned = |e: &JournalEvent| matches!(e, JournalEvent::AttemptFailed { exp: 0, attempt: a, .. } if *a == attempt);
            assert!(events.iter().any(burned), "attempt {attempt} journaled");
            std::thread::sleep(Duration::from_millis(5)); // past the retry backoff
        }
        // Retries exhausted: the experiment is terminal, the other one
        // still claimable.
        let campaign = campaign.lock().unwrap();
        assert_eq!(campaign.table().count(Outcome::Infrastructure), 1);
        assert_eq!(campaign.progress(), (1, 2, 0));
        drop(campaign);
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
