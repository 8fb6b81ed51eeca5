//! Campaign execution on a (simulated) network of workstations — the
//! Sec. III-E protocol, hardened for real clusters:
//!
//! 1. the fault configurations of all experiments go to a network share
//!    (`campaign.faults`, the paper's Listing-1 format, line *i* for
//!    experiment *i*);
//! 2. one simulation runs to the activation point and the checkpoint is
//!    stored on the share;
//! 3. each workstation takes a local copy of the checkpoint;
//! 4. each workstation repeatedly claims a remaining experiment under an
//!    **expiring lease**;
//! 5. results move back, and every lifecycle transition is appended to a
//!    durable **journal** ([`crate::journal`]);
//! 6. until no experiments remain.
//!
//! "Workstations" are thread groups sharing one local checkpoint copy. The
//! share is a real spool directory holding `campaign.ckpt`,
//! `campaign.journal` and `campaign.faults`, plus a mid-run snapshot per
//! in-flight experiment when snapshots are on. There is no file per lease
//! or per result: the journal is the only per-experiment state.
//!
//! # One slot table
//!
//! [`Campaign`] is the campaign pipeline's state machine, and the only
//! one — the paper's single pool of remaining experiments. It owns the
//! journal and one table with a slot per drawn experiment, indexed by the
//! global experiment index and alive as long as the campaign: each slot
//! carries its fault spec, its plan cell and one lifecycle state
//! (`pending → leased → terminal`, `journal::ExpState`) that journal replay
//! seeds and every claim, heartbeat, reap and report moves. The table is
//! where leases live; one mutex around it arbitrates every claim. A
//! [`Plan`] yields rounds of draws (a fixed-n campaign is the one-round
//! case); a round is the *open range* of the table — claims, the reaper and
//! the lease quota look nowhere else, so their cost follows the round, not
//! the campaign. A draw already terminal in the replayed journal folds
//! straight into the plan and the outcome table; an orphan (a `leased` line
//! the dead process never resolved) is reclaimed. When the open range has
//! drained the plan re-evaluates its stopping rule and the next round's
//! draws extend the table. Workers only ever see
//! `Campaign::{try_claim, heartbeat, report_done, report_failed}`.
//! [`run_campaign_now`] and [`run_campaign_adaptive_now`] are this table
//! with a fixed or adaptive plan behind [`SpoolTransport`] on in-process
//! worker threads; [`crate::server::CampaignServer`] is the same table, one
//! per queue, behind the socket. Each worker thread is [`drive_worker`],
//! the very loop a remote socket worker runs — so every recovery path
//! tested here holds for the network backend too.
//!
//! Fault tolerance, on top of the paper's protocol:
//!
//! - A worker that panics journals the failed attempt; the experiment
//!   returns to the pending pool with capped exponential backoff.
//! - A worker that hangs past its lease deadline is reaped: any other
//!   worker's claim loop breaks the expired lease, raises the runaway
//!   run's [`AbortToken`], and requeues the experiment.
//! - An experiment that exhausts its retries — live, or because a killed
//!   campaign process burned its last permitted attempt — is terminally
//!   classified [`Outcome::Infrastructure`]: counted, never silently
//!   dropped, never run past the cap.
//! - Each transition's journal append is its last fallible step before the
//!   table changes, so a report that fails is retried against an unchanged
//!   slot and a retried report journals nothing twice.
//! - With [`NowConfig::snapshot_ticks`] set, workers drop periodic mid-run
//!   snapshots ([`crate::snapshot`]) onto the share; a retried attempt
//!   resumes from the last snapshot instead of re-running from the
//!   campaign checkpoint.
//! - A killed campaign resumes. Appends are flushed in order, so `kill -9`
//!   leaves a prefix of the journal, perhaps with a torn last line. With
//!   [`NowConfig::resume`] the campaign replays it, verifies it belongs to
//!   this campaign (the header a fresh start would write: experiment count
//!   and fault-spec digest, or seed, stopping rule and cell set — and the
//!   checkpoint digest), reclaims the orphans replay finds, and schedules
//!   only the unfinished remainder; a prefix without one complete line is a
//!   fresh start. The merged [`OutcomeTable`] and every adaptive per-cell
//!   decision are identical to an uninterrupted run, whatever the cut.
//!
//! [`AbortToken`]: gemfi::AbortToken

use crate::adaptive::{AdaptiveConfig, AdaptiveOutcome, AdaptiveState, Draw, Plan};
use crate::clock::{system_clock, Clock};
use crate::journal::{CampaignState, ExpState, Journal, JournalEvent};
use crate::report::OutcomeTable;
use crate::runner::{PreparedWorkload, RunnerConfig};
use crate::snapshot::{execute_leased, SnapshotPolicy};
use crate::transport::{ClaimReply, SpoolTransport, WorkAssignment};
use crate::window::{snapshot_path, ReportAck, SchedulerPolicy, FAULTS_FILE};
use crate::worker::{drive_worker, WorkerOptions};
use gemfi::{AbortToken, FaultSpec, Outcome};
use gemfi_sim::Checkpoint;
use gemfi_workloads::Workload;
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{Error, ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

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
    /// files (`exp<i>.snap`) land on the share next to the journal and are
    /// deleted once the experiment reaches a terminal outcome.
    pub snapshot_ticks: u64,
    /// The clock leases and backoffs are judged by. Production uses
    /// [`system_clock`]; tests inject a [`crate::clock::TestClock`].
    pub clock: Arc<dyn Clock>,
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
    clock: Arc<dyn Clock>,
    policy: SchedulerPolicy,
    journal: Journal,
    /// `campaign.faults`: one Listing-1 line per drawn experiment, appended
    /// a round at a time and never read back.
    faults: File,
    /// Replayed journal state of experiments not drawn yet, in experiment
    /// order (orphans replay `Leased`); each draw consumes one to seed its
    /// slot.
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
    per_ws: Vec<usize>,
    per_worker: BTreeMap<String, usize>,
    done: bool,
}

impl Campaign {
    /// Opens `plan`'s campaign on `share` and draws its first round. A
    /// fresh start clears stale run artifacts, spools the checkpoint
    /// (step 2) and writes the identity header; `resume` over an existing
    /// journal replays it instead, after verifying it was recorded for
    /// this very campaign and the checkpoint still on the share. A journal
    /// that replays no event — the process died between creating it and
    /// appending the header — records nothing, so resuming it is a fresh
    /// start. Either way `campaign.faults` is rewritten as the plan draws
    /// its rounds. `workstations` sizes the spool load-balance vector (0
    /// for the server).
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
        let journal_path = Journal::path_in(share);
        let events = if resume && journal_path.exists() {
            Journal::replay(&journal_path)?
        } else {
            Vec::new()
        };
        let resuming = !events.is_empty();
        let replay = if resuming {
            // The checkpoint must be the very one the journal was recorded
            // against; compare digests before trusting any replayed outcome.
            let spooled = Checkpoint::load_header(&ckpt_path)?;
            CampaignState::replay(&events, &plan.header(spooled.digest))?
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
            clock,
            policy,
            journal,
            faults: File::create(share.join(FAULTS_FILE))?,
            replayed: replay.experiments.into_iter(),
            journaled_draws: replay.drawn.into_iter(),
            slots: Vec::new(),
            round: 0,
            open: 0,
            table: OutcomeTable::new(),
            resumed: 0,
            retries: 0,
            reclaimed: 0,
            per_ws: vec![0; workstations],
            per_worker: BTreeMap::new(),
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
        while !self.done && self.open == 0 {
            if self.round < self.slots.len() {
                self.plan.end_round();
                self.round = self.slots.len();
            }
            let draws = self.plan.next_round();
            self.done = draws.is_empty();
            // Step 1: the round's fault configurations onto the share.
            let listing: String = draws.iter().map(|d| format!("{}\n", d.spec)).collect();
            self.faults.write_all(listing.as_bytes())?;
            for d in &draws {
                self.draw(d)?;
            }
        }
        Ok(())
    }

    /// Appends `d`'s slot to the table. A draw already terminal in the
    /// journal folds straight back; any other is pending execution, its
    /// orphaned lease (if replay found one) reclaimed.
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
        self.slots.push(Slot { cell: d.cell, spec: d.spec, state: ExpState::FRESH });
        let (attempts, reason) = match state {
            ExpState::Terminal(done) => {
                // Infrastructure failures spent budget but are not
                // evidence — `record` skips them, exactly as it does live.
                self.plan.record(d.cell, done.outcome);
                self.table.add(done.outcome);
                self.resumed += 1;
                self.slots[exp].state = ExpState::Terminal(done);
                return Ok(());
            }
            ExpState::Pending { attempts, .. } => {
                (attempts, "retries exhausted before the campaign restarted")
            }
            ExpState::Leased { attempt, worker, .. } => {
                // A worker of the dead campaign process died holding this
                // experiment: break the lease whatever its deadline says,
                // and journal the burned attempt so a *second* resume
                // still counts it toward the retry cap.
                let reason = "orphaned lease (campaign restart)";
                self.journal.append(&JournalEvent::AttemptFailed {
                    exp: d.exp,
                    attempt,
                    worker,
                    reason: reason.to_string(),
                    spec: Some(d.spec.to_string()),
                })?;
                self.reclaimed += 1;
                (attempt, reason)
            }
        };
        self.open += 1;
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
    /// pending slot whose backoff has elapsed (journal, then table),
    /// drawing the next round when this one has drained.
    /// `quota` caps the concurrently leased experiments (`0` = unlimited).
    ///
    /// # Errors
    ///
    /// I/O errors from the journal or `campaign.faults`;
    /// [`ErrorKind::InvalidData`] when the journaled draws do not match the
    /// re-derived trajectory.
    pub(crate) fn try_claim(
        &mut self,
        queue: &str,
        worker: &str,
        quota: usize,
    ) -> std::io::Result<ClaimReply> {
        self.reap_expired()?;
        self.advance()?;
        if self.done {
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
    /// abandon the attempt. A renewal is not journaled: the deadline only
    /// matters to this process's reaper.
    pub(crate) fn heartbeat(&mut self, exp: usize, worker: &str, attempt: u64) -> Option<u64> {
        match self.slots.get_mut(exp).map(|s| &mut s.state) {
            Some(ExpState::Leased { attempt: a, worker: w, deadline_ms, .. })
                if *a == attempt && w.as_str() == worker =>
            {
                *deadline_ms = self.clock.now_ms() + self.policy.lease_ms;
                Some(*deadline_ms)
            }
            _ => None,
        }
    }

    /// Whether `attempt` still holds the lease on `exp`; a report from any
    /// other attempt is a zombie's (the reaper already moved the experiment
    /// on) and is dropped, first-terminal-wins.
    fn holds_lease(&self, exp: usize, attempt: u64) -> bool {
        let state = self.slots.get(exp).map(|s| &s.state);
        matches!(state, Some(ExpState::Leased { attempt: a, .. }) if *a == attempt)
    }

    /// Folds a successful terminal outcome: journal, then table, plan and
    /// metrics — then advances the round loop. `ws` credits a spool
    /// workstation. The journal append is the last fallible step before
    /// the slot changes, so a report whose append failed can be retried
    /// and one that landed is `Stale` the second time.
    ///
    /// # Errors
    ///
    /// I/O errors from the journal or `campaign.faults`.
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
    /// I/O errors from the journal or `campaign.faults`.
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
    /// are exhausted. Counted and journaled like any result, never dropped.
    fn give_up(&mut self, exp: usize, attempts: u64, reason: &str) -> std::io::Result<()> {
        self.journal.append(&JournalEvent::Failed {
            exp: exp as u64,
            attempts,
            reason: reason.to_string(),
            spec: Some(self.slots[exp].spec.to_string()),
        })?;
        self.finish(CompletedExperiment {
            exp,
            outcome: Outcome::Infrastructure,
            attempts,
            ticks: 0,
            resumed: false,
        });
        Ok(())
    }

    /// Makes `done` its slot's terminal record: evidence for the plan and a
    /// row of the table.
    fn finish(&mut self, done: CompletedExperiment) {
        let slot = &mut self.slots[done.exp];
        self.plan.record(slot.cell, done.outcome);
        self.table.add(done.outcome);
        slot.state = ExpState::Terminal(done);
        self.open -= 1;
    }

    /// Breaks the open round's expired leases (raising the runaway runs'
    /// abort tokens) and requeues or terminally fails their experiments.
    fn reap_expired(&mut self) -> std::io::Result<()> {
        let now = self.clock.now_ms();
        for exp in self.round..self.slots.len() {
            let ExpState::Leased { attempt, deadline_ms, ref abort, ref worker } =
                self.slots[exp].state
            else {
                continue;
            };
            if now <= deadline_ms {
                continue;
            }
            abort.abort();
            let worker = worker.clone();
            self.attempt_failed(exp, attempt, &worker, "lease expired")?;
            self.reclaimed += 1;
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
                    let mut transport = SpoolTransport { campaign, ws };
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
    let report = NowReport {
        wall,
        per_workstation: campaign.per_ws.clone(),
        experiments: campaign.slots.len(),
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
/// mismatch).
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
/// `drawn` records, folds terminal outcomes already recorded, reclaims
/// orphaned leases, and executes only what is missing — reaching
/// byte-identical per-cell decisions to an uninterrupted run.
///
/// # Errors
///
/// I/O errors from the share; [`ErrorKind::InvalidData`] when resume finds
/// a journal from a different campaign (seed, checkpoint, stopping rule,
/// or cell set mismatch).
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

/// Removes the journal and every per-experiment file — snapshots, and the
/// fault, lease and result files older versions spooled — so a fresh
/// (non-resume) start cannot mix state from an earlier campaign in the same
/// directory.
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
    use crate::adaptive::CellKind;
    use crate::runner::prepare_workload;
    use crate::sampler::{FaultSampler, LocationClass};
    use crate::window::tests::assert_campaign_files;
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

    fn slot_specs(campaign: &Campaign) -> Vec<FaultSpec> {
        campaign.slots.iter().map(|slot| slot.spec).collect()
    }

    /// Runs `specs` to completion the way [`spool_campaign`] does — one
    /// workstation of `cfg.slots_per_workstation` [`drive_worker`] threads
    /// claiming through a [`SpoolTransport`] — except that executing an
    /// `(experiment, attempt)` listed in `crashes` panics, as a
    /// workstation dying mid-experiment would.
    fn run_with_crashes(
        cfg: &NowConfig,
        (w, p, specs, runner): &(MonteCarloPi, PreparedWorkload, Vec<FaultSpec>, RunnerConfig),
        crashes: &[(usize, u64)],
    ) -> Campaign {
        let plan = Plan::fixed(specs.clone());
        let policy = cfg.scheduler_policy();
        let campaign =
            Campaign::open(&cfg.share_dir, p, plan, false, system_clock(), policy, 1).unwrap();
        let campaign = Mutex::new(campaign);
        std::thread::scope(|scope| {
            for slot in 0..cfg.slots_per_workstation {
                let campaign = &campaign;
                scope.spawn(move || {
                    let mut execute = |work: &WorkAssignment| {
                        let (exp, attempt) = (work.exp, work.attempt);
                        assert!(!crashes.contains(&(exp, attempt)), "exp {exp} attempt {attempt}");
                        Ok(crate::runner::run_experiment(p, w, work.spec, runner))
                    };
                    let opts = WorkerOptions::new(format!("ws0.slot{slot}"));
                    let mut transport = SpoolTransport { campaign, ws: 0 };
                    drive_worker(&mut transport, &opts, &mut execute).unwrap();
                });
            }
        });
        campaign.into_inner().unwrap()
    }

    #[test]
    fn now_executes_every_experiment_and_spools_artifacts() {
        let (w, p, specs, runner) = small_campaign(60, 3, 12);
        let dir = share("basic");
        let cfg = fast_config(3, 2, &dir);
        let plan = Plan::fixed(specs.clone());
        let (campaign, report) = spool_campaign(&p, &w, plan, &runner, &cfg).unwrap();
        assert_eq!(campaign.table().total(), 12);
        assert_eq!(campaign.records().len(), 12);
        assert_eq!(report.experiments, 12);
        assert_eq!(report.per_workstation.iter().sum::<usize>(), 12);
        assert_eq!(report.retries, 0);
        assert_eq!(report.infrastructure_failures, 0);
        assert_eq!(slot_specs(&campaign), specs);
        assert_campaign_files(&dir, &specs);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_adaptive_campaign_lists_every_draw_in_experiment_order() {
        let (w, p, _, runner) = small_campaign(50, 31, 0);
        let dir = share("adaptive");
        let adaptive = AdaptiveConfig {
            ci_halfwidth: 0.3,
            min_n: 4,
            budget: 16,
            batch: 4,
            cells: vec![CellKind::Class(LocationClass::IntReg), CellKind::Class(LocationClass::Pc)],
            ..AdaptiveConfig::default()
        };
        let plan = Plan::adaptive(adaptive, 31, p.stage_events);
        let (campaign, report) =
            spool_campaign(&p, &w, plan, &runner, &fast_config(2, 1, &dir)).unwrap();
        let rounds = campaign.adaptive_outcome().unwrap().rounds;
        assert!(rounds > 1, "more than one round was appended: {rounds}");
        assert_eq!(campaign.slots.len(), report.experiments);
        assert_campaign_files(&dir, &slot_specs(&campaign));
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
        let setup = small_campaign(50, 5, 6);
        let specs = &setup.2;
        let dir = share("panic");
        // The first attempt of experiment 2 dies.
        let campaign = run_with_crashes(&fast_config(1, 2, &dir), &setup, &[(2, 1)]);
        let (table, results) = (campaign.table(), campaign.records());
        assert_eq!(table.total(), 6);
        assert_eq!(campaign.retries(), 1);
        assert_eq!(table.count(Outcome::Infrastructure), 0);
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
        let setup = small_campaign(50, 7, 4);
        let dir = share("exhaust");
        let mut cfg = fast_config(1, 2, &dir);
        cfg.max_retries = 2;
        // Every attempt of experiment 1 panics.
        let crashes: Vec<_> = (1..=3).map(|a| (1, a)).collect();
        let campaign = run_with_crashes(&cfg, &setup, &crashes);
        let (table, results) = (campaign.table(), campaign.records());
        assert_eq!(table.total(), 4, "no experiment goes missing");
        assert_eq!(table.count(Outcome::Infrastructure), 1);
        assert_eq!(results[1].outcome, Outcome::Infrastructure);
        assert_eq!(results[1].attempts, 3);
        assert_campaign_files(&dir, &setup.2);
        let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
        assert!(events
            .iter()
            .any(|e| matches!(e, JournalEvent::Failed { exp: 1, attempts: 3, .. })));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_journal_without_one_complete_line_resumes_as_a_fresh_start() {
        let (w, p, specs, runner) = small_campaign(50, 13, 8);
        let dir = share("headerless");
        let cfg = fast_config(2, 1, &dir);
        let (table, records, _) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        let outcomes = |records: &[CompletedExperiment]| -> Vec<Outcome> {
            records.iter().map(|r| r.outcome).collect()
        };
        let journal = std::fs::read(Journal::path_in(&dir)).unwrap();
        let resume = NowConfig { resume: true, ..fast_config(2, 1, &dir) };
        // A kill between creating the journal and appending its header
        // leaves it empty or holding a torn header: nothing to resume.
        for cut in [0, 30] {
            std::fs::write(Journal::path_in(&dir), &journal[..cut]).unwrap();
            let (again, again_records, report) =
                run_campaign_now(&p, &w, &specs, &runner, &resume).unwrap();
            assert_eq!(again, table, "cut at byte {cut}");
            assert_eq!(outcomes(&again_records), outcomes(&records), "cut at byte {cut}");
            assert_eq!(report.resumed, 0);
            assert_campaign_files(&dir, &specs);
        }
        // Events without the header before them are damage, not a fresh
        // start.
        let body = journal.iter().position(|&b| b == b'\n').unwrap() + 1;
        std::fs::write(Journal::path_in(&dir), &journal[body..]).unwrap();
        let err = run_campaign_now(&p, &w, &specs, &runner, &resume).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orphaned_expired_lease_is_reclaimed_on_resume() {
        let (w, p, specs, runner) = small_campaign(50, 17, 3);
        let dir = share("orphan");
        // A campaign killed right after opening: header, nothing finished.
        drop(open_campaign(&dir, &p, &specs));
        // Fake a worker that died holding experiment 2: its journaled claim
        // with nothing after it, the lease long expired.
        let mut journal = Journal::open(&dir).unwrap();
        journal
            .append(&JournalEvent::Leased {
                exp: 2,
                worker: "ws9.slot9".into(),
                attempt: 1,
                deadline_ms: system_clock().now_ms().saturating_sub(10_000),
            })
            .unwrap();
        drop(journal);

        let mut cfg = fast_config(1, 1, &dir);
        cfg.resume = true;
        let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
        assert_eq!(table.total(), 3, "reclaimed experiment was re-run");
        assert_eq!(report.reclaimed_leases, 1, "orphaned lease broken: {report:?}");
        assert!(results[2].outcome.is_experiment_outcome());
        assert_eq!(results[2].attempts, 2, "the orphaned attempt was burned");
        let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
        assert!(events.iter().any(|e| matches!(
            e,
            JournalEvent::AttemptFailed { exp: 2, attempt: 1, worker, .. } if worker == "ws9.slot9"
        )));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_last_attempt_burned_by_a_dead_campaign_is_not_rerun_past_the_cap() {
        let (w, p, specs, runner) = small_campaign(50, 17, 3);
        let dir = share("last-attempt");
        drop(open_campaign(&dir, &p, &specs));
        // The dead campaign's worker held experiment 1 on its last
        // permitted attempt (max_retries 2 → attempt 3) ...
        let mut journal = Journal::open(&dir).unwrap();
        journal
            .append(&JournalEvent::Leased {
                exp: 1,
                worker: "ws9.slot9".into(),
                attempt: 3,
                deadline_ms: system_clock().now_ms() + 60_000,
            })
            .unwrap();
        // ... and the campaign died between journaling experiment 2's last
        // failed attempt and its terminal record.
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
        let past_the_cap = |e: &JournalEvent| matches!(e, JournalEvent::Leased { exp: 1 | 2, attempt, .. } if *attempt > 3);
        assert!(!events.iter().any(past_the_cap), "no fourth attempt was leased");
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
        // Leftovers of a larger campaign that ran in this directory,
        // including the per-experiment files older versions spooled.
        let stale = ["exp00001.lease", "exp00002.result", "exp00007.snap", "exp00099.fault"];
        for name in stale.iter().chain(&[crate::journal::JOURNAL_FILE, FAULTS_FILE]) {
            std::fs::write(dir.join(name), "stale\n").unwrap();
        }
        let campaign = open_campaign(&dir, &p, &specs);
        assert_eq!(campaign.progress(), (0, 3, 0));
        assert_campaign_files(&dir, &specs);
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
        assert_campaign_files(&dir, &specs);
        std::fs::remove_dir_all(&plain_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
