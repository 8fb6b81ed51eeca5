//! Campaign execution on a (simulated) network of workstations — the
//! Sec. III-E protocol, hardened for real clusters:
//!
//! 1. the fault configurations of all experiments go to a network share
//!    (`campaign.faults`, the paper's Listing-1 format, line *i* for
//!    experiment *i*);
//! 2. one simulation runs to the activation point and the checkpoint is
//!    stored on the share;
//! 3. each workstation takes a local copy of the checkpoint; the copy has
//!    the campaign checkpoint's digest, so its experiments fork the
//!    prepared workload's stations like in-process ones;
//! 4. each workstation repeatedly claims a remaining experiment under a
//!    **lease**;
//! 5. results move back, and every lifecycle transition is appended to a
//!    durable **journal** ([`crate::journal`]);
//! 6. until no experiments remain.
//!
//! "Workstations" are thread groups sharing one local checkpoint copy. The
//! share is a real spool directory holding exactly `campaign.ckpt`,
//! `campaign.journal` and `campaign.faults`. There is no file per lease or
//! per result: the journal is the only per-experiment state.
//!
//! # One slot table
//!
//! `Campaign` is the campaign pipeline's state machine, and the only
//! one — the paper's single pool of remaining experiments. It owns the
//! journal and one table with a slot per drawn experiment, indexed by the
//! global experiment index and alive as long as the campaign: each slot
//! carries its fault spec, its plan cell and one lifecycle state
//! (`pending → leased → terminal`, `ExpState`). The lifecycle's rules are
//! stated once, in `ExpState::apply`, over journal events: a transition is
//! journaled and then applied (`Campaign::commit`, the table's one
//! mutator), and replay is the same apply folded over the journal — so the
//! table is, at every step, the fold of its journal. One mutex around the
//! table arbitrates every claim. A `Plan` yields rounds of draws (a
//! fixed-n campaign is the one-round case); a round is the *open range* of
//! the table — claims, the reaper and the lease quota look nowhere else, so
//! their cost follows the round, not the campaign. A draw already terminal
//! in the replayed journal folds straight into the plan and the outcome
//! table; an orphan (a `leased` line the dead process never resolved) is
//! reclaimed. When the open range has drained the plan re-evaluates its
//! stopping rule and the next round's draws extend the table. Workers only
//! ever see `Campaign::{try_claim, heartbeat, report_done, report_failed}`.
//! [`run_campaign_now`] and [`run_campaign_adaptive_now`] are this table
//! with a fixed or adaptive plan behind `SpoolTransport` on in-process
//! worker threads; [`crate::server::CampaignServer`] is the same table, one
//! per queue, behind the socket. Each worker thread is `drive_worker`,
//! the very loop a remote socket worker runs — so every recovery path
//! tested here holds for the network backend too. All timing goes through
//! an injected [`Clock`]: the tests drive lease expiry, reaping, backoff
//! and whole seeded claim/report/restart schedules against a
//! [`TestClock`](crate::clock::TestClock), with outcomes supplied by the
//! test instead of a simulator.
//!
//! Fault tolerance, on top of the paper's protocol:
//!
//! - A worker that panics journals the failed attempt; the experiment
//!   returns to the pending pool with capped exponential backoff. Every
//!   retry — of a failed report, a reaped lease or an orphan found at
//!   resume — re-runs the experiment from the campaign checkpoint.
//! - A spool lease never expires. Its workers are threads of the campaign
//!   process and cannot vanish without it: a panic is caught and
//!   journaled, and a runaway run is bounded by its watchdog. Expiry is
//!   the server's business — a remote worker that stops heartbeating
//!   loses its lease to the reaper, which raises the run's
//!   [`AbortToken`] and requeues the experiment.
//! - An experiment that exhausts its retries — live, or because a killed
//!   campaign process burned its last permitted attempt — is terminally
//!   classified [`Outcome::Infrastructure`]: counted, never silently
//!   dropped, never run past the cap.
//! - Each transition's journal append is its last fallible step before the
//!   table changes, so a report that fails is retried against an unchanged
//!   slot and a retried report journals nothing twice.
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
use crate::journal::{check_identity, Journal, JournalEvent};
use crate::report::OutcomeTable;
use crate::runner::{run_experiment_from_with_abort, PreparedWorkload, RunnerConfig};
use crate::transport::{ClaimReply, SpoolTransport, WorkAssignment};
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
    /// Retries after the first attempt before an experiment is terminally
    /// classified [`Outcome::Infrastructure`].
    pub max_retries: u64,
    /// Base retry backoff; doubles per failed attempt, capped at 64×.
    pub retry_backoff: Duration,
    /// Replay an existing journal and run only the unfinished remainder.
    /// Without a journal on the share this is an ordinary fresh start.
    pub resume: bool,
    /// The clock leases and backoffs are judged by. Production uses
    /// [`system_clock`]; tests inject a [`crate::clock::TestClock`].
    pub clock: Arc<dyn Clock>,
}

impl NowConfig {
    /// A config with the given cluster shape and default fault-tolerance
    /// policy (2 retries, 50 ms base backoff, fresh start, system clock).
    pub fn new(
        workstations: usize,
        slots_per_workstation: usize,
        share_dir: impl Into<PathBuf>,
    ) -> NowConfig {
        NowConfig {
            workstations,
            slots_per_workstation,
            share_dir: share_dir.into(),
            max_retries: 2,
            retry_backoff: Duration::from_millis(50),
            resume: false,
            clock: system_clock(),
        }
    }

    fn max_attempts(&self) -> u64 {
        self.max_retries + 1
    }

    /// The scheduler policy this config implies. A spool lease never
    /// expires: its workers are threads of the campaign process, which
    /// cannot vanish without it. A panic is caught and reported, a runaway
    /// run is stopped by its watchdog, and a lease left by a killed process
    /// is an orphan the journal shows on resume, whatever its deadline.
    pub(crate) fn scheduler_policy(&self) -> SchedulerPolicy {
        SchedulerPolicy {
            lease_ms: u64::MAX,
            max_attempts: self.max_attempts(),
            backoff_ms: self.retry_backoff.as_millis() as u64,
            idle_backoff_ms: 1,
        }
    }
}

/// Fault-tolerance policy of a campaign's scheduler (derived from
/// [`NowConfig`] or the server's configuration).
#[derive(Debug, Clone)]
pub(crate) struct SchedulerPolicy {
    /// Lease duration in milliseconds (`u64::MAX`: never expires).
    pub lease_ms: u64,
    /// Attempts before an experiment is terminally
    /// [`Outcome::Infrastructure`].
    pub max_attempts: u64,
    /// Base retry backoff in milliseconds; doubles per failed attempt,
    /// capped at 64×.
    pub backoff_ms: u64,
    /// Suggested idle retry delay handed to claimants when nothing is
    /// claimable.
    pub idle_backoff_ms: u64,
}

/// Whether a report landed or arrived from a zombie attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportAck {
    /// The report was folded into the journal and schedule.
    Accepted,
    /// A reaper already moved the experiment on; the report was dropped
    /// (first-terminal-wins).
    Stale,
}

/// The share's fault-configuration file: the paper's Listing-1 format, line
/// `i` for experiment `i`, written for the record and never read back.
pub(crate) const FAULTS_FILE: &str = "campaign.faults";

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

/// One experiment's lifecycle state, the same enum in the slot table and
/// in journal replay. [`ExpState::apply`] is the only statement of its
/// transitions.
#[derive(Debug, Clone)]
pub(crate) enum ExpState {
    /// Waiting to run: `attempts` already burned (by this process or by
    /// dead workers of an earlier one), claimable at `not_before_ms`.
    Pending {
        /// Attempts already consumed.
        attempts: u64,
        /// Scheduler-clock time the retry backoff ends.
        not_before_ms: u64,
    },
    /// In flight under a lease. Replay yields it for an *orphan*: a
    /// `leased` line with no later terminal line and no `attempt-failed`
    /// line for its attempt — a worker of a dead campaign process held it.
    Leased {
        /// 1-based attempt under lease.
        attempt: u64,
        /// Lease expiry (scheduler clock, ms since the epoch).
        deadline_ms: u64,
        /// The lease owner.
        worker: String,
        /// Raised by the reaper when the lease expires.
        abort: AbortToken,
    },
    /// Finished: a classified outcome, or [`Outcome::Infrastructure`] once
    /// the harness exhausted its retries (no ticks).
    Terminal(CompletedExperiment),
}

impl ExpState {
    /// A never-attempted experiment.
    pub(crate) const FRESH: ExpState = ExpState::Pending { attempts: 0, not_before_ms: 0 };

    /// The terminal record, once there is one.
    pub(crate) fn terminal(&self) -> Option<&CompletedExperiment> {
        match self {
            ExpState::Terminal(done) => Some(done),
            _ => None,
        }
    }

    /// Applies experiment `exp`'s journaled `event` — the lifecycle, stated
    /// once for the live table and for replay:
    ///
    /// - `leased` puts the experiment in flight under a fresh abort token;
    ///   leasing a finished experiment is a protocol violation.
    /// - `done` and `failed` are terminal, and the first terminal event
    ///   wins: a zombie completing after its lease was reaped and the
    ///   experiment re-ran must not double-count.
    /// - `attempt-failed` resolves the lease of *that* attempt to pending
    ///   with the attempt burned. On a pending experiment it raises the
    ///   attempts burned; otherwise it changes nothing.
    ///
    /// Headers and `drawn` records are not lifecycle events and change
    /// nothing.
    ///
    /// # Errors
    ///
    /// A message when `event` leases a finished experiment.
    pub(crate) fn apply(&mut self, exp: usize, event: &JournalEvent) -> Result<(), String> {
        let terminal = |outcome, attempts, ticks| {
            ExpState::Terminal(CompletedExperiment {
                exp,
                outcome,
                attempts,
                ticks,
                resumed: false,
            })
        };
        match *event {
            JournalEvent::Leased { ref worker, attempt, deadline_ms, .. } => {
                if self.terminal().is_some() {
                    return Err(format!("experiment {exp} leased after finishing"));
                }
                let (worker, abort) = (worker.clone(), AbortToken::new());
                *self = ExpState::Leased { attempt, deadline_ms, worker, abort };
            }
            JournalEvent::Done { .. } | JournalEvent::Failed { .. }
                if self.terminal().is_some() => {}
            JournalEvent::Done { attempt, outcome, ticks, .. } => {
                *self = terminal(outcome, attempt, ticks);
            }
            JournalEvent::Failed { attempts, .. } => {
                *self = terminal(Outcome::Infrastructure, attempts, 0);
            }
            JournalEvent::AttemptFailed { attempt, .. } => match self {
                ExpState::Pending { attempts, .. } => *attempts = (*attempts).max(attempt),
                ExpState::Leased { attempt: held, .. } if *held == attempt => {
                    *self = ExpState::Pending { attempts: attempt, not_before_ms: 0 };
                }
                _ => {}
            },
            JournalEvent::Campaign { .. }
            | JournalEvent::AdaptiveCampaign { .. }
            | JournalEvent::Drawn { .. } => {}
        }
        Ok(())
    }
}

/// A campaign's journal folded into the state resume seeds its slot table
/// with.
#[derive(Debug, Default)]
struct CampaignState {
    /// Per-experiment state, indexed by experiment number.
    experiments: Vec<ExpState>,
    /// `(cell label, draw ordinal)` per journaled adaptive draw, in draw
    /// (= experiment) order. Empty for fixed-n campaigns.
    drawn: Vec<(String, u64)>,
}

impl CampaignState {
    /// Folds `events` with [`ExpState::apply`]; terminal records come out
    /// marked `resumed`. `experiments` is the size of a fixed-n campaign;
    /// [`None`] is an adaptive campaign, whose experiments exist once
    /// drawn. Events naming an experiment beyond either are rejected.
    ///
    /// # Errors
    ///
    /// A message when the journal references out-of-range experiments,
    /// records draws out of order, or leases a finished experiment.
    fn from_events(
        events: &[JournalEvent],
        experiments: Option<usize>,
    ) -> Result<CampaignState, String> {
        let mut state = CampaignState {
            experiments: vec![ExpState::FRESH; experiments.unwrap_or(0)],
            drawn: Vec::new(),
        };
        for event in events {
            let exp = match event {
                JournalEvent::Campaign { .. } | JournalEvent::AdaptiveCampaign { .. } => continue,
                JournalEvent::Drawn { exp, cell, draw } => {
                    if *exp != state.drawn.len() as u64 {
                        return Err(format!(
                            "draw record out of order: exp {exp} after {}",
                            state.drawn.len()
                        ));
                    }
                    state.drawn.push((cell.clone(), *draw));
                    if experiments.is_none() {
                        state.experiments.push(ExpState::FRESH);
                    }
                    continue;
                }
                JournalEvent::Leased { exp, .. }
                | JournalEvent::Done { exp, .. }
                | JournalEvent::AttemptFailed { exp, .. }
                | JournalEvent::Failed { exp, .. } => *exp as usize,
            };
            let slot = state.experiments.get_mut(exp);
            slot.ok_or_else(|| format!("experiment {exp} out of range"))?.apply(exp, event)?;
        }
        for slot in &mut state.experiments {
            if let ExpState::Terminal(done) = slot {
                done.resumed = true;
            }
        }
        Ok(state)
    }
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
            let invalid = |e: String| Error::new(ErrorKind::InvalidData, e);
            let experiments =
                check_identity(&events, &plan.header(spooled.digest)).map_err(invalid)?;
            CampaignState::from_events(&events, experiments).map_err(invalid)?
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
        self.slots.push(Slot { cell: d.cell, spec: d.spec, state });
        self.open += 1;
        let reason = match &self.slots[exp].state {
            ExpState::Terminal(done) => {
                let outcome = done.outcome;
                self.resumed += 1;
                self.fold_terminal(d.cell, outcome);
                return Ok(());
            }
            ExpState::Pending { .. } => "retries exhausted before the campaign restarted",
            ExpState::Leased { attempt, worker, .. } => {
                // A worker of the dead campaign process died holding this
                // experiment: break the lease whatever its deadline says,
                // and journal the burned attempt so a *second* resume
                // still counts it toward the retry cap.
                let reason = "orphaned lease (campaign restart)";
                let event = JournalEvent::AttemptFailed {
                    exp: d.exp,
                    attempt: *attempt,
                    worker: worker.clone(),
                    reason: reason.to_string(),
                    spec: Some(d.spec.to_string()),
                };
                self.commit(exp, event)?;
                self.reclaimed += 1;
                reason
            }
        };
        // The dead process may have burned the last permitted attempt —
        // orphaned it, or died between journaling its failure and the
        // terminal record: the cap holds across restarts.
        match self.slots[exp].state {
            ExpState::Pending { attempts, .. } if attempts >= self.policy.max_attempts => {
                self.give_up(exp, attempts, reason)
            }
            _ => Ok(()),
        }
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
        let deadline_ms = now.saturating_add(self.policy.lease_ms);
        let worker = worker.to_string();
        self.commit(exp, JournalEvent::Leased { exp: exp as u64, worker, attempt, deadline_ms })?;
        let ExpState::Leased { ref abort, .. } = self.slots[exp].state else {
            unreachable!("a committed lease leaves its slot leased")
        };
        Ok(ClaimReply::Work(WorkAssignment {
            queue: queue.to_string(),
            exp,
            attempt,
            deadline_ms,
            lease_ms: self.policy.lease_ms,
            spec: self.slots[exp].spec,
            abort: abort.clone(),
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
                *deadline_ms = self.clock.now_ms().saturating_add(self.policy.lease_ms);
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
        let exit = exit.to_string();
        self.commit(exp, JournalEvent::Done { exp: exp as u64, attempt, outcome, exit, ticks })?;
        if let Some(n) = ws.and_then(|ws| self.per_ws.get_mut(ws)) {
            *n += 1;
        }
        *self.per_worker.entry(worker.to_string()).or_insert(0) += 1;
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
        let event = JournalEvent::AttemptFailed {
            exp: exp as u64,
            attempt,
            worker: worker.to_string(),
            reason: reason.to_string(),
            spec: Some(self.slots[exp].spec.to_string()),
        };
        self.commit(exp, event)?;
        if attempt >= self.policy.max_attempts {
            return self.give_up(exp, attempt, reason);
        }
        self.retries += 1;
        // Capped exponential backoff: base × 2^(attempt-1), at most 64×.
        let backoff = self.policy.backoff_ms << (attempt - 1).min(6);
        if let ExpState::Pending { not_before_ms, .. } = &mut self.slots[exp].state {
            *not_before_ms = self.clock.now_ms() + backoff;
        }
        Ok(())
    }

    /// Terminally classifies `exp` [`Outcome::Infrastructure`]: its retries
    /// are exhausted. Counted and journaled like any result, never dropped.
    fn give_up(&mut self, exp: usize, attempts: u64, reason: &str) -> std::io::Result<()> {
        let event = JournalEvent::Failed {
            exp: exp as u64,
            attempts,
            reason: reason.to_string(),
            spec: Some(self.slots[exp].spec.to_string()),
        };
        self.commit(exp, event)
    }

    /// The one way a slot changes state: journal `event`, then apply it
    /// ([`ExpState::apply`]), and fold the record an event makes terminal.
    /// The append is the last fallible I/O, so a transition whose append
    /// failed leaves its slot unchanged.
    ///
    /// # Errors
    ///
    /// I/O errors from the journal; [`ErrorKind::InvalidData`] when the
    /// lifecycle rejects `event`.
    fn commit(&mut self, exp: usize, event: JournalEvent) -> std::io::Result<()> {
        self.journal.append(&event)?;
        let slot = &mut self.slots[exp];
        let was_terminal = slot.state.terminal().is_some();
        slot.state.apply(exp, &event).map_err(|e| Error::new(ErrorKind::InvalidData, e))?;
        if let (false, Some(done)) = (was_terminal, slot.state.terminal()) {
            let (cell, outcome) = (slot.cell, done.outcome);
            self.fold_terminal(cell, outcome);
        }
        Ok(())
    }

    /// Folds a terminal outcome of the open round: evidence for the plan
    /// (infrastructure failures spent budget but are not evidence —
    /// `record` skips them) and a row of the table.
    fn fold_terminal(&mut self, cell: usize, outcome: Outcome) {
        self.plan.record(cell, outcome);
        self.table.add(outcome);
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
/// A pool without a slot is refused before the share is touched: nothing
/// would ever claim the experiments.
fn spool_campaign(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    plan: Plan,
    runner: &RunnerConfig,
    config: &NowConfig,
) -> std::io::Result<(Campaign, NowReport)> {
    if config.workstations == 0 || config.slots_per_workstation == 0 {
        let msg = "a spool campaign needs at least one workstation with at least one slot";
        return Err(Error::new(ErrorKind::InvalidInput, msg));
    }
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
                    let mut execute = |work: &WorkAssignment| {
                        Ok(run_experiment_from_with_abort(
                            local,
                            prepared,
                            workload,
                            work.spec,
                            runner,
                            &work.abort,
                        ))
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
/// [`ErrorKind::InvalidInput`] for a pool without a slot; I/O errors from
/// the share; [`ErrorKind::InvalidData`] when resume finds a journal from a
/// different campaign (count, specs, or checkpoint mismatch).
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
/// [`ErrorKind::InvalidInput`] for a pool without a slot; I/O errors from
/// the share; [`ErrorKind::InvalidData`] when resume finds a journal from a
/// different campaign (seed, checkpoint, stopping rule, or cell set
/// mismatch).
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

/// Removes the journal and the per-experiment files older versions spooled
/// — fault, lease, result and mid-run snapshot files, and a snapshot's
/// `.snap.tmp` left by a crash before its rename — so a fresh (non-resume)
/// start cannot mix state from an earlier campaign in the same directory.
fn clear_run_artifacts(share: &Path) -> std::io::Result<()> {
    let journal = Journal::path_in(share);
    if journal.exists() {
        std::fs::remove_file(&journal)?;
    }
    for entry in std::fs::read_dir(share)? {
        let path = entry?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if [".fault", ".lease", ".result", ".snap", ".snap.tmp"].iter().any(|e| name.ends_with(e)) {
            std::fs::remove_file(&path)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::CellKind;
    use crate::clock::TestClock;
    use crate::journal::tests::sample_events;
    use crate::rng::SplitMix64;
    use crate::runner::prepare_workload;
    use crate::sampler::{FaultSampler, LocationClass};
    use gemfi::FaultConfig;
    use gemfi_cpu::CpuKind;
    use gemfi_workloads::pi::MonteCarloPi;
    use std::sync::OnceLock;

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

    /// A scratch share in the temp dir, removed when dropped, also when
    /// the test panics.
    struct Share(PathBuf);

    impl Drop for Share {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    impl std::ops::Deref for Share {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    fn share(tag: &str) -> Share {
        let d = std::env::temp_dir().join(format!("gemfi-now-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        Share(d)
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
    }

    /// Runs `run` on a pool without a workstation and on one without a
    /// slot: each is refused before the share holds a journal.
    fn assert_refused_without_a_slot(run: impl Fn(&NowConfig) -> std::io::Result<()>) {
        for (workstations, slots) in [(0, 2), (2, 0)] {
            let dir = share(&format!("no-slot-{workstations}-{slots}"));
            let err = run(&fast_config(workstations, slots, &dir)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidInput, "{err}");
            assert!(!Journal::path_in(&dir).exists(), "{workstations}×{slots}: journal created");
        }
    }

    #[test]
    fn a_fixed_campaign_without_a_slot_is_refused() {
        let (w, p, specs, runner) = small_campaign(50, 11, 4);
        assert_refused_without_a_slot(|cfg| {
            run_campaign_now(&p, &w, &specs, &runner, cfg).map(|_| ())
        });
    }

    #[test]
    fn an_adaptive_campaign_without_a_slot_is_refused() {
        let (w, p, _, runner) = small_campaign(50, 11, 0);
        let cells = vec![CellKind::Class(LocationClass::IntReg)];
        let adaptive = AdaptiveConfig { cells, ..AdaptiveConfig::default() };
        assert_refused_without_a_slot(|cfg| {
            run_campaign_adaptive_now(&p, &w, &runner, cfg, &adaptive, 3).map(|_| ())
        });
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
        std::fs::create_dir_all(&*dir).unwrap();
        // Leftovers of a larger campaign that ran in this directory,
        // including the per-experiment files older versions spooled.
        let stale = [
            "exp00001.lease",
            "exp00002.result",
            "exp00003.snap.tmp",
            "exp00007.snap",
            "exp00099.fault",
        ];
        for name in stale.iter().chain(&[crate::journal::JOURNAL_FILE, FAULTS_FILE]) {
            std::fs::write(dir.join(name), "stale\n").unwrap();
        }
        let campaign = open_campaign(&dir, &p, &specs);
        assert_eq!(campaign.progress(), (0, 3, 0));
        assert_campaign_files(&dir, &specs);
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
    }

    /// The share contract: a campaign's share holds exactly its checkpoint,
    /// its journal and `campaign.faults`, which lists `specs` — the slot
    /// specs — in experiment order.
    pub(crate) fn assert_campaign_files(dir: &Path, specs: &[FaultSpec]) {
        let mut names: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["campaign.ckpt", "campaign.faults", "campaign.journal"]);
        let listed = FaultConfig::load(&dir.join(FAULTS_FILE)).unwrap();
        assert_eq!(listed.faults(), specs);
    }

    /// The one simulator run of this module: a checkpoint to spool and a
    /// fault space to sample. Every outcome below is supplied by the test.
    fn prepared() -> &'static PreparedWorkload {
        static PREPARED: OnceLock<PreparedWorkload> = OnceLock::new();
        PREPARED.get_or_init(|| {
            let pi = MonteCarloPi { points: 50, init_spins: 30, ..MonteCarloPi::default() };
            prepare_workload(&pi).unwrap()
        })
    }

    fn policy() -> SchedulerPolicy {
        SchedulerPolicy { lease_ms: 1_000, max_attempts: 10, backoff_ms: 100, idle_backoff_ms: 1 }
    }

    fn fixed_specs(n: usize) -> Vec<FaultSpec> {
        let mut sampler = FaultSampler::new(9, prepared().stage_events, 0, 0);
        (0..n).map(|_| sampler.sample_any()).collect()
    }

    fn fixed_plan(n: usize) -> Plan {
        Plan::fixed(fixed_specs(n))
    }

    /// A fresh fixed-n campaign of `n` experiments on the share `dir`.
    fn campaign(dir: &Path, n: usize, clock: &TestClock, policy: SchedulerPolicy) -> Campaign {
        let clock = Arc::new(clock.clone());
        Campaign::open(dir, prepared(), fixed_plan(n), false, clock, policy, 1).unwrap()
    }

    fn done(work: &WorkAssignment, outcome: Outcome) -> CompletedExperiment {
        CompletedExperiment {
            exp: work.exp,
            outcome,
            attempts: work.attempt,
            ticks: 9,
            resumed: false,
        }
    }

    fn claim(c: &mut Campaign, worker: &str) -> (usize, u64, AbortToken) {
        match c.try_claim("q", worker, 0).unwrap() {
            ClaimReply::Work(w) => (w.exp, w.attempt, w.abort),
            other => panic!("expected work, got {other:?}"),
        }
    }

    fn is_idle(c: &mut Campaign, worker: &str, quota: usize) -> bool {
        matches!(c.try_claim("q", worker, quota).unwrap(), ClaimReply::Idle { .. })
    }

    #[test]
    fn reap_fires_only_past_the_deadline_and_aborts_the_runaway() {
        let clock = TestClock::at(1_000);
        let dir = share("reap");
        let mut c = campaign(&dir, 1, &clock, policy());
        let (exp, attempt, abort) = claim(&mut c, "w0");
        assert_eq!((exp, attempt), (0, 1));
        // Within the lease: nothing claimable, nothing reaped.
        clock.advance(999);
        assert!(is_idle(&mut c, "w1", 0));
        assert!(!abort.is_aborted());
        // Past the deadline: reaped, aborted, and (after backoff) reclaimed.
        clock.advance(2);
        assert!(is_idle(&mut c, "w1", 0), "backoff holds it");
        assert!(abort.is_aborted(), "runaway run aborted");
        assert_eq!(c.reclaimed(), 1);
        clock.advance(100);
        let (_, attempt2, _) = claim(&mut c, "w1");
        assert_eq!(attempt2, 2, "reclaim burns an attempt");
    }

    #[test]
    fn a_spool_lease_never_expires() {
        let clock = TestClock::at(1_000);
        let dir = share("spool-lease");
        let policy = NowConfig::new(1, 2, dir.to_path_buf()).scheduler_policy();
        let mut c = campaign(&dir, 2, &clock, policy);
        let ClaimReply::Work(first) = c.try_claim("spool", "ws0.slot0", 0).unwrap() else {
            panic!("expected work");
        };
        // A day later the first run is still going; another slot claims.
        clock.advance(24 * 60 * 60 * 1_000);
        let (exp, attempt, _) = claim(&mut c, "ws0.slot1");
        assert_eq!((exp, attempt), (1, 1), "the next experiment, not a retry");
        assert!(!first.abort.is_aborted(), "the first lease was not reaped");
        assert_eq!((c.reclaimed(), c.retries()), (0, 0));
        let report = c.report_done("ws0.slot0", None, done(&first, Outcome::StrictlyCorrect), "");
        assert_eq!(report.unwrap(), ReportAck::Accepted);
    }

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        // Drive the backoff directly (no probe claims): fail attempts
        // 1..=9 and read the reopen delay off the claim boundary.
        let clock = TestClock::at(0);
        let dir = share("backoff");
        let mut c = campaign(&dir, 1, &clock, policy());
        for attempt in 1..=9u64 {
            let (_, a, _) = claim(&mut c, "w");
            assert_eq!(a, attempt);
            c.report_failed(0, attempt, "w", "chaos").unwrap();
            let backoff = 100 * (1u64 << (attempt - 1).min(6));
            // One tick before the backoff elapses: still idle.
            clock.advance(backoff - 1);
            assert!(is_idle(&mut c, "w", 0), "attempt {attempt}: backoff {backoff}ms held");
            // At the boundary: claimable again.
            clock.advance(1);
        }
        // Attempts 7, 8 and 9 all used the 64× cap (6400 ms).
        let (_, a, _) = claim(&mut c, "w");
        assert_eq!(a, 10);
    }

    #[test]
    fn exhausted_retries_go_terminal() {
        let clock = TestClock::at(0);
        let dir = share("give-up");
        let mut c = campaign(&dir, 2, &clock, SchedulerPolicy { max_attempts: 2, ..policy() });
        for attempt in 1..=2u64 {
            let (exp, a, _) = claim(&mut c, "w");
            assert_eq!((exp, a), (0, attempt));
            c.report_failed(0, attempt, "w", "chaos").unwrap();
            clock.advance(100_000);
        }
        assert!(!c.is_done(), "second experiment still pending");
        let (exp, _, _) = claim(&mut c, "w");
        assert_eq!(exp, 1, "experiment 0 is terminal");
        let records = c.records();
        assert_eq!(records.len(), 1);
        assert_eq!((records[0].exp, records[0].outcome), (0, Outcome::Infrastructure));
        assert_eq!(records[0].attempts, 2);
        assert_eq!(c.table().count(Outcome::Infrastructure), 1);
        assert_campaign_files(&dir, &fixed_specs(2));
    }

    #[test]
    fn a_retried_report_is_journaled_once() {
        let clock = TestClock::at(0);
        let dir = share("retried-report");
        let mut c = campaign(&dir, 1, &clock, policy());
        let ClaimReply::Work(work) = c.try_claim("q", "w", 0).unwrap() else { panic!() };
        // A directory where a result file would go: a report that still
        // wrote one would fail after journaling `done`, and so would its
        // retry.
        std::fs::create_dir_all(dir.join("exp00000.result")).unwrap();
        let acks: Vec<_> =
            (0..2).map(|_| c.report_done("w", None, done(&work, Outcome::Sdc), "halted")).collect();
        let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
        let done_lines = events.iter().filter(|e| matches!(e, JournalEvent::Done { .. })).count();
        assert_eq!(done_lines, 1, "one `done` line per experiment, however often it is reported");
        let acks: Vec<_> = acks.into_iter().map(Result::unwrap).collect();
        assert_eq!(acks, [ReportAck::Accepted, ReportAck::Stale]);
        assert_eq!(c.table().total(), 1);
    }

    #[test]
    fn heartbeat_renews_the_lease_and_defers_the_reaper() {
        let clock = TestClock::at(0);
        let dir = share("hb");
        let mut c = campaign(&dir, 1, &clock, policy());
        let (exp, attempt, abort) = claim(&mut c, "w0");
        clock.advance(900);
        let renewed = c.heartbeat(exp, "w0", attempt).expect("owner renews");
        assert_eq!(renewed, 900 + 1_000);
        // Past the *original* deadline: the renewed lease holds.
        clock.advance(200);
        assert!(is_idle(&mut c, "w1", 0));
        assert!(!abort.is_aborted(), "renewed lease is not reaped");
        // Strangers, stale attempts and unknown experiments cannot renew.
        assert_eq!(c.heartbeat(exp, "w1", attempt), None);
        assert_eq!(c.heartbeat(exp, "w0", attempt + 1), None);
        assert_eq!(c.heartbeat(exp + 7, "w0", attempt), None);
        // Silence past the renewed deadline: reaped after all.
        clock.advance(1_000);
        let _ = c.try_claim("q", "w1", 0).unwrap();
        assert!(abort.is_aborted());
    }

    #[test]
    fn zombie_reports_are_stale_and_do_not_double_count() {
        let clock = TestClock::at(0);
        let dir = share("zombie");
        let mut c = campaign(&dir, 1, &clock, policy());
        let ClaimReply::Work(first) = c.try_claim("q", "w0", 0).unwrap() else { panic!() };
        // Reap w0, back off, re-claim as w1.
        clock.advance(1_001);
        assert!(is_idle(&mut c, "w1", 0));
        clock.advance(100);
        let ClaimReply::Work(second) = c.try_claim("q", "w1", 0).unwrap() else { panic!() };
        assert_eq!((second.exp, second.attempt), (first.exp, first.attempt + 1));
        // The zombie's late result is dropped...
        let ack = c.report_done("w0", None, done(&first, Outcome::Sdc), "zombie").unwrap();
        assert_eq!(ack, ReportAck::Stale);
        assert!(c.records().is_empty(), "no terminal record from the zombie");
        // ...and the live attempt's result lands.
        let ack = c.report_done("w1", None, done(&second, Outcome::Correct), "halted").unwrap();
        assert_eq!(ack, ReportAck::Accepted);
        assert!(c.is_done());
        assert_eq!(c.records()[0].outcome, Outcome::Correct);
        // A double-report of the finished attempt is also stale, as is a
        // report for an experiment that was never drawn.
        let ack = c.report_done("w1", None, done(&second, Outcome::Sdc), "dup").unwrap();
        assert_eq!(ack, ReportAck::Stale);
        assert_eq!(c.report_failed(41, 1, "w1", "lost").unwrap(), ReportAck::Stale);
        assert_eq!(c.table().total(), 1);
    }

    #[test]
    fn a_full_quota_of_dead_leases_is_still_reaped() {
        let clock = TestClock::at(0);
        let dir = share("quota");
        let mut c = campaign(&dir, 3, &clock, policy());
        let quota = 2;
        for worker in ["w0", "w1"] {
            assert!(matches!(c.try_claim("q", worker, quota).unwrap(), ClaimReply::Work(_)));
        }
        assert!(is_idle(&mut c, "w2", quota), "quota caps the outstanding leases");
        // Both holders die. The quota must not shield their leases from
        // the reaper, or the queue would idle forever.
        clock.advance(1_001);
        assert!(matches!(c.try_claim("q", "w2", quota).unwrap(), ClaimReply::Work(_)));
        assert_eq!(c.reclaimed(), 2);
    }

    // ---- seeded schedules -------------------------------------------------

    const CELLS: [CellKind; 3] = [
        CellKind::Class(LocationClass::IntReg),
        CellKind::Class(LocationClass::FpReg),
        CellKind::Class(LocationClass::Pc),
    ];

    /// The outcome the "simulator" of a schedule test reports for `exp`.
    fn outcome_of(exp: usize) -> Outcome {
        Outcome::ALL[SplitMix64::new(exp as u64).below(5) as usize]
    }

    fn open(
        dir: &Path,
        adaptive: bool,
        resume: bool,
        clock: &TestClock,
        policy: SchedulerPolicy,
    ) -> Campaign {
        let plan = if adaptive {
            let config = AdaptiveConfig {
                ci_halfwidth: 0.3,
                min_n: 6,
                budget: 48,
                batch: 4,
                cells: CELLS.to_vec(),
                ..AdaptiveConfig::default()
            };
            Plan::adaptive(config, 9, prepared().stage_events)
        } else {
            fixed_plan(24)
        };
        Campaign::open(dir, prepared(), plan, resume, Arc::new(clock.clone()), policy, 2).unwrap()
    }

    /// Where a schedule ended: the pooled table, `(outcome, attempts)` per
    /// experiment, and the per-cell `(decision, n, drawn)` of an adaptive
    /// plan.
    #[derive(Debug, PartialEq)]
    struct Ending {
        table: OutcomeTable,
        records: Vec<(Outcome, u64)>,
        cells: Vec<(String, u64, u64)>,
    }

    fn ending(c: &Campaign) -> Ending {
        let records = c.records();
        assert!(records.iter().enumerate().all(|(i, r)| r.exp == i), "records in exp order");
        Ending {
            table: c.table(),
            records: records.iter().map(|r| (r.outcome, r.attempts)).collect(),
            cells: c.sequential().map_or_else(Vec::new, |(config, state)| {
                let cell = |r: crate::CellReport| (r.decision.to_string(), r.n, r.drawn);
                state.reports(config.z).into_iter().map(cell).collect()
            }),
        }
    }

    /// A slot state as far as its journal records it: the variant, the
    /// attempt(s), the lease owner, the outcome and the ticks. The abort
    /// token, the backoff's `not_before_ms`, the lease deadline (heartbeats
    /// renew it in memory only) and `resumed` are not journaled.
    fn journaled(state: &ExpState) -> String {
        match state {
            ExpState::Pending { attempts, .. } => format!("pending, {attempts} attempts burned"),
            ExpState::Leased { attempt, worker, .. } => {
                format!("attempt {attempt} leased by {worker}")
            }
            ExpState::Terminal(d) => {
                format!(
                    "exp {} {:?} on attempt {} after {} ticks",
                    d.exp, d.outcome, d.attempts, d.ticks
                )
            }
        }
    }

    /// Replays the journal `c` has written so far and asserts that every
    /// drawn slot is in the state the replay yields for it.
    fn assert_live_table_is_its_journal_fold(c: &Campaign, dir: &Path, adaptive: bool) {
        let events = Journal::replay(&Journal::path_in(dir)).unwrap();
        let fold = CampaignState::from_events(&events, (!adaptive).then_some(24)).unwrap();
        let live: Vec<_> = c.slots.iter().map(|slot| journaled(&slot.state)).collect();
        assert_eq!(live, fold.experiments.iter().map(journaled).collect::<Vec<_>>());
    }

    /// Runs one campaign to its end under a seeded interleaving of claims,
    /// heartbeats, reports, failures, zombie reports, clock jumps and
    /// kill-and-resume (`chaotic`), or straight through (claim, report,
    /// repeat), then checks what every schedule must leave behind.
    fn run_schedule(seed: u64, adaptive: bool, max_attempts: u64, chaotic: bool) -> Ending {
        let dir = share(&format!("sched-{seed}-{adaptive}-{max_attempts}-{chaotic}"));
        let clock = TestClock::at(1_000);
        let mut rng = SplitMix64::new(seed);
        let base =
            SchedulerPolicy { lease_ms: 1_000, max_attempts, backoff_ms: 10, idle_backoff_ms: 1 };
        let mut c = open(&dir, adaptive, false, &clock, base.clone());
        // Every assignment ever handed out and not yet reported — live
        // attempts and zombies alike.
        let mut in_flight: Vec<WorkAssignment> = Vec::new();
        let mut steps = 0;
        while !c.is_done() {
            steps += 1;
            assert!(steps < 20_000, "schedule {seed} does not terminate");
            // Chaos for a while, then drain straight through.
            let chaotic = chaotic && steps <= 300;
            let roll = if chaotic { rng.below(100) } else { 0 };
            let pick = |rng: &mut SplitMix64, n: usize| rng.below(n as u64) as usize;
            match roll {
                0..=34 => {
                    let worker = format!("w{}", rng.below(3));
                    let quota = if chaotic { [0, 0, 3][pick(&mut rng, 3)] } else { 0 };
                    match c.try_claim("q", &worker, quota).unwrap() {
                        ClaimReply::Work(work) => {
                            assert!(work.attempt <= max_attempts, "attempt cap: {work:?}");
                            in_flight.push(work);
                        }
                        ClaimReply::Idle { .. } if chaotic => {}
                        ClaimReply::Idle { .. } => clock.advance(10),
                        // The claim's reap gave up on the last open slot.
                        ClaimReply::Complete => assert!(c.is_done()),
                    }
                }
                35..=59 if !in_flight.is_empty() => {
                    let work = in_flight.swap_remove(pick(&mut rng, in_flight.len()));
                    let ws = Some(pick(&mut rng, 2));
                    c.report_done("w", ws, done(&work, outcome_of(work.exp)), "halted").unwrap();
                }
                60..=69 if !in_flight.is_empty() => {
                    let work = in_flight.swap_remove(pick(&mut rng, in_flight.len()));
                    c.report_failed(work.exp, work.attempt, "w", "chaos").unwrap();
                }
                70..=77 if !in_flight.is_empty() => {
                    let work = &in_flight[pick(&mut rng, in_flight.len())];
                    c.heartbeat(work.exp, &format!("w{}", rng.below(3)), work.attempt);
                }
                // A report whose sender stays in flight: its second report
                // (or the first, if the reaper got there before) is a zombie's.
                78..=81 if !in_flight.is_empty() => {
                    let work = &in_flight[pick(&mut rng, in_flight.len())];
                    c.report_done("w", None, done(work, outcome_of(work.exp)), "halted").unwrap();
                }
                82..=93 => clock.advance(1 + rng.below(40)),
                94..=97 => clock.advance(1_001 + rng.below(2_000)),
                // kill -9 between two transitions: leases stay on the share.
                98..=99 => {
                    drop(c);
                    c = open(&dir, adaptive, true, &clock, base.clone());
                }
                _ => {}
            }
            if !chaotic {
                for work in in_flight.drain(..) {
                    c.report_done("w", None, done(&work, outcome_of(work.exp)), "halted").unwrap();
                }
            } else {
                assert_live_table_is_its_journal_fold(&c, &dir, adaptive);
            }
        }

        // Whoever is still out there is a zombie now.
        for work in in_flight {
            let ack = c.report_done("w", None, done(&work, Outcome::Sdc), "zombie").unwrap();
            assert_eq!(ack, ReportAck::Stale, "{work:?}");
        }
        let end = ending(&c);
        let (terminal, drawn, leased) = c.progress();
        assert_eq!((terminal, leased), (drawn, 0), "table.total() == drawn, nothing leased");
        assert_eq!(end.records.len() as u64, drawn);
        assert!(end.records.iter().all(|&(_, attempts)| attempts <= max_attempts));
        // The journal holds exactly one terminal event per experiment and
        // no lease past the attempt cap; the share holds no per-experiment
        // file.
        let mut terminal_events = vec![0; drawn as usize];
        for event in Journal::replay(&Journal::path_in(&dir)).unwrap() {
            match event {
                JournalEvent::Done { exp, .. } | JournalEvent::Failed { exp, .. } => {
                    terminal_events[exp as usize] += 1;
                }
                JournalEvent::Leased { attempt, .. } => assert!(attempt <= max_attempts),
                _ => {}
            }
        }
        assert!(terminal_events.iter().all(|&n| n == 1), "{terminal_events:?}");
        let per_experiment = std::fs::read_dir(&*dir).unwrap().filter(|entry| {
            entry.as_ref().unwrap().file_name().to_string_lossy().starts_with("exp")
        });
        assert_eq!(per_experiment.count(), 0, "no per-experiment file on the share");
        // Replaying the finished journal reproduces the live table: the
        // state an experiment reports from is the state replay yields.
        drop(c);
        let replayed = open(&dir, adaptive, true, &clock, base);
        assert!(replayed.is_done());
        assert_eq!(replayed.resumed() as u64, drawn);
        assert_eq!(ending(&replayed), end);
        end
    }

    /// Pinned schedule seeds; add the seed of any schedule that ever fails.
    const SEEDS: [u64; 6] = [1, 2, 3, 0xdead_beef, 0x5eed_0017, 0xffff_ffff_ffff_fff1];

    #[test]
    fn seeded_schedules_never_lose_or_double_count_an_experiment() {
        // A tight retry cap: chaos drives experiments into the
        // infrastructure bucket, so only the invariants checked inside
        // `run_schedule` hold — and every experiment is still accounted for.
        let mut given_up = 0;
        for seed in SEEDS {
            for adaptive in [false, true] {
                let end = run_schedule(seed, adaptive, 2, true);
                assert!(end.table.total() >= 24, "seed {seed}: {end:?}");
                given_up += end.table.count(Outcome::Infrastructure);
            }
        }
        assert!(given_up > 0, "the schedules must reach the retry cap to test it");
    }

    #[test]
    fn interrupted_schedules_end_where_an_uninterrupted_campaign_does() {
        // With retries to spare no experiment is given up on, so any
        // interleaving — kills and resumes included — must reach
        // the straight-through campaign's table, records and decisions.
        for adaptive in [false, true] {
            let straight = run_schedule(0, adaptive, 1_000, false);
            assert_eq!(straight.table.count(Outcome::Infrastructure), 0);
            for seed in SEEDS {
                let mut chaotic = run_schedule(seed, adaptive, 1_000, true);
                assert!(chaotic.records.iter().any(|&(_, attempts)| attempts > 1), "seed {seed}");
                // Attempts burned are the schedule's; everything else is not.
                for (record, reference) in chaotic.records.iter_mut().zip(&straight.records) {
                    record.1 = reference.1;
                }
                assert_eq!(chaotic, straight, "seed {seed}, adaptive {adaptive}");
            }
        }
    }

    // ---- the replay fold ---------------------------------------------------

    #[test]
    fn state_folding_tracks_lifecycles() {
        let state = CampaignState::from_events(&sample_events(), Some(3)).unwrap();
        let done = state.experiments[0].terminal().expect("exp 0 finished");
        assert_eq!(
            (done.exp, done.outcome, done.attempts, done.ticks),
            (0, Outcome::Sdc, 1, 12_345)
        );
        assert!(done.resumed, "replayed records are marked as such");
        assert!(matches!(
            state.experiments[1],
            ExpState::Pending { attempts: 1, not_before_ms: 0 }
        ));
        let failed = state.experiments[2].terminal().expect("exp 2 gave up");
        assert_eq!(
            (failed.outcome, failed.attempts, failed.ticks),
            (Outcome::Infrastructure, 3, 0)
        );
        assert_eq!(state.drawn, vec![("fp-reg".to_string(), 0)]);
    }

    #[test]
    fn duplicate_done_keeps_the_first_record() {
        let mut events = sample_events();
        events.push(JournalEvent::Done {
            exp: 0,
            attempt: 2,
            outcome: Outcome::Crashed,
            exit: "zombie".into(),
            ticks: 1,
        });
        let state = CampaignState::from_events(&events, Some(3)).unwrap();
        let done = state.experiments[0].terminal().expect("exp 0 finished");
        assert_eq!((done.outcome, done.attempts, done.ticks), (Outcome::Sdc, 1, 12_345));
    }

    #[test]
    fn out_of_range_experiments_are_rejected() {
        let events =
            vec![JournalEvent::Failed { exp: 9, attempts: 1, reason: "x".into(), spec: None }];
        assert!(CampaignState::from_events(&events, Some(3)).is_err());
        // An adaptive journal's experiments exist once drawn, not before.
        assert!(CampaignState::from_events(&events, None).is_err());
    }

    /// The replayed state of the only experiment of a fixed-n campaign
    /// whose journal holds `events`.
    fn replayed(events: &[JournalEvent]) -> ExpState {
        CampaignState::from_events(events, Some(1)).unwrap().experiments.remove(0)
    }

    fn leased(attempt: u64) -> JournalEvent {
        JournalEvent::Leased { exp: 0, worker: format!("w{attempt}"), attempt, deadline_ms: 7 }
    }

    fn attempt_failed(attempt: u64) -> JournalEvent {
        let (worker, reason) = ("w".into(), "boom".into());
        JournalEvent::AttemptFailed { exp: 0, attempt, worker, reason, spec: None }
    }

    #[test]
    fn a_dangling_lease_replays_as_an_orphan() {
        let state = replayed(&[leased(1)]);
        let ExpState::Leased { attempt, deadline_ms, worker, .. } = state else {
            panic!("expected an orphan, got {state:?}")
        };
        assert_eq!((attempt, deadline_ms, worker.as_str()), (1, 7, "w1"));
    }

    #[test]
    fn a_lease_whose_attempt_failed_is_not_an_orphan() {
        let state = replayed(&[leased(1), attempt_failed(1)]);
        assert!(matches!(state, ExpState::Pending { attempts: 1, .. }), "{state:?}");
    }

    #[test]
    fn a_dangling_lease_after_a_failed_attempt_is_an_orphan_of_the_later_attempt() {
        let state = replayed(&[attempt_failed(1), leased(2)]);
        assert!(matches!(state, ExpState::Leased { attempt: 2, .. }), "{state:?}");
    }
}
