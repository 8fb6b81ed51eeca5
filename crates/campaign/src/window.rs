//! The backend-neutral window scheduler: one execution window's
//! claim/lease/heartbeat/result-fold state machine.
//!
//! One round of a campaign ([`crate::now::Campaign`]) runs as one window,
//! whichever transport its workers arrive by: the spool backend locks the
//! campaign from in-process worker threads, the campaign server locks one
//! per queue on behalf of remote workers. Everything an attempt's lifecycle
//! touches — the journal append, the lease file, the retry backoff, the
//! reaper, the result spool file — happens inside this type, so a
//! recovery-path fix lands on both backends at once.
//!
//! All timing goes through an injected [`Clock`]: tests drive lease
//! expiry, reaping and capped backoff by advancing a [`TestClock`]
//! instead of sleeping through real lease windows.
//!
//! [`TestClock`]: crate::clock::TestClock

use crate::clock::Clock;
use crate::journal::{Journal, JournalEvent};
use crate::lease::LeaseDir;
use crate::now::CompletedExperiment;
use gemfi::{AbortToken, FaultSpec, Outcome};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Fault-tolerance policy of one window (derived from `NowConfig` or the
/// server's queue configuration).
#[derive(Debug, Clone)]
pub(crate) struct SchedulerPolicy {
    /// Lease duration in milliseconds.
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
    /// Chaos: stop scheduling after this many experiments finish in this
    /// process (counted across windows via `finished_before`).
    pub halt_after: Option<usize>,
}

/// What a claim attempt produced.
#[derive(Debug)]
pub(crate) enum ClaimOutcome {
    /// A leased experiment.
    Work {
        /// Global experiment index.
        exp: usize,
        /// 1-based attempt now under lease.
        attempt: u64,
        /// Lease expiry (scheduler clock, ms since epoch).
        deadline_ms: u64,
        /// The fault to inject.
        spec: FaultSpec,
        /// Abort token the reaper will raise if the lease expires.
        abort: AbortToken,
    },
    /// Everything pending is leased or backing off; retry later.
    Idle,
    /// The window is terminal (or the chaos halt tripped): stop claiming.
    Complete,
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

/// Per-experiment scheduler state (the in-process mirror of the on-share
/// lease/journal truth).
#[derive(Debug)]
enum Slot {
    /// Waiting to run; `attempts` already burned, claimable at
    /// `not_before_ms`.
    Pending { attempts: u64, not_before_ms: u64 },
    /// In flight under a lease.
    Leased { attempt: u64, deadline_ms: u64, worker: String, abort: AbortToken },
    /// Finished (outcome journaled).
    Done,
    /// Terminally failed in the harness.
    Failed,
}

/// Everything one window is built from.
pub(crate) struct WindowSpec {
    /// The share the window's lease and result files live on.
    pub share: PathBuf,
    /// Time source for leases and backoffs.
    pub clock: Arc<dyn Clock>,
    /// Fault-tolerance policy.
    pub policy: SchedulerPolicy,
    /// The campaign journal; the window appends to it while it lives.
    pub journal: Journal,
    /// Global experiment index per local slot.
    pub exps: Vec<usize>,
    /// Fault spec per local slot.
    pub specs: Vec<FaultSpec>,
    /// Attempts already burned per local slot (by dead workers of an
    /// earlier campaign process).
    pub attempts: Vec<u64>,
    /// Sizes the spool load-balance vector (0 is fine for the server).
    pub workstations: usize,
    /// Experiments finished in this process by earlier windows.
    pub finished_before: usize,
}

/// What a finished window hands back to its campaign.
pub(crate) struct WindowParts {
    /// The campaign journal.
    pub journal: Journal,
    /// Terminal records in local-slot order ([`None`] where the chaos halt
    /// cut the window short).
    pub completed: Vec<Option<CompletedExperiment>>,
    /// Experiments finished per workstation index.
    pub per_ws: Vec<usize>,
    /// Experiments finished per worker name.
    pub per_worker: BTreeMap<String, usize>,
    /// Failed attempts retried.
    pub retries: u64,
    /// Expired leases broken.
    pub reclaimed: u64,
    /// Experiments that reached a terminal state in this window.
    pub finished_here: usize,
}

/// The scheduler of one execution window: the not-yet-terminal experiments
/// of one campaign round, run together over a worker pool. A fixed-n
/// campaign is a single window covering every experiment; an adaptive
/// campaign runs one window per sampling round.
#[derive(Debug)]
pub(crate) struct WindowScheduler {
    /// Local slot → global experiment index.
    exps: Vec<usize>,
    /// Global experiment index → local slot.
    by_exp: BTreeMap<usize, usize>,
    /// Fault spec per local slot.
    specs: Vec<FaultSpec>,
    slots: Vec<Slot>,
    journal: Journal,
    completed: Vec<Option<CompletedExperiment>>,
    /// Experiments finished per worker name (server metrics).
    per_worker: BTreeMap<String, usize>,
    /// Experiments finished per workstation index (spool load balance).
    per_ws: Vec<usize>,
    retries: u64,
    reclaimed: u64,
    terminal: usize,
    finished_here: usize,
    /// Experiments finished in this process by *earlier* windows — keeps
    /// the chaos halt a per-process count across rounds.
    finished_before: usize,
    halted: bool,
    share: PathBuf,
    leases: LeaseDir,
    clock: Arc<dyn Clock>,
    policy: SchedulerPolicy,
}

/// The fault-configuration spool file for experiment `i`.
pub(crate) fn fault_path(share: &Path, i: usize) -> PathBuf {
    share.join(format!("exp{i:05}.fault"))
}

/// The result spool file for experiment `i`.
pub(crate) fn result_path(share: &Path, i: usize) -> PathBuf {
    share.join(format!("exp{i:05}.result"))
}

/// The mid-run snapshot file for experiment `i` (crash-resume state; local
/// scratch, deleted on terminal completion).
pub(crate) fn snapshot_path(share: &Path, i: usize) -> PathBuf {
    share.join(format!("exp{i:05}.snap"))
}

impl WindowScheduler {
    /// Builds a window with every slot pending.
    pub(crate) fn new(spec: WindowSpec) -> WindowScheduler {
        let WindowSpec {
            share,
            clock,
            policy,
            journal,
            exps,
            specs,
            attempts,
            workstations,
            finished_before,
        } = spec;
        debug_assert!(exps.len() == specs.len() && exps.len() == attempts.len());
        let by_exp = exps.iter().enumerate().map(|(local, &exp)| (exp, local)).collect();
        WindowScheduler {
            by_exp,
            slots: attempts
                .into_iter()
                .map(|attempts| Slot::Pending { attempts, not_before_ms: 0 })
                .collect(),
            completed: vec![None; exps.len()],
            exps,
            specs,
            journal,
            per_worker: BTreeMap::new(),
            per_ws: vec![0; workstations],
            retries: 0,
            reclaimed: 0,
            terminal: 0,
            finished_here: 0,
            finished_before,
            halted: false,
            leases: LeaseDir::new(&share),
            share,
            clock,
            policy,
        }
    }

    /// Claims the next runnable experiment for `worker`: reaps expired
    /// leases first, then leases the first pending slot whose backoff has
    /// elapsed (journal + lease file + schedule, in that order).
    ///
    /// # Errors
    ///
    /// I/O errors from the journal or lease directory.
    pub(crate) fn try_claim(&mut self, worker: &str) -> std::io::Result<ClaimOutcome> {
        if self.halted || self.terminal == self.exps.len() {
            return Ok(ClaimOutcome::Complete);
        }
        self.reap_expired()?;
        if self.halted {
            return Ok(ClaimOutcome::Complete);
        }
        let now = self.clock.now_ms();
        let pick = self.slots.iter().position(
            |slot| matches!(slot, Slot::Pending { not_before_ms, .. } if now >= *not_before_ms),
        );
        let Some(local) = pick else { return Ok(ClaimOutcome::Idle) };
        let Slot::Pending { attempts, .. } = self.slots[local] else { unreachable!() };
        let exp = self.exps[local];
        let attempt = attempts + 1;
        let deadline_ms = now + self.policy.lease_ms;
        let lease = self
            .leases
            .claim(exp, worker, attempt, deadline_ms)?
            .expect("scheduler state guarantees the lease is free");
        let abort = AbortToken::new();
        self.journal.append(&JournalEvent::Leased {
            exp: exp as u64,
            worker: worker.to_string(),
            attempt,
            deadline_ms: lease.deadline_ms,
        })?;
        self.slots[local] =
            Slot::Leased { attempt, deadline_ms, worker: worker.to_string(), abort: abort.clone() };
        Ok(ClaimOutcome::Work { exp, attempt, deadline_ms, spec: self.specs[local], abort })
    }

    /// Renews the lease on an in-flight attempt (the heartbeat path).
    /// Returns the new deadline, or `None` when the caller no longer owns
    /// the experiment (reaped, reassigned, or already terminal) and must
    /// abandon the window.
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
        let Some(&local) = self.by_exp.get(&exp) else { return Ok(None) };
        let owns = matches!(
            &self.slots[local],
            Slot::Leased { attempt: a, worker: w, .. } if *a == attempt && w == worker
        );
        if !owns {
            return Ok(None);
        }
        let new_deadline = self.clock.now_ms() + self.policy.lease_ms;
        if !self.leases.renew(exp, worker, attempt, new_deadline)? {
            // The lease file vanished under us (external reaper on a real
            // share); surrender rather than resurrect it.
            return Ok(None);
        }
        if let Slot::Leased { deadline_ms, .. } = &mut self.slots[local] {
            *deadline_ms = new_deadline;
        }
        Ok(Some(new_deadline))
    }

    /// Folds a successful terminal outcome: journal, result file,
    /// schedule, metrics. A report for an attempt the scheduler no longer
    /// considers leased is a zombie and is dropped ([`ReportAck::Stale`]).
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
        let Some(&local) = self.by_exp.get(&exp) else { return Ok(ReportAck::Stale) };
        let still_mine =
            matches!(self.slots[local], Slot::Leased { attempt: a, .. } if a == attempt);
        if !still_mine {
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
            format!("{} outcome={} exit={}\n", self.specs[local], outcome, exit),
        )?;
        self.leases.release(exp)?;
        self.slots[local] = Slot::Done;
        self.completed[local] = Some(done);
        if let Some(ws) = ws {
            if let Some(n) = self.per_ws.get_mut(ws) {
                *n += 1;
            }
        }
        *self.per_worker.entry(worker.to_string()).or_insert(0) += 1;
        self.terminal += 1;
        self.finished_here += 1;
        self.check_halt();
        Ok(ReportAck::Accepted)
    }

    /// Folds a failed attempt (panic, abort, simulated death): back to
    /// pending with capped backoff, or terminally
    /// [`Outcome::Infrastructure`] once retries are exhausted. Zombie
    /// reports are dropped.
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
        let Some(&local) = self.by_exp.get(&exp) else { return Ok(ReportAck::Stale) };
        let still_mine =
            matches!(self.slots[local], Slot::Leased { attempt: a, .. } if a == attempt);
        if !still_mine {
            return Ok(ReportAck::Stale);
        }
        self.attempt_failed(local, attempt, worker, reason)?;
        self.check_halt();
        Ok(ReportAck::Accepted)
    }

    /// Transitions a failed attempt: back to pending with backoff, or
    /// terminally failed once retries are exhausted. The experiment's
    /// rendered fault spec is journaled alongside the failure so an
    /// `Infrastructure` row carries its own reproduction handle.
    fn attempt_failed(
        &mut self,
        local: usize,
        attempt: u64,
        worker: &str,
        reason: &str,
    ) -> std::io::Result<()> {
        let exp = self.exps[local];
        let spec = self.specs[local].to_string();
        self.journal.append(&JournalEvent::AttemptFailed {
            exp: exp as u64,
            attempt,
            worker: worker.to_string(),
            reason: reason.to_string(),
            spec: Some(spec.clone()),
        })?;
        self.leases.release(exp)?;
        if attempt >= self.policy.max_attempts {
            self.journal.append(&JournalEvent::Failed {
                exp: exp as u64,
                attempts: attempt,
                reason: reason.to_string(),
                spec: Some(spec),
            })?;
            std::fs::write(
                result_path(&self.share, exp),
                format!("outcome={} attempts={attempt} reason={reason}\n", Outcome::Infrastructure),
            )?;
            self.slots[local] = Slot::Failed;
            self.completed[local] = Some(CompletedExperiment {
                exp,
                outcome: Outcome::Infrastructure,
                attempts: attempt,
                ticks: 0,
                resumed: false,
            });
            self.terminal += 1;
            self.finished_here += 1;
        } else {
            self.retries += 1;
            // Capped exponential backoff: base × 2^(attempt-1), at most 64×.
            let factor = 1u64 << (attempt - 1).min(6);
            let backoff = self.policy.backoff_ms * factor;
            self.slots[local] =
                Slot::Pending { attempts: attempt, not_before_ms: self.clock.now_ms() + backoff };
        }
        Ok(())
    }

    /// Breaks expired leases (raising the runaway runs' abort tokens) and
    /// requeues or terminally fails their experiments.
    fn reap_expired(&mut self) -> std::io::Result<()> {
        let now = self.clock.now_ms();
        for local in 0..self.slots.len() {
            let Slot::Leased { attempt, deadline_ms, ref abort, .. } = self.slots[local] else {
                continue;
            };
            if now <= deadline_ms {
                continue;
            }
            abort.abort();
            let held = self.leases.reap(self.exps[local], now)?;
            let worker = held.map(|l| l.worker).unwrap_or_else(|| "unknown".into());
            self.reclaimed += 1;
            self.attempt_failed(local, attempt, &worker, "lease expired")?;
            self.check_halt();
        }
        Ok(())
    }

    fn check_halt(&mut self) {
        if self.policy.halt_after.is_some_and(|n| self.finished_before + self.finished_here >= n) {
            self.halted = true;
        }
    }

    /// Whether every slot is terminal.
    pub(crate) fn is_complete(&self) -> bool {
        self.terminal == self.exps.len()
    }

    /// `(terminal, total)` progress of the window.
    pub(crate) fn progress(&self) -> (usize, usize) {
        (self.terminal, self.exps.len())
    }

    /// Currently-leased slot count (quota accounting).
    pub(crate) fn leased(&self) -> usize {
        self.slots.iter().filter(|s| matches!(s, Slot::Leased { .. })).count()
    }

    /// Failed attempts retried so far.
    pub(crate) fn retries(&self) -> u64 {
        self.retries
    }

    /// Expired leases broken so far (including any counted at seeding).
    pub(crate) fn reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Per-worker completion counts.
    pub(crate) fn per_worker(&self) -> &BTreeMap<String, usize> {
        &self.per_worker
    }

    /// Terminal records in local-slot order (None while unfinished).
    pub(crate) fn completed(&self) -> &[Option<CompletedExperiment>] {
        &self.completed
    }

    /// Whether the chaos halt stopped the window short of completion.
    pub(crate) fn halted(&self) -> bool {
        self.halted
    }

    /// Tears the window down into what its campaign folds.
    pub(crate) fn into_parts(self) -> WindowParts {
        WindowParts {
            journal: self.journal,
            completed: self.completed,
            per_ws: self.per_ws,
            per_worker: self.per_worker,
            retries: self.retries,
            reclaimed: self.reclaimed,
            finished_here: self.finished_here,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::TestClock;
    use gemfi::{FaultBehavior, FaultLocation, FaultSpec, FaultTiming};

    fn spec(reg: u8) -> FaultSpec {
        FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg },
            thread: 0,
            timing: FaultTiming::Instructions(10),
            behavior: FaultBehavior::Flip(1),
            occurrences: 1,
        }
    }

    fn scheduler(
        tag: &str,
        n: usize,
        clock: TestClock,
        policy: SchedulerPolicy,
    ) -> WindowScheduler {
        let share = std::env::temp_dir().join(format!("gemfi-window-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&share);
        std::fs::create_dir_all(&share).unwrap();
        let journal = Journal::open(&share).unwrap();
        WindowScheduler::new(WindowSpec {
            share,
            clock: Arc::new(clock),
            policy,
            journal,
            exps: (0..n).collect(),
            specs: (0..n).map(|i| spec(i as u8 + 1)).collect(),
            attempts: vec![0; n],
            workstations: 1,
            finished_before: 0,
        })
    }

    fn policy() -> SchedulerPolicy {
        SchedulerPolicy {
            lease_ms: 1_000,
            max_attempts: 10,
            backoff_ms: 100,
            idle_backoff_ms: 1,
            halt_after: None,
        }
    }

    fn done(exp: usize, attempt: u64, outcome: Outcome) -> CompletedExperiment {
        CompletedExperiment { exp, outcome, attempts: attempt, ticks: 9, resumed: false }
    }

    fn claim_exp(s: &mut WindowScheduler, worker: &str) -> (usize, u64, AbortToken) {
        match s.try_claim(worker).unwrap() {
            ClaimOutcome::Work { exp, attempt, abort, .. } => (exp, attempt, abort),
            other => panic!("expected work, got {other:?}"),
        }
    }

    #[test]
    fn reap_fires_only_past_the_deadline_and_aborts_the_runaway() {
        let clock = TestClock::at(1_000);
        let mut s = scheduler("reap", 1, clock.clone(), policy());
        let (exp, attempt, abort) = claim_exp(&mut s, "w0");
        assert_eq!((exp, attempt), (0, 1));
        // Within the lease: nothing claimable, nothing reaped.
        clock.advance(999);
        assert!(matches!(s.try_claim("w1").unwrap(), ClaimOutcome::Idle));
        assert!(!abort.is_aborted());
        // Past the deadline: reaped, aborted, and (after backoff) reclaimed.
        clock.advance(2);
        assert!(matches!(s.try_claim("w1").unwrap(), ClaimOutcome::Idle), "backoff holds it");
        assert!(abort.is_aborted(), "runaway run aborted");
        assert_eq!(s.reclaimed(), 1);
        clock.advance(100);
        let (_, attempt2, _) = claim_exp(&mut s, "w1");
        assert_eq!(attempt2, 2, "reclaim burns an attempt");
    }

    #[test]
    fn backoff_schedule_is_capped_exponential() {
        // Drive the backoff directly (no probe claims): fail attempts
        // 1..=9 and read the reopen delay off the claim boundary.
        let clock = TestClock::at(0);
        let mut s = scheduler("backoff2", 1, clock.clone(), policy());
        for attempt in 1..=9u64 {
            let (_, a, _) = claim_exp(&mut s, "w");
            assert_eq!(a, attempt);
            s.report_failed(0, attempt, "w", "chaos").unwrap();
            let backoff = 100 * (1u64 << (attempt - 1).min(6));
            // One tick before the backoff elapses: still idle.
            clock.advance(backoff - 1);
            assert!(
                matches!(s.try_claim("w").unwrap(), ClaimOutcome::Idle),
                "attempt {attempt}: backoff {backoff}ms held"
            );
            // At the boundary: claimable again.
            clock.advance(1);
        }
        // Attempts 7, 8 and 9 all used the 64× cap (6400 ms).
        let (_, a, _) = claim_exp(&mut s, "w");
        assert_eq!(a, 10);
    }

    #[test]
    fn exhausted_retries_go_terminal_with_result_file() {
        let clock = TestClock::at(0);
        let mut s =
            scheduler("exhaust", 2, clock.clone(), SchedulerPolicy { max_attempts: 2, ..policy() });
        for attempt in 1..=2u64 {
            let (exp, a, _) = claim_exp(&mut s, "w");
            assert_eq!((exp, a), (0, attempt));
            s.report_failed(0, attempt, "w", "chaos").unwrap();
            clock.advance(100_000);
        }
        assert!(!s.is_complete(), "second experiment still pending");
        let (exp, _, _) = claim_exp(&mut s, "w");
        assert_eq!(exp, 1, "experiment 0 is terminal");
        let done = s.completed()[0].clone().expect("terminal record");
        assert_eq!(done.outcome, Outcome::Infrastructure);
        assert_eq!(done.attempts, 2);
        assert!(result_path(&s.share, 0).exists(), "infra failure writes a result");
        std::fs::remove_dir_all(s.share.clone()).ok();
    }

    #[test]
    fn heartbeat_renews_the_lease_and_defers_the_reaper() {
        let clock = TestClock::at(0);
        let mut s = scheduler("hb", 1, clock.clone(), policy());
        let (exp, attempt, abort) = claim_exp(&mut s, "w0");
        clock.advance(900);
        let renewed = s.heartbeat(exp, "w0", attempt).unwrap().expect("owner renews");
        assert_eq!(renewed, 900 + 1_000);
        // Past the *original* deadline: the renewed lease holds.
        clock.advance(200);
        assert!(matches!(s.try_claim("w1").unwrap(), ClaimOutcome::Idle));
        assert!(!abort.is_aborted(), "renewed lease is not reaped");
        // Strangers and stale attempts cannot renew.
        assert_eq!(s.heartbeat(exp, "w1", attempt).unwrap(), None);
        assert_eq!(s.heartbeat(exp, "w0", attempt + 1).unwrap(), None);
        // Silence past the renewed deadline: reaped after all.
        clock.advance(1_000);
        let _ = s.try_claim("w1").unwrap();
        assert!(abort.is_aborted());
    }

    #[test]
    fn zombie_reports_are_stale_and_do_not_double_count() {
        let clock = TestClock::at(0);
        let mut s = scheduler("zombie", 1, clock.clone(), policy());
        let (exp, attempt, _) = claim_exp(&mut s, "w0");
        // Reap w0, back off, re-claim as w1.
        clock.advance(1_001);
        assert!(matches!(s.try_claim("w1").unwrap(), ClaimOutcome::Idle));
        clock.advance(100);
        let (_, attempt2, _) = claim_exp(&mut s, "w1");
        assert_eq!(attempt2, attempt + 1);
        // The zombie's late result is dropped...
        assert_eq!(
            s.report_done("w0", None, done(exp, attempt, Outcome::Sdc), "zombie").unwrap(),
            ReportAck::Stale
        );
        assert!(s.completed()[0].is_none(), "no terminal record from the zombie");
        // ...and the live attempt's result lands.
        assert_eq!(
            s.report_done(
                "w1",
                None,
                done(exp, attempt2, Outcome::Correct),
                "halted (exit code 0)"
            )
            .unwrap(),
            ReportAck::Accepted
        );
        assert!(s.is_complete());
        assert_eq!(s.completed()[0].as_ref().unwrap().outcome, Outcome::Correct);
        // A double-report of the finished attempt is also stale.
        assert_eq!(
            s.report_done("w1", None, done(exp, attempt2, Outcome::Sdc), "dup").unwrap(),
            ReportAck::Stale
        );
    }
}
