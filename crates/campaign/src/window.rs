//! The open window of a campaign's slot table: its fault-tolerance policy,
//! the acknowledgement a report earns, and the names of the files it leaves
//! on the share.
//!
//! The table itself — one slot per drawn experiment, `pending → leased →
//! terminal`, with claims, heartbeats, the reaper and reports as its
//! transitions — is [`crate::now::Campaign`]; a round's *window* is the
//! table's open range, the only slots a claim looks at. Whichever transport
//! the workers arrive by, everything an attempt's lifecycle touches — the
//! lease, the journal append, the retry backoff — happens inside that one
//! type, so a recovery-path fix lands on both backends at once. The lease
//! lives only in the table and the journal; no per-experiment file is
//! written besides an optional mid-run snapshot.
//!
//! All timing goes through an injected [`Clock`](crate::clock::Clock): the
//! tests below drive lease expiry, reaping, capped backoff and whole seeded
//! claim/report/restart schedules against a
//! [`TestClock`](crate::clock::TestClock), with outcomes supplied by the
//! test instead of a simulator.

use std::path::{Path, PathBuf};

/// Fault-tolerance policy of a campaign's scheduler (derived from
/// `NowConfig` or the server's configuration).
#[derive(Debug, Clone)]
pub(crate) struct SchedulerPolicy {
    /// Lease duration in milliseconds.
    pub lease_ms: u64,
    /// Attempts before an experiment is terminally
    /// [`Outcome::Infrastructure`](gemfi::Outcome::Infrastructure).
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

/// The mid-run snapshot file for experiment `i` (crash-resume state; local
/// scratch, deleted on terminal completion).
pub(crate) fn snapshot_path(share: &Path, i: usize) -> PathBuf {
    share.join(format!("exp{i:05}.snap"))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::adaptive::{AdaptiveConfig, CellKind, Plan};
    use crate::clock::TestClock;
    use crate::journal::{Journal, JournalEvent};
    use crate::now::{Campaign, CompletedExperiment};
    use crate::report::OutcomeTable;
    use crate::rng::SplitMix64;
    use crate::runner::{prepare_workload, PreparedWorkload};
    use crate::sampler::{FaultSampler, LocationClass};
    use crate::transport::{ClaimReply, WorkAssignment};
    use gemfi::{AbortToken, FaultConfig, FaultSpec, Outcome};
    use gemfi_workloads::pi::MonteCarloPi;
    use std::sync::{Arc, OnceLock};

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

    fn share(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gemfi-window-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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

    /// A fresh fixed-n campaign of `n` experiments on its own share.
    fn campaign(tag: &str, n: usize, clock: &TestClock, policy: SchedulerPolicy) -> Campaign {
        let clock = Arc::new(clock.clone());
        Campaign::open(&share(tag), prepared(), fixed_plan(n), false, clock, policy, 1).unwrap()
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
        let mut c = campaign("reap", 1, &clock, policy());
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
    fn backoff_schedule_is_capped_exponential() {
        // Drive the backoff directly (no probe claims): fail attempts
        // 1..=9 and read the reopen delay off the claim boundary.
        let clock = TestClock::at(0);
        let mut c = campaign("backoff", 1, &clock, policy());
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
        let dir = share("exhaust");
        let mut c = campaign("exhaust", 2, &clock, SchedulerPolicy { max_attempts: 2, ..policy() });
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
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn a_retried_report_is_journaled_once() {
        let clock = TestClock::at(0);
        let dir = share("retried-report");
        let mut c = campaign("retried-report", 1, &clock, policy());
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
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn heartbeat_renews_the_lease_and_defers_the_reaper() {
        let clock = TestClock::at(0);
        let mut c = campaign("hb", 1, &clock, policy());
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
        let mut c = campaign("zombie", 1, &clock, policy());
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
        let mut c = campaign("quota", 3, &clock, policy());
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
        let per_experiment = std::fs::read_dir(&dir).unwrap().filter(|entry| {
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
        std::fs::remove_dir_all(&dir).ok();
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
}
