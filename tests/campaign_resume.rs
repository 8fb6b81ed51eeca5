//! Kill-based campaign resume: interrupt a NoW campaign mid-flight (worker
//! panics plus a chaos halt standing in for `kill -9` on the driver), then
//! resume from the journal and assert every experiment completes exactly
//! once with the same outcomes an uninterrupted serial run produces.

use gemfi::Outcome;
use gemfi_campaign::now::run_campaign_now;
use gemfi_campaign::{
    prepare_workload, run_experiment, ChaosConfig, FaultSampler, Journal, JournalEvent, NowConfig,
    OutcomeTable, RunnerConfig,
};
use gemfi_cpu::CpuKind;
use gemfi_workloads::pi::MonteCarloPi;
use std::io::ErrorKind;
use std::path::PathBuf;
use std::time::Duration;

const EXPERIMENTS: usize = 16;

fn campaign(
) -> (MonteCarloPi, gemfi_campaign::PreparedWorkload, Vec<gemfi::FaultSpec>, RunnerConfig) {
    let w = MonteCarloPi { points: 60, init_spins: 40, ..MonteCarloPi::default() };
    let p = prepare_workload(&w).unwrap();
    let mut sampler = FaultSampler::new(0xFEED, p.stage_events, 0, 0);
    let specs: Vec<_> = (0..EXPERIMENTS).map(|_| sampler.sample_any()).collect();
    let runner = RunnerConfig {
        inject_cpu: CpuKind::Atomic,
        finish_cpu: CpuKind::Atomic,
        ..RunnerConfig::default()
    };
    (w, p, specs, runner)
}

fn share(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gemfi-resume-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &PathBuf) -> NowConfig {
    NowConfig {
        lease: Duration::from_secs(30),
        retry_backoff: Duration::from_millis(1),
        ..NowConfig::new(2, 2, dir)
    }
}

#[test]
fn interrupted_campaign_resumes_and_completes_every_experiment_exactly_once() {
    let (w, p, specs, runner) = campaign();

    // The ground truth: an uninterrupted serial pass over the same specs.
    let serial: Vec<Outcome> =
        specs.iter().map(|s| run_experiment(&p, &w, *s, &runner).outcome).collect();
    let serial_table: OutcomeTable = serial.iter().copied().collect();

    // Phase 1: the campaign dies mid-flight. One worker panics on its first
    // try at experiment 5 (a crashed workstation), and the whole driver
    // halts after 6 completions — past the 25% mark of 16, nowhere near
    // done.
    let dir = share("kill");
    let mut cfg = config(&dir);
    cfg.chaos = ChaosConfig { panic_on: vec![(5, 1)], halt_after: Some(6) };
    let err = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Interrupted, "{err}");

    let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
    let done_before = events.iter().filter(|e| matches!(e, JournalEvent::Done { .. })).count();
    assert!(done_before >= 6, "at least 25% finished before the kill: {done_before}");
    assert!(done_before < EXPERIMENTS, "the campaign really was interrupted");
    assert!(
        events.iter().any(|e| matches!(e, JournalEvent::AttemptFailed { exp: 5, attempt: 1, .. })),
        "the panicked attempt is journaled"
    );

    // Phase 2: resume. Only the remainder runs; the merged table matches
    // the serial ground truth class for class.
    let mut cfg = config(&dir);
    cfg.resume = true;
    let (table, results, report) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();

    assert_eq!(results.len(), EXPERIMENTS);
    assert_eq!(report.resumed, done_before, "finished work was replayed, not re-run");
    for o in Outcome::ALL {
        assert_eq!(table.count(o), serial_table.count(o), "{o}");
    }
    let outcomes: Vec<Outcome> = results.iter().map(|r| r.outcome).collect();
    assert_eq!(outcomes, serial, "per-experiment outcomes identical to serial");
    assert_eq!(table.count(Outcome::Infrastructure), 0, "the panicked experiment was retried");

    // Exactly once: the union of both journals' Done events covers every
    // experiment exactly one time.
    let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
    let mut done_per_exp = vec![0usize; EXPERIMENTS];
    for e in &events {
        if let JournalEvent::Done { exp, .. } = e {
            done_per_exp[*exp as usize] += 1;
        }
    }
    assert_eq!(done_per_exp, vec![1; EXPERIMENTS], "every experiment done exactly once");
    // And the share holds the campaign's files and nothing per experiment:
    // `campaign.faults` lists the specs in experiment order.
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["campaign.ckpt", "campaign.faults", "campaign.journal"]);
    let listed = gemfi::FaultConfig::load(&dir.join("campaign.faults")).unwrap();
    assert_eq!(listed.faults(), specs);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn repeated_interruptions_still_converge() {
    let (w, p, specs, runner) = campaign();
    let serial_table: OutcomeTable =
        specs.iter().map(|s| run_experiment(&p, &w, *s, &runner).outcome).collect();

    let dir = share("repeat");
    let mut cfg = config(&dir);
    cfg.chaos.halt_after = Some(4);
    assert_eq!(
        run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap_err().kind(),
        ErrorKind::Interrupted
    );
    // Second leg also dies, with a fresh panic thrown in.
    let mut cfg = config(&dir);
    cfg.resume = true;
    cfg.chaos = ChaosConfig { panic_on: vec![(9, 1)], halt_after: Some(4) };
    assert_eq!(
        run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap_err().kind(),
        ErrorKind::Interrupted
    );
    // Third leg finishes the job.
    let mut cfg = config(&dir);
    cfg.resume = true;
    let (table, results, _) = run_campaign_now(&p, &w, &specs, &runner, &cfg).unwrap();
    assert_eq!(results.len(), EXPERIMENTS);
    for o in Outcome::ALL {
        assert_eq!(table.count(o), serial_table.count(o), "{o}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
