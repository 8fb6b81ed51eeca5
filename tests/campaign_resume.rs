//! Kill-based campaign resume. Each journal append is flushed in order, so
//! `kill -9` on the campaign driver leaves exactly a prefix of the journal
//! of an uninterrupted run, perhaps with a torn last line. These tests run
//! the campaign once, cut its journal at line boundaries and in the middle
//! of lines from start to end, resume each cut on a copy of the share, and
//! assert every experiment completes exactly once with the outcomes an
//! uninterrupted serial run produces.

use gemfi::{FaultSpec, Outcome};
use gemfi_campaign::now::run_campaign_now;
use gemfi_campaign::{
    prepare_workload, run_experiment, CompletedExperiment, FaultSampler, Journal, JournalEvent,
    NowConfig, NowReport, OutcomeTable, PreparedWorkload, RunnerConfig,
};
use gemfi_cpu::CpuKind;
use gemfi_workloads::pi::MonteCarloPi;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

const EXPERIMENTS: usize = 16;

/// Resume only every third cut: each resume decodes the spooled checkpoint,
/// which a debug build takes about 0.1 s for, and an odd stride still
/// alternates between line boundaries and torn lines. Over this campaign's
/// 33-line journal it takes both the empty and the finished journal.
const CUT_STRIDE: usize = 3;

struct Setup {
    w: MonteCarloPi,
    p: PreparedWorkload,
    specs: Vec<FaultSpec>,
    runner: RunnerConfig,
    /// Per-experiment outcomes of an uninterrupted serial pass.
    serial: Vec<Outcome>,
}

fn campaign() -> Setup {
    let w = MonteCarloPi { points: 60, init_spins: 40, ..MonteCarloPi::default() };
    let p = prepare_workload(&w).unwrap();
    let mut sampler = FaultSampler::new(0xFEED, p.stage_events, 0, 0);
    let specs: Vec<_> = (0..EXPERIMENTS).map(|_| sampler.sample_any()).collect();
    let runner = RunnerConfig {
        inject_cpu: CpuKind::Atomic,
        finish_cpu: CpuKind::Atomic,
        ..RunnerConfig::default()
    };
    let serial = specs.iter().map(|s| run_experiment(&p, &w, *s, &runner).outcome).collect();
    Setup { w, p, specs, runner, serial }
}

fn share(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gemfi-resume-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &Path, resume: bool) -> NowConfig {
    NowConfig { retry_backoff: Duration::from_millis(1), resume, ..NowConfig::new(1, 2, dir) }
}

/// Runs (or, with `resume`, finishes) the campaign on `dir`.
fn run(s: &Setup, dir: &Path, resume: bool) -> (OutcomeTable, Vec<CompletedExperiment>, NowReport) {
    run_campaign_now(&s.p, &s.w, &s.specs, &s.runner, &config(dir, resume)).unwrap()
}

/// A share as a driver killed `journal.len()` bytes into its journal left
/// it: the spooled checkpoint of `finished` and the cut journal.
fn plant_cut(finished: &Path, journal: &[u8], dir: &Path) {
    std::fs::create_dir_all(dir).unwrap();
    std::fs::copy(finished.join("campaign.ckpt"), dir.join("campaign.ckpt")).unwrap();
    std::fs::write(Journal::path_in(dir), journal).unwrap();
}

/// What replaying a cut journal promises its resume: the terminal records
/// it holds, and the leases nothing after them resolved (the orphans).
fn promised(dir: &Path) -> (usize, u64) {
    let mut terminal = 0;
    let mut held: BTreeMap<u64, u64> = BTreeMap::new();
    for event in Journal::replay(&Journal::path_in(dir)).unwrap() {
        match event {
            JournalEvent::Leased { exp, attempt, .. } => {
                held.insert(exp, attempt);
            }
            JournalEvent::AttemptFailed { exp, attempt, .. }
                if held.get(&exp) == Some(&attempt) =>
            {
                held.remove(&exp);
            }
            JournalEvent::Done { exp, .. } | JournalEvent::Failed { exp, .. } => {
                terminal += 1;
                held.remove(&exp);
            }
            _ => {}
        }
    }
    (terminal, held.len() as u64)
}

/// Resumes the cut planted on `dir` and checks everything a resume owes:
/// the serial outcomes, replay of exactly the journaled terminal records,
/// reclaim of exactly the orphans, one terminal line per experiment, and a
/// share holding the campaign's three files only.
fn resume_and_check(s: &Setup, dir: &Path, cut: &str) {
    let (terminal, orphans) = promised(dir);
    let (table, results, report) = run(s, dir, true);
    let outcomes: Vec<Outcome> = results.iter().map(|r| r.outcome).collect();
    assert_eq!(outcomes, s.serial, "{cut}: per-experiment outcomes identical to serial");
    assert_eq!(table, s.serial.iter().copied().collect::<OutcomeTable>(), "{cut}");
    assert_eq!(report.resumed, terminal, "{cut}: finished work was replayed, not re-run");
    assert_eq!(report.reclaimed_leases, orphans, "{cut}: every orphan and only those");
    let mut terminal_lines = vec![0usize; EXPERIMENTS];
    for event in Journal::replay(&Journal::path_in(dir)).unwrap() {
        if let JournalEvent::Done { exp, .. } | JournalEvent::Failed { exp, .. } = event {
            terminal_lines[exp as usize] += 1;
        }
    }
    assert_eq!(terminal_lines, vec![1; EXPERIMENTS], "{cut}: every experiment done exactly once");
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["campaign.ckpt", "campaign.faults", "campaign.journal"], "{cut}");
    let listed = gemfi::FaultConfig::load(&dir.join("campaign.faults")).unwrap();
    assert_eq!(listed.faults(), s.specs, "{cut}: `campaign.faults` lists the specs in order");
}

/// Byte offsets just past each of `journal`'s lines.
fn line_ends(journal: &[u8]) -> Vec<usize> {
    journal.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(i, _)| i + 1).collect()
}

#[test]
fn interrupted_campaign_resumes_and_completes_every_experiment_exactly_once() {
    let s = campaign();
    let finished = share("whole");
    run(&s, &finished, false);
    let journal = std::fs::read(Journal::path_in(&finished)).unwrap();
    let ends = line_ends(&journal);
    assert_eq!(ends.len(), 1 + 2 * EXPERIMENTS, "a header, then a lease and a result each");

    // Every line boundary k = 0..=N, and the middle of every line: a kill
    // lands between two appends or tears the one in progress.
    let mut cuts = vec![0];
    let mut start = 0;
    for &end in &ends {
        cuts.extend([(start + end) / 2, end]);
        start = end;
    }
    let dir = share("cut");
    for cut in cuts.into_iter().step_by(CUT_STRIDE) {
        let _ = std::fs::remove_dir_all(&dir);
        plant_cut(&finished, &journal[..cut], &dir);
        resume_and_check(&s, &dir, &format!("cut at byte {cut} of {}", journal.len()));
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&finished).ok();
}

#[test]
fn repeated_interruptions_still_converge() {
    let s = campaign();
    let finished = share("repeat-whole");
    run(&s, &finished, false);
    let journal = std::fs::read(Journal::path_in(&finished)).unwrap();
    let ends = line_ends(&journal);

    // The first driver dies a quarter in, mid-line; the resumed one dies
    // halfway through what it appended, and a third finishes the job.
    let dir = share("repeat");
    let first = (ends[ends.len() / 4] + ends[ends.len() / 4 + 1]) / 2;
    plant_cut(&finished, &journal[..first], &dir);
    run(&s, &dir, true);
    let resumed = std::fs::read(Journal::path_in(&dir)).unwrap();
    let appended = line_ends(&resumed).into_iter().filter(|&end| end > first).collect::<Vec<_>>();
    let second = appended[appended.len() / 2];
    std::fs::write(Journal::path_in(&dir), &resumed[..second]).unwrap();
    resume_and_check(&s, &dir, &format!("second cut at byte {second}"));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&finished).ok();
}
