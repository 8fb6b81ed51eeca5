//! Journal compatibility: journals written before the campaign pipeline was
//! unified must keep resuming. The fixtures are the first halves of a
//! fixed-n and an adaptive small-`pi` campaign (with one worker panic each,
//! on experiment 3's first attempt, so a burned attempt rides along),
//! committed verbatim; each is resumed here and must execute only what is
//! missing and end where an uninterrupted run of the same seed ends.
//!
//! The fixtures pin the checkpoint digest and the outcomes of this exact
//! guest, so a deliberate change to the checkpoint encoding or to simulated
//! timing needs them recaptured: run the campaigns below uninterrupted on
//! `NowConfig::new(2, 1, dir)` and keep the first N lines of
//! `campaign.journal` — a prefix is exactly what `kill -9` leaves. Without
//! the panic the recaptured journal has no `attempt-failed` line for
//! experiment 3, so the `records[3].attempts` assertion below becomes 1.
//!
//! `fixed_pi_midflight/` is a share cut the way `kill -9` cuts it, written
//! by the version that still kept a lease file per experiment: the fixed-n
//! campaign below on `NowConfig::new(2, 1, dir)`, two experiments done, one
//! attempt failed, and two `leased` lines nothing resolved, with the two
//! `.lease` files that process left behind. Resume must find both orphans
//! in the journal alone.

use gemfi::{FaultSpec, Outcome};
use gemfi_campaign::{
    prepare_workload, run_campaign_adaptive_now, run_campaign_now, AdaptiveConfig, CellKind,
    FaultSampler, Journal, JournalEvent, NowConfig, PreparedWorkload, RunnerConfig,
};
use gemfi_workloads::pi::MonteCarloPi;
use std::path::{Path, PathBuf};

const SEED: u64 = 0xF1C5;

fn guest() -> (MonteCarloPi, PreparedWorkload) {
    let w = MonteCarloPi { points: 60, init_spins: 40, ..MonteCarloPi::default() };
    let p = prepare_workload(&w).expect("pi prepares");
    (w, p)
}

fn share(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gemfi-compat-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The fixed-n campaign's specs.
fn fixed_specs(prepared: &PreparedWorkload) -> Vec<FaultSpec> {
    let mut sampler = FaultSampler::new(SEED, prepared.stage_events, 0, 0);
    (0..12).map(|_| sampler.sample_any()).collect()
}

/// A share as the killed campaign left it: its journal (a fixture file) or
/// every file of a fixture directory, and the spooled checkpoint. Returns
/// how many experiments the journal holds as terminal.
fn plant(dir: &Path, fixture: &str, prepared: &PreparedWorkload) -> usize {
    std::fs::create_dir_all(dir).unwrap();
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture);
    if fixture.is_dir() {
        for entry in std::fs::read_dir(&fixture).unwrap() {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join(entry.file_name())).unwrap();
        }
    } else {
        std::fs::copy(fixture, Journal::path_in(dir)).unwrap();
    }
    prepared.checkpoint.save(&dir.join("campaign.ckpt")).unwrap();
    let events = Journal::replay(&Journal::path_in(dir)).unwrap();
    events
        .iter()
        .filter(|e| matches!(e, JournalEvent::Done { .. } | JournalEvent::Failed { .. }))
        .count()
}

fn resuming(dir: &Path) -> NowConfig {
    NowConfig { resume: true, ..NowConfig::new(2, 1, dir) }
}

#[test]
fn a_fixed_n_journal_from_before_the_refactor_resumes() {
    let (w, p) = guest();
    let runner = RunnerConfig::default();
    let specs = fixed_specs(&p);

    let fresh_dir = share("fixed-fresh");
    let (fresh, fresh_records, _) =
        run_campaign_now(&p, &w, &specs, &runner, &NowConfig::new(2, 1, &fresh_dir)).unwrap();

    let dir = share("fixed-cut");
    let terminal = plant(&dir, "fixed_pi_cut.journal", &p);
    assert!(terminal > 0 && terminal < specs.len(), "the fixture is cut mid-campaign");
    let (table, records, report) =
        run_campaign_now(&p, &w, &specs, &runner, &resuming(&dir)).unwrap();

    assert_eq!(report.resumed, terminal, "journaled work was replayed, not re-run");
    assert_eq!(report.per_workstation.iter().sum::<usize>(), specs.len() - terminal);
    assert_eq!(records.iter().filter(|r| r.resumed).count(), terminal);
    // Experiment 3 panicked once before the cut: the burned attempt counts.
    assert_eq!(records[3].attempts, 2);
    for o in Outcome::ALL {
        assert_eq!(table.count(o), fresh.count(o), "{o}");
    }
    for (r, f) in records.iter().zip(&fresh_records) {
        assert_eq!((r.exp, r.outcome, r.ticks), (f.exp, f.outcome, f.ticks));
    }
    std::fs::remove_dir_all(&fresh_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_share_cut_mid_flight_reclaims_its_orphans_from_the_journal() {
    let (w, p) = guest();
    let runner = RunnerConfig::default();
    let specs = fixed_specs(&p);

    let fresh_dir = share("midflight-fresh");
    let (fresh, fresh_records, _) =
        run_campaign_now(&p, &w, &specs, &runner, &NowConfig::new(2, 1, &fresh_dir)).unwrap();

    let dir = share("midflight-cut");
    assert_eq!(plant(&dir, "fixed_pi_midflight", &p), 2, "experiments 0 and 2 finished");
    let (table, records, report) =
        run_campaign_now(&p, &w, &specs, &runner, &resuming(&dir)).unwrap();

    assert_eq!(report.resumed, 2);
    assert_eq!(report.reclaimed_leases, 2, "the dangling leases on experiments 3 and 4");
    assert_eq!(report.per_workstation.iter().sum::<usize>(), specs.len() - 2);
    // Experiment 1 failed once; 3 and 4 each lost an attempt to the kill.
    let attempts: Vec<_> = records.iter().map(|r| r.attempts).collect();
    assert_eq!(attempts, [1, 2, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1]);
    assert_eq!(table, fresh);
    for (r, f) in records.iter().zip(&fresh_records) {
        assert_eq!((r.exp, r.outcome, r.ticks), (f.exp, f.outcome, f.ticks));
    }
    // Each orphan's burned attempt is journaled against the worker that
    // held it, so a second resume does not reclaim it again.
    let events = Journal::replay(&Journal::path_in(&dir)).unwrap();
    let burned: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            JournalEvent::AttemptFailed { exp, attempt: 1, worker, reason, .. }
                if reason.starts_with("orphaned lease") =>
            {
                Some((*exp, worker.as_str()))
            }
            _ => None,
        })
        .collect();
    assert_eq!(burned, [(3, "ws1.slot0"), (4, "ws0.slot0")]);
    let (_, _, again) = run_campaign_now(&p, &w, &specs, &runner, &resuming(&dir)).unwrap();
    assert_eq!((again.resumed, again.reclaimed_leases), (specs.len(), 0));
    std::fs::remove_dir_all(&fresh_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_adaptive_journal_from_before_the_refactor_resumes() {
    let (w, p) = guest();
    let runner = RunnerConfig::default();
    let adaptive = AdaptiveConfig {
        ci_halfwidth: 0.2,
        min_n: 6,
        batch: 6,
        budget: 40,
        cells: vec![CellKind::parse("int-reg").unwrap(), CellKind::parse("pc").unwrap()],
        ..AdaptiveConfig::default()
    };

    let fresh_dir = share("adaptive-fresh");
    let config = NowConfig::new(2, 1, &fresh_dir);
    let (fresh, _) = run_campaign_adaptive_now(&p, &w, &runner, &config, &adaptive, SEED).unwrap();

    let dir = share("adaptive-cut");
    let terminal = plant(&dir, "adaptive_pi_cut.journal", &p);
    assert!(terminal > 0 && (terminal as u64) < fresh.experiments, "cut mid-campaign");
    let (resumed, report) =
        run_campaign_adaptive_now(&p, &w, &runner, &resuming(&dir), &adaptive, SEED).unwrap();

    assert_eq!(report.resumed, terminal, "journaled work was replayed, not re-run");
    assert_eq!(
        report.per_workstation.iter().sum::<usize>() as u64,
        fresh.experiments - terminal as u64
    );
    assert_eq!(resumed.experiments, fresh.experiments);
    assert_eq!(resumed.rounds, fresh.rounds);
    for (r, f) in resumed.cells.iter().zip(&fresh.cells) {
        assert_eq!(r.cell, f.cell);
        assert_eq!(r.decision, f.decision, "{}: decision differs", r.cell);
        assert_eq!((r.n, r.drawn), (f.n, f.drawn), "{}: sample size differs", r.cell);
        assert_eq!(r.stats, f.stats, "{}: outcome counts differ", r.cell);
    }
    for o in Outcome::ALL {
        assert_eq!(resumed.table.count(o), fresh.table.count(o), "{o}");
    }
    std::fs::remove_dir_all(&fresh_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_fixture_line_reencodes_to_itself() {
    let fixtures = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    for name in
        ["fixed_pi_cut.journal", "adaptive_pi_cut.journal", "fixed_pi_midflight/campaign.journal"]
    {
        let text = std::fs::read_to_string(fixtures.join(name)).unwrap();
        assert!(text.ends_with('\n'), "{name}: no torn tail");
        for (i, line) in text.lines().enumerate() {
            let event =
                JournalEvent::parse(line).unwrap_or_else(|e| panic!("{name}:{}: {e}", i + 1));
            assert_eq!(event.to_json(), line, "{name}:{}", i + 1);
        }
    }
}
