//! Adaptive-campaign invariants at the integration level: the min-n floor,
//! the hard budget cap, and kill-based resume — an interrupted sequential
//! campaign, resumed from its journal, must reach byte-identical per-cell
//! decisions to an uninterrupted run on the same seed.

use gemfi::Outcome;
use gemfi_campaign::{
    prepare_workload, run_campaign_adaptive, run_campaign_adaptive_now, AdaptiveConfig, CellKind,
    Journal, NowConfig, RunnerConfig,
};
use gemfi_cpu::CpuKind;
use gemfi_workloads::pi::MonteCarloPi;
use std::path::PathBuf;
use std::time::Duration;

fn campaign() -> (MonteCarloPi, gemfi_campaign::PreparedWorkload, RunnerConfig) {
    let w = MonteCarloPi { points: 60, init_spins: 40, ..MonteCarloPi::default() };
    let p = prepare_workload(&w).unwrap();
    let runner = RunnerConfig {
        inject_cpu: CpuKind::Atomic,
        finish_cpu: CpuKind::Atomic,
        ..RunnerConfig::default()
    };
    (w, p, runner)
}

fn share(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gemfi-adaptive-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn config(dir: &PathBuf) -> NowConfig {
    NowConfig { retry_backoff: Duration::from_millis(1), ..NowConfig::new(2, 2, dir) }
}

#[test]
fn no_cell_decides_below_the_min_n_floor_on_any_seed() {
    let (w, p, runner) = campaign();
    // A loose half-width that single-digit samples could nominally satisfy
    // on a lopsided cell — only the floor keeps the sample honest.
    let adaptive = AdaptiveConfig {
        ci_halfwidth: 0.2,
        min_n: 24,
        batch: 8,
        cells: vec![CellKind::parse("l2-cache").unwrap(), CellKind::parse("int-reg").unwrap()],
        ..AdaptiveConfig::default()
    };
    for seed in [1u64, 2, 3] {
        let outcome = run_campaign_adaptive(&p, &w, &runner, None, &adaptive, seed);
        for cell in &outcome.cells {
            if cell.decision.is_decided() {
                assert!(
                    cell.n >= adaptive.min_n,
                    "seed {seed}: {} decided at n={} below the min-n floor",
                    cell.cell,
                    cell.n
                );
            }
        }
    }
}

#[test]
fn the_budget_caps_total_draws_across_all_cells() {
    let (w, p, runner) = campaign();
    // A half-width this tight wants hundreds of samples per cell; the
    // budget must cut the campaign off first.
    let adaptive = AdaptiveConfig {
        ci_halfwidth: 0.02,
        min_n: 8,
        batch: 8,
        budget: 48,
        cells: vec![CellKind::parse("pc").unwrap(), CellKind::parse("decode").unwrap()],
        ..AdaptiveConfig::default()
    };
    let outcome = run_campaign_adaptive(&p, &w, &runner, None, &adaptive, 7);
    assert_eq!(outcome.experiments, 48, "the campaign draws exactly up to the budget");
    assert!(
        outcome.cells.iter().all(|c| !c.decision.is_decided()),
        "neither cell can close a 2%-half-width CI inside 48 draws, so both end \
         exhausted-at-budget rather than decided"
    );
}

#[test]
fn interrupted_adaptive_campaign_resumes_to_identical_decisions() {
    let (w, p, runner) = campaign();
    let adaptive = AdaptiveConfig {
        ci_halfwidth: 0.12,
        min_n: 16,
        batch: 8,
        cells: vec![
            CellKind::parse("l1d-cache").unwrap(),
            CellKind::parse("fp-reg").unwrap(),
            CellKind::parse("pc").unwrap(),
        ],
        ..AdaptiveConfig::default()
    };
    let seed = 0xFEED;

    // Ground truth: the same campaign run start-to-finish in its own share.
    let fresh_dir = share("fresh");
    let (fresh, _) =
        run_campaign_adaptive_now(&p, &w, &runner, &config(&fresh_dir), &adaptive, seed).unwrap();

    // A killed driver leaves a prefix of that journal. Cut it right after
    // the header, between two `drawn` lines of the first round, and
    // mid-round, tearing the line after the fifth result.
    let journal = std::fs::read_to_string(Journal::path_in(&fresh_dir)).unwrap();
    let lines: Vec<&str> = journal.lines().collect();
    let end_of = |i: usize| lines[..=i].iter().map(|l| l.len() + 1).sum::<usize>();
    let is = |i: usize, event: &str| lines[i].contains(&format!("\"event\":\"{event}\""));
    let draws = (1..lines.len()).take_while(|&i| is(i, "drawn")).count();
    assert!(draws >= 2, "the first round journals its draws up front");
    let fifth_done = (0..lines.len()).filter(|&i| is(i, "done")).nth(4).unwrap();
    let cuts = [
        ("after the header", end_of(0)),
        ("between two draws", end_of(draws / 2)),
        ("mid-round", end_of(fifth_done) + lines[fifth_done + 1].len() / 2),
    ];

    let dir = share("kill");
    for (cut, at) in cuts {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::copy(fresh_dir.join("campaign.ckpt"), dir.join("campaign.ckpt")).unwrap();
        std::fs::write(Journal::path_in(&dir), &journal[..at]).unwrap();
        let complete = &journal[..journal[..at].rfind('\n').map_or(0, |i| i + 1)];
        let terminal = complete
            .lines()
            .filter(|l| l.contains("\"event\":\"done\"") || l.contains("\"event\":\"failed\""))
            .count();

        let cfg = NowConfig { resume: true, ..config(&dir) };
        let (resumed, report) =
            run_campaign_adaptive_now(&p, &w, &runner, &cfg, &adaptive, seed).unwrap();
        assert_eq!(report.resumed, terminal, "{cut}: journaled work was replayed, not re-run");
        assert_eq!(resumed.resumed, terminal as u64, "{cut}");

        // Byte-identical decisions: same cells, same n, same decision
        // state, same per-cell outcome counts, same totals.
        assert_eq!(resumed.experiments, fresh.experiments, "{cut}");
        assert_eq!(resumed.rounds, fresh.rounds, "{cut}");
        assert_eq!(resumed.cells.len(), fresh.cells.len(), "{cut}");
        for (r, f) in resumed.cells.iter().zip(&fresh.cells) {
            assert_eq!(r.cell, f.cell, "{cut}");
            assert_eq!(r.n, f.n, "{cut}: {}: replayed sample size differs", r.cell);
            assert_eq!(r.decision, f.decision, "{cut}: {}: decision differs", r.cell);
            assert_eq!(r.stats, f.stats, "{cut}: {}: outcome counts differ", r.cell);
        }
        for o in Outcome::ALL {
            assert_eq!(resumed.table.count(o), fresh.table.count(o), "{cut}: {o}");
        }
    }

    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&fresh_dir).ok();
}
