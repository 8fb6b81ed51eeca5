//! Adaptive-campaign ablation: sequential sampling with per-cell early
//! stopping versus the fixed-n Leveugle sizing, measured as experiments
//! needed to decide every cell of a mixed campaign.
//!
//! The campaign deliberately mixes *lopsided* cells (the cache-array
//! families, whose dominant outcome rate sits near 1 and whose Wilson CI
//! therefore tightens in a few dozen samples) with *high-variance* cells
//! (pc and the FP bank, whose 5-8% minority classes need ~3x the samples
//! before every CI closes). The fixed-n arm spends the worst-case p=0.5
//! sizing on every cell; the sequential arm stops each cell the moment all
//! five outcome-rate CIs reach the same target half-width, and the saved
//! budget flows to the cells that still need it. Cells whose rates sit at
//! p~=0.5 (decode, fetch, execute on this kernel) cost the full fixed-n in
//! *both* arms — sequential sampling converges to the Leveugle sizing
//! there by construction; pass `--cells decode` to see the boundary case.
//!
//! Both arms chase the *same* statistical target (z, half-width), and the
//! bench asserts the early stopping is honest: for every early-stopped
//! cell, the adaptive arm's Wilson CI must overlap the fixed-n arm's
//! Wilson CI on every outcome class — the two estimates are statistically
//! indistinguishable. The experiment counts on both arms are deterministic
//! functions of the seed — the gated ratio carries no timing noise at all.
//!
//! Options: `--size N` (DCT image edge, multiple of 8, default 8),
//! `--ci-halfwidth H` (default 0.05), `--min-n N` (default 25), `--batch N`
//! (default 16), `--seed N` (default 9), `--cells a,b,...` (default the
//! mixed campaign above). The bench prints both arms' tables and fails when
//! the fixed/adaptive experiment ratio falls under [`RATIO_FLOOR`].

use gemfi::Outcome;
use gemfi_bench::Args;
use gemfi_campaign::{
    leveugle_sample_size, prepare_workload, run_campaign_adaptive, run_campaign_forked,
    wilson_interval, AdaptiveConfig, CellKind, FaultSampler, ForkConfig, OutcomeTable,
    RunnerConfig, Z_95,
};
use gemfi_cpu::CpuKind;
use gemfi_workloads::dct::Dct;

/// The committed mixed campaign: cache families are lopsided (dominant
/// outcome near 100%); pc and the FP bank carry 5-8% minority classes and
/// need roughly triple the samples before every CI closes.
const DEFAULT_CELLS: &str = "l1i-cache,l1d-cache,l2-cache,fp-reg,pc";

/// Floor of the fixed-n / adaptive experiments-to-decision ratio. The
/// default arguments give 1923 fixed vs 480 adaptive experiments in 11
/// rounds — 4.01x, exactly, on every machine; a drift is a behavior change.
const RATIO_FLOOR: f64 = 3.0;

/// Independent seed stream for the fixed-n arm, so the two arms draw
/// independent samples of the same fault space.
const FIXED_ARM_SALT: u64 = 0x5bd1_e995;

fn main() {
    let args = Args::from_env();
    let size = args.number("size", 8usize);
    let seed = args.number("seed", 9u64);
    let cells: Vec<CellKind> = args
        .value_of("cells")
        .unwrap_or(DEFAULT_CELLS)
        .split(',')
        .map(|label| CellKind::parse(label.trim()).expect("known cell label"))
        .collect();

    let workload = Dct { width: size, height: size };
    // Atomic both sides: the ablation compares *how many* experiments each
    // arm needs, not per-experiment speed, so the fastest conformant model
    // keeps the committed run cheap.
    let runner = RunnerConfig {
        inject_cpu: CpuKind::Atomic,
        finish_cpu: CpuKind::Atomic,
        ..RunnerConfig::default()
    };
    let prepared = prepare_workload(&workload).expect("workload prepares");

    let config = AdaptiveConfig {
        ci_halfwidth: args.number("ci-halfwidth", 0.05f64),
        min_n: args.number("min-n", 25u64),
        batch: args.number("batch", 16u64),
        budget: 0,
        cells: cells.clone(),
        ..AdaptiveConfig::default()
    };

    // Fixed-n arm: the worst-case Leveugle sizing (p = 0.5) per cell at the
    // same confidence target, on an independent draw stream.
    let mut fixed_tables: Vec<OutcomeTable> = Vec::new();
    for (i, kind) in cells.iter().enumerate() {
        let mut sampler = FaultSampler::for_cell(seed ^ FIXED_ARM_SALT, i, prepared.stage_events);
        let population = kind.population(&sampler);
        let n = leveugle_sample_size(population, config.ci_halfwidth, Z_95, 0.5);
        let specs: Vec<_> = (0..n).map(|_| kind.draw(&mut sampler)).collect();
        let table: OutcomeTable =
            run_campaign_forked(&prepared, &workload, &specs, &runner, &ForkConfig)
                .iter()
                .map(|r| r.outcome)
                .collect();
        println!("fixed    {kind:<12} n={n:<5} {table}");
        fixed_tables.push(table);
    }

    // Sequential arm: same cells, same target, draw-on-demand.
    let adaptive =
        run_campaign_adaptive(&prepared, &workload, &runner, Some(&ForkConfig), &config, seed);
    assert_eq!(
        adaptive.table.count(Outcome::Infrastructure),
        0,
        "adaptive arm hit infrastructure failures — counts would not be comparable"
    );

    let mut all_inside = true;
    for (report, fixed_table) in adaptive.cells.iter().zip(&fixed_tables) {
        // Honesty check: an early-stopped cell's rates must be statistically
        // indistinguishable from the fixed-n estimate — the two arms' Wilson
        // CIs overlap on every outcome class. (A point-in-CI test is too
        // strict at boundary rates: 48/48 non-propagated gives a point rate
        // of exactly 1.0, outside a fixed CI whose upper bound is 0.999
        // because the larger sample caught one rare SDC.)
        if report.decision.is_decided() {
            for outcome in Outcome::ALL.iter().filter(|o| o.is_experiment_outcome()) {
                let cell_table = report.stats.table();
                let (a_lo, a_hi) = wilson_interval(cell_table.count(*outcome), report.n, Z_95);
                let (f_lo, f_hi) =
                    wilson_interval(fixed_table.count(*outcome), fixed_table.total(), Z_95);
                const EPS: f64 = 1e-9;
                if a_lo > f_hi + EPS || f_lo > a_hi + EPS {
                    println!(
                        "  MISMATCH {} {outcome}: adaptive CI ({a_lo:.3}, {a_hi:.3}) disjoint \
                         from fixed CI ({f_lo:.3}, {f_hi:.3})",
                        report.cell
                    );
                    all_inside = false;
                }
            }
        }
        println!(
            "adaptive {:<12} n={:<5} {:<13} max±{:.3} {}",
            report.cell.to_string(),
            report.n,
            report.decision.to_string(),
            report.max_halfwidth,
            report.stats.table()
        );
    }
    assert!(
        all_inside,
        "an early-stopped cell's outcome CI is disjoint from the fixed-n CI — \
         sequential stopping is biasing the estimates"
    );

    let fixed_total: u64 = fixed_tables.iter().map(OutcomeTable::total).sum();
    let ratio = fixed_total as f64 / adaptive.experiments as f64;
    println!(
        "\nexperiments_to_decision        {ratio:.2}x  ({} fixed vs {} adaptive, {} rounds)",
        fixed_total, adaptive.experiments, adaptive.rounds
    );
    assert!(
        ratio >= RATIO_FLOOR,
        "adaptive sampling regressed: {ratio:.2}x is under its {RATIO_FLOOR}x floor"
    );
}
