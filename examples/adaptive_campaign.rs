//! Adaptive versus fixed-n campaign sizing on the DCT workload: the
//! sequential engine stops each (workload x location) cell as soon as every
//! outcome-rate Wilson CI is tighter than the target half-width, while the
//! fixed-n arm spends the worst-case p=0.5 Leveugle sizing everywhere.
//!
//! ```text
//! cargo run --release --example adaptive_campaign
//! ```

use gemfi_campaign::{
    leveugle_sample_size, prepare_workload, run_campaign_adaptive, AdaptiveConfig, CellKind,
    FaultSampler, ForkConfig, RunnerConfig, Z_95,
};
use gemfi_cpu::CpuKind;
use gemfi_workloads::dct::Dct;
use gemfi_workloads::Workload;

fn main() {
    let workload = Dct { width: 8, height: 8 };
    println!("preparing {} (checkpoint + golden run)…", workload.name());
    let prepared = prepare_workload(&workload).expect("prepares");

    let cells: Vec<CellKind> = ["l1i-cache", "l1d-cache", "l2-cache", "fp-reg", "pc", "decode"]
        .iter()
        .map(|l| CellKind::parse(l).expect("known label"))
        .collect();
    let config = AdaptiveConfig { cells: cells.clone(), ..AdaptiveConfig::default() };
    println!(
        "  target: ±{:.0}% outcome-rate CIs at z={Z_95}, min {} samples/cell\n",
        config.ci_halfwidth * 100.0,
        config.min_n
    );

    let runner = RunnerConfig {
        inject_cpu: CpuKind::Atomic,
        finish_cpu: CpuKind::Atomic,
        ..RunnerConfig::default()
    };
    let outcome =
        run_campaign_adaptive(&prepared, &workload, &runner, Some(&ForkConfig), &config, 9);
    println!("{outcome}");

    // What would the fixed-n ablation baseline have spent? The worst-case
    // p=0.5 Leveugle sizing for every cell at the same target.
    let sampler = FaultSampler::new(9, prepared.stage_events, 0, 0);
    let fixed: u64 = cells
        .iter()
        .map(|kind| {
            let population = kind.population(&sampler);
            leveugle_sample_size(population, config.ci_halfwidth, Z_95, 0.5)
        })
        .sum();
    println!(
        "\nfixed-n at the same target: {fixed} experiments; sequential used {} ({:.1}x fewer). \
         Note the decode cell: its outcome rates sit near 50%, so the sequential arm \
         correctly spends the full worst-case sizing there — the savings all come from \
         the lopsided cells.",
        outcome.experiments,
        fixed as f64 / outcome.experiments as f64
    );
}
