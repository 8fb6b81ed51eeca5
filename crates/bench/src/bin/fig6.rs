//! Regenerates Fig. 6: correlation of injection timing with application
//! outcome, for the paper's three illustrative workloads (PI, Knapsack,
//! Jacobi).
//!
//! The horizontal axis is the fault time normalized to kernel execution;
//! the series are Crashed / Acceptable / SDC fractions per band. Shape
//! expectations from the paper: PI flat; Knapsack's acceptable fraction
//! *rises* with later injection (bad genes get selected away); Jacobi
//! trades strictly-correct for correct as faults land later.
//!
//! ```text
//! cargo run --release -p gemfi-bench --bin fig6 -- \
//!     [--scale small|default|paper] [--bands B] [--per-band N] [--atomic]
//! ```

use gemfi::Outcome;
use gemfi_bench::Args;
use gemfi_campaign::{
    prepare_workload, run_experiment, FaultSampler, LocationClass, OutcomeTable, PreparedWorkload,
    RunnerConfig,
};
use gemfi_cpu::CpuKind;
use gemfi_workloads::Workload;

/// Runs `per_band` experiments in each of `bands` equal fractions of the
/// kernel's execution, sampling faults uniformly over the given location
/// classes. Returns one [`OutcomeTable`] per band — the Fig. 6 series.
fn timing_campaign(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    classes: &[LocationClass],
    bands: usize,
    per_band: usize,
    seed: u64,
    config: &RunnerConfig,
) -> Vec<OutcomeTable> {
    assert!(bands > 0 && !classes.is_empty());
    let mut sampler = FaultSampler::new(seed, prepared.stage_events, 0, 0);
    let mut tables = vec![OutcomeTable::new(); bands];
    for (band, table) in tables.iter_mut().enumerate() {
        let lo = band as f64 / bands as f64;
        let hi = (band + 1) as f64 / bands as f64;
        for i in 0..per_band {
            let class = classes[i % classes.len()];
            let spec = sampler.sample_in_band(class, lo, hi);
            let result = run_experiment(prepared, workload, spec, config);
            table.add(result.outcome);
        }
    }
    tables
}

fn main() {
    let args = Args::from_env();
    let bands: usize = args.number("bands", 10);
    let per_band: usize = args.number("per-band", 20);
    let seed: u64 = args.number("seed", 0x716);
    let runner = if args.has("atomic") {
        RunnerConfig {
            inject_cpu: CpuKind::Atomic,
            finish_cpu: CpuKind::Atomic,
            ..RunnerConfig::default()
        }
    } else {
        RunnerConfig::default()
    };
    // The paper's Fig. 6 trio.
    let trio = gemfi_bench::select_workloads(args.scale(), Some("pi,knapsack,jacobi"));
    // Register + execute faults drive the timing story; PC faults are flat
    // (always fatal) and dilute the signal.
    let classes =
        [LocationClass::IntReg, LocationClass::FpReg, LocationClass::Execute, LocationClass::Mem];

    println!("Fig. 6: outcome vs normalized injection time ({bands} bands x {per_band} runs)\n");
    for workload in &trio {
        let prepared = match prepare_workload(workload.as_ref()) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("skipping {}: {e}", workload.name());
                continue;
            }
        };
        println!(
            "{:<9} {:>9} {:>12} {:>9} {:>9}",
            workload.name(),
            "crashed%",
            "acceptable%",
            "strict%",
            "sdc%"
        );
        let tables =
            timing_campaign(&prepared, workload.as_ref(), &classes, bands, per_band, seed, &runner);
        for (band, t) in tables.iter().enumerate() {
            println!(
                "  {:>3.0}-{:<3.0} {:>8.1} {:>12.1} {:>9.1} {:>9.1}",
                band as f64 / bands as f64 * 100.0,
                (band + 1) as f64 / bands as f64 * 100.0,
                t.fraction(Outcome::Crashed) * 100.0,
                t.acceptable_fraction() * 100.0,
                t.fraction(Outcome::StrictlyCorrect) * 100.0,
                t.fraction(Outcome::Sdc) * 100.0,
            );
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemfi_workloads::pi::MonteCarloPi;

    #[test]
    fn bands_partition_experiments() {
        let w = MonteCarloPi { points: 80, init_spins: 40, ..MonteCarloPi::default() };
        let p = prepare_workload(&w).unwrap();
        let cfg = RunnerConfig {
            inject_cpu: CpuKind::Atomic,
            finish_cpu: CpuKind::Atomic,
            ..RunnerConfig::default()
        };
        let classes = [LocationClass::IntReg, LocationClass::FpReg];
        let tables = timing_campaign(&p, &w, &classes, 3, 4, 9, &cfg);
        assert_eq!(tables.len(), 3);
        assert!(tables.iter().all(|t| t.total() == 4));
    }
}
