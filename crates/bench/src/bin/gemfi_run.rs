//! `gemfi_run` — the command-line front end the paper describes: "Using the
//! command line, the user provides a configuration file (Listing 1)
//! describing all the faults to be injected in the simulation."
//!
//! Runs one of the bundled workloads under GemFI with a user-supplied fault
//! file, printing the injection log and the classified outcome.
//!
//! ```text
//! cargo run --release -p gemfi-bench --bin gemfi_run -- \
//!     --workload pi --faults faults.txt [--cpu o3|atomic|inorder|timing] \
//!     [--scale small|default|paper]
//!
//! # example faults.txt line (the paper's Listing 1):
//! # RegisterInjectedFault Inst:2457 Flip:21 Threadid:0 system.cpu0 occ:1 int 1
//! ```
//!
//! Campaign mode runs a whole sampled experiment set over the simulated
//! network of workstations, with the durable journal and lease protocol —
//! and picks up where an interrupted campaign left off:
//!
//! ```text
//! gemfi_run --workload pi --campaign 200 --share /mnt/spool/pi \
//!     [--seed N] [--workstations N] [--slots N] \
//!     [--max-retries N] [--resume]
//! ```
//!
//! Adaptive mode replaces the fixed experiment count with the sequential
//! sampling engine: per-cell batches are drawn only until every
//! outcome-rate Wilson CI is tighter than `--ci-halfwidth`, lopsided cells
//! stop early, and the remaining budget flows to high-variance cells
//! (`--campaign N` without `--adaptive` stays the fixed-n baseline):
//!
//! ```text
//! gemfi_run --workload pi --adaptive --share /mnt/spool/pi \
//!     [--ci-halfwidth 0.05] [--min-n 25] [--budget N] [--batch 16] \
//!     [--cells int-reg,pc,l1d-cache,...] [--seed N] [--resume]
//! ```

use gemfi::{FaultConfig, GemFiEngine, Outcome};
use gemfi_bench::Args;
use gemfi_campaign::{
    prepare_workload, run_campaign_adaptive_now, run_campaign_now, run_experiment_multi,
    AdaptiveConfig, CellKind, FaultSampler, NowConfig, NowReport, OutcomeTable, RunnerConfig,
};
use gemfi_cpu::CpuKind;
use gemfi_sim::{Machine, MachineConfig};

const USAGE: &str = "\
usage: gemfi_run (--workload <name> | --program <file.s>) [--faults <file>] \
[--cpu o3|atomic|inorder|timing] [--scale small|default|paper]
       gemfi_run --workload <name> --campaign <experiments> --share <dir> \
[--seed N] [--workstations N] [--slots N] [--max-retries N] [--resume]
       gemfi_run --workload <name> --adaptive --share <dir> \
[--ci-halfwidth H] [--min-n N] [--budget N] [--batch N] [--cells a,b,...] [--seed N] [--resume]
workloads: dct jacobi pi knapsack deblock canneal";

/// Runs a user-supplied `.s` assembly file under GemFI (no outcome
/// classification — there is no golden model for arbitrary programs).
fn run_assembly_file(path: &str, faults: FaultConfig, cpu: CpuKind) -> ! {
    let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    let program = gemfi_asm::assemble(&source).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    });
    let config = MachineConfig { cpu, ..MachineConfig::default() };
    let mut machine =
        Machine::boot(config, &program, GemFiEngine::new(faults)).unwrap_or_else(|t| {
            eprintln!("boot failed: {t}");
            std::process::exit(1);
        });
    let mut exit = machine.run();
    while exit == gemfi_sim::RunExit::CheckpointRequest {
        exit = machine.run();
    }
    println!("exit: {exit}");
    if !machine.console().is_empty() {
        println!("console: {}", String::from_utf8_lossy(machine.console()));
    }
    if !machine.out_words().is_empty() {
        println!("out_words: {:?}", machine.out_words());
    }
    println!("injections:");
    for r in machine.hooks().records() {
        println!("  {r}");
    }
    std::process::exit(0);
}

/// Campaign mode: sample `n` faults and execute them on the simulated NoW
/// with the journal/lease protocol. With `--resume`, replays the journal on
/// the share and finishes only the unfinished remainder. The fault set is
/// resampled deterministically from `--seed`, so the original and resumed
/// invocations describe the same campaign.
fn run_campaign_mode(
    args: &Args,
    workload: &dyn gemfi_workloads::Workload,
    n: Option<&str>,
    cpu: CpuKind,
) -> ! {
    let Some(share) = args.value_of("share") else {
        eprintln!("campaign mode needs --share <dir> (the spool directory)");
        std::process::exit(2);
    };

    let prepared = prepare_workload(workload).unwrap_or_else(|e| {
        eprintln!("prepare failed: {e}");
        std::process::exit(1);
    });
    let seed = args.number("seed", 1u64);
    let config = NowConfig {
        max_retries: args.number("max-retries", 2u64),
        resume: args.has("resume"),
        ..NowConfig::new(args.number("workstations", 3usize), args.number("slots", 2usize), share)
    };
    let runner = RunnerConfig { inject_cpu: cpu, ..RunnerConfig::default() };

    if args.has("adaptive") {
        run_adaptive_campaign(args, workload, &prepared, n, seed, &config, &runner);
    }
    let experiments: usize = n.and_then(|n| n.parse().ok()).unwrap_or_else(|| {
        eprintln!("--campaign expects an experiment count, got `{}`", n.unwrap_or(""));
        std::process::exit(2);
    });
    let mut sampler = FaultSampler::new(seed, prepared.stage_events, 0, 0);
    let specs: Vec<_> = (0..experiments).map(|_| sampler.sample_any()).collect();
    println!(
        "campaign: {} x {} on {} ws x {} slots | share {share} | seed {seed} | resume: {}",
        experiments,
        workload.name(),
        config.workstations,
        config.slots_per_workstation,
        config.resume,
    );

    let (table, _, report) = run_campaign_now(&prepared, workload, &specs, &runner, &config)
        .unwrap_or_else(|e| {
            eprintln!("campaign failed: {e}");
            std::process::exit(1);
        });
    println!("\n{table}");
    conclude(&table, &report);
}

/// Prints a finished campaign's summary lines and exits: 3 when any
/// experiment ended as an infrastructure failure, 0 otherwise.
fn conclude(table: &OutcomeTable, report: &NowReport) -> ! {
    println!("acceptable: {:.1}%", table.acceptable_fraction() * 100.0);
    println!(
        "wall {:.2?} | resumed {} | retries {} | reclaimed leases {} | infra failures {}",
        report.wall,
        report.resumed,
        report.retries,
        report.reclaimed_leases,
        report.infrastructure_failures,
    );
    std::process::exit(if table.count(Outcome::Infrastructure) > 0 { 3 } else { 0 });
}

/// Adaptive mode: sequential sampling with per-cell early stopping.
/// `--campaign N` (when given alongside `--adaptive`) doubles as the
/// default `--budget`.
fn run_adaptive_campaign(
    args: &Args,
    workload: &dyn gemfi_workloads::Workload,
    prepared: &gemfi_campaign::PreparedWorkload,
    n: Option<&str>,
    seed: u64,
    config: &NowConfig,
    runner: &RunnerConfig,
) -> ! {
    let default_budget: u64 = n.and_then(|n| n.parse().ok()).unwrap_or(0);
    let mut adaptive = AdaptiveConfig {
        ci_halfwidth: args.number("ci-halfwidth", 0.05f64),
        min_n: args.number("min-n", 25u64),
        budget: args.number("budget", default_budget),
        batch: args.number("batch", 16u64),
        ..AdaptiveConfig::default()
    };
    if let Some(list) = args.value_of("cells") {
        adaptive.cells = list
            .split(',')
            .map(|label| {
                CellKind::parse(label.trim()).unwrap_or_else(|| {
                    eprintln!(
                        "unknown cell `{label}` (known: int-reg fp-reg fetch decode execute \
                         mem pc l1i-cache l1d-cache l2-cache security)"
                    );
                    std::process::exit(2);
                })
            })
            .collect();
    }
    println!(
        "adaptive campaign: {} on {} ws x {} slots | ±{} at z={:.2}, min-n {}, budget {}, \
         batch {} | cells {} | seed {seed} | resume: {}",
        workload.name(),
        config.workstations,
        config.slots_per_workstation,
        adaptive.ci_halfwidth,
        adaptive.z,
        adaptive.min_n,
        if adaptive.budget == 0 { "auto".to_string() } else { adaptive.budget.to_string() },
        adaptive.batch,
        adaptive.cells_label(),
        config.resume,
    );

    let (outcome, report) =
        run_campaign_adaptive_now(prepared, workload, runner, config, &adaptive, seed)
            .unwrap_or_else(|e| {
                eprintln!("adaptive campaign failed: {e}");
                std::process::exit(1);
            });
    println!("\n{outcome}");
    println!("pooled: {}", outcome.table);
    conclude(&outcome.table, &report);
}

fn main() {
    let args = Args::from_env_checked(USAGE);
    let cpu_of = |args: &Args| match args.value_of("cpu") {
        Some("atomic") => CpuKind::Atomic,
        Some("inorder") => CpuKind::InOrder,
        Some("timing") => CpuKind::Timing,
        _ => CpuKind::O3,
    };
    if let Some(path) = args.value_of("program") {
        let faults = match args.value_of("faults") {
            Some(f) => FaultConfig::load(std::path::Path::new(f)).unwrap_or_else(|e| {
                eprintln!("cannot read fault file {f}: {e}");
                std::process::exit(2);
            }),
            None => FaultConfig::empty(),
        };
        run_assembly_file(path, faults, cpu_of(&args));
    }
    let Some(name) = args.value_of("workload") else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let workloads = gemfi_bench::select_workloads(args.scale(), Some(name));
    let Some(workload) = workloads.first() else {
        eprintln!("unknown workload `{name}`");
        std::process::exit(2);
    };

    if args.value_of("campaign").is_some() || args.has("adaptive") {
        run_campaign_mode(&args, workload.as_ref(), args.value_of("campaign"), cpu_of(&args));
    }

    let faults = match args.value_of("faults") {
        Some(path) => match FaultConfig::load(std::path::Path::new(path)) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot read fault file {path}: {e}");
                std::process::exit(2);
            }
        },
        None => FaultConfig::empty(),
    };
    let cpu = cpu_of(&args);

    println!("workload: {} | injection model: {cpu} | faults: {}", workload.name(), faults.len());
    for f in faults.faults() {
        println!("  {f}");
    }

    let prepared = prepare_workload(workload.as_ref()).unwrap_or_else(|e| {
        eprintln!("prepare failed: {e}");
        std::process::exit(1);
    });
    println!(
        "\ncheckpoint at tick {}; fault space (events/stage): {:?}",
        prepared.checkpoint.tick(),
        prepared.stage_events
    );

    if faults.is_empty() {
        println!("\nno faults: golden run only");
        println!("  exit: {}", prepared.golden.exit);
        println!("  stats:\n{}", indent(&prepared.golden.stats.to_string()));
        return;
    }

    let runner = RunnerConfig { inject_cpu: cpu, ..RunnerConfig::default() };
    let result = run_experiment_multi(&prepared, workload.as_ref(), faults.faults(), &runner);

    println!("\ninjections:");
    if result.injections.is_empty() {
        println!("  (none fired)");
    }
    for r in &result.injections {
        println!("  {r}");
    }
    println!("\nexit: {}", result.exit);
    println!("outcome: {}", result.outcome);
    if let Some(f) = result.injection_fraction {
        println!("first injection at {:.0}% of the kernel", f * 100.0);
    }
}

fn indent(s: &str) -> String {
    s.lines().map(|l| format!("    {l}\n")).collect()
}
