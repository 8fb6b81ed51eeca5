//! Regenerates Fig. 8: effect of GemFI's optimizations on the execution
//! time of fault-injection campaigns (log-scale bars in the paper).
//!
//! Three configurations per workload, as in Sec. V:
//!
//! 1. **baseline** — every experiment simulates from machine boot through
//!    application initialization and the kernel, restoring its freshly
//!    booted checkpoint whole (with `--boot 0` that checkpoint equals the
//!    prepared one, and only a whole restore keeps the arm a baseline);
//! 2. **checkpoint** — experiments restore the post-initialization
//!    checkpoint and simulate only the kernel (Fig. 3 fast-forwarding;
//!    the paper reports 3×–244×, average 64.5×). They start from the
//!    prepared workload's stations, whose one-time trunk walk is set-up
//!    like the checkpoint itself: it runs untimed before the arm and is
//!    reported in its own `walk` column;
//! 3. **NoW** — the checkpointed experiments spread over a simulated
//!    network of workstations (the paper: 27 machines × 4 slots ≈ 108×
//!    on top of checkpointing). Each workstation's local checkpoint copy
//!    has the prepared checkpoint's digest, so it forks the same stations.
//!
//! ```text
//! cargo run --release -p gemfi-bench --bin fig8 -- \
//!     [--scale small|default|paper] [--experiments N] \
//!     [--workstations W] [--slots S] [--atomic]
//! ```

use gemfi::{AbortToken, FaultSpec, FaultTiming};
use gemfi_bench::Args;
use gemfi_campaign::{
    classify, drive_whole_run,
    now::{run_campaign_now, NowConfig},
    prepare_workload, run_experiment, FaultSampler, RunnerConfig,
};
use gemfi_cpu::CpuKind;
use std::time::Instant;

fn main() {
    let args = Args::from_env();
    let experiments: usize = args.number("experiments", 24);
    let workstations: usize = args.number(
        "workstations",
        std::thread::available_parallelism().map(|n| n.get() / 2).unwrap_or(4).max(2),
    );
    let slots: usize = args.number("slots", 2);
    // Synthetic OS-boot cost per fresh boot (the paper's checkpoints skip a
    // full Linux boot; ours skip this spin plus application init).
    let boot_spin: u64 = args.number("boot", 300_000);
    let seed: u64 = args.number("seed", 0xf18);
    let runner = if args.has("atomic") {
        RunnerConfig {
            inject_cpu: CpuKind::Atomic,
            finish_cpu: CpuKind::Atomic,
            ..RunnerConfig::default()
        }
    } else {
        RunnerConfig::default()
    };
    let workloads = gemfi_bench::select_workloads(args.scale(), args.value_of("workloads"));

    println!(
        "Fig. 8: campaign time ({experiments} experiments; boot = {boot_spin} instrs; NoW = {workstations} ws x {slots} slots)\n"
    );
    println!(
        "{:<10} {:>13} {:>9} {:>13} {:>13} {:>13} {:>9} {:>9}",
        "workload",
        "baseline (s)",
        "walk (s)",
        "ckpt (s)",
        "now-wall (s)",
        "now-27x4 (s)",
        "ckpt-x",
        "now-x"
    );
    gemfi_bench::rule(98);

    for workload in &workloads {
        let prepared = match prepare_workload(workload.as_ref()) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("skipping {}: {e}", workload.name());
                continue;
            }
        };
        let mut sampler = FaultSampler::new(seed, prepared.stage_events, 0, 0);
        let specs: Vec<_> = (0..experiments).map(|_| sampler.sample_any()).collect();

        // 1. Baseline: every experiment re-simulates boot + application
        //    initialization, then its kernel from a whole restore (no
        //    checkpoint reuse, no stations).
        let t0 = Instant::now();
        for spec in &specs {
            let guest = workload.build();
            let mut config = gemfi_workloads::workload_machine_config(gemfi_cpu::CpuKind::Atomic);
            config.boot_spin = boot_spin;
            let mut machine =
                gemfi_sim::Machine::boot(config, &guest.program, gemfi_cpu::NoopHooks)
                    .expect("boots");
            assert_eq!(machine.run(), gemfi_sim::RunExit::CheckpointRequest);
            let fresh_ckpt = machine.checkpoint();
            let (machine, exit, _) =
                drive_whole_run(&fresh_ckpt, &prepared, &[*spec], &runner, &AbortToken::new());
            let output = machine
                .mem()
                .read_slice(prepared.guest.output_addr(), prepared.guest.output_len)
                .unwrap_or_default();
            let records = machine.hooks().records();
            let _ = classify(workload.as_ref(), &prepared.golden.bytes, exit, &output, records);
        }
        let baseline = t0.elapsed().as_secs_f64();

        // 2. Checkpoint fast-forward: initialization paid once. The
        //    stations' trunk walk is paid once too, here and untimed in the
        //    arm: a fault that never arms walks the trunk to its end, so no
        //    timed experiment carries the walk into `sum` or `longest`.
        let tw = Instant::now();
        if let Some(first) = specs.first() {
            let never = FaultSpec { timing: FaultTiming::Instructions(u64::MAX), ..*first };
            let _ = run_experiment(&prepared, workload.as_ref(), never, &runner);
        }
        let walk = tw.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut per_experiment = Vec::with_capacity(specs.len());
        for spec in &specs {
            let te = Instant::now();
            let _ = run_experiment(&prepared, workload.as_ref(), *spec, &runner);
            per_experiment.push(te.elapsed().as_secs_f64());
        }
        let ckpt = t1.elapsed().as_secs_f64();

        // Modeled NoW makespan on the paper's 27x4 = 108 slots: experiments
        // are independent, so the parallel time is the balanced-load
        // makespan (host parallelism does not limit the model).
        let slots_paper = 108.0;
        let sum: f64 = per_experiment.iter().sum();
        let longest = per_experiment.iter().cloned().fold(0.0, f64::max);
        let modeled_now = (sum / slots_paper).max(longest);

        // 3. NoW over the spool directory.
        let share = std::env::temp_dir().join(format!(
            "gemfi-fig8-{}-{}",
            workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&share);
        let cfg = NowConfig::new(workstations, slots, &share);
        let t2 = Instant::now();
        let (_, _, report) = run_campaign_now(&prepared, workload.as_ref(), &specs, &runner, &cfg)
            .expect("share dir usable");
        let now_time = t2.elapsed().as_secs_f64();
        std::fs::remove_dir_all(&share).ok();
        let _ = report;

        println!(
            "{:<10} {:>13.2} {:>9.2} {:>13.2} {:>13.2} {:>13.3} {:>8.1}x {:>8.1}x",
            workload.name(),
            baseline,
            walk,
            ckpt,
            now_time,
            modeled_now,
            baseline / ckpt.max(1e-9),
            baseline / modeled_now.max(1e-9),
        );
    }
    gemfi_bench::rule(98);
    println!(
        "\npaper reference: checkpointing 3x-244x (avg 64.5x); NoW adds ~(workstations x slots)"
    );
    println!("note: speedups scale with the init/kernel time ratio and available cores");
}
