//! Superblock switch coverage of the fuzz machine space (PR 8).
//!
//! The switch rides its own auxiliary seed stream, so these tests pin three
//! things: (1) the axis is actually reachable in both positions, (2) the
//! main stream's draw order is untouched (committed seeds keep their
//! documented cases — enforced in the crate's unit tests), and (3) the
//! pinned boundary seed keeps exercising a fault that fires in a run that
//! also executed superblocks, with the knob architecturally invisible.

use gemfi::{FaultConfig, GemFiEngine};
use gemfi_campaign::SplitMix64;
use gemfi_cpu::CpuKind;
use gemfi_fuzz::{boot, gen_case_spec, gen_machine, gen_program, run_case};
use gemfi_sim::{Machine, RunExit};

/// Mirrors the harness drive loop: step over checkpoint-request pseudo-ops
/// (reachable by corrupted fetch words) up to a bound.
fn drive(machine: &mut Machine<GemFiEngine>) -> RunExit {
    for _ in 0..1_000 {
        match machine.run() {
            RunExit::CheckpointRequest => continue,
            exit => return exit,
        }
    }
    RunExit::Watchdog
}

#[test]
fn superblock_knob_is_reachable_in_both_positions() {
    let mut on = 0u32;
    let mut off = 0u32;
    for seed in 0..64u64 {
        let mut rng = SplitMix64::new(seed);
        let _ = gen_program(&mut rng);
        let (_, _, superblock) = gen_machine(seed, &mut rng);
        if superblock {
            on += 1;
        } else {
            off += 1;
        }
    }
    assert!(on > 0 && off > 0, "superblock axis must be sampled both ways ({on} on, {off} off)");
}

/// Seed 459 is the pinned superblock-boundary case (see
/// `regression-seeds.txt`): an Atomic machine with superblocks enabled
/// whose instruction-timed fetch-skip fault fires mid-run — the dormant
/// sprint executes translated blocks up to the fault's event horizon,
/// falls back to per-instruction stepping exactly at the boundary,
/// injects, and must classify cleanly with the very same outcome the
/// knob-off machine produces.
const BOUNDARY_SEED: u64 = 459;

#[test]
fn pinned_boundary_seed_fires_a_fault_across_a_superblock_edge() {
    let mut rng = SplitMix64::new(BOUNDARY_SEED);
    let program = gen_program(&mut rng);
    let (config, elide, superblock) = gen_machine(BOUNDARY_SEED, &mut rng);
    let spec = gen_case_spec(BOUNDARY_SEED, &mut rng);
    assert_eq!(config.cpu, CpuKind::Atomic, "pin drifted: boundary seed must draw Atomic");
    assert!(superblock, "pin drifted: boundary seed must draw superblocks on");

    let run = |superblock: bool| {
        let engine = GemFiEngine::new(FaultConfig::from_specs(vec![spec]));
        let mut m = boot(&program, (config, elide, superblock), engine).expect("boots");
        let exit = drive(&mut m);
        let uops = m.mem().stats().superblock.uops_executed;
        let records = m.hooks().records().to_vec();
        (exit, m.out_words().to_vec(), m.instret(), m.tick(), uops, records)
    };

    let (exit_on, out_on, instret_on, tick_on, uops_on, recs_on) = run(true);
    let (exit_off, out_off, instret_off, tick_off, uops_off, recs_off) = run(false);

    // The boundary is real: superblocks executed AND the fault injected in
    // the same run.
    assert!(uops_on > 0, "pin drifted: no superblock uops executed");
    assert!(!recs_on.is_empty(), "pin drifted: the fault never fired");
    assert_eq!(uops_off, 0, "knob-off run must never touch superblocks");
    assert!(!recs_off.is_empty());

    // Architectural invisibility across the boundary: bit-identical ending,
    // and the injection log — tick, location, value transform — matches
    // record for record (a warm-state leak once shifted record ticks by a
    // few ticks while everything architectural still agreed).
    assert_eq!(exit_on, exit_off, "exit differs across the superblock knob");
    assert_eq!(out_on, out_off, "output differs across the superblock knob");
    assert_eq!(instret_on, instret_off, "instret differs across the superblock knob");
    assert_eq!(tick_on, tick_off, "tick differs across the superblock knob");
    assert_eq!(recs_on, recs_off, "injection records differ across the superblock knob");

    // And the case still classifies through the ordinary harness path.
    let case = run_case(BOUNDARY_SEED).expect("boundary seed must stay contained");
    assert_eq!(case.cpu, CpuKind::Atomic);
}
