//! The fuzzer's pinned superblock-boundary seed.
//!
//! Every fuzz case runs the fast paths (hook elision and superblocks). This
//! test pins that the boundary seed keeps exercising a fault that fires in
//! a run that also executed superblocks, and that the run is bit-identical
//! to the fully hooked `Machine::step()` reference.

use gemfi::{FaultConfig, GemFiEngine};
use gemfi_campaign::SplitMix64;
use gemfi_cpu::CpuKind;
use gemfi_fuzz::{boot, gen_case_spec, gen_machine, gen_program, run_case};
use gemfi_sim::{Machine, RunExit};

/// Mirrors the harness drive loop: step over checkpoint-request pseudo-ops
/// (reachable by corrupted fetch words) up to a bound. `stepped` drives the
/// fully hooked reference instead of `Machine::run`.
fn drive(machine: &mut Machine<GemFiEngine>, stepped: bool) -> RunExit {
    for _ in 0..1_000 {
        let exit = if stepped {
            loop {
                if let Some(exit) = machine.step() {
                    break exit;
                }
            }
        } else {
            machine.run()
        };
        match exit {
            RunExit::CheckpointRequest => continue,
            exit => return exit,
        }
    }
    RunExit::Watchdog
}

/// Seed 459 is the pinned superblock-boundary case (see
/// `regression-seeds.txt`): an Atomic machine whose instruction-timed
/// fetch-skip fault fires mid-run — the dormant sprint executes translated
/// blocks up to the fault's event horizon, falls back to per-instruction
/// stepping exactly at the boundary, injects, and must classify cleanly
/// with the very same outcome the stepped reference produces.
const BOUNDARY_SEED: u64 = 459;

#[test]
fn pinned_boundary_seed_fires_a_fault_across_a_superblock_edge() {
    let mut rng = SplitMix64::new(BOUNDARY_SEED);
    let program = gen_program(&mut rng);
    let config = gen_machine(&mut rng);
    let spec = gen_case_spec(BOUNDARY_SEED, &mut rng);
    assert_eq!(config.cpu, CpuKind::Atomic, "pin drifted: boundary seed must draw Atomic");

    let run = |stepped: bool| {
        let engine = GemFiEngine::new(FaultConfig::from_specs(vec![spec]));
        let mut m = boot(&program, config, engine).expect("boots");
        let exit = drive(&mut m, stepped);
        let uops = m.mem().stats().superblock.uops_executed;
        let records = m.hooks().records().to_vec();
        (exit, m.out_words().to_vec(), m.instret(), m.tick(), uops, records)
    };

    let (exit_on, out_on, instret_on, tick_on, uops_on, recs_on) = run(false);
    let (exit_off, out_off, instret_off, tick_off, uops_off, recs_off) = run(true);

    // The boundary is real: superblocks executed AND the fault injected in
    // the same run.
    assert!(uops_on > 0, "pin drifted: no superblock uops executed");
    assert!(!recs_on.is_empty(), "pin drifted: the fault never fired");
    assert_eq!(uops_off, 0, "the stepped reference must never touch superblocks");
    assert!(!recs_off.is_empty());

    // Architectural invisibility across the boundary: bit-identical ending,
    // and the injection log — tick, location, value transform — matches
    // record for record (a warm-state leak once shifted record ticks by a
    // few ticks while everything architectural still agreed).
    assert_eq!(exit_on, exit_off, "exit differs from the stepped reference");
    assert_eq!(out_on, out_off, "output differs from the stepped reference");
    assert_eq!(instret_on, instret_off, "instret differs from the stepped reference");
    assert_eq!(tick_on, tick_off, "tick differs from the stepped reference");
    assert_eq!(recs_on, recs_off, "injection records differ from the stepped reference");

    // And the case still classifies through the ordinary harness path.
    let case = run_case(BOUNDARY_SEED).expect("boundary seed must stay contained");
    assert_eq!(case.cpu, CpuKind::Atomic);
}
