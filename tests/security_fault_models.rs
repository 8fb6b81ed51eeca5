//! Differential test matrix for the security-style fault behaviors —
//! instruction skip, opcode replacement, and branch-condition inversion —
//! pinned across all four CPU models, each through `Machine::run` and
//! through the stepped reference (a fully hooked `Machine::step()` loop).
//!
//! Every spec is built as a Listing-1 text line and parsed through
//! [`FaultConfig`], proving each behavior reachable from `gemfi_run` input
//! syntax. Architectural effects are checked differentially against a
//! fault-free golden run of the same program on the same configuration.

#[path = "support/stepped.rs"]
mod stepped;

use gemfi::{FaultConfig, GemFiEngine};
use gemfi_asm::{Assembler, Program, Reg};
use gemfi_cpu::CpuKind;
use gemfi_sim::{Machine, MachineConfig, RunExit};
use stepped::run_stepped;

const MODELS: [CpuKind; 4] = [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3];

/// Every (cpu, stepped) corner of the machine space.
fn machine_matrix() -> Vec<(CpuKind, bool)> {
    MODELS.iter().flat_map(|&cpu| [(cpu, true), (cpu, false)]).collect()
}

fn label((cpu, stepped): &(CpuKind, bool)) -> String {
    format!("{cpu} stepped:{stepped}")
}

fn run(config: (CpuKind, bool), program: &Program, lines: &str) -> (RunExit, Vec<u64>) {
    let faults: FaultConfig = lines.parse().unwrap_or_else(|e| panic!("bad spec {lines:?}: {e:?}"));
    let (cpu, stepped) = config;
    let machine_config = MachineConfig { cpu, max_ticks: 3_000_000, ..MachineConfig::default() };
    let mut machine =
        Machine::boot(machine_config, program, GemFiEngine::new(faults)).expect("machine boots");
    // A replaced opcode can decode into the checkpoint-request pseudo-op;
    // step over those, as a campaign driver would.
    let exit = if stepped {
        run_stepped(&mut machine)
    } else {
        let mut exit = machine.run();
        while exit == RunExit::CheckpointRequest {
            exit = machine.run();
        }
        exit
    };
    assert!(
        !matches!(exit, RunExit::SimError(_)),
        "security fault must never surface a simulator error on {}: {exit}",
        label(&config)
    );
    (exit, machine.out_words().to_vec())
}

/// An activated counting program: R1 is incremented `incs` times by a run
/// of identical instructions, then published. Skipping any one of the
/// increments — wherever the timing window lands inside the run — loses
/// exactly 1 from the output, which makes the assertion robust to
/// per-model differences in how soon after arming the fault fires.
fn counting_program(incs: usize) -> Program {
    let mut a = Assembler::new();
    a.fi_activate(0);
    a.li(Reg::R1, 0);
    for _ in 0..incs {
        a.addq_lit(Reg::R1, 1, Reg::R1);
    }
    a.mov(Reg::R1, Reg::A0);
    a.write_word();
    a.exit(0);
    a.finish().expect("assembles")
}

#[test]
fn skip_advances_pc_without_architectural_side_effects() {
    let program = counting_program(10);
    // Inst:6 lands mid-run on every model and counting convention.
    let spec = "FetchedInstructionInjectedFault Inst:6 Skip Threadid:0 system.cpu0 occ:1";
    for config in machine_matrix() {
        let (exit, clean) = run(config, &program, "");
        assert_eq!((exit, clean), (RunExit::Halted(0), vec![10]), "golden on {}", label(&config));
        let (exit, words) = run(config, &program, spec);
        assert_eq!(exit, RunExit::Halted(0), "skip stays contained on {}", label(&config));
        // Exactly one increment vanished: the PC advanced over the skipped
        // instruction (the rest of the run executed) and the destination
        // register kept its old value (no side effects).
        assert_eq!(words, vec![9], "exactly one skipped increment on {}", label(&config));
    }
}

#[test]
fn skipping_every_instruction_still_terminates() {
    // A permanent skip erases the whole remaining program, including the
    // exit PAL call: the machine must fall to a classifiable exit (trap at
    // the program's edge or the watchdog), never a panic or sim error.
    let program = counting_program(4);
    let spec = "FetchedInstructionInjectedFault Inst:1 Skip Threadid:0 system.cpu0 occ:perm";
    for config in machine_matrix() {
        let (exit, _) = run(config, &program, spec);
        assert!(
            matches!(exit, RunExit::Trapped(_) | RunExit::Halted(_) | RunExit::Watchdog),
            "permanent skip must classify on {}: {exit}",
            label(&config)
        );
    }
}

#[test]
fn opcode_replacement_decodes_or_traps_for_every_opcode_value() {
    let program = counting_program(10);
    let mut trapped = 0u32;
    let mut halted = 0u32;
    for opcode in 0..64u32 {
        let spec = format!(
            "FetchedInstructionInjectedFault Inst:6 Opcode:{opcode:#x} Threadid:0 \
             system.cpu0 occ:1"
        );
        for config in machine_matrix() {
            let (exit, _) = run(config, &program, &spec);
            match exit {
                RunExit::Trapped(_) => trapped += 1,
                RunExit::Halted(_) => halted += 1,
                RunExit::Watchdog => {}
                other => {
                    panic!("opcode {opcode:#x} must decode or trap on {}: {other}", label(&config))
                }
            }
        }
    }
    // The sweep must exercise both sides of decodes-or-traps: some
    // replacement opcodes are illegal (documented trap), others decode
    // into live instructions and run to completion.
    assert!(trapped > 0, "no replacement opcode trapped");
    assert!(halted > 0, "no replacement opcode decoded and ran");
}

#[test]
fn opcode_replacement_preserves_operand_fields() {
    // Replacing an opcode with itself is the identity: the operand fields
    // were untouched, so the run must match golden bit-for-bit.
    let program = counting_program(10);
    // addq_lit encodes under opcode 0x10 (INTA operate format).
    let spec = "FetchedInstructionInjectedFault Inst:6 Opcode:0x10 Threadid:0 system.cpu0 occ:1";
    for config in machine_matrix() {
        let (exit, words) = run(config, &program, spec);
        assert_eq!(
            (exit, words),
            (RunExit::Halted(0), vec![10]),
            "identity opcode replacement on {}",
            label(&config)
        );
    }
}

#[test]
fn invert_branch_flips_exactly_the_targeted_branch() {
    // Two independent never-taken paths guarded by always-taken branches.
    // Inverting only the first (occ:1) executes the first guarded block
    // and must leave the second branch alone.
    let mut a = Assembler::new();
    a.fi_activate(0);
    a.li(Reg::R1, 0);
    a.li(Reg::R2, 0);
    a.li(Reg::R3, 0);
    a.beq(Reg::R3, "a");
    a.addq_lit(Reg::R1, 1, Reg::R1);
    a.label("a");
    a.beq(Reg::R3, "b");
    a.addq_lit(Reg::R2, 1, Reg::R2);
    a.label("b");
    a.mov(Reg::R1, Reg::A0);
    a.write_word();
    a.mov(Reg::R2, Reg::A0);
    a.write_word();
    a.exit(0);
    let program = a.finish().expect("assembles");
    let spec = "ExecutionStageInjectedFault Inst:1 InvertBranch Threadid:0 system.cpu0 occ:1";
    for config in machine_matrix() {
        let (exit, clean) = run(config, &program, "");
        assert_eq!((exit, clean), (RunExit::Halted(0), vec![0, 0]), "golden on {}", label(&config));
        let (exit, words) = run(config, &program, spec);
        assert_eq!(exit, RunExit::Halted(0), "inversion stays contained on {}", label(&config));
        assert_eq!(
            words,
            vec![1, 0],
            "first branch inverted, second untouched, on {}",
            label(&config)
        );
    }
}

#[test]
fn permanent_inversion_flips_every_branch() {
    // A 3-iteration counted loop under permanent inversion: the back-edge
    // is never taken, so exactly one iteration runs and the counter
    // publishes 2 instead of 0.
    let mut a = Assembler::new();
    a.fi_activate(0);
    a.li(Reg::R2, 3);
    a.label("loop");
    a.subq_lit(Reg::R2, 1, Reg::R2);
    a.bne(Reg::R2, "loop");
    a.mov(Reg::R2, Reg::A0);
    a.write_word();
    a.exit(0);
    let program = a.finish().expect("assembles");
    let spec = "ExecutionStageInjectedFault Inst:1 InvertBranch Threadid:0 system.cpu0 occ:perm";
    for config in machine_matrix() {
        let (exit, clean) = run(config, &program, "");
        assert_eq!((exit, clean), (RunExit::Halted(0), vec![0]), "golden on {}", label(&config));
        let (exit, words) = run(config, &program, spec);
        assert_eq!(exit, RunExit::Halted(0), "inversion stays contained on {}", label(&config));
        assert_eq!(words, vec![2], "back-edge never taken on {}", label(&config));
    }
}
