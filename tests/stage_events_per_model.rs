//! Pins the fault engine's per-stage event counts on each CPU model.
//!
//! `Inst:N` fault timings count stage events, so a change to how a model
//! runs an instruction — which hooks it calls, how often, on which path —
//! moves where every such fault lands even when the guest still computes
//! the same answer. One fault-free guest that covers every instruction
//! family runs under each of the four models with hook elision on and off;
//! the exact `GemFiEngine::stage_events()` of each model is pinned here,
//! and no run may record an injection.

use gemfi::{FaultConfig, GemFiEngine};
use gemfi_asm::{Assembler, FReg, Program, Reg};
use gemfi_cpu::CpuKind;
use gemfi_sim::{Machine, MachineConfig, RunExit};

/// Loop trips: enough for the branch predictor to train and to mispredict.
const TRIPS: i64 = 3;

/// The guest's output word.
const CHECKSUM: u64 = 196_674;

/// One loop whose body runs every instruction family: int and fp loads and
/// stores of both widths, `lda`/`ldah`, `br`/`bsr`/`jsr`/`ret`, int and fp
/// conditional branches taken and not taken, int and fp conditional moves
/// performed and not performed, and `itoft`/`ftoit`.
fn every_family_program() -> Program {
    let mut a = Assembler::new();
    a.dsym("buf");
    a.data_u64(&[5, 0, 0, 0]);
    a.fi_activate(0);
    a.la(Reg::R1, "buf");
    a.la(Reg::R9, "leaf");
    a.li(Reg::R10, 0); // accumulator
    a.li(Reg::R11, TRIPS); // trip counter
    a.label("loop");
    a.lda(Reg::R2, 8, Reg::R1);
    a.ldah(Reg::R3, 1, Reg::R31);
    a.ldq(Reg::R4, 0, Reg::R1);
    a.ldl(Reg::R5, 0, Reg::R1);
    a.stq(Reg::R4, 0, Reg::R2);
    a.stl(Reg::R5, 16, Reg::R1);
    a.ldt(FReg::F1, 0, Reg::R1);
    a.stt(FReg::F1, 24, Reg::R1);
    a.itoft(Reg::R3, FReg::F2);
    a.ftoit(FReg::F2, Reg::R6);
    // Conditional moves, performed (r31/f31 == 0) and not performed.
    a.cmoveq(Reg::R31, Reg::R4, Reg::R7);
    a.cmovne(Reg::R31, Reg::R3, Reg::R7);
    a.fcmoveq(FReg::F31, FReg::F1, FReg::F3);
    a.fcmovne(FReg::F31, FReg::F2, FReg::F3);
    a.ftoit(FReg::F3, Reg::R8);
    // Conditional branches, taken and not taken.
    a.bne(Reg::R31, "never");
    a.beq(Reg::R31, "int_taken");
    a.label("never");
    a.addq_lit(Reg::R10, 100, Reg::R10);
    a.label("int_taken");
    a.fbne(FReg::F31, "fp_never");
    a.fbeq(FReg::F31, "fp_taken");
    a.label("fp_never");
    a.addq_lit(Reg::R10, 200, Reg::R10);
    a.label("fp_taken");
    // Direct and indirect calls, returns, and an unconditional branch.
    a.call("leaf");
    a.jsr(Reg::RA, Reg::R9);
    a.br("join");
    a.addq_lit(Reg::R10, 250, Reg::R10);
    a.label("join");
    a.ldq(Reg::R12, 8, Reg::R1);
    a.ldl(Reg::R13, 16, Reg::R1);
    a.addq(Reg::R10, Reg::R6, Reg::R10);
    a.addq(Reg::R10, Reg::R7, Reg::R10);
    a.addq(Reg::R10, Reg::R8, Reg::R10);
    a.addq(Reg::R10, Reg::R12, Reg::R10);
    a.addq(Reg::R10, Reg::R13, Reg::R10);
    a.subq_lit(Reg::R11, 1, Reg::R11);
    a.bne(Reg::R11, "loop");
    a.mov(Reg::R10, Reg::A0);
    a.write_word();
    a.exit(0);
    a.label("leaf");
    a.addq_lit(Reg::R10, 1, Reg::R10);
    a.ret();
    a.finish().expect("assembles")
}

/// `[fetch, decode, execute, memory, register]` events of one run.
fn stage_events(program: &Program, cpu: CpuKind, elide: bool) -> [u64; 5] {
    let config = MachineConfig { cpu, max_ticks: 1_000_000, ..MachineConfig::default() };
    let mut machine =
        Machine::boot(config, program, GemFiEngine::new(FaultConfig::empty())).expect("boots");
    machine.set_elide(elide);
    let exit = machine.run();
    assert_eq!(exit, RunExit::Halted(0), "{cpu} elide={elide}");
    assert_eq!(machine.out_words(), [CHECKSUM], "{cpu} elide={elide}");
    assert!(machine.hooks().records().is_empty(), "{cpu} elide={elide}: nothing may fire");
    machine.hooks().stage_events()
}

#[test]
fn every_model_serves_the_pinned_stage_events() {
    let program = every_family_program();
    let expected = [
        (CpuKind::Atomic, [115, 115, 107, 24, 116]),
        (CpuKind::Timing, [115, 115, 107, 24, 116]),
        (CpuKind::InOrder, [115, 115, 107, 24, 116]),
        // Wrong-path fetches; executes of a squashed path and of cmovs
        // whose condition is false, none for `br`/`bsr` (DESIGN §10).
        (CpuKind::O3, [166, 166, 115, 24, 116]),
    ];
    for (cpu, want) in expected {
        for elide in [false, true] {
            assert_eq!(stage_events(&program, cpu, elide), want, "{cpu} elide={elide}");
        }
    }
}
