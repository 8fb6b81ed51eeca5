//! A register fault read only on a squashed wrong path.
//!
//! O3 reports register-file reads at dispatch (the operand loop of
//! `O3Cpu::dispatch_one` in `crates/cpu/src/o3.rs`), wrong-path instructions
//! included. So a register fault whose only read is on a path the branch
//! then squashes, and whose first architectural access is a write, is
//! recorded `consumed` on O3, while Atomic, which does not speculate,
//! records it `overwritten`. The two models then disagree on the same
//! fault: `InjectionRecord::propagated` holds on O3 only, so only the
//! Atomic run can classify as non-propagated.
//!
//! This test pins today's records. ROADMAP item 10 (the fault lifecycle in
//! the engine) counts consumption at the reader's commit instead; that
//! change flips the O3 half to match Atomic.

use gemfi::{
    FaultBehavior, FaultConfig, FaultLocation, FaultSpec, FaultTiming, GemFiEngine, InjectionRecord,
};
use gemfi_asm::{Assembler, Program, Reg};
use gemfi_cpu::CpuKind;
use gemfi_sim::{Machine, MachineConfig, RunExit};

/// The register the fault flips: `r25`, which only the wrong path reads.
const FAULTED: u8 = 25;

/// Straight-line filler ahead of the branch: more instructions than the
/// 64-entry O3 reorder buffer holds, so the fault (fired at the first
/// commits) lands before the branch and its wrong path are dispatched.
const FILLER: usize = 80;

/// A taken branch the cold predictor (weakly not-taken) mispredicts. Its
/// operand comes out of a multiply chain, so the branch resolves late and
/// the fall-through wrong path, which reads `r25`, dispatches first. The
/// correct path writes `r25` before anything reads it, then publishes it.
fn wrong_path_program() -> Program {
    let mut a = Assembler::new();
    a.fi_activate(0);
    for _ in 0..FILLER {
        a.addq_lit(Reg::R3, 1, Reg::R3);
    }
    a.li(Reg::R2, 3);
    for _ in 0..8 {
        a.mulq(Reg::R2, Reg::R2, Reg::R2);
    }
    a.mulq_lit(Reg::R2, 0, Reg::R2);
    a.beq(Reg::R2, "correct");
    // The wrong path: never committed.
    a.addq(Reg::R25, Reg::R25, Reg::R5);
    a.exit(1);
    a.label("correct");
    a.li(Reg::R25, 5);
    a.mov(Reg::R25, Reg::A0);
    a.write_word();
    a.exit(0);
    a.finish().expect("assembles")
}

/// The fault's one injection record on `cpu`.
fn record_on(cpu: CpuKind) -> InjectionRecord {
    let fault = FaultSpec {
        location: FaultLocation::IntReg { core: 0, reg: FAULTED },
        thread: 0,
        timing: FaultTiming::Instructions(1),
        behavior: FaultBehavior::Flip(3),
        occurrences: 1,
    };
    let engine = GemFiEngine::new(FaultConfig::from_specs(vec![fault]));
    let config = MachineConfig { cpu, max_ticks: 1_000_000, ..MachineConfig::default() };
    let mut machine = Machine::boot(config, &wrong_path_program(), engine).expect("boots");
    assert_eq!(machine.run(), RunExit::Halted(0), "{cpu}: the correct path exits");
    assert_eq!(machine.out_words(), [5], "{cpu}: the correct path overwrote r25");
    let [record] = machine.hooks().records() else { panic!("{cpu}: one record") };
    record.clone()
}

#[test]
fn a_wrong_path_read_counts_as_consumption_on_o3_only() {
    let o3 = record_on(CpuKind::O3);
    assert!(o3.consumed && !o3.overwritten, "O3 counts the squashed read at dispatch: {o3:?}");
    assert!(o3.propagated());
    let atomic = record_on(CpuKind::Atomic);
    assert!(
        !atomic.consumed && atomic.overwritten,
        "Atomic sees only the correct path's write: {atomic:?}"
    );
    assert!(!atomic.propagated());
}
