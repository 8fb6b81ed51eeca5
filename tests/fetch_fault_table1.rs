//! The paper's Table-I-driven validation of fetched-instruction faults
//! (Sec. IV-B-2): correlating the corrupted *bit position* within the
//! instruction word with the architectural outcome.
//!
//! * flips in unused (SBZ) bits → strictly correct;
//! * flips turning the opcode/function into an unimplemented encoding →
//!   illegal-instruction crash;
//! * flips in a memory instruction's displacement → wild address → crash
//!   (with high probability, here made deterministic);
//! * flips in a not-taken branch's displacement → strictly correct.

#[path = "support/stepped.rs"]
mod stepped;

use gemfi::{FaultConfig, GemFiEngine};
use gemfi_asm::{Assembler, Reg};
use gemfi_cpu::CpuKind;
use gemfi_isa::Trap;
use gemfi_sim::{Machine, MachineConfig, RunExit};
use stepped::run_stepped;

/// Asserts that every cached predecoded entry still agrees with the
/// pristine instruction text in memory: a faulted fetch must decode the
/// corrupted word fresh and never install it.
fn assert_no_corrupted_decode_cached<H: gemfi_cpu::FaultHooks>(
    machine: &Machine<H>,
    program: &gemfi_asm::Program,
) {
    for (i, &word) in program.text_words().iter().enumerate() {
        let pc = gemfi_asm::TEXT_BASE + (i as u64) * 4;
        if let Some(cached) = machine.mem().peek_predecoded(pc) {
            let clean = gemfi_isa::decode(gemfi_isa::RawInstr(word)).expect("text decodes");
            assert_eq!(cached, clean, "corrupted decode cached at {pc:#x}");
        }
    }
}

/// One run of the Table-I scenario through `Machine::run` or, with
/// `stepped`, the stepped reference.
fn run_with_fetch_flip_mode(
    build_body: &impl Fn(&mut Assembler),
    instr_index: u64,
    bit: u8,
    stepped: bool,
) -> (RunExit, Vec<gemfi::InjectionRecord>) {
    let mut a = Assembler::new();
    a.fi_activate(0);
    build_body(&mut a);
    a.fi_activate(0);
    a.exit(0);
    let program = a.finish().expect("assembles");
    let faults = FaultConfig::from_specs(vec![gemfi::FaultSpec {
        location: gemfi::FaultLocation::Fetch { core: 0 },
        thread: 0,
        timing: gemfi::FaultTiming::Instructions(instr_index),
        behavior: gemfi::FaultBehavior::Flip(bit),
        occurrences: 1,
    }]);
    let config =
        MachineConfig { cpu: CpuKind::Atomic, max_ticks: 3_000_000, ..MachineConfig::default() };
    let mut machine = Machine::boot(config, &program, GemFiEngine::new(faults)).expect("boots");
    let exit = if stepped { run_stepped(&mut machine) } else { machine.run() };
    assert_no_corrupted_decode_cached(&machine, &program);
    (exit, machine.hooks().records().to_vec())
}

/// Builds a machine around a tiny kernel whose N-th fetched instruction is
/// known, with a fetch-stage fault flipping `bit` of that instruction.
///
/// Every scenario runs through `Machine::run` and through the stepped
/// reference (a fully hooked `Machine::step()` loop) and must manifest
/// bit-for-bit identically: same exit, same injection records. The
/// predecode fast path is bypassed when an armed fault corrupts the fetched
/// word (checked after every run: no corrupted decode is ever cached), and
/// the elided sprint stops short of any event a pending fault could reach,
/// so Table-I semantics cannot depend on either fast path.
fn run_with_fetch_flip(
    build_body: impl Fn(&mut Assembler),
    instr_index: u64,
    bit: u8,
) -> (RunExit, Vec<gemfi::InjectionRecord>) {
    let fast = run_with_fetch_flip_mode(&build_body, instr_index, bit, false);
    let stepped = run_with_fetch_flip_mode(&build_body, instr_index, bit, true);
    assert_eq!(fast.0, stepped.0, "fetch fault manifests differently when stepped");
    assert_eq!(fast.1, stepped.1, "injection records differ when stepped");
    fast
}

#[test]
fn sbz_bit_flip_is_strictly_correct() {
    // Body: one register-mode operate; bit 13 is SBZ in the Operate format.
    let (exit, records) = run_with_fetch_flip(
        |a| {
            a.addq(Reg::R1, Reg::R2, Reg::R3);
        },
        1,
        13,
    );
    assert_eq!(exit, RunExit::Halted(0), "SBZ corruption must be harmless");
    assert_eq!(records.len(), 1);
}

#[test]
fn opcode_flip_to_hole_crashes_with_illegal_instruction() {
    // addq has major opcode 0x10; flipping opcode bit 31 gives 0x30 + ...
    // flipping bit 27 gives 0x18 — a hole → illegal instruction, exactly
    // the paper's "terminated their execution due to illegal instruction".
    let (exit, _) = run_with_fetch_flip(
        |a| {
            a.addq(Reg::R1, Reg::R2, Reg::R3);
        },
        1,
        27,
    );
    assert!(matches!(exit, RunExit::Trapped(Trap::IllegalInstruction { .. })), "got {exit}");
}

#[test]
fn memory_displacement_flip_crashes_on_wild_address() {
    // A load from a valid buffer; flipping displacement bit 14 adds 16 KiB
    // to the effective address of an 8-byte-aligned access near the data
    // segment — leaving mapped memory is not guaranteed, so point the base
    // at the very top of memory where +16K is guaranteed unmapped.
    let (exit, _) = run_with_fetch_flip(
        |a| {
            // base = mem_top - 8 (the default machine has 16 MiB).
            a.li(Reg::R1, (16 << 20) - 8);
            a.ldq(Reg::R2, 0, Reg::R1);
        },
        3, // li expands to ldah+lda; the ldq is the 3rd fetched instruction
        14,
    );
    assert!(matches!(exit, RunExit::Trapped(Trap::UnmappedAccess { .. })), "got {exit}");
}

#[test]
fn not_taken_branch_displacement_flip_is_strictly_correct() {
    // "when inserting a fault into the displacement bits of the instruction
    // and the branch is not taken the simulation statistics were the same
    // and the end-result was categorized as strict correct".
    let (exit, records) = run_with_fetch_flip(
        |a| {
            a.li(Reg::R1, 1); // non-zero → beq not taken
            a.beq(Reg::R1, "away");
            a.nop();
            a.label("away");
        },
        2, // the beq
        5, // displacement bit
    );
    assert_eq!(exit, RunExit::Halted(0));
    assert_eq!(records.len(), 1);
}

#[test]
fn fetch_flip_fires_even_on_a_warm_cache_entry() {
    // The faulted instruction sits in a loop and has been fetched (and
    // predecoded) twice before the fault arms. If the cache fast path were
    // consulted for the corrupted fetch, the stale clean decode would
    // execute and the loop would finish; the trap proves the bypass.
    let (exit, records) = run_with_fetch_flip(
        |a| {
            a.li(Reg::R1, 0);
            a.li(Reg::R2, 8);
            a.label("loop");
            a.addq_lit(Reg::R1, 1, Reg::R1);
            a.subq(Reg::R2, Reg::R1, Reg::R3);
            a.bgt(Reg::R3, "loop");
        },
        9,  // an integer operate in the third loop iteration
        27, // opcode 0x10 -> 0x18, an unimplemented hole
    );
    assert!(matches!(exit, RunExit::Trapped(Trap::IllegalInstruction { .. })), "got {exit}");
    assert_eq!(records.len(), 1);
}

#[test]
fn register_selector_flip_changes_dataflow() {
    // Flipping an Ra-field bit of `addq r1, r2, r3` reads a different
    // source register: the result changes but execution survives. Decode
    // faults corrupt the word after fetch, so the same bypass rule applies:
    // identical behavior fast and stepped.
    for stepped in [false, true] {
        let mut a = Assembler::new();
        a.fi_activate(0);
        a.li(Reg::R1, 10);
        a.li(Reg::R2, 1);
        a.li(Reg::R3, 77); // the register the flip redirects to (r1^r3 bit 1 -> r3)
        a.addq(Reg::R1, Reg::R2, Reg::R4);
        a.fi_activate(0);
        a.mov(Reg::R4, Reg::A0);
        a.pal(gemfi_isa::PalFunc::Exit);
        let program = a.finish().expect("assembles");
        let faults = FaultConfig::from_specs(vec![gemfi::FaultSpec {
            location: gemfi::FaultLocation::Decode { core: 0 },
            thread: 0,
            timing: gemfi::FaultTiming::Instructions(4), // the addq
            behavior: gemfi::FaultBehavior::Flip(11),    // Ra selector bit 1: r1 -> r3
            occurrences: 1,
        }]);
        let mut machine =
            Machine::boot(MachineConfig::default(), &program, GemFiEngine::new(faults))
                .expect("boots");
        let exit = if stepped { run_stepped(&mut machine) } else { machine.run() };
        assert_no_corrupted_decode_cached(&machine, &program);
        // r4 = r3 + r2 = 78 instead of r1 + r2 = 11.
        assert_eq!(
            exit,
            RunExit::Halted(78),
            "decode fault must redirect the source register (stepped={stepped})"
        );
    }
}
