//! Thread-targeted fault injection end-to-end (Sec. III-A/III-C): GemFI
//! identifies threads by PCB address, tracks context switches, and a fault
//! with `Threadid:N` only ever hits the thread that called
//! `fi_activate_inst(N)`.

use gemfi::{EngineConfig, GemFiEngine, InjectionRecord};
use gemfi_asm::{Assembler, Reg};
use gemfi_cpu::CpuKind;
use gemfi_sim::{Machine, MachineConfig, RunExit};

/// Two guest threads, each summing a constant in a loop and reporting via
/// `write_word`. Thread 0 activates injection with id 0, the child with
/// id 1; both run long enough to be preempted repeatedly.
fn two_thread_program(iters: i16) -> gemfi_asm::Program {
    let mut a = Assembler::new();
    a.entry("main");

    // child(arg in a0): sum loop, then write 0x1000+sum and exit.
    a.label("child");
    a.fi_activate(1);
    a.li(Reg::R1, 0);
    a.li(Reg::R2, 0);
    a.label("c_loop");
    a.addq_lit(Reg::R1, 2, Reg::R1);
    a.addq_lit(Reg::R2, 1, Reg::R2);
    a.cmplt_lit(Reg::R2, iters as u8, Reg::R3);
    a.bne(Reg::R3, "c_loop");
    a.fi_activate(1);
    a.mov(Reg::R1, Reg::A0);
    a.pal(gemfi_isa::PalFunc::WriteWord);
    a.li(Reg::A0, 0);
    a.pal(gemfi_isa::PalFunc::Exit);

    // main: spawn child, run its own identical loop (id 0), join, exit.
    a.label("main");
    a.la(Reg::A0, "child");
    a.li(Reg::A1, 0);
    a.li(Reg::A2, 0);
    a.pal(gemfi_isa::PalFunc::ThreadSpawn);
    a.mov(Reg::V0, Reg::R20); // child tid
    a.fi_activate(0);
    a.li(Reg::R1, 0);
    a.li(Reg::R2, 0);
    a.label("m_loop");
    a.addq_lit(Reg::R1, 2, Reg::R1);
    a.addq_lit(Reg::R2, 1, Reg::R2);
    a.cmplt_lit(Reg::R2, iters as u8, Reg::R3);
    a.bne(Reg::R3, "m_loop");
    a.fi_activate(0);
    a.mov(Reg::R1, Reg::A0);
    a.pal(gemfi_isa::PalFunc::WriteWord);
    a.mov(Reg::R20, Reg::A0);
    a.pal(gemfi_isa::PalFunc::ThreadJoin);
    a.li(Reg::A0, 0);
    a.pal(gemfi_isa::PalFunc::Exit);
    a.finish().expect("assembles")
}

/// What a run leaves behind: its exit, the words it wrote, its injections.
type Outcome = (RunExit, Vec<u64>, Vec<InjectionRecord>);

fn run_with(faults: &str, cpu: CpuKind, pcb_pointer_cache: bool) -> Outcome {
    let program = two_thread_program(200);
    let config = MachineConfig {
        cpu,
        quantum: 300, // force frequent context switches
        max_ticks: 10_000_000,
        ..MachineConfig::default()
    };
    let engine = GemFiEngine::with_config(
        faults.parse().expect("valid faults"),
        EngineConfig { pcb_pointer_cache, ..EngineConfig::default() },
    );
    let mut machine = Machine::boot(config, &program, engine).expect("boots");
    let exit = machine.run();
    (exit, machine.out_words().to_vec(), machine.hooks().records().to_vec())
}

/// Runs under the per-core PCB pointer cache and under the per-event hash
/// lookup, which must agree on everything; returns the exit, the words
/// written and the injection count.
fn run(faults: &str, cpu: CpuKind) -> (RunExit, Vec<u64>, usize) {
    let cached = run_with(faults, cpu, true);
    let hashed = run_with(faults, cpu, false);
    assert_eq!(cached, hashed, "the thread lookup must not change the run ({cpu:?})");
    let (exit, words, records) = cached;
    (exit, words, records.len())
}

#[test]
fn both_threads_interleave_and_finish_fault_free() {
    let (exit, words, _) = run("# no faults\n", CpuKind::Atomic);
    assert_eq!(exit, RunExit::Halted(0));
    // Both loops: 200 iterations × +2 = 400.
    assert_eq!(words.len(), 2);
    assert!(words.iter().all(|&w| w == 400), "{words:?}");
}

#[test]
fn fault_targets_only_the_named_thread() {
    // Corrupt r1 (the running sum) of thread id 1 (the child) only, mid-loop.
    let line = "RegisterInjectedFault Inst:300 Flip:7 Threadid:1 system.cpu0 occ:1 int 1";
    let (exit, words, records) = run(line, CpuKind::Atomic);
    assert_eq!(exit, RunExit::Halted(0));
    assert_eq!(records, 1, "the fault must fire exactly once");
    // The main thread's sum is untouched; the child's is corrupted by
    // exactly bit 7 (+-128) because r1 is rewritten additively afterwards.
    // Main writes its word before joining, so it appears first.
    assert_eq!(words.len(), 2);
    let main_sum = words[0];
    let child_sum = words[1];
    assert_eq!(main_sum, 400, "thread 0 must be untouched, got {words:?}");
    assert_ne!(child_sum, 400, "thread 1 must be corrupted, got {words:?}");
    assert!(
        child_sum == 400 + 128 || child_sum == 400 - 128,
        "single bit-7 flip expected: {child_sum}"
    );
}

#[test]
fn fault_for_thread_0_spares_the_child() {
    let line = "RegisterInjectedFault Inst:300 Flip:7 Threadid:0 system.cpu0 occ:1 int 1";
    let (exit, words, records) = run(line, CpuKind::Atomic);
    assert_eq!(exit, RunExit::Halted(0));
    assert_eq!(records, 1);
    assert_eq!(words[1], 400, "child untouched: {words:?}");
    assert_ne!(words[0], 400, "main corrupted: {words:?}");
}

#[test]
fn thread_tracking_survives_o3_and_preemption() {
    let line = "RegisterInjectedFault Inst:300 Flip:7 Threadid:1 system.cpu0 occ:1 int 1";
    let (exit, words, records) = run(line, CpuKind::O3);
    assert_eq!(exit, RunExit::Halted(0));
    assert_eq!(records, 1);
    assert_eq!(words[0], 400, "thread 0 untouched under O3: {words:?}");
}
