//! Consumption watches under the fast paths.
//!
//! A fired register fault is classified by the first access to its register
//! after the fire: a read marks it consumed, a write overwritten (the
//! paper's non-propagated class, Sec. III). While such a watch is live the
//! machine keeps sprinting: the engine reports the watched registers as a
//! mask, the sprint's shim passes exactly their accesses through, and an
//! Atomic superblock whose register footprint meets the mask is stepped
//! instead of run whole.
//!
//! The conformance half drives the seeded random programs of
//! `conformance_models.rs`, plus a small floating-point loop, under a
//! `GemFiEngine` carrying register faults — a register never touched after
//! the fire, one first read and one first written in the middle of a
//! superblock, `r31`/`f31`, and two faults with the second still queued
//! behind a live watch — on each of the 4 models. Every `Machine::run` must
//! match the stepped reference (a fully hooked `Machine::step()` loop) of
//! its model: exit, `ArchState`, memory, tick, instret and the injection
//! records with their `consumed`/`overwritten` flags.
//!
//! The footprint half checks the superset rule the sprint relies on: over
//! every block the six small guests translate, the block's footprint holds
//! every register the stepped path reports for its instructions.

#[path = "support/random_program.rs"]
mod random_program;
#[path = "support/stepped.rs"]
mod stepped;

use gemfi::{
    FaultBehavior, FaultConfig, FaultLocation, FaultSpec, FaultTiming, GemFiEngine, InjectionRecord,
};
use gemfi_asm::{Assembler, FReg, Program, Reg};
use gemfi_bench::{workloads, Scale};
use gemfi_cpu::{CpuKind, FaultHooks};
use gemfi_isa::superblock::{translate, MAX_SUPERBLOCK_UOPS};
use gemfi_isa::{ArchState, Instr, RawInstr, RegRef};
use gemfi_sim::{Machine, MachineConfig, RunExit};
use gemfi_workloads::workload_machine_config;
use random_program::random_program;
use std::collections::HashMap;
use stepped::run_stepped;

const PHYS_SIZE: usize = 4 << 20;
const MODELS: [CpuKind; 4] = [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3];

/// Registers none of the guests below ever names.
const UNTOUCHED_INT: RegRef = RegRef::Int(Reg::R25);
const UNTOUCHED_FP: RegRef = RegRef::Fp(FReg::F20);

/// Stepped-path register traffic: hooks that are never dormant and log each
/// committed instruction and each register access, attributed to the
/// instruction in flight (the stepped models run one at a time).
#[derive(Debug, Default)]
struct Recorder {
    /// Committed instructions in order.
    commits: Vec<(u64, Instr)>,
    /// `(commit index, register, is_read)` per reported access.
    accesses: Vec<(usize, RegRef, bool)>,
    /// Per executed PC, the registers reported for it.
    regs_at: HashMap<u64, u64>,
    pc: u64,
}

impl Recorder {
    fn access(&mut self, reg: RegRef, read: bool) {
        self.accesses.push((self.commits.len(), reg, read));
        *self.regs_at.entry(self.pc).or_default() |= reg.mask_bit();
    }
}

impl FaultHooks for Recorder {
    fn on_fetch(&mut self, _core: usize, pc: u64, word: RawInstr) -> RawInstr {
        self.pc = pc;
        self.regs_at.entry(pc).or_default();
        word
    }

    fn on_reg_read(&mut self, _core: usize, reg: RegRef) {
        self.access(reg, true);
    }

    fn on_reg_write(&mut self, _core: usize, reg: RegRef) {
        self.access(reg, false);
    }

    fn on_commit(&mut self, _core: usize, _now: u64, pc: u64, instr: &Instr) {
        self.commits.push((pc, *instr));
    }
}

fn config(cpu: CpuKind) -> MachineConfig {
    let mut config = MachineConfig { cpu, max_ticks: 50_000_000, ..MachineConfig::default() };
    config.mem.phys_size = PHYS_SIZE;
    config
}

fn drive<H: FaultHooks>(m: &mut Machine<H>) -> RunExit {
    let mut exit = m.run();
    while exit == RunExit::CheckpointRequest {
        exit = m.run();
    }
    exit
}

/// The fully hooked Atomic trace of a fault-free run.
fn trace(program: &Program) -> Recorder {
    let mut m =
        Machine::boot(config(CpuKind::Atomic), program, Recorder::default()).expect("boots");
    assert!(matches!(drive(&mut m), RunExit::Halted(_)));
    std::mem::take(m.hooks_mut())
}

/// A bit-flip of `reg` armed at the `at`-th committed instruction.
fn reg_fault(reg: RegRef, at: u64) -> FaultSpec {
    let location = match reg {
        RegRef::Int(r) => FaultLocation::IntReg { core: 0, reg: r.index() as u8 },
        RegRef::Fp(r) => FaultLocation::FpReg { core: 0, reg: r.index() as u8 },
        RegRef::Special(_) => unreachable!("watches cover int and fp registers"),
    };
    FaultSpec {
        location,
        thread: 0,
        timing: FaultTiming::Instructions(at),
        behavior: FaultBehavior::Flip(3),
        occurrences: 1,
    }
}

/// Everything the fast paths must leave bit-identical.
#[derive(Debug, PartialEq)]
struct Outcome {
    exit: RunExit,
    arch: ArchState,
    mem: Vec<u8>,
    tick: u64,
    instret: u64,
    records: Vec<InjectionRecord>,
}

/// One run of `program` under `faults`, through `Machine::run` or, with
/// `stepped`, the stepped reference. Injection is enabled from the first
/// instruction, as if the guest opened with `fi_activate_inst(0)`. Also
/// returns the instructions the fully hooked loop stepped.
fn run(program: &Program, cpu: CpuKind, faults: &[FaultSpec], stepped: bool) -> (Outcome, u64) {
    let engine = GemFiEngine::new(FaultConfig::from_specs(faults.to_vec()));
    let mut m = Machine::boot(config(cpu), program, engine).expect("boots");
    let pcbb = m.arch().pcbb;
    m.hooks_mut().on_fi_activate(0, 0, 0, pcbb);
    let exit = if stepped { run_stepped(&mut m) } else { drive(&mut m) };
    let stats = m.stats();
    let outcome = Outcome {
        exit,
        arch: m.arch().clone(),
        mem: m.mem().read_slice(0, PHYS_SIZE).expect("physical memory"),
        tick: m.tick(),
        instret: m.instret(),
        records: m.hooks().records().to_vec(),
    };
    (outcome, stats.instructions - stats.instructions_elided)
}

/// Runs `faults` on every model, fast against the stepped reference;
/// returns the Atomic reference.
fn conforms(program: &Program, faults: &[FaultSpec], tag: &str) -> Outcome {
    let mut atomic = None;
    for cpu in MODELS {
        let (reference, _) = run(program, cpu, faults, true);
        assert_eq!(reference.records.len(), faults.len(), "{tag} {cpu}: every fault fires");
        let (fast, _) = run(program, cpu, faults, false);
        let what = format!("{tag} {cpu}");
        assert_eq!(fast.exit, reference.exit, "{what}: exit differs");
        assert_eq!(fast.arch, reference.arch, "{what}: ArchState differs");
        assert!(fast.mem == reference.mem, "{what}: memory differs");
        assert_eq!(fast.tick, reference.tick, "{what}: tick differs");
        assert_eq!(fast.instret, reference.instret, "{what}: instret differs");
        assert_eq!(fast.records, reference.records, "{what}: records differ");
        if cpu == CpuKind::Atomic {
            atomic = Some(reference);
        }
    }
    atomic.expect("Atomic is one of the models")
}

/// The first access to `reg` at or after commit index `from`:
/// `(commit index, is_read)`.
fn first_access(trace: &Recorder, reg: RegRef, from: usize) -> Option<(usize, bool)> {
    trace.accesses.iter().find(|&&(i, r, _)| i >= from && r == reg).map(|&(i, _, read)| (i, read))
}

/// A fault fired before instruction `fire` leaves the engine dormant, so the
/// sprint resumes at `fire + 1` and looks a superblock up there. Whether
/// instruction `at` sits past that block's head, inside the same block.
fn mid_block(trace: &Recorder, fire: usize, at: usize) -> bool {
    let head = fire + 1;
    if at <= head || at - head >= MAX_SUPERBLOCK_UOPS {
        return false;
    }
    let straight = |i: usize| {
        let (pc, instr) = trace.commits[i];
        let (next, _) = trace.commits[i + 1];
        next == pc + 4
            && !instr.is_control()
            && !matches!(
                instr,
                Instr::CallPal { .. } | Instr::FiActivate { .. } | Instr::FiReadInit
            )
    };
    (head..at).all(straight)
}

/// The earliest `(fire point, register)` among `candidates` whose first
/// access after the fire is a read (`read`) or a write (`!read`) in the
/// middle of a superblock.
fn mid_block_case(trace: &Recorder, candidates: &[RegRef], read: bool) -> Option<(usize, RegRef)> {
    (1..trace.commits.len().saturating_sub(1)).find_map(|fire| {
        candidates.iter().find_map(|&reg| match first_access(trace, reg, fire) {
            Some((at, is_read)) if is_read == read && mid_block(trace, fire, at) => {
                Some((fire, reg))
            }
            _ => None,
        })
    })
}

/// The whole case list for one program whose guest registers are
/// `candidates`.
fn watch_cases(program: &Program, candidates: &[RegRef], tag: &str) {
    let trace = trace(program);
    let (read_at, read_reg) =
        mid_block_case(&trace, candidates, true).expect("a register first read mid-block");
    let (write_at, write_reg) =
        mid_block_case(&trace, candidates, false).expect("a register first written mid-block");

    let read = conforms(program, &[reg_fault(read_reg, read_at as u64)], &format!("{tag} read"));
    // The fault lands where the trace says: the Atomic record's PC is the
    // traced instruction's.
    assert_eq!(read.records[0].pc, trace.commits[read_at].0, "{tag}: fire point");
    assert!(read.records[0].consumed && !read.records[0].overwritten, "{tag}: {read_reg} read");

    let write =
        conforms(program, &[reg_fault(write_reg, write_at as u64)], &format!("{tag} write"));
    assert!(write.records[0].overwritten && !write.records[0].consumed, "{tag}: {write_reg}");

    for reg in [UNTOUCHED_INT, UNTOUCHED_FP] {
        let at = read_at as u64;
        let untouched = conforms(program, &[reg_fault(reg, at)], &format!("{tag} {reg}"));
        let record = &untouched.records[0];
        assert!(!record.consumed && !record.overwritten, "{tag}: {reg} is never touched");
        // The live watch no longer holds the run in the hooked loop: only
        // the instructions up to the fire are stepped fully hooked.
        let (_, hooked) = run(program, CpuKind::Atomic, &[reg_fault(reg, at)], false);
        assert!(hooked <= at + 1, "{tag}: {hooked} instructions hooked with {reg} watched");
    }

    for reg in [RegRef::Int(Reg::ZERO), RegRef::Fp(FReg::F31)] {
        conforms(program, &[reg_fault(reg, write_at as u64)], &format!("{tag} {reg}"));
    }

    // The second fault stays queued behind the never-retired first watch,
    // so the sprint runs to a Quiet horizon with a watch live.
    let first = reg_fault(UNTOUCHED_INT, read_at as u64 / 2);
    let second = reg_fault(read_reg, read_at as u64);
    let both = conforms(program, &[first, second], &format!("{tag} two faults"));
    assert!(!both.records[0].consumed && both.records[1].consumed, "{tag}: two faults");
}

/// Registers the random programs compute with (`R1`–`R8`), their loop
/// registers and their buffer base.
fn random_program_regs() -> Vec<RegRef> {
    [1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 20]
        .into_iter()
        .map(|n| RegRef::Int(gemfi_isa::IntReg::new(n).expect("valid register")))
        .collect()
}

/// A floating-point loop: straight-line FP arithmetic, FP loads and stores,
/// an FP conditional move and int↔fp transfers.
fn fp_program() -> (Program, Vec<RegRef>) {
    let mut a = Assembler::new();
    a.dsym("buf");
    a.data_u64(&[1.5f64.to_bits(), 0, 0, 0]);
    a.la(Reg::R20, "buf");
    for (f, v) in [(FReg::F1, 1.25), (FReg::F2, -3.5), (FReg::F3, 0.75), (FReg::F4, 2.0)] {
        a.lif(f, v, Reg::R1);
    }
    a.li(Reg::R10, 12);
    a.label("loop");
    a.addt(FReg::F1, FReg::F2, FReg::F5);
    a.mult(FReg::F5, FReg::F3, FReg::F6);
    a.stt(FReg::F6, 8, Reg::R20);
    a.subt(FReg::F6, FReg::F4, FReg::F1);
    a.ldt(FReg::F7, 0, Reg::R20);
    a.fcmovne(FReg::F7, FReg::F6, FReg::F8);
    a.ftoit(FReg::F8, Reg::R2);
    a.addq_lit(Reg::R2, 1, Reg::R2);
    a.itoft(Reg::R2, FReg::F9);
    a.cpys(FReg::F9, FReg::F1, FReg::F3);
    a.subq_lit(Reg::R10, 1, Reg::R10);
    a.bne(Reg::R10, "loop");
    a.stt(FReg::F3, 16, Reg::R20);
    a.exit(0);
    let regs = (1..=9).map(|n| RegRef::Fp(gemfi_isa::FpReg::new(n).expect("valid register")));
    (a.finish().expect("fp program assembles"), regs.collect())
}

#[test]
fn watches_conform_on_random_programs_00_02() {
    for seed in 0..3 {
        watch_cases(&random_program(seed), &random_program_regs(), &format!("seed {seed}"));
    }
}

#[test]
fn watches_conform_on_random_programs_03_05() {
    for seed in 3..6 {
        watch_cases(&random_program(seed), &random_program_regs(), &format!("seed {seed}"));
    }
}

#[test]
fn watches_conform_on_a_floating_point_loop() {
    let (program, regs) = fp_program();
    watch_cases(&program, &regs, "fp loop");
}

/// Over every block the six small guests translate — each starts at an
/// executed PC — the footprint holds every register the stepped path
/// reported for the block's instructions.
#[test]
fn superblock_footprints_cover_the_stepped_register_traffic() {
    for workload in workloads(Scale::Small) {
        let guest = workload.build();
        let mut m = Machine::boot(
            workload_machine_config(CpuKind::Atomic),
            &guest.program,
            Recorder::default(),
        )
        .expect("boots");
        assert!(matches!(drive(&mut m), RunExit::Halted(_)), "{}", workload.name());
        let regs_at = &m.hooks().regs_at;
        let mut blocks = 0;
        for &start in regs_at.keys() {
            let Some(block) = translate(start, |a| m.mem().read_u32_functional(a).ok()) else {
                continue;
            };
            blocks += 1;
            for pc in (block.start()..block.end()).step_by(4) {
                let seen = regs_at.get(&pc).copied().unwrap_or(0);
                assert_eq!(
                    seen & !block.footprint(),
                    0,
                    "{}: block at {start:#x} misses registers used at {pc:#x}",
                    workload.name()
                );
            }
        }
        assert!(blocks > 10, "{}: {blocks} blocks", workload.name());
    }
}
