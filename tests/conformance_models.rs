//! Cross-model conformance suite for the host-side fast paths.
//!
//! GemFI's methodology (Sec. III-E) leans on the four CPU models being
//! architecturally interchangeable: campaigns fast-forward under Atomic and
//! switch to a detailed model near the injection point. The fast paths
//! (predecoded instructions, hook elision, superblocks) add a second axis
//! that must be equally invisible: any program must compute the same result
//! whichever of them served it.
//!
//! Each seeded random program — straight-line arithmetic, forward skips,
//! bounded loops, and stores/loads through a scratch buffer — runs under
//! 4 models x {hook elision on, off} x {superblock on, off}, plus once per
//! model on the *cold-decode reference*: a `Machine::step()` loop (fully
//! hooked, no sprint, no superblocks) that empties the predecode cache
//! before every step, so every fetch decodes the word fresh from memory.
//! Within a model all five runs must be *fully* identical (complete
//! [`ArchState`], every byte of physical memory, and the final tick);
//! across models the guest-visible surface must agree (all 62 registers,
//! the PC, and the data segment — timing-dependent kernel bookkeeping such
//! as `exc_addr` is allowed to differ between timing models, never between
//! fast-path positions).

use gemfi_asm::{Assembler, Program, Reg};
use gemfi_campaign::rng::SplitMix64;
use gemfi_cpu::{CpuKind, NoopHooks};
use gemfi_isa::{ArchState, IntReg};
use gemfi_sim::{Machine, MachineConfig, RunExit};

const PHYS_SIZE: usize = 4 << 20;
const MODELS: [CpuKind; 4] = [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3];

/// Scratch-buffer length in 8-byte words.
const BUF_WORDS: u64 = 64;

/// One random instruction appended to the program under construction.
///
/// Operands draw from R1–R8 only, so the loop counters (R10–R12) and the
/// buffer base (R20) stay intact. Forward skips get a fresh label each so a
/// program can contain many of them.
fn random_op(a: &mut Assembler, rng: &mut SplitMix64, skip: &mut usize) {
    let r = |v: u64| IntReg::new(1 + (v % 8) as u8).unwrap();
    let (x, y, z) = (r(rng.next_u64()), r(rng.next_u64()), r(rng.next_u64()));
    match rng.below(14) {
        0 => {
            a.addq(x, y, z);
        }
        1 => {
            a.subq(x, y, z);
        }
        2 => {
            a.mulq(x, y, z);
        }
        3 => {
            a.xor(x, y, z);
        }
        4 => {
            a.and(x, y, z);
        }
        5 => {
            a.bis(x, y, z);
        }
        6 => {
            a.sll_lit(x, (rng.below(64)) as u8, z);
        }
        7 => {
            a.srl_lit(x, (rng.below(64)) as u8, z);
        }
        8 => {
            a.cmplt(x, y, z);
        }
        9 => {
            a.cmovge(x, y, z);
        }
        10 => {
            a.addq_lit(x, rng.below(256) as u8, z);
        }
        11 | 12 => {
            // Bounded store + load through the scratch buffer.
            let off = (rng.below(BUF_WORDS) * 8) as i16;
            a.stq(x, off, Reg::R20);
            a.ldq(z, off, Reg::R20);
        }
        _ => {
            // Forward skip over a couple of instructions: branchy control
            // flow without the risk of an unbounded loop.
            let label = format!("skip{}", *skip);
            *skip += 1;
            match rng.below(4) {
                0 => a.beq(x, &label),
                1 => a.bne(x, &label),
                2 => a.blt(x, &label),
                _ => a.bge(x, &label),
            };
            for _ in 0..rng.range_inclusive(1, 3) {
                let (p, q, s) = (r(rng.next_u64()), r(rng.next_u64()), r(rng.next_u64()));
                a.addq(p, q, s);
            }
            a.label(&label);
        }
    }
}

/// A seeded random program: register seeding, a straight-line prefix, then
/// a counted loop whose body is also random. Always terminates.
fn random_program(seed: u64) -> Program {
    let mut rng = SplitMix64::new(seed);
    let mut a = Assembler::new();
    a.dsym("buf");
    a.data_u64(&[0u64; BUF_WORDS as usize]);
    a.la(Reg::R20, "buf");
    for i in 1..=8u8 {
        a.li(IntReg::new(i).unwrap(), rng.next_u64() as u32 as i64);
    }
    let mut skip = 0;
    for _ in 0..rng.range_inclusive(24, 48) {
        random_op(&mut a, &mut rng, &mut skip);
    }
    a.li(Reg::R10, 0);
    a.li(Reg::R11, rng.range_inclusive(8, 32) as i64);
    a.label("loop");
    for _ in 0..rng.range_inclusive(4, 10) {
        random_op(&mut a, &mut rng, &mut skip);
    }
    a.addq_lit(Reg::R10, 1, Reg::R10);
    a.cmplt(Reg::R10, Reg::R11, Reg::R12);
    a.bne(Reg::R12, "loop");
    a.exit(0);
    a.finish().expect("random program assembles")
}

struct Snapshot {
    exit: RunExit,
    arch: ArchState,
    mem: Vec<u8>,
    tick: u64,
}

/// How one run is driven: `Machine::run` with the two switches set, or the
/// cold-decode reference loop.
#[derive(Debug, Clone, Copy)]
enum Drive {
    Run { elide: bool, superblock: bool },
    ColdDecode,
}

fn run_model(program: &Program, cpu: CpuKind, drive: Drive) -> Snapshot {
    let mut config = MachineConfig { cpu, max_ticks: 50_000_000, ..MachineConfig::default() };
    config.mem.phys_size = PHYS_SIZE;
    let mut m = Machine::boot(config, program, NoopHooks).expect("boots");
    let exit = match drive {
        Drive::Run { elide, superblock } => {
            m.set_elide(elide);
            m.set_superblock(superblock);
            let mut exit = m.run();
            while exit == RunExit::CheckpointRequest {
                exit = m.run();
            }
            exit
        }
        Drive::ColdDecode => loop {
            m.mem_mut().clear_predecode();
            match m.step() {
                None | Some(RunExit::CheckpointRequest) => {}
                Some(exit) => break exit,
            }
        },
    };
    Snapshot {
        exit,
        arch: m.arch().clone(),
        mem: m.mem().read_slice(0, PHYS_SIZE).expect("physical memory"),
        tick: m.tick(),
    }
}

/// The guest-visible data segment of a snapshot (the region the program can
/// address through its data symbols).
fn data_segment<'s>(program: &Program, snap: &'s Snapshot) -> &'s [u8] {
    let base = program.data_base() as usize;
    let end = program.image_end() as usize;
    &snap.mem[base..end]
}

/// Runs each seed under every model, every position of the two switches
/// and the cold-decode reference, asserting the conformance contract
/// described in the module docs.
fn conformance(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let program = random_program(seed);
        let mut baseline: Option<Snapshot> = None;
        for cpu in MODELS {
            let on = run_model(&program, cpu, Drive::Run { elide: true, superblock: true });
            // Every fast path must be a pure performance artifact, alone
            // and in every combination.
            for drive in [
                Drive::Run { elide: true, superblock: false },
                Drive::Run { elide: false, superblock: true },
                Drive::Run { elide: false, superblock: false },
                Drive::ColdDecode,
            ] {
                let other = run_model(&program, cpu, drive);
                let tag = format!("seed {seed} {cpu} ({drive:?})");
                assert_eq!(on.exit, other.exit, "{tag}: exit differs");
                assert_eq!(on.arch, other.arch, "{tag}: ArchState differs");
                assert!(on.mem == other.mem, "{tag}: memory differs");
                assert_eq!(on.tick, other.tick, "{tag}: tick differs");
            }

            // Across models the guest-visible surface must agree.
            assert!(
                matches!(on.exit, RunExit::Halted(_)),
                "seed {seed} {cpu}: unexpected exit {:?}",
                on.exit
            );
            match &baseline {
                None => baseline = Some(on),
                Some(b) => {
                    assert_eq!(b.exit, on.exit, "seed {seed}: {cpu} exit diverges from atomic");
                    assert_eq!(
                        b.arch.regs, on.arch.regs,
                        "seed {seed}: {cpu} registers diverge from atomic"
                    );
                    assert_eq!(b.arch.pc, on.arch.pc, "seed {seed}: {cpu} PC diverges from atomic");
                    assert!(
                        data_segment(&program, b) == data_segment(&program, &on),
                        "seed {seed}: {cpu} data segment diverges from atomic"
                    );
                }
            }
        }
    }
}

#[test]
fn conformance_seeds_00_13() {
    conformance(0..14);
}

#[test]
fn conformance_seeds_14_27() {
    conformance(14..28);
}

#[test]
fn conformance_seeds_28_41() {
    conformance(28..42);
}

#[test]
fn conformance_seeds_42_55() {
    conformance(42..56);
}
