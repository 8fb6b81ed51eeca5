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
//! bounded loops, and stores/loads through a scratch buffer — runs on each
//! of the 4 models three ways: `Machine::run` (every fast path), the
//! stepped reference (a fully hooked `Machine::step()` loop: no sprint, no
//! superblocks), and the *cold-decode reference*, the stepped loop emptying
//! the predecode cache before every step so every fetch decodes the word
//! fresh from memory. Within a model all three runs must be *fully*
//! identical (complete [`ArchState`], every byte of physical memory, and
//! the final tick); across models the guest-visible surface must agree
//! (all 62 registers, the PC, and the data segment — timing-dependent
//! kernel bookkeeping such as `exc_addr` is allowed to differ between
//! timing models, never between fast and stepped runs).

#[path = "support/random_program.rs"]
mod random_program;
#[path = "support/stepped.rs"]
mod stepped;

use gemfi_asm::Program;
use gemfi_cpu::{CpuKind, NoopHooks};
use gemfi_isa::ArchState;
use gemfi_sim::{Machine, MachineConfig, RunExit};
use random_program::random_program;
use stepped::run_stepped;

const PHYS_SIZE: usize = 4 << 20;
const MODELS: [CpuKind; 4] = [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3];

struct Snapshot {
    exit: RunExit,
    arch: ArchState,
    mem: Vec<u8>,
    tick: u64,
}

/// How one run is driven: `Machine::run`, the stepped reference, or the
/// cold-decode reference.
#[derive(Debug, Clone, Copy)]
enum Drive {
    Fast,
    Stepped,
    ColdDecode,
}

fn run_model(program: &Program, cpu: CpuKind, drive: Drive) -> Snapshot {
    let mut config = MachineConfig { cpu, max_ticks: 50_000_000, ..MachineConfig::default() };
    config.mem.phys_size = PHYS_SIZE;
    let mut m = Machine::boot(config, program, NoopHooks).expect("boots");
    let exit = match drive {
        Drive::Fast => {
            let mut exit = m.run();
            while exit == RunExit::CheckpointRequest {
                exit = m.run();
            }
            exit
        }
        Drive::Stepped => run_stepped(&mut m),
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

/// Runs each seed under every model, fast, stepped and cold-decode,
/// asserting the conformance contract described in the module docs.
fn conformance(seeds: std::ops::Range<u64>) {
    for seed in seeds {
        let program = random_program(seed);
        let mut baseline: Option<Snapshot> = None;
        for cpu in MODELS {
            let on = run_model(&program, cpu, Drive::Fast);
            // The fast paths must be a pure performance artifact.
            for drive in [Drive::Stepped, Drive::ColdDecode] {
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
