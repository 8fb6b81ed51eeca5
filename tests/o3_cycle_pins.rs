//! Pins the O3 model's cycle stream.
//!
//! The O3 core's timing is state the campaign depends on: an `Inst:N`
//! fault lands where the pipeline puts it, and the switch to Atomic
//! happens at a tick. A change to how the core finds ready, issued or
//! waiting entries must not move a single cycle. Each of the six guests at
//! `Scale::Small` is restored from its checkpoint on `CpuKind::O3` with
//! `NoopHooks` and run to the halt; a squash-heavy micro-program covers
//! mispredicts and a load parked behind a store with a late address, and a
//! store-forwarding micro-program covers every way a load meets an older
//! store. The exact tick, instruction, predictor, squash and cache counts
//! are pinned. A second run per guest keeps the fault engine's hooks live,
//! as every campaign experiment does: one early flip the kernel consumes
//! and one whose consumption watch stays live through the elided sprint to
//! the halt; its tick, instructions, squashes, stage events and both
//! injection records are pinned.

use gemfi::{FaultBehavior, FaultConfig, FaultLocation, FaultSpec, FaultTiming, GemFiEngine};
use gemfi_asm::{Assembler, Program, Reg};
use gemfi_bench::{workloads, Scale};
use gemfi_cpu::{CpuKind, NoopHooks};
use gemfi_sim::{Machine, MachineConfig, RunExit, SimStats};
use gemfi_workloads::workload_machine_config;

/// The pinned counters of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    tick: u64,
    instret: u64,
    branch_lookups: u64,
    branch_mispredicts: u64,
    squashed: u64,
    /// (hits, misses) of L1I, L1D and L2.
    caches: [(u64, u64); 3],
}

impl Pin {
    fn of(s: &SimStats) -> Pin {
        let m = &s.mem;
        Pin {
            tick: s.ticks,
            instret: s.instructions,
            branch_lookups: s.branch_lookups,
            branch_mispredicts: s.branch_mispredicts,
            squashed: s.squashed,
            caches: [m.l1i, m.l1d, m.l2].map(|c| (c.hits, c.misses)),
        }
    }
}

/// Runs `machine` to the halt, stepping over further checkpoint requests.
fn run_to_halt(machine: &mut Machine<NoopHooks>, tag: &str) {
    let mut exit = machine.run();
    while exit == RunExit::CheckpointRequest {
        exit = machine.run();
    }
    assert_eq!(exit, RunExit::Halted(0), "{tag} must halt cleanly");
}

const GUEST_PINS: [(&str, Pin); 6] = [
    (
        "dct",
        Pin {
            tick: 59878,
            instret: 146732,
            branch_lookups: 9956,
            branch_mispredicts: 78,
            squashed: 1150,
            caches: [(142921, 12), (18617, 105), (0, 117)],
        },
    ),
    (
        "jacobi",
        Pin {
            tick: 10231,
            instret: 17900,
            branch_lookups: 3196,
            branch_mispredicts: 196,
            squashed: 2123,
            caches: [(18704, 5), (3076, 12), (0, 17)],
        },
    ),
    (
        "pi",
        Pin {
            tick: 14514,
            instret: 16360,
            branch_lookups: 1296,
            branch_mispredicts: 111,
            squashed: 5971,
            caches: [(14313, 4), (6, 1), (0, 5)],
        },
    ),
    (
        "knapsack",
        Pin {
            tick: 86154,
            instret: 139156,
            branch_lookups: 48676,
            branch_mispredicts: 5899,
            squashed: 76526,
            caches: [(215095, 12), (15398, 12), (0, 24)],
        },
    ),
    (
        "deblock",
        Pin {
            tick: 20560,
            instret: 18134,
            branch_lookups: 524,
            branch_mispredicts: 31,
            squashed: 659,
            caches: [(5661, 6), (650, 96), (0, 102)],
        },
    ),
    (
        "canneal",
        Pin {
            tick: 99170,
            instret: 372188,
            branch_lookups: 8708,
            branch_mispredicts: 213,
            squashed: 4580,
            caches: [(372763, 9), (25847, 19), (0, 28)],
        },
    ),
];

#[test]
fn every_small_guest_runs_the_pinned_o3_cycle_stream() {
    let guests = workloads(Scale::Small);
    assert_eq!(guests.len(), GUEST_PINS.len());
    for (workload, (name, want)) in guests.iter().zip(GUEST_PINS) {
        assert_eq!(workload.name(), name);
        let guest = workload.build();
        let mut boot =
            Machine::boot(workload_machine_config(CpuKind::Atomic), &guest.program, NoopHooks)
                .expect("boots");
        assert_eq!(boot.run(), RunExit::CheckpointRequest, "{name} reaches its checkpoint");
        let mut machine = Machine::restore(&boot.checkpoint(), Some(CpuKind::O3), NoopHooks);
        run_to_halt(&mut machine, name);
        assert_eq!(Pin::of(&machine.stats()), want, "{name}");
    }
}

/// Iterations of the micro-program's loop.
const TRIPS: i64 = 200;

/// The micro-program's output word.
const SQUASH_HEAVY_OUT: u64 = 1273;

/// A loop with an unpredictable branch (a bit of an LCG state) and, on
/// every trip, a load parked behind an older store whose address waits
/// on a `mulq` chain. Mispredicts squash the parked work over and over.
fn squash_heavy_program() -> Program {
    let mut a = Assembler::new();
    a.dsym("buf");
    a.data_u64(&[5, 0, 0, 0]);
    a.la(Reg::R1, "buf");
    a.li(Reg::R2, 0); // acc
    a.li(Reg::R3, TRIPS);
    a.li(Reg::R5, 0x9E37_79B9); // LCG multiplier
    a.li(Reg::R7, 1); // LCG state
    a.label("loop");
    a.mulq(Reg::R7, Reg::R5, Reg::R7);
    a.addq_lit(Reg::R7, 77, Reg::R7);
    // The store's address is `buf`, known only after a `mulq` chain.
    a.mulq_lit(Reg::R7, 0, Reg::R8);
    a.mulq(Reg::R8, Reg::R8, Reg::R8);
    a.addq(Reg::R1, Reg::R8, Reg::R9);
    a.stq(Reg::R7, 16, Reg::R9);
    a.ldq(Reg::R10, 0, Reg::R1); // parked behind the store
    a.addq(Reg::R2, Reg::R10, Reg::R2);
    // Unpredictable: bit 17 of the LCG state.
    a.srl_lit(Reg::R7, 17, Reg::R11);
    a.and_lit(Reg::R11, 1, Reg::R11);
    a.beq(Reg::R11, "skip");
    a.addq_lit(Reg::R2, 3, Reg::R2);
    a.label("skip");
    a.subq_lit(Reg::R3, 1, Reg::R3);
    a.bne(Reg::R3, "loop");
    a.mov(Reg::R2, Reg::A0);
    a.write_word();
    a.exit(0);
    a.finish().expect("assembles")
}

const SQUASH_HEAVY_PIN: Pin = Pin {
    tick: 2016,
    instret: 2703,
    branch_lookups: 703,
    branch_mispredicts: 126,
    squashed: 2078,
    caches: [(4779, 2), (400, 1), (0, 3)],
};

#[test]
fn a_squash_heavy_program_runs_the_pinned_o3_cycle_stream() {
    let config =
        MachineConfig { cpu: CpuKind::O3, max_ticks: 10_000_000, ..MachineConfig::default() };
    let mut machine = Machine::boot(config, &squash_heavy_program(), NoopHooks).expect("boots");
    run_to_halt(&mut machine, "squash-heavy");
    let stats = machine.stats();
    assert!(stats.branch_mispredicts > 20 && stats.squashed > 200, "{stats:?}");
    assert_eq!(Pin::of(&stats), SQUASH_HEAVY_PIN);
    assert_eq!(machine.out_words(), [SQUASH_HEAVY_OUT]);
}

/// The store-forwarding micro-program's output word.
const FORWARDING_OUT: u64 = 919;

/// A loop in which every load meets older in-flight stores in one of the
/// ways `load_check` tells apart: an exact forward (same address and
/// width), a 4-byte store under an 8-byte load (a partial overlap, which
/// waits for the store to commit), and a store whose address resolves late
/// behind several non-store entries, which holds back a younger load of a
/// disjoint address and then forwards to one of its own.
fn store_forwarding_program() -> Program {
    let mut a = Assembler::new();
    a.dsym("buf");
    a.data_u64(&[0, 0, 0, 9]);
    a.la(Reg::R1, "buf");
    a.li(Reg::R2, 0); // acc
    a.li(Reg::R3, TRIPS);
    a.li(Reg::R5, 0x9E37_79B9); // LCG multiplier
    a.li(Reg::R7, 1); // LCG state
    a.label("loop");
    a.mulq(Reg::R7, Reg::R5, Reg::R7);
    a.addq_lit(Reg::R7, 77, Reg::R7);
    // Exact forward: same address, same width.
    a.stq(Reg::R7, 0, Reg::R1);
    a.ldq(Reg::R10, 0, Reg::R1);
    a.addq(Reg::R2, Reg::R10, Reg::R2);
    // A 4-byte store under an 8-byte load.
    a.stl(Reg::R7, 8, Reg::R1);
    a.ldq(Reg::R11, 8, Reg::R1);
    a.xor(Reg::R2, Reg::R11, Reg::R2);
    // The store's address is `buf`, known only after a `mulq` chain.
    a.mulq_lit(Reg::R7, 0, Reg::R8);
    a.mulq(Reg::R8, Reg::R8, Reg::R8);
    a.addq(Reg::R1, Reg::R8, Reg::R9);
    a.stq(Reg::R2, 16, Reg::R9);
    // Non-store entries between the late store and the loads behind it.
    a.addq_lit(Reg::R12, 1, Reg::R12);
    a.srl_lit(Reg::R7, 5, Reg::R13);
    a.and_lit(Reg::R13, 7, Reg::R13);
    a.addq(Reg::R12, Reg::R13, Reg::R12);
    a.ldq(Reg::R14, 24, Reg::R1); // disjoint: waits for the address only
    a.ldq(Reg::R15, 16, Reg::R1); // forwards from the late store
    a.addq(Reg::R2, Reg::R14, Reg::R2);
    a.subq(Reg::R2, Reg::R15, Reg::R2);
    a.addq(Reg::R2, Reg::R12, Reg::R2);
    a.subq_lit(Reg::R3, 1, Reg::R3);
    a.bne(Reg::R3, "loop");
    a.mov(Reg::R2, Reg::A0);
    a.write_word();
    a.exit(0);
    a.finish().expect("assembles")
}

const FORWARDING_PIN: Pin = Pin {
    tick: 2420,
    instret: 4612,
    branch_lookups: 200,
    branch_mispredicts: 12,
    squashed: 23,
    // 1 400 memory instructions but about 1 000 L1D accesses: both
    // forwards skip the cache on every trip.
    caches: [(4632, 3), (1000, 1), (0, 4)],
};

#[test]
fn a_store_forwarding_program_runs_the_pinned_o3_cycle_stream() {
    let config =
        MachineConfig { cpu: CpuKind::O3, max_ticks: 10_000_000, ..MachineConfig::default() };
    let mut machine = Machine::boot(config, &store_forwarding_program(), NoopHooks).expect("boots");
    run_to_halt(&mut machine, "store-forwarding");
    assert_eq!(Pin::of(&machine.stats()), FORWARDING_PIN);
    assert_eq!(machine.out_words(), [FORWARDING_OUT]);
    // Forwarded or read from memory, every load sees what Atomic sees.
    let config = MachineConfig { cpu: CpuKind::Atomic, ..config };
    let mut atomic = Machine::boot(config, &store_forwarding_program(), NoopHooks).expect("boots");
    run_to_halt(&mut atomic, "store-forwarding on Atomic");
    assert_eq!(atomic.out_words(), [FORWARDING_OUT]);
}

/// The pinned state of a hooked run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HookedPin {
    tick: u64,
    instret: u64,
    squashed: u64,
    stage_events: [u64; 5],
    /// Per fault, in spec order: (tick, pc, before, after, consumed,
    /// overwritten) of its record.
    records: [(u64, u64, u64, u64, bool, bool); 2],
}

/// Per Small guest, an integer register the kernel reads (its flip is
/// consumed) and one it never touches (its consumption watch stays live
/// to the halt), then the pinned run.
const HOOKED_PINS: [(&str, u8, u8, HookedPin); 6] = [
    (
        "dct",
        23,
        13,
        HookedPin {
            tick: 46657,
            instret: 111290,
            squashed: 778,
            stage_events: [107116, 107116, 106666, 14049, 106338],
            records: [(5139, 65812, 0, 2, true, false), (5143, 65536, 0, 2, false, false)],
        },
    ),
    (
        "jacobi",
        20,
        7,
        HookedPin {
            tick: 4249,
            instret: 5256,
            squashed: 572,
            stage_events: [4508, 4508, 4104, 741, 3936],
            records: [(1504, 65736, 8, 10, true, false), (1600, 65776, 0, 2, false, false)],
        },
    ),
    (
        "pi",
        2,
        11,
        HookedPin {
            tick: 14514,
            instret: 16360,
            squashed: 5971,
            stage_events: [14310, 14310, 12316, 5, 8339],
            records: [(8206, 65648, 0, 2, true, false), (8219, 65688, 0, 2, false, false)],
        },
    ),
    (
        "knapsack",
        22,
        17,
        HookedPin {
            tick: 86863,
            instret: 143826,
            squashed: 76770,
            stage_events: [220013, 220013, 159193, 16982, 143243],
            records: [
                (767, 65936, 12735153853205955859, 12735153853205955857, true, false),
                (770, 65636, 0, 2, false, false),
            ],
        },
    ),
    (
        "deblock",
        2,
        5,
        HookedPin {
            tick: 21870,
            instret: 18486,
            squashed: 504,
            stage_events: [5861, 5861, 5386, 765, 5357],
            records: [
                (13320, 65536, 8, 10, true, false),
                (13506, 65576, 75768, 75770, false, false),
            ],
        },
    ),
    (
        "canneal",
        20,
        17,
        HookedPin {
            tick: 99076,
            instret: 372320,
            squashed: 4434,
            stage_events: [372217, 372217, 351646, 25771, 367805],
            records: [
                (4279, 65888, 6364136223846793005, 6364136223846793007, true, false),
                (4375, 65612, 0, 2, false, false),
            ],
        },
    ),
];

/// An early single-bit flip of integer register `reg`.
fn early_flip(reg: u8, at: u64) -> FaultSpec {
    FaultSpec {
        location: FaultLocation::IntReg { core: 0, reg },
        thread: 0,
        timing: FaultTiming::Instructions(at),
        behavior: FaultBehavior::Flip(1),
        occurrences: 1,
    }
}

/// The regime campaign experiments spend their O3 time in: the engine's
/// hooks live, one fault consumed and one still watched, and the rest of
/// the run through the elided sprint, which must honour the live watch.
#[test]
fn every_small_guest_runs_the_pinned_hooked_o3_stream() {
    let guests = workloads(Scale::Small);
    assert_eq!(guests.len(), HOOKED_PINS.len());
    for (workload, (name, read, untouched, want)) in guests.iter().zip(HOOKED_PINS) {
        assert_eq!(workload.name(), name);
        let guest = workload.build();
        let mut boot =
            Machine::boot(workload_machine_config(CpuKind::Atomic), &guest.program, NoopHooks)
                .expect("boots");
        assert_eq!(boot.run(), RunExit::CheckpointRequest, "{name} reaches its checkpoint");
        let faults = FaultConfig::from_specs(vec![early_flip(read, 10), early_flip(untouched, 20)]);
        let mut machine =
            Machine::restore(&boot.checkpoint(), Some(CpuKind::O3), GemFiEngine::new(faults));
        let mut exit = machine.run();
        while exit == RunExit::CheckpointRequest {
            exit = machine.run();
        }
        assert_eq!(exit, RunExit::Halted(0), "{name} must halt cleanly");
        let records = machine.hooks().records();
        assert_eq!(records.len(), 2, "{name}: both faults fire");
        let got = HookedPin {
            tick: machine.tick(),
            instret: machine.instret(),
            squashed: machine.stats().squashed,
            stage_events: machine.hooks().stage_events(),
            records: [0, 1].map(|i| {
                let r = &records[i];
                (r.tick, r.pc, r.before, r.after, r.consumed, r.overwritten)
            }),
        };
        assert!(got.records[0].4 && !got.records[1].4 && !got.records[1].5, "{name}: {got:?}");
        assert_eq!(got, want, "{name}");
    }
}
