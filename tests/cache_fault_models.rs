//! Differential test matrix for the memory-hierarchy fault models: cache
//! data-array, tag-array, and whole-way lesions, transient through
//! stuck-at, across all four CPU models.
//!
//! Every spec is built as a Listing-1 text line and parsed through
//! [`FaultConfig`], so each scenario also proves the model is reachable
//! from `gemfi_run` input syntax. Each run is compared against a fault-free
//! golden execution of the same program on the same model: the corrupted
//! words must be exactly the lesion's bit transform of the golden words,
//! and every run must land on a classifiable exit — never a simulator
//! error.

use gemfi::{FaultConfig, GemFiEngine};
use gemfi_asm::{Assembler, Program, Reg};
use gemfi_cpu::CpuKind;
use gemfi_sim::{Machine, MachineConfig, RunExit};

const MODELS: [CpuKind; 4] = [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3];

/// Default L1 geometry (`MemConfig::default()`): 256 sets × 2 ways, 64-byte
/// lines. Tests compute lesion coordinates from symbol addresses with this.
const L1_SETS: u64 = 256;
const LINE: u64 = 64;

/// A word pattern that is visibly damaged by any of the masks used below.
const SENTINEL: u64 = 0x1122_3344_5566_7788;

fn l1_set_of(addr: u64) -> u64 {
    (addr / LINE) % L1_SETS
}

/// Boots `program` on `cpu` with faults parsed from Listing-1 `lines`,
/// runs to termination, and returns the exit plus published output words.
/// Asserts the containment contract on the way out.
fn run(cpu: CpuKind, program: &Program, lines: &str) -> (RunExit, Vec<u64>) {
    let faults: FaultConfig = lines.parse().unwrap_or_else(|e| panic!("bad spec {lines:?}: {e:?}"));
    let config = MachineConfig { cpu, max_ticks: 3_000_000, ..MachineConfig::default() };
    let mut machine =
        Machine::boot(config, program, GemFiEngine::new(faults)).expect("machine boots");
    let exit = machine.run();
    assert!(
        !matches!(exit, RunExit::SimError(_)),
        "cache fault must never surface a simulator error on {cpu}: {exit}"
    );
    (exit, machine.out_words().to_vec())
}

fn golden(cpu: CpuKind, program: &Program) -> Vec<u64> {
    let (exit, words) = run(cpu, program, "");
    assert_eq!(exit, RunExit::Halted(0), "golden run halts cleanly on {cpu}");
    words
}

/// An activated program that loads `buf` `loads` times, publishing each
/// value. The PAL publish after every load serializes the O3 pipeline, so
/// a lesion planted at load *k*'s instruction boundary is live for load
/// *k + 1* on every model.
fn repeated_load_program(loads: usize) -> Program {
    let mut a = Assembler::new();
    a.fi_activate(0);
    a.la(Reg::R7, "buf");
    for _ in 0..loads {
        a.ldq(Reg::R1, 0, Reg::R7);
        a.mov(Reg::R1, Reg::A0);
        a.write_word();
    }
    a.exit(0);
    a.dsym("buf");
    a.data_u64(&[SENTINEL]);
    a.finish().expect("assembles")
}

#[test]
fn transient_l1d_data_lesion_corrupts_one_read_then_heals() {
    let program = repeated_load_program(4);
    let buf = program.symbol("buf").expect("buf symbol");
    // Fires on the first load (which passes through clean and plants the
    // lesion); occ:1 burns the lesion on the second load.
    let spec = format!(
        "CacheInjectedFault Inst:1 Flip:3 Threadid:0 system.cpu0 occ:1 \
         l1d data set:{} way:0 mbu:single",
        l1_set_of(buf)
    );
    for cpu in MODELS {
        let clean = golden(cpu, &program);
        assert_eq!(clean, vec![SENTINEL; 4], "golden on {cpu}");
        let (exit, words) = run(cpu, &program, &spec);
        assert_eq!(exit, RunExit::Halted(0), "contained on {cpu}");
        assert_eq!(
            words,
            vec![SENTINEL, SENTINEL ^ 0x8, SENTINEL, SENTINEL],
            "exactly one flipped read on {cpu}"
        );
    }
}

#[test]
fn stuck_at_l1d_data_lesion_corrupts_every_read() {
    let program = repeated_load_program(4);
    let buf = program.symbol("buf").expect("buf symbol");
    // occ:perm = stuck-at cell; the row-0 MBU pattern pins the low byte.
    let spec = format!(
        "CacheInjectedFault Inst:1 AllOne Threadid:0 system.cpu0 occ:perm \
         l1d data set:{} way:0 mbu:row:0",
        l1_set_of(buf)
    );
    for cpu in MODELS {
        let (exit, words) = run(cpu, &program, &spec);
        assert_eq!(exit, RunExit::Halted(0), "contained on {cpu}");
        let stuck = SENTINEL | 0xff;
        assert_eq!(
            words,
            vec![SENTINEL, stuck, stuck, stuck],
            "every read after the plant is stuck on {cpu}"
        );
    }
}

#[test]
fn tag_lesion_on_dirty_line_serves_wrong_data_not_abort() {
    // Store a sentinel (dirtying the line), then read it back through a
    // corrupted tag: the slot answers for the aliased line, so the read
    // returns the alias's memory (zeros) — wrong data, never a sim abort.
    let mut a = Assembler::new();
    a.fi_activate(0);
    a.la(Reg::R7, "buf");
    a.li(Reg::R1, 0x7357);
    a.stq(Reg::R1, 0, Reg::R7);
    // Serializing publish between store and load: O3 would otherwise
    // forward the store's value from its queue and never walk the
    // (freshly lesioned) cache.
    a.mov(Reg::R1, Reg::A0);
    a.write_word();
    a.ldq(Reg::R2, 0, Reg::R7);
    a.mov(Reg::R2, Reg::A0);
    a.write_word();
    a.exit(0);
    a.dsym("buf");
    a.data_u64(&[0]);
    let program = a.finish().expect("assembles");
    let buf = program.symbol("buf").expect("buf symbol");
    // Flip:0 aliases the tag to a mapped, untouched (all-zero) line.
    let spec = format!(
        "CacheInjectedFault Inst:1 Flip:0 Threadid:0 system.cpu0 occ:perm \
         l1d tag set:{} way:0",
        l1_set_of(buf)
    );
    for cpu in MODELS {
        assert_eq!(golden(cpu, &program), vec![0x7357, 0x7357], "golden on {cpu}");
        let (exit, words) = run(cpu, &program, &spec);
        assert_eq!(exit, RunExit::Halted(0), "wrong data, not an abort, on {cpu}");
        assert_eq!(words, vec![0x7357, 0], "read served the aliased line on {cpu}");
    }
}

#[test]
fn way_lesion_covers_every_set() {
    // Two loads landing in *different* sets: a single-line lesion could
    // only hit one; the way-level lesion corrupts both.
    let mut a = Assembler::new();
    a.fi_activate(0);
    a.la(Reg::R7, "buf");
    for disp in [0i16, 64] {
        a.ldq(Reg::R1, disp, Reg::R7);
        a.mov(Reg::R1, Reg::A0);
        a.write_word();
    }
    // Re-read both lines: the stuck-at way keeps corrupting.
    for disp in [0i16, 64] {
        a.ldq(Reg::R1, disp, Reg::R7);
        a.mov(Reg::R1, Reg::A0);
        a.write_word();
    }
    a.exit(0);
    a.dsym("buf");
    a.data_u64(&[SENTINEL; 16]);
    let program = a.finish().expect("assembles");
    let spec = "CacheInjectedFault Inst:1 AllZero Threadid:0 system.cpu0 occ:perm \
                l1d way:0 mbu:single";
    for cpu in MODELS {
        assert_eq!(golden(cpu, &program), vec![SENTINEL; 4], "golden on {cpu}");
        let (exit, words) = run(cpu, &program, spec);
        assert_eq!(exit, RunExit::Halted(0), "contained on {cpu}");
        // The first load plants the lesion after it completes; cold fills
        // land in way 0, so every later read through the way reads zero.
        assert_eq!(words, vec![SENTINEL, 0, 0, 0], "whole way stuck at zero on {cpu}");
    }
}

#[test]
fn l2_data_lesion_applies_only_on_l1_misses() {
    // Three lines with the same L1D set (16 KiB stride) but distinct L2
    // sets: loading the third evicts the first from the 2-way L1, so
    // re-reading the first goes through the lesioned L2 slot.
    let mut a = Assembler::new();
    a.fi_activate(0);
    a.la(Reg::R7, "buf");
    a.lda(Reg::R5, 16384, Reg::R7);
    a.lda(Reg::R6, 16384, Reg::R5);
    for base in [Reg::R7, Reg::R5, Reg::R6, Reg::R7] {
        a.ldq(Reg::R1, 0, base);
        a.mov(Reg::R1, Reg::A0);
        a.write_word();
    }
    a.exit(0);
    a.dsym("buf");
    a.data_u64(&[SENTINEL]);
    a.zeros(2 * 16384);
    let program = a.finish().expect("assembles");
    let buf = program.symbol("buf").expect("buf symbol");
    let l2_set = (buf / LINE) % 2048;
    let spec = format!(
        "CacheInjectedFault Inst:1 Flip:7 Threadid:0 system.cpu0 occ:perm \
         l2 data set:{l2_set} way:0 mbu:single"
    );
    for cpu in MODELS {
        assert_eq!(golden(cpu, &program), vec![SENTINEL, 0, 0, SENTINEL], "golden on {cpu}");
        let (exit, words) = run(cpu, &program, &spec);
        assert_eq!(exit, RunExit::Halted(0), "contained on {cpu}");
        assert_eq!(
            words,
            vec![SENTINEL, 0, 0, SENTINEL ^ 0x80],
            "only the L1-missing re-read is corrupted on {cpu}"
        );
    }
}

#[test]
fn l1i_data_lesion_stays_contained_on_every_model() {
    // Damage the code's own cache line (set of TEXT_BASE, way 0): later
    // fetches serve zeroed instruction words. Whatever those decode to,
    // the run must end on a classifiable exit — trap, halt, or watchdog.
    let mut a = Assembler::new();
    a.fi_activate(0);
    a.li(Reg::R1, 1);
    for _ in 0..24 {
        a.addq_lit(Reg::R1, 1, Reg::R1);
    }
    a.exit(0);
    let program = a.finish().expect("assembles");
    let spec = "CacheInjectedFault Inst:2 AllZero Threadid:0 system.cpu0 occ:perm \
                l1i data set:0 way:0 mbu:single";
    for cpu in MODELS {
        let config = MachineConfig { cpu, max_ticks: 3_000_000, ..MachineConfig::default() };
        let faults: FaultConfig = spec.parse().expect("parses");
        let mut machine = Machine::boot(config, &program, GemFiEngine::new(faults)).expect("boots");
        let exit = machine.run();
        assert!(
            matches!(exit, RunExit::Trapped(_) | RunExit::Halted(_) | RunExit::Watchdog),
            "corrupted fetch stream must classify on {cpu}: {exit}"
        );
    }
}
