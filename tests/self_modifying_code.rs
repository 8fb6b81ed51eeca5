//! Self-modifying-code regression test for the predecoded-instruction
//! cache.
//!
//! The guest executes an instruction (warming the predecode cache with its
//! decode), overwrites that instruction's word in memory, and executes the
//! same address again. The patched semantics must take effect: stores to
//! cached code lines invalidate the stale entry. Without invalidation the
//! warm cache would keep serving the old decode and the run would produce
//! the unpatched result.
//!
//! The same invalidation rule keeps the kernel's boot stub coherent — the
//! machine writes its spin stub into the kernel region at runtime through
//! `write_u32_functional`, which flows through the identical store path
//! exercised here.

use gemfi_asm::{Assembler, Reg};
use gemfi_cpu::{CpuKind, NoopHooks};
use gemfi_isa::{IntReg, Operand};
use gemfi_sim::{Machine, MachineConfig, RunExit};

/// The replacement word the guest stores over `patchme`:
/// `addq r1, #100, r1` instead of the assembled `addq r1, #1, r1`.
fn patched_word() -> u32 {
    gemfi_isa::encode(&gemfi_isa::Instr::IntOp {
        func: gemfi_isa::opcode::IntFunc::Addq,
        ra: Reg::R1,
        rb: Operand::Lit(100),
        rc: Reg::R1,
    })
    .0
}

/// The no-op the program places after `patchme`: the second word of an
/// 8-byte patch, which the wide store rewrites to itself.
fn nop_word() -> u32 {
    let mut a = Assembler::new();
    a.nop();
    a.pal(gemfi_isa::PalFunc::Exit);
    a.finish().expect("assembles").text_words()[0]
}

/// Who rewrites `patchme`, and through which store width.
#[derive(Debug, Clone, Copy)]
enum Patch {
    /// The guest, with a 4-byte `stl`.
    Stl,
    /// The guest, with an 8-byte `stq` over `patchme` and the no-op after it.
    Stq,
    /// Nobody in the guest: the test patches from the host side.
    Host,
}

/// Two passes over `patchme`; pass 1 executes the original `r1 += 1` and
/// then patches the word to `r1 += 100`, pass 2 executes the patched form.
/// Exit code 101 proves the patch took architectural effect; 2 would mean a
/// stale cached decode survived the store.
fn smc_program(patch: Patch) -> gemfi_asm::Program {
    let mut a = Assembler::new();
    a.la(Reg::R16, "patchme");
    a.li(
        Reg::R17,
        match patch {
            Patch::Stq => (u64::from(nop_word()) << 32 | u64::from(patched_word())) as i64,
            _ => patched_word() as i64,
        },
    );
    a.li(Reg::R1, 0);
    a.li(Reg::R10, 0); // pass counter
    a.li(Reg::R11, 2);
    if !matches!(patch, Patch::Stl) && a.here() % 2 == 1 {
        a.nop(); // `patchme` must be 8-byte aligned for the wide stores
    }
    a.label("pass");
    a.label("patchme");
    a.addq_lit(Reg::R1, 1, Reg::R1);
    match patch {
        Patch::Stl => a.stl(Reg::R17, 0, Reg::R16),
        Patch::Stq => a.nop().stq(Reg::R17, 0, Reg::R16),
        Patch::Host => a.nop(),
    };
    a.addq_lit(Reg::R10, 1, Reg::R10);
    a.cmplt(Reg::R10, Reg::R11, Reg::R12);
    a.bne(Reg::R12, "pass");
    a.mov(Reg::R1, Reg::A0);
    a.pal(gemfi_isa::PalFunc::Exit);
    a.finish().expect("assembles")
}

struct SmcRun {
    exit: RunExit,
    tick: u64,
    instret: u64,
    arch: gemfi_isa::ArchState,
    mem: Vec<u8>,
    stats: gemfi_mem::MemStats,
}

/// `Machine::run` with superblocks on or off, or — `cold_decode` — the
/// reference loop that empties the predecode cache before every
/// `Machine::step`, so no fetch is ever served a cached decode.
fn run(cpu: CpuKind, patch: Patch, superblock: bool, cold_decode: bool) -> SmcRun {
    let config = MachineConfig { cpu, ..MachineConfig::default() };
    let mut m = Machine::boot(config, &smc_program(patch), NoopHooks).expect("boots");
    m.set_superblock(superblock);
    let exit = if cold_decode {
        loop {
            m.mem_mut().clear_predecode();
            if let Some(exit) = m.step() {
                break exit;
            }
        }
    } else {
        m.run()
    };
    SmcRun {
        exit,
        tick: m.tick(),
        instret: m.instret(),
        arch: m.arch().clone(),
        mem: m.mem().read_slice(0, m.mem().size() as usize).expect("physical memory"),
        stats: m.mem().stats(),
    }
}

/// Every model runs the original `stl` loop. The `stq` loop is one no-op
/// longer, and O3 has then already fetched pass 2's `patchme` when the
/// store commits — with no `imb` in the guest it legitimately executes the
/// old word — so the wide store is pinned on the other three models.
const CASES: [(CpuKind, Patch); 7] = [
    (CpuKind::Atomic, Patch::Stl),
    (CpuKind::Timing, Patch::Stl),
    (CpuKind::InOrder, Patch::Stl),
    (CpuKind::O3, Patch::Stl),
    (CpuKind::Atomic, Patch::Stq),
    (CpuKind::Timing, Patch::Stq),
    (CpuKind::InOrder, Patch::Stq),
];

#[test]
fn patched_instruction_takes_effect_under_the_cache() {
    for (cpu, patch) in CASES {
        let tag = format!("{cpu} {patch:?}");
        // Superblocks off here: on the atomic model they would absorb the
        // dormant loop and starve the predecode counters this test pins
        // (the superblock axis has its own test below).
        let on = run(cpu, patch, false, false);
        let off = run(cpu, patch, false, true);
        assert_eq!(on.exit, RunExit::Halted(101), "{tag}: stale decode served from the cache");
        assert_eq!(on.exit, off.exit, "{tag}: predecode cache changed SMC behavior");
        assert_eq!(on.tick, off.tick, "{tag}: predecode cache changed SMC timing");
        assert_eq!(on.arch, off.arch, "{tag}: predecode cache changed the final ArchState");
        assert!(on.mem == off.mem, "{tag}: predecode cache changed guest memory");
        // The guest's store really did evict a warm entry (the patch runs
        // twice; at least the first store hits the cached `patchme` line).
        let stats = on.stats.predecode;
        assert!(stats.invalidations > 0, "{tag}: store did not invalidate cached decode");
        assert!(stats.hits > 0, "{tag}: cache never warmed");
    }
}

#[test]
fn patched_instruction_takes_effect_inside_a_translated_superblock() {
    // On the atomic model the whole patch loop is one straight-line region,
    // so the guest's store lands *inside* the superblock currently
    // executing: the block must stop after that store commits and the
    // retranslation must pick up the patched bytes. Bit-identical exit,
    // tick count, and instret with superblocks on and off.
    for (cpu, patch) in CASES {
        let tag = format!("{cpu} {patch:?}");
        let on = run(cpu, patch, true, false);
        let off = run(cpu, patch, false, false);
        assert_eq!(on.exit, RunExit::Halted(101), "{tag}: stale micro-op executed");
        assert_eq!(on.exit, off.exit, "{tag}: superblocks changed SMC behavior");
        assert_eq!(on.tick, off.tick, "{tag}: superblocks changed SMC timing");
        assert_eq!(on.instret, off.instret, "{tag}: superblocks changed instruction count");
        if cpu == CpuKind::Atomic {
            let s = on.stats.superblock;
            assert!(s.uops_executed > 0, "the dormant loop must run through superblocks");
            assert!(s.invalidations > 0, "the patch store must drop the stale translation");
        } else {
            assert_eq!(
                on.stats.superblock,
                gemfi_isa::SuperblockStats::default(),
                "{tag}: only the atomic model may execute superblocks"
            );
        }
    }
}

/// An Atomic machine (one tick per instruction, superblocks off) stopped
/// right after the first pass over `patchme`, whose decode is now cached.
fn warmed_up_to_patchme(patch: Patch) -> (Machine<NoopHooks>, u64) {
    let program = smc_program(patch);
    let patchme = program.symbol("patchme").expect("label");
    let config = MachineConfig { cpu: CpuKind::Atomic, ..MachineConfig::default() };
    let mut m = Machine::boot(config, &program, NoopHooks).expect("boots");
    m.set_superblock(false);
    assert!(m.run_to_tick((patchme - gemfi_asm::TEXT_BASE) / 4 + 1).is_none());
    assert_eq!(m.arch().pc, patchme + 4, "sequencing drifted: `patchme` must just have run");
    assert!(m.mem().peek_predecoded(patchme).is_some(), "stepped pass must cache the decode");
    (m, patchme)
}

#[test]
fn store_inside_a_superblock_invalidates_a_decode_the_stepped_loop_cached() {
    // The stepped loop caches `patchme`; a superblock then executes the
    // patch store (micro-ops store straight to physical memory); the stepped
    // loop fetches `patchme` again and must not be served the old decode.
    for patch in [Patch::Stl, Patch::Stq] {
        let (mut m, patchme) = warmed_up_to_patchme(patch);
        m.set_superblock(true);
        // The rest of pass 1 is one block: (nop,) store, addq, cmplt, bne.
        let block = if matches!(patch, Patch::Stq) { 5 } else { 4 };
        assert!(m.run_to_tick(m.tick() + block).is_none());
        assert_eq!(m.stats().mem.superblock.uops_executed, block, "{patch:?}: block must run");
        assert_eq!(m.arch().pc, patchme, "{patch:?}: pass 2 starts at `patchme`");
        m.set_superblock(false);
        assert_eq!(m.run(), RunExit::Halted(101), "{patch:?}: stale decode survived the store");
    }
}

#[test]
fn host_side_stores_invalidate_cached_decodes() {
    // The untimed store paths (loader, kernel bookkeeping, host-side input
    // placement) obey the same rule as guest stores.
    let word = patched_word();
    let wide = u64::from(nop_word()) << 32 | u64::from(word);
    type HostStore<'a> = &'a dyn Fn(&mut gemfi_mem::MemorySystem, u64);
    let stores: [HostStore; 3] = [
        &|mem, addr| mem.write_u32_functional(addr, word).expect("mapped"),
        &|mem, addr| mem.write_u64_functional(addr, wide).expect("mapped"),
        &|mem, addr| mem.write_slice(addr, &word.to_le_bytes()).expect("mapped"),
    ];
    for (i, store) in stores.iter().enumerate() {
        let (mut m, patchme) = warmed_up_to_patchme(Patch::Host);
        store(m.mem_mut(), patchme);
        assert_eq!(m.run(), RunExit::Halted(101), "host store #{i}: stale decode survived");
    }
}

/// The IntReg alias used by the builder and the `Reg` consts agree — guard
/// against the hand-encoded patch word drifting from the assembler's
/// encoding of the same instruction.
#[test]
fn patch_word_matches_assembler_encoding() {
    let mut a = Assembler::new();
    a.addq_lit(IntReg::new(1).unwrap(), 100, IntReg::new(1).unwrap());
    a.pal(gemfi_isa::PalFunc::Exit);
    let p = a.finish().expect("assembles");
    assert_eq!(p.text_words()[0], patched_word());
}
