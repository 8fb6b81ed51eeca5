//! Superblock translation cache: threaded micro-op dispatch for the
//! interpreter hot loop.
//!
//! A *superblock* is a straight-line guest region pre-translated into fully
//! resolved micro-ops: operands lowered to register indices and immediates
//! (branch targets, link values, and shifted displacements folded at
//! translation time), each micro-op carrying a handler function pointer.
//! Executing a block is a threaded-dispatch loop over a flat `Vec<MicroOp>`
//! instead of fetch → decode → big-`match` per instruction — the layer above
//! the predecode cache ([`crate::predecode`]), which still pays the per-word
//! fetch and the interpreter `match`.
//!
//! Blocks end *at* a control-flow instruction (branch/jump, included as the
//! final micro-op with its targets precomputed) and *before* anything the
//! fast path must not swallow: PAL calls, the `fi_*` pseudo-ops, and
//! undecodable or unfetchable words all refuse translation, so halts,
//! checkpoint requests, and fault activations only ever happen on the
//! per-instruction path.
//!
//! Execution discipline (enforced by `Machine::sprint`, not here): blocks
//! run only while the fault engine is dormant, on the atomic CPU model, with
//! no cache lesions planted, and only when the block's register footprint
//! misses every register a live consumption watch waits on — the micro-op
//! handlers skip the cache-hierarchy walk (tick-invisible on atomic, which
//! charges one tick per committed instruction regardless of memory latency)
//! and call no per-event fault hooks, register hooks included. The executor
//! returns the exact per-stage event counts the per-instruction path would
//! have produced, so bulk absorption into the engine
//! (`gemfi_cpu::FaultHooks::absorb_elided`-style accounting) stays
//! event-for-event identical.
//!
//! Coherence: like the predecode cache, translations are *derived state* —
//! never serialized, dropped on checkpoint capture/restore/CPU-switch, and
//! invalidated by every store path. A store landing inside the block
//! currently being executed stops the block after that store commits, so
//! self-modifying code observes its own patch exactly as the per-instruction
//! path would.

use crate::instr::{decode, Instr, MemOp, Operand};
use crate::opcode::{BranchCond, FpBranchCond, FpFunc, IntFunc};
use crate::regs::{FpReg, IntReg};
use crate::semantics::{alu, cmov_cond, fp_cmov_cond, fpu};
use crate::trap::Trap;
use crate::{ArchState, RawInstr};
use std::sync::Arc;

/// Default number of superblock cache slots (direct-mapped by start PC).
pub const DEFAULT_SUPERBLOCK_ENTRIES: usize = 2048;

/// Maximum micro-ops per superblock. Bounds the tick/event budget a block
/// needs up front, so the sprint can pre-check that executing the whole
/// block cannot cross its deadline or event horizon.
pub const MAX_SUPERBLOCK_UOPS: usize = 64;

/// The memory surface micro-op handlers drive: untimed physical loads and
/// stores. Implementations (the real one is `gemfi_mem::MemorySystem`) must
/// keep stores coherent — invalidating overlapping predecode entries *and*
/// superblock translations — exactly like their timed store paths.
pub trait SbMemory {
    /// 64-bit load. `pc` attributes a trap to the faulting instruction.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    fn load_u64(&mut self, addr: u64, pc: u64) -> Result<u64, Trap>;

    /// 32-bit load.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    fn load_u32(&mut self, addr: u64, pc: u64) -> Result<u32, Trap>;

    /// 64-bit store.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    fn store_u64(&mut self, addr: u64, value: u64, pc: u64) -> Result<(), Trap>;

    /// 32-bit store.
    ///
    /// # Errors
    ///
    /// [`Trap::UnmappedAccess`] / [`Trap::MisalignedAccess`].
    fn store_u32(&mut self, addr: u64, value: u32, pc: u64) -> Result<(), Trap>;
}

/// Execution context threaded through the micro-op handlers.
pub struct SbCtx<'a> {
    arch: &'a mut ArchState,
    mem: &'a mut dyn SbMemory,
    /// Execute-stage events (one per `on_execute_result` call the
    /// per-instruction path would have made).
    exec_events: u64,
    /// Memory-stage events (`on_mem_load` after a successful read,
    /// `on_mem_store` before the write).
    mem_events: u64,
    /// Set when a store landed inside this block's own range: the block must
    /// stop after the store commits (self-modifying code).
    stop: bool,
    block_start: u64,
    block_end: u64,
}

type Handler = fn(&mut SbCtx<'_>, &MicroOp) -> Result<(), Trap>;

/// One fully pre-resolved micro-op. Register numbers are raw 5-bit indices
/// (`a`/`b` sources, `c` destination — which bank depends on the handler);
/// `imm` holds whatever the handler needs folded: a sign-extended (and for
/// `ldah`, pre-shifted) displacement, an operate literal, or a precomputed
/// branch target.
#[derive(Debug, Clone, Copy)]
pub struct MicroOp {
    handler: Handler,
    a: u8,
    b: u8,
    c: u8,
    ifunc: IntFunc,
    ffunc: FpFunc,
    imm: u64,
    /// Guest PC this micro-op was translated from.
    pc: u64,
}

impl PartialEq for MicroOp {
    fn eq(&self, other: &MicroOp) -> bool {
        // fn pointers are compared via `fn_addr_eq` (the derive would trip
        // the unpredictable-fn-pointer-comparison lint); two micro-ops
        // lowered from the same word at the same PC always share a handler.
        std::ptr::fn_addr_eq(self.handler, other.handler)
            && (self.a, self.b, self.c) == (other.a, other.b, other.c)
            && (self.ifunc, self.ffunc) == (other.ifunc, other.ffunc)
            && (self.imm, self.pc) == (other.imm, other.pc)
    }
}

#[inline]
fn ireg(n: u8) -> IntReg {
    IntReg::from_bits(u32::from(n))
}

#[inline]
fn freg(n: u8) -> FpReg {
    FpReg::from_bits(u32::from(n))
}

/// Commits a fall-through micro-op: the architectural PC advances past it.
/// Handlers call this (or set a branch target) only on success, so a trap
/// leaves `arch.pc` at the trapping instruction — identical to the
/// per-instruction path, which assigns `next_pc` after the execute match.
#[inline]
fn advance(ctx: &mut SbCtx<'_>, op: &MicroOp) {
    ctx.arch.pc = op.pc.wrapping_add(4);
}

fn h_lea(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let v = ctx.arch.regs.read_int(ireg(op.b)).wrapping_add(op.imm);
    ctx.exec_events += 1;
    ctx.arch.regs.write_int(ireg(op.c), v);
    advance(ctx, op);
    Ok(())
}

fn h_int_rr(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let a = ctx.arch.regs.read_int(ireg(op.a));
    let b = ctx.arch.regs.read_int(ireg(op.b));
    let v = alu(op.ifunc, a, b);
    ctx.exec_events += 1;
    ctx.arch.regs.write_int(ireg(op.c), v);
    advance(ctx, op);
    Ok(())
}

fn h_int_ri(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let a = ctx.arch.regs.read_int(ireg(op.a));
    let v = alu(op.ifunc, a, op.imm);
    ctx.exec_events += 1;
    ctx.arch.regs.write_int(ireg(op.c), v);
    advance(ctx, op);
    Ok(())
}

fn h_cmov_rr(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let a = ctx.arch.regs.read_int(ireg(op.a));
    if cmov_cond(op.ifunc, a) == Some(true) {
        let b = ctx.arch.regs.read_int(ireg(op.b));
        ctx.exec_events += 1;
        ctx.arch.regs.write_int(ireg(op.c), b);
    }
    advance(ctx, op);
    Ok(())
}

fn h_cmov_ri(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let a = ctx.arch.regs.read_int(ireg(op.a));
    if cmov_cond(op.ifunc, a) == Some(true) {
        ctx.exec_events += 1;
        ctx.arch.regs.write_int(ireg(op.c), op.imm);
    }
    advance(ctx, op);
    Ok(())
}

fn h_fp(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let a = ctx.arch.regs.read_fp_bits(freg(op.a));
    let b = ctx.arch.regs.read_fp_bits(freg(op.b));
    let v = fpu(op.ffunc, a, b);
    ctx.exec_events += 1;
    ctx.arch.regs.write_fp_bits(freg(op.c), v);
    advance(ctx, op);
    Ok(())
}

fn h_fp_cmov(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let a = ctx.arch.regs.read_fp_bits(freg(op.a));
    if fp_cmov_cond(op.ffunc, a) == Some(true) {
        let b = ctx.arch.regs.read_fp_bits(freg(op.b));
        ctx.exec_events += 1;
        ctx.arch.regs.write_fp_bits(freg(op.c), b);
    }
    advance(ctx, op);
    Ok(())
}

fn h_itoft(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let v = ctx.arch.regs.read_int(ireg(op.b));
    ctx.exec_events += 1;
    ctx.arch.regs.write_fp_bits(freg(op.c), v);
    advance(ctx, op);
    Ok(())
}

fn h_ftoit(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let v = ctx.arch.regs.read_fp_bits(freg(op.a));
    ctx.exec_events += 1;
    ctx.arch.regs.write_int(ireg(op.c), v);
    advance(ctx, op);
    Ok(())
}

fn h_ldq(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let addr = ctx.arch.regs.read_int(ireg(op.b)).wrapping_add(op.imm);
    ctx.exec_events += 1;
    let v = ctx.mem.load_u64(addr, op.pc)?;
    ctx.mem_events += 1;
    ctx.arch.regs.write_int(ireg(op.c), v);
    advance(ctx, op);
    Ok(())
}

fn h_ldl(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let addr = ctx.arch.regs.read_int(ireg(op.b)).wrapping_add(op.imm);
    ctx.exec_events += 1;
    let v = ctx.mem.load_u32(addr, op.pc)?;
    ctx.mem_events += 1;
    ctx.arch.regs.write_int(ireg(op.c), v as i32 as i64 as u64);
    advance(ctx, op);
    Ok(())
}

fn h_ldt(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let addr = ctx.arch.regs.read_int(ireg(op.b)).wrapping_add(op.imm);
    ctx.exec_events += 1;
    let v = ctx.mem.load_u64(addr, op.pc)?;
    ctx.mem_events += 1;
    ctx.arch.regs.write_fp_bits(freg(op.c), v);
    advance(ctx, op);
    Ok(())
}

/// A store landing inside the executing block's own range must stop the
/// block after it commits: later micro-ops were translated from the bytes
/// this store just overwrote.
#[inline]
fn note_store(ctx: &mut SbCtx<'_>, addr: u64, width: u64) {
    if addr < ctx.block_end && addr.saturating_add(width) > ctx.block_start {
        ctx.stop = true;
    }
}

fn h_stq(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let addr = ctx.arch.regs.read_int(ireg(op.b)).wrapping_add(op.imm);
    ctx.exec_events += 1;
    let v = ctx.arch.regs.read_int(ireg(op.a));
    // The memory-stage event counts *before* the write, matching the
    // per-instruction hook order (`on_mem_store`, then the write — which
    // may still trap).
    ctx.mem_events += 1;
    ctx.mem.store_u64(addr, v, op.pc)?;
    note_store(ctx, addr, 8);
    advance(ctx, op);
    Ok(())
}

fn h_stl(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let addr = ctx.arch.regs.read_int(ireg(op.b)).wrapping_add(op.imm);
    ctx.exec_events += 1;
    let v = ctx.arch.regs.read_int(ireg(op.a));
    ctx.mem_events += 1;
    ctx.mem.store_u32(addr, v as u32, op.pc)?;
    note_store(ctx, addr, 4);
    advance(ctx, op);
    Ok(())
}

fn h_stt(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let addr = ctx.arch.regs.read_int(ireg(op.b)).wrapping_add(op.imm);
    ctx.exec_events += 1;
    let v = ctx.arch.regs.read_fp_bits(freg(op.a));
    ctx.mem_events += 1;
    ctx.mem.store_u64(addr, v, op.pc)?;
    note_store(ctx, addr, 8);
    advance(ctx, op);
    Ok(())
}

fn h_jump(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    let target = ctx.arch.regs.read_int(ireg(op.b)) & !3;
    ctx.exec_events += 1;
    // `imm` holds the precomputed link value (pc + 4).
    ctx.arch.regs.write_int(ireg(op.c), op.imm);
    ctx.arch.pc = target;
    Ok(())
}

fn h_br(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
    // `imm` holds the precomputed unconditional target.
    ctx.exec_events += 1;
    ctx.arch.regs.write_int(ireg(op.c), op.pc.wrapping_add(4));
    ctx.arch.pc = op.imm;
    Ok(())
}

macro_rules! condbr_handlers {
    ($($name:ident => $cond:expr,)*) => {
        $(fn $name(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
            let v = ctx.arch.regs.read_int(ireg(op.a));
            // `imm` holds the precomputed taken target.
            let target = if $cond.eval(v) { op.imm } else { op.pc.wrapping_add(4) };
            ctx.exec_events += 1;
            ctx.arch.pc = target;
            Ok(())
        })*
    };
}

condbr_handlers! {
    h_beq => BranchCond::Eq,
    h_bne => BranchCond::Ne,
    h_blt => BranchCond::Lt,
    h_ble => BranchCond::Le,
    h_bgt => BranchCond::Gt,
    h_bge => BranchCond::Ge,
    h_blbc => BranchCond::Lbc,
    h_blbs => BranchCond::Lbs,
}

macro_rules! fp_condbr_handlers {
    ($($name:ident => $cond:expr,)*) => {
        $(fn $name(ctx: &mut SbCtx<'_>, op: &MicroOp) -> Result<(), Trap> {
            let v = ctx.arch.regs.read_fp_bits(freg(op.a));
            let target = if $cond.eval(v) { op.imm } else { op.pc.wrapping_add(4) };
            ctx.exec_events += 1;
            ctx.arch.pc = target;
            Ok(())
        })*
    };
}

fp_condbr_handlers! {
    h_fbeq => FpBranchCond::Eq,
    h_fbne => FpBranchCond::Ne,
    h_fblt => FpBranchCond::Lt,
    h_fble => FpBranchCond::Le,
    h_fbgt => FpBranchCond::Gt,
    h_fbge => FpBranchCond::Ge,
}

fn condbr_handler(cond: BranchCond) -> Handler {
    match cond {
        BranchCond::Eq => h_beq,
        BranchCond::Ne => h_bne,
        BranchCond::Lt => h_blt,
        BranchCond::Le => h_ble,
        BranchCond::Gt => h_bgt,
        BranchCond::Ge => h_bge,
        BranchCond::Lbc => h_blbc,
        BranchCond::Lbs => h_blbs,
    }
}

fn fp_condbr_handler(cond: FpBranchCond) -> Handler {
    match cond {
        FpBranchCond::Eq => h_fbeq,
        FpBranchCond::Ne => h_fbne,
        FpBranchCond::Lt => h_fblt,
        FpBranchCond::Le => h_fble,
        FpBranchCond::Gt => h_fbgt,
        FpBranchCond::Ge => h_fbge,
    }
}

/// What [`lower`] produced for one decoded instruction.
enum Lowered {
    /// A straight-line micro-op; translation continues past it.
    Op(MicroOp),
    /// A control-flow micro-op; it ends the block (and executes in it).
    Terminal(MicroOp),
    /// The instruction must not run inside a block (PAL call, `fi_*`
    /// pseudo-op): the block ends *before* it.
    Refuse,
}

/// Lowers one decoded instruction at `pc` into a micro-op.
fn lower(instr: Instr, pc: u64) -> Lowered {
    let base = MicroOp {
        handler: h_lea,
        a: 0,
        b: 0,
        c: 0,
        ifunc: IntFunc::Addq,
        ffunc: FpFunc::Addt,
        imm: 0,
        pc,
    };
    let branch_target = |disp: i32| pc.wrapping_add(4).wrapping_add((i64::from(disp) as u64) << 2);
    match instr {
        Instr::CallPal { .. } | Instr::FiActivate { .. } | Instr::FiReadInit => Lowered::Refuse,
        Instr::Lda { ra, rb, disp } => Lowered::Op(MicroOp {
            handler: h_lea,
            b: rb.index() as u8,
            c: ra.index() as u8,
            imm: disp as i64 as u64,
            ..base
        }),
        Instr::Ldah { ra, rb, disp } => Lowered::Op(MicroOp {
            handler: h_lea,
            b: rb.index() as u8,
            c: ra.index() as u8,
            imm: (disp as i64 as u64).wrapping_shl(16),
            ..base
        }),
        Instr::Mem { op, ra, rb, disp } => {
            let handler = match (op, op.is_store()) {
                (MemOp::Ldl, _) => h_ldl,
                (MemOp::Ldq, _) => h_ldq,
                (MemOp::Stl, _) => h_stl,
                (MemOp::Stq, _) => h_stq,
            };
            let (a, c) = if op.is_store() { (ra.index() as u8, 0) } else { (0, ra.index() as u8) };
            Lowered::Op(MicroOp {
                handler,
                a,
                b: rb.index() as u8,
                c,
                imm: disp as i64 as u64,
                ..base
            })
        }
        Instr::Ldt { fa, rb, disp } => Lowered::Op(MicroOp {
            handler: h_ldt,
            b: rb.index() as u8,
            c: fa.index() as u8,
            imm: disp as i64 as u64,
            ..base
        }),
        Instr::Stt { fa, rb, disp } => Lowered::Op(MicroOp {
            handler: h_stt,
            a: fa.index() as u8,
            b: rb.index() as u8,
            imm: disp as i64 as u64,
            ..base
        }),
        Instr::Jump { ra, rb, .. } => Lowered::Terminal(MicroOp {
            handler: h_jump,
            b: rb.index() as u8,
            c: ra.index() as u8,
            imm: pc.wrapping_add(4),
            ..base
        }),
        Instr::Br { ra, disp } | Instr::Bsr { ra, disp } => Lowered::Terminal(MicroOp {
            handler: h_br,
            c: ra.index() as u8,
            imm: branch_target(disp),
            ..base
        }),
        Instr::CondBr { cond, ra, disp } => Lowered::Terminal(MicroOp {
            handler: condbr_handler(cond),
            a: ra.index() as u8,
            imm: branch_target(disp),
            ..base
        }),
        Instr::FpCondBr { cond, fa, disp } => Lowered::Terminal(MicroOp {
            handler: fp_condbr_handler(cond),
            a: fa.index() as u8,
            imm: branch_target(disp),
            ..base
        }),
        Instr::IntOp { func, ra, rb, rc } => {
            let is_cmov = cmov_cond(func, 0).is_some();
            let (handler, b, imm) = match rb {
                Operand::Reg(r) => (if is_cmov { h_cmov_rr } else { h_int_rr }, r.index() as u8, 0),
                Operand::Lit(v) => (if is_cmov { h_cmov_ri } else { h_int_ri }, 0, u64::from(v)),
            };
            Lowered::Op(MicroOp {
                handler,
                a: ra.index() as u8,
                b,
                c: rc.index() as u8,
                ifunc: func,
                imm,
                ..base
            })
        }
        Instr::FpOp { func, fa, fb, fc } => {
            let handler = if fp_cmov_cond(func, 0).is_some() { h_fp_cmov } else { h_fp };
            Lowered::Op(MicroOp {
                handler,
                a: fa.index() as u8,
                b: fb.index() as u8,
                c: fc.index() as u8,
                ffunc: func,
                ..base
            })
        }
        Instr::Itoft { rb, fc } => Lowered::Op(MicroOp {
            handler: h_itoft,
            b: rb.index() as u8,
            c: fc.index() as u8,
            ..base
        }),
        Instr::Ftoit { fa, rc } => Lowered::Op(MicroOp {
            handler: h_ftoit,
            a: fa.index() as u8,
            c: rc.index() as u8,
            ..base
        }),
    }
}

/// A translated straight-line region: `[start, end)` guest bytes lowered to
/// micro-ops, ending at (and including) the first control-flow instruction
/// or stopping before the first refused/unfetchable word.
#[derive(Debug, Clone, PartialEq)]
pub struct Superblock {
    start: u64,
    end: u64,
    uops: Vec<MicroOp>,
    /// Every register the block's instructions may read or write, as a
    /// [`crate::RegRef::mask_bit`] mask (see [`Superblock::footprint`]).
    footprint: u64,
}

/// The result of running one superblock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRun {
    /// Micro-ops that fully committed.
    pub committed: u64,
    /// Micro-ops that *started* (committed, plus the trapping one if any) —
    /// each started micro-op produced one fetch and one decode event.
    pub started: u64,
    /// Per-stage event counts in stage-queue order (fetch, decode, execute,
    /// memory, commit), exactly what the per-instruction hook path would
    /// have counted for the same instructions.
    pub events: [u64; 5],
    /// The guest trap that stopped the block, if one did.
    pub trap: Option<Trap>,
}

impl Superblock {
    /// First guest byte covered.
    pub fn start(&self) -> u64 {
        self.start
    }

    /// One past the last guest byte covered.
    pub fn end(&self) -> u64 {
        self.end
    }

    /// Number of micro-ops (= guest instructions) in the block.
    pub fn len(&self) -> usize {
        self.uops.len()
    }

    /// Whether the block is empty (never true for installed blocks).
    pub fn is_empty(&self) -> bool {
        self.uops.is_empty()
    }

    /// The block's register footprint: the union of
    /// [`Instr::reg_footprint`] over its instructions, recorded at
    /// translation. A superset of every register the stepped path reports
    /// through its register hooks for the same instructions, so a block
    /// whose footprint misses every watched register can run whole without
    /// any consumption watch noticing.
    pub fn footprint(&self) -> u64 {
        self.footprint
    }

    /// Executes the block from its first micro-op, stopping at the terminal
    /// micro-op, the first trap, or a store into the block's own range.
    ///
    /// On a trap, `arch.pc` is left at the trapping instruction (matching
    /// the per-instruction path, which assigns the next PC only on success).
    pub fn execute(&self, arch: &mut ArchState, mem: &mut dyn SbMemory) -> BlockRun {
        let mut ctx = SbCtx {
            arch,
            mem,
            exec_events: 0,
            mem_events: 0,
            stop: false,
            block_start: self.start,
            block_end: self.end,
        };
        let mut committed = 0u64;
        let mut started = 0u64;
        let mut trap = None;
        for op in &self.uops {
            started += 1;
            match (op.handler)(&mut ctx, op) {
                Ok(()) => committed += 1,
                Err(t) => {
                    trap = Some(t);
                    break;
                }
            }
            if ctx.stop {
                break;
            }
        }
        let events = [started, started, ctx.exec_events, ctx.mem_events, committed];
        BlockRun { committed, started, events, trap }
    }
}

/// Translates the straight-line region starting at `start` into a
/// superblock. `fetch` reads one aligned instruction word (functionally —
/// translation happens on the host side of the timeline); returning `None`
/// (unmapped, misaligned) ends the block before that word.
///
/// Returns `None` when not even the first word translates — the caller
/// falls back to the per-instruction path, which raises the proper trap or
/// handles the pseudo-op.
pub fn translate(start: u64, mut fetch: impl FnMut(u64) -> Option<u32>) -> Option<Superblock> {
    let mut uops = Vec::new();
    let mut footprint = 0;
    let mut pc = start;
    while uops.len() < MAX_SUPERBLOCK_UOPS {
        let Some(word) = fetch(pc) else { break };
        let Ok(instr) = decode(RawInstr(word)) else { break };
        let (op, terminal) = match lower(instr, pc) {
            Lowered::Op(op) => (op, false),
            Lowered::Terminal(op) => (op, true),
            Lowered::Refuse => break,
        };
        uops.push(op);
        footprint |= instr.reg_footprint();
        pc = pc.wrapping_add(4);
        if terminal {
            break;
        }
    }
    if uops.is_empty() {
        return None;
    }
    Some(Superblock { start, end: pc, uops, footprint })
}

/// Counters of the superblock machinery (derived state, reset with it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SuperblockStats {
    /// Translations installed.
    pub blocks_built: u64,
    /// Lookups served by a cached block.
    pub hits: u64,
    /// Lookups that found no cached block for the PC.
    pub misses: u64,
    /// Micro-ops committed through block execution.
    pub uops_executed: u64,
    /// Cached blocks dropped by overlapping stores.
    pub invalidations: u64,
    /// Fallbacks because the head instruction refused translation.
    pub untranslatable: u64,
    /// Fallbacks because a cached block did not fit the sprint's remaining
    /// tick or event budget.
    pub budget_fallbacks: u64,
    /// Blocks stepped instead of run whole because their footprint holds a
    /// register a live consumption watch waits on.
    pub watch_fallbacks: u64,
}

/// Direct-mapped superblock cache, keyed by block start PC.
///
/// Like the predecode cache this is purely derived state: never serialized,
/// cleared on checkpoint capture/restore and CPU-model switches, and
/// invalidated by every store path. The `span` summary (min start / max end
/// over live blocks) lets the store paths reject non-code stores with two
/// compares instead of a cache scan.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperblockCache {
    mask: u64,
    /// The slot table, allocated by the first install and released by
    /// [`SuperblockCache::clear`] (the predecode cache's rule: a cold cache
    /// carries no table).
    entries: Vec<Option<Arc<Superblock>>>,
    /// `(min start, max end)` over live entries; `None` when empty. May
    /// overstate after evictions — only ever conservative.
    span: Option<(u64, u64)>,
    stats: SuperblockStats,
}

impl Default for SuperblockCache {
    /// A cache with [`DEFAULT_SUPERBLOCK_ENTRIES`] slots.
    fn default() -> SuperblockCache {
        SuperblockCache::with_entries(DEFAULT_SUPERBLOCK_ENTRIES)
    }
}

impl SuperblockCache {
    /// A cache with `entries` slots (rounded up to a power of two).
    pub fn with_entries(entries: usize) -> SuperblockCache {
        let n = entries.next_power_of_two().max(1);
        SuperblockCache {
            mask: (n - 1) as u64,
            entries: Vec::new(),
            span: None,
            stats: SuperblockStats::default(),
        }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// The cached block starting exactly at `pc`, counting hit/miss.
    pub fn lookup(&mut self, pc: u64) -> Option<Arc<Superblock>> {
        let i = self.index(pc);
        match self.entries.get(i) {
            Some(Some(b)) if b.start == pc => {
                self.stats.hits += 1;
                Some(Arc::clone(b))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Installs a freshly translated block, returning the shared handle
    /// (the caller usually executes it immediately). A colliding resident
    /// block is evicted.
    pub fn install(&mut self, block: Superblock) -> Arc<Superblock> {
        let handle = Arc::new(block);
        if self.entries.is_empty() {
            self.entries = vec![None; self.mask as usize + 1];
        }
        self.stats.blocks_built += 1;
        self.span = Some(match self.span {
            Some((lo, hi)) => (lo.min(handle.start), hi.max(handle.end)),
            None => (handle.start, handle.end),
        });
        let i = self.index(handle.start);
        self.entries[i] = Some(Arc::clone(&handle));
        handle
    }

    /// Notes micro-ops committed through block execution.
    #[inline]
    pub fn note_executed(&mut self, uops: u64) {
        self.stats.uops_executed += uops;
    }

    /// Notes a cached block skipped because it did not fit the sprint's
    /// remaining tick or event budget.
    #[inline]
    pub fn note_budget_fallback(&mut self) {
        self.stats.budget_fallbacks += 1;
    }

    /// Notes a cached block stepped because its footprint meets a watched
    /// register.
    #[inline]
    pub fn note_watch_fallback(&mut self) {
        self.stats.watch_fallbacks += 1;
    }

    /// Notes a head instruction that refused translation.
    #[inline]
    pub fn note_untranslatable(&mut self) {
        self.stats.untranslatable += 1;
    }

    /// Drops every cached block overlapping `[addr, addr + len)` (store
    /// coherence — mirrors [`crate::predecode::PredecodeCache`]).
    pub fn invalidate_range(&mut self, addr: u64, len: u64) {
        if len == 0 {
            return;
        }
        let Some((lo, hi)) = self.span else { return };
        let end = addr.saturating_add(len);
        if end <= lo || addr >= hi {
            return;
        }
        let mut span = None;
        for slot in &mut self.entries {
            let Some(b) = slot else { continue };
            if b.start < end && b.end > addr {
                self.stats.invalidations += 1;
                *slot = None;
            } else {
                span = Some(match span {
                    Some((l, h)) => (u64::min(l, b.start), u64::max(h, b.end)),
                    None => (b.start, b.end),
                });
            }
        }
        self.span = span;
    }

    /// Drops every translation *and* every counter, releasing the slot
    /// table (derived-state reset on checkpoint capture/restore, fork and
    /// CPU-model switch).
    pub fn clear(&mut self) {
        self.entries = Vec::new();
        self.span = None;
        self.stats = SuperblockStats::default();
    }

    /// Current counters.
    pub fn stats(&self) -> SuperblockStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::encode;
    use crate::regs::RegFile;

    /// Little-endian flat test memory.
    struct TestMem {
        bytes: Vec<u8>,
    }

    impl TestMem {
        fn new(size: usize) -> TestMem {
            TestMem { bytes: vec![0; size] }
        }

        fn put_u32(&mut self, addr: u64, v: u32) {
            self.bytes[addr as usize..addr as usize + 4].copy_from_slice(&v.to_le_bytes());
        }

        fn get_u64(&self, addr: u64) -> u64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&self.bytes[addr as usize..addr as usize + 8]);
            u64::from_le_bytes(b)
        }

        fn word(&self, addr: u64) -> Option<u32> {
            if !addr.is_multiple_of(4) || addr as usize + 4 > self.bytes.len() {
                return None;
            }
            let mut b = [0u8; 4];
            b.copy_from_slice(&self.bytes[addr as usize..addr as usize + 4]);
            Some(u32::from_le_bytes(b))
        }
    }

    impl SbMemory for TestMem {
        fn load_u64(&mut self, addr: u64, pc: u64) -> Result<u64, Trap> {
            if !addr.is_multiple_of(8) {
                return Err(Trap::MisalignedAccess { addr, pc });
            }
            if addr as usize + 8 > self.bytes.len() {
                return Err(Trap::UnmappedAccess { addr, pc });
            }
            Ok(self.get_u64(addr))
        }

        fn load_u32(&mut self, addr: u64, pc: u64) -> Result<u32, Trap> {
            if !addr.is_multiple_of(4) {
                return Err(Trap::MisalignedAccess { addr, pc });
            }
            self.word(addr).ok_or(Trap::UnmappedAccess { addr, pc })
        }

        fn store_u64(&mut self, addr: u64, value: u64, pc: u64) -> Result<(), Trap> {
            if !addr.is_multiple_of(8) {
                return Err(Trap::MisalignedAccess { addr, pc });
            }
            if addr as usize + 8 > self.bytes.len() {
                return Err(Trap::UnmappedAccess { addr, pc });
            }
            self.bytes[addr as usize..addr as usize + 8].copy_from_slice(&value.to_le_bytes());
            Ok(())
        }

        fn store_u32(&mut self, addr: u64, value: u32, pc: u64) -> Result<(), Trap> {
            if !addr.is_multiple_of(4) {
                return Err(Trap::MisalignedAccess { addr, pc });
            }
            if addr as usize + 4 > self.bytes.len() {
                return Err(Trap::UnmappedAccess { addr, pc });
            }
            self.put_u32(addr, value);
            Ok(())
        }
    }

    fn r(n: u8) -> IntReg {
        IntReg::from_bits(u32::from(n))
    }

    fn addq_lit(ra: u8, lit: u8, rc: u8) -> Instr {
        Instr::IntOp { func: IntFunc::Addq, ra: r(ra), rb: Operand::Lit(lit), rc: r(rc) }
    }

    fn program(mem: &mut TestMem, start: u64, instrs: &[Instr]) {
        for (i, instr) in instrs.iter().enumerate() {
            mem.put_u32(start + 4 * i as u64, encode(instr).0);
        }
    }

    #[test]
    fn translate_ends_at_control_flow_and_includes_it() {
        let mut mem = TestMem::new(0x1000);
        program(
            &mut mem,
            0x100,
            &[
                addq_lit(1, 5, 1),
                addq_lit(1, 1, 2),
                Instr::CondBr { cond: BranchCond::Ne, ra: r(2), disp: -3 },
                addq_lit(3, 9, 3), // past the branch: not part of the block
            ],
        );
        let b = translate(0x100, |a| mem.word(a)).expect("translates");
        assert_eq!((b.start(), b.end(), b.len()), (0x100, 0x10c, 3));
    }

    #[test]
    fn translate_stops_before_pseudo_ops_and_refuses_empty_heads() {
        let mut mem = TestMem::new(0x1000);
        program(&mut mem, 0x200, &[addq_lit(1, 1, 1), Instr::FiReadInit]);
        let b = translate(0x200, |a| mem.word(a)).expect("translates");
        assert_eq!(b.len(), 1, "block ends before the pseudo-op");
        assert!(translate(0x204, |a| mem.word(a)).is_none(), "pseudo-op head refuses");
        assert!(translate(0x999, |a| mem.word(a)).is_none(), "misaligned head refuses");
    }

    #[test]
    fn straight_line_block_matches_hand_evaluation_and_counts_events() {
        let mut mem = TestMem::new(0x1000);
        // r1 = 7; r2 = r1 + r1; stq r2 -> 0x800; r3 = ldq 0x800
        program(
            &mut mem,
            0x100,
            &[
                addq_lit(31, 7, 1),
                Instr::IntOp { func: IntFunc::Addq, ra: r(1), rb: Operand::Reg(r(1)), rc: r(2) },
                Instr::Lda { ra: r(4), rb: r(31), disp: 0x800 },
                Instr::Mem { op: MemOp::Stq, ra: r(2), rb: r(4), disp: 0 },
                Instr::Mem { op: MemOp::Ldq, ra: r(3), rb: r(4), disp: 0 },
            ],
        );
        let b = translate(0x100, |a| mem.word(a)).expect("translates");
        assert_eq!(b.len(), 5);
        let mut arch = ArchState { regs: RegFile::default(), pc: 0x100, ..ArchState::default() };
        let run = b.execute(&mut arch, &mut mem);
        assert_eq!(run.trap, None);
        assert_eq!(run.committed, 5);
        assert_eq!(arch.regs.read_int(r(2)), 14);
        assert_eq!(arch.regs.read_int(r(3)), 14);
        assert_eq!(mem.get_u64(0x800), 14);
        assert_eq!(arch.pc, 0x114, "fell through the whole block");
        // fetch/decode once per started op; one execute per op; the store
        // and the load each produce one memory event; all five commit.
        assert_eq!(run.events, [5, 5, 5, 2, 5]);
    }

    #[test]
    fn conditional_branch_takes_the_precomputed_target() {
        let mut mem = TestMem::new(0x1000);
        program(
            &mut mem,
            0x100,
            &[addq_lit(31, 1, 1), Instr::CondBr { cond: BranchCond::Ne, ra: r(1), disp: 4 }],
        );
        let b = translate(0x100, |a| mem.word(a)).expect("translates");
        let mut arch = ArchState { pc: 0x100, ..ArchState::default() };
        let run = b.execute(&mut arch, &mut mem);
        assert_eq!(run.committed, 2);
        // taken target: pc+4 + disp*4 = 0x108 + 16 = 0x118
        assert_eq!(arch.pc, 0x118);
        // not taken falls through
        let mut arch2 = ArchState { pc: 0x100, ..ArchState::default() };
        arch2.regs.write_int(r(1), 0);
        mem.put_u32(0x100, encode(&addq_lit(31, 0, 1)).0);
        let b2 = translate(0x100, |a| mem.word(a)).expect("translates");
        let run2 = b2.execute(&mut arch2, &mut mem);
        assert_eq!(run2.committed, 2);
        assert_eq!(arch2.pc, 0x108, "not taken falls through past the branch at 0x104");
    }

    #[test]
    fn trap_mid_block_leaves_pc_at_the_trapping_instruction() {
        let mut mem = TestMem::new(0x1000);
        program(
            &mut mem,
            0x100,
            &[
                addq_lit(31, 3, 1),
                // ldq from r31+1: misaligned → trap
                Instr::Mem { op: MemOp::Ldq, ra: r(2), rb: r(31), disp: 1 },
                addq_lit(1, 1, 3),
            ],
        );
        let b = translate(0x100, |a| mem.word(a)).expect("translates");
        let mut arch = ArchState { pc: 0x100, ..ArchState::default() };
        let run = b.execute(&mut arch, &mut mem);
        assert!(matches!(run.trap, Some(Trap::MisalignedAccess { .. })));
        assert_eq!((run.committed, run.started), (1, 2));
        assert_eq!(arch.pc, 0x104, "pc stays at the trapping instruction");
        assert_eq!(arch.regs.read_int(r(3)), 0, "nothing past the trap ran");
        // The trapping op counted fetch/decode and its execute (the address
        // compute), but not the memory event (the read never succeeded) and
        // not a commit.
        assert_eq!(run.events, [2, 2, 2, 0, 1]);
    }

    #[test]
    fn store_into_own_range_stops_the_block_after_committing() {
        let mut mem = TestMem::new(0x1000);
        program(
            &mut mem,
            0x100,
            &[
                // r1 = 0x104 (address of the next instruction)
                Instr::Lda { ra: r(1), rb: r(31), disp: 0x104 },
                // patch the *next* word: stl r31 -> [r1]
                Instr::Mem { op: MemOp::Stl, ra: r(31), rb: r(1), disp: 0 },
                addq_lit(31, 9, 2),
            ],
        );
        let b = translate(0x100, |a| mem.word(a)).expect("translates");
        assert_eq!(b.len(), 3);
        let mut arch = ArchState { pc: 0x100, ..ArchState::default() };
        let run = b.execute(&mut arch, &mut mem);
        assert_eq!(run.trap, None);
        assert_eq!(run.committed, 2, "block stops after the self-store commits");
        assert_eq!(arch.pc, 0x108, "resumes at the patched word");
        assert_eq!(arch.regs.read_int(r(2)), 0, "the stale micro-op never ran");
    }

    #[test]
    fn cmov_counts_execute_only_when_it_moves() {
        let mut mem = TestMem::new(0x1000);
        program(
            &mut mem,
            0x100,
            &[Instr::IntOp { func: IntFunc::Cmoveq, ra: r(1), rb: Operand::Lit(7), rc: r(2) }],
        );
        let b = translate(0x100, |a| mem.word(a)).expect("translates");
        // r1 == 0: moves.
        let mut arch = ArchState { pc: 0x100, ..ArchState::default() };
        let run = b.execute(&mut arch, &mut mem);
        assert_eq!((arch.regs.read_int(r(2)), run.events[2]), (7, 1));
        // r1 != 0: no move, no execute event (matches the hook path, which
        // only calls on_execute_result for a performed move).
        let mut arch2 = ArchState { pc: 0x100, ..ArchState::default() };
        arch2.regs.write_int(r(1), 5);
        let run2 = b.execute(&mut arch2, &mut mem);
        assert_eq!((arch2.regs.read_int(r(2)), run2.events[2]), (0, 0));
    }

    #[test]
    fn cache_hits_installs_and_span_fast_path() {
        let mut mem = TestMem::new(0x1000);
        program(&mut mem, 0x100, &[addq_lit(31, 1, 1), Instr::Br { ra: r(31), disp: 0 }]);
        let mut cache = SuperblockCache::default();
        assert!(cache.lookup(0x100).is_none());
        let b = translate(0x100, |a| mem.word(a)).expect("translates");
        cache.install(b);
        let got = cache.lookup(0x100).expect("hit");
        assert_eq!(got.len(), 2);
        let s = cache.stats();
        assert_eq!((s.blocks_built, s.hits, s.misses), (1, 1, 1));
        // A store far outside the span leaves the block resident…
        cache.invalidate_range(0x800, 8);
        assert!(cache.lookup(0x100).is_some());
        // …an overlapping store drops it.
        cache.invalidate_range(0x104, 4);
        assert!(cache.lookup(0x100).is_none());
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn clear_drops_blocks_and_counters() {
        let mut mem = TestMem::new(0x1000);
        program(&mut mem, 0x100, &[addq_lit(31, 1, 1)]);
        let mut cache = SuperblockCache::default();
        cache.install(translate(0x100, |a| mem.word(a)).expect("translates"));
        cache.lookup(0x100);
        cache.clear();
        assert!(cache.entries.is_empty(), "clear releases the table");
        assert!(cache.lookup(0x100).is_none());
        // clear resets counters too (the lookup above re-counted one miss).
        assert_eq!(cache.stats().misses, 1);
    }
}
