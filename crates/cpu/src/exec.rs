//! Shared instruction semantics.
//!
//! The paper's methodology switches CPU models mid-run, which is only sound
//! if they run every instruction, and call every fault hook, the same way.
//! The in-order models use [`step_instruction`] wholesale. The out-of-order
//! core splits an instruction across dispatch, execute and commit but shares
//! the rest: [`fetch_decode`] with its fetch/decode hooks, the operand lists
//! ([`Instr::src_regs`], [`Instr::dst_reg`]), the pure [`alu`]/[`fpu`]/[`cmov_cond`]
//! helpers, the data accesses ([`load`], [`store`]), [`branch_target`], and
//! the ISA's operand views ([`Instr::mem_operand`], [`Instr::cond_branch`],
//! [`ArchState::read_reg`]), so each model handles every load and store in
//! one place and every conditional branch in one place.

use crate::hooks::FaultHooks;
use crate::StepEvent;
use gemfi_isa::{ArchState, FpFunc, Instr, IntFunc, MemOperand, Operand, RawInstr, RegRef, Trap};
use gemfi_kernel::{Kernel, PalOutcome};
use gemfi_mem::{MemorySystem, Ticks};

// The pure ALU/FPU semantics moved down into the ISA crate so the
// superblock micro-op handlers can share them; re-exported here so every
// existing `exec::alu`-style caller (including the o3 core) is unchanged.
pub use gemfi_isa::semantics::{alu, cmov_cond, fp_cmov_cond, fpu};

/// Execution latency of an instruction class in ticks (used by the pipelined
/// models; memory latency comes from the hierarchy instead).
pub fn exec_latency(instr: &Instr) -> Ticks {
    match instr {
        Instr::IntOp { func: IntFunc::Mull | IntFunc::Mulq | IntFunc::Umulh, .. } => 3,
        Instr::FpOp { func: FpFunc::Divt, .. } => 12,
        Instr::FpOp { func: FpFunc::Sqrtt, .. } => 20,
        Instr::FpOp { func: FpFunc::Cpys | FpFunc::Cpysn, .. } => 1,
        Instr::FpOp { .. } => 4,
        _ => 1,
    }
}

/// The target of a PC-relative branch at `pc` with word displacement `disp`.
pub fn branch_target(pc: u64, disp: i32) -> u64 {
    pc.wrapping_add(4).wrapping_add((disp as i64 as u64) << 2)
}

/// Loads `m.width` bytes at `addr`, extended as the data register receives
/// them.
///
/// # Errors
///
/// The memory system's trap for an unmapped or misaligned access.
pub fn load(
    mem: &mut MemorySystem,
    m: MemOperand,
    addr: u64,
    pc: u64,
) -> Result<(u64, Ticks), Trap> {
    let (v, lat) = if m.width == 4 {
        mem.read_u32(addr, pc).map(|(v, lat)| (v as u64, lat))?
    } else {
        mem.read_u64(addr, pc)?
    };
    Ok((m.extend(v), lat))
}

/// Stores the low `m.width` bytes of `value` at `addr`.
///
/// # Errors
///
/// The memory system's trap for an unmapped or misaligned access.
pub fn store(
    mem: &mut MemorySystem,
    m: MemOperand,
    addr: u64,
    value: u64,
    pc: u64,
) -> Result<Ticks, Trap> {
    if m.width == 4 {
        mem.write_u32(addr, value as u32, pc)
    } else {
        mem.write_u64(addr, value, pc)
    }
}

/// Fetches and decodes one instruction through the predecode fast path,
/// invoking the fetch- and decode-stage fault hooks on the raw word.
///
/// This is the single fetch/decode entry point shared by all four CPU
/// models. The hooks are *always* run on the raw word — their side effects
/// (per-stage instruction counters that arm `Inst:N` fault timings) must be
/// identical whether or not the predecode cache is enabled. The cached
/// decode is used only when the hooks return the word unchanged; a fetch- or
/// decode-stage fault therefore bypasses the cache, the corrupted word is
/// decoded fresh (bit-for-bit Table-I manifestation semantics), and the
/// corrupted decode is never installed.
///
/// # Errors
///
/// [`Trap::IllegalInstruction`] when the (possibly corrupted) word does not
/// decode, or the fetch trap from the memory system.
#[inline]
pub fn fetch_decode<H: FaultHooks>(
    core: usize,
    mem: &mut MemorySystem,
    hooks: &mut H,
    pc: u64,
) -> Result<(Instr, Ticks), Trap> {
    let (raw, cached, fetch_latency) = mem.fetch_predecoded(pc)?;
    let word = hooks.on_fetch(core, pc, RawInstr(raw));
    let word = hooks.on_decode(core, word);
    if word.0 == raw {
        if let Some(instr) = cached {
            return Ok((instr, fetch_latency));
        }
        let instr =
            gemfi_isa::decode(word).map_err(|_| Trap::IllegalInstruction { word: word.0, pc })?;
        mem.install_predecoded(pc, raw, instr);
        Ok((instr, fetch_latency))
    } else {
        // A fault corrupted the raw bits: decode fresh, never install.
        let instr =
            gemfi_isa::decode(word).map_err(|_| Trap::IllegalInstruction { word: word.0, pc })?;
        Ok((instr, fetch_latency))
    }
}

/// Plants any cache lesions that fired since the last drain into the memory
/// system. Every CPU model calls this at instruction boundaries (including
/// early returns), so a fired cache fault becomes architecturally visible on
/// the very next memory access. The `has_cache_lesions` pre-check keeps the
/// fault-free path allocation-free and inlineable to nothing.
#[inline]
pub fn drain_lesions<H: FaultHooks>(hooks: &mut H, mem: &mut MemorySystem) {
    if hooks.has_cache_lesions() {
        for lesion in hooks.take_cache_lesions() {
            mem.plant_lesion(lesion);
        }
    }
}

/// Everything a model needs to account for one architecturally executed
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecRecord {
    /// PC the instruction was fetched from.
    pub pc: u64,
    /// The decoded (post-fault) instruction.
    pub instr: Instr,
    /// Instruction-fetch latency (ticks).
    pub fetch_latency: Ticks,
    /// Data-access latency (ticks), zero for non-memory instructions.
    pub mem_latency: Ticks,
    /// Whether this was a conditional branch.
    pub is_cond_branch: bool,
    /// Whether a conditional branch was taken.
    pub taken: bool,
    /// The next architectural PC.
    pub next_pc: u64,
    /// Destination register of a load (for load-use interlocks).
    pub load_dest: Option<RegRef>,
    /// Event raised by the instruction.
    pub event: StepEvent,
}

/// Fetches, decodes, executes and retires exactly one instruction on the
/// given architectural state, invoking every fault hook at its stage.
///
/// # Errors
///
/// Returns the guest [`Trap`] that terminated execution (illegal
/// instruction, unmapped/misaligned access, illegal PAL call).
pub fn step_instruction<H: FaultHooks>(
    core: usize,
    arch: &mut ArchState,
    mem: &mut MemorySystem,
    kernel: &mut Kernel,
    hooks: &mut H,
    now: Ticks,
) -> Result<ExecRecord, Trap> {
    hooks.before_instruction(core, now, arch);

    let pc = arch.pc;
    let (instr, fetch_latency) = fetch_decode(core, mem, hooks, pc)?;

    let mut rec = ExecRecord {
        pc,
        instr,
        fetch_latency,
        mem_latency: 0,
        is_cond_branch: false,
        taken: false,
        next_pc: pc.wrapping_add(4),
        load_dest: None,
        event: StepEvent::None,
    };

    // An instruction-skip fault nullifies the fetched instruction: the PC
    // advances past it, but none of its side effects happen. The skipped
    // slot still commits (per-thread instruction counters keep advancing,
    // as they would for a pipeline bubble).
    if hooks.take_skip(core) {
        arch.pc = rec.next_pc;
        hooks.on_commit(core, now, pc, &instr);
        drain_lesions(hooks, mem);
        return Ok(rec);
    }

    let read = |hooks: &mut H, arch: &ArchState, r: RegRef| -> u64 {
        hooks.on_reg_read(core, r);
        arch.read_reg(r)
    };
    let write = |hooks: &mut H, arch: &mut ArchState, r: RegRef, v: u64| {
        arch.write_reg(r, v);
        hooks.on_reg_write(core, r);
    };

    match instr {
        Instr::CallPal { func } => {
            let old_pcbb = arch.pcbb;
            // The PAL service sees the post-increment PC, so a context switch
            // saves the correct resume point for this thread.
            arch.pc = pc.wrapping_add(4);
            match kernel.pal_call(func, arch, mem, now)? {
                PalOutcome::Continue => {}
                PalOutcome::Switched => {
                    rec.next_pc = arch.pc;
                    if arch.pcbb != old_pcbb {
                        hooks.on_context_switch(core, arch.pcbb);
                    }
                    // The switched-in thread resumes at its own saved PC.
                    hooks.on_commit(core, now, pc, &instr);
                    drain_lesions(hooks, mem);
                    return Ok(rec);
                }
                PalOutcome::AllExited(code) => rec.event = StepEvent::Halted(code),
                PalOutcome::Halt => rec.event = StepEvent::Halted(0),
            }
        }
        Instr::FiActivate { id } => hooks.on_fi_activate(core, now, id, arch.pcbb),
        Instr::FiReadInit => rec.event = StepEvent::CheckpointRequest,
        Instr::Lda { ra, rb, disp } => {
            let v = read(hooks, arch, RegRef::Int(rb)).wrapping_add(disp as i64 as u64);
            let v = hooks.on_execute_result(core, &instr, v);
            write(hooks, arch, RegRef::Int(ra), v);
        }
        Instr::Ldah { ra, rb, disp } => {
            let v = read(hooks, arch, RegRef::Int(rb))
                .wrapping_add((disp as i64 as u64).wrapping_shl(16));
            let v = hooks.on_execute_result(core, &instr, v);
            write(hooks, arch, RegRef::Int(ra), v);
        }
        // The operand views are `Some` for exactly the variants of their
        // arm; matching them with `if let` keeps this path panic-free.
        Instr::Mem { .. } | Instr::Ldt { .. } | Instr::Stt { .. } => {
            if let Some(m) = instr.mem_operand() {
                let addr = m.address(read(hooks, arch, RegRef::Int(m.base)));
                let addr = hooks.on_execute_result(core, &instr, addr);
                if m.store {
                    let v = read(hooks, arch, m.data);
                    let v = hooks.on_mem_store(core, addr, v);
                    rec.mem_latency = store(mem, m, addr, v, pc)?;
                } else {
                    let (v, lat) = load(mem, m, addr, pc)?;
                    let v = hooks.on_mem_load(core, addr, v);
                    rec.mem_latency = lat;
                    write(hooks, arch, m.data, v);
                    rec.load_dest = Some(m.data);
                }
            }
        }
        Instr::Jump { ra, rb, .. } => {
            let target = read(hooks, arch, RegRef::Int(rb)) & !3;
            let target = hooks.on_execute_result(core, &instr, target);
            write(hooks, arch, RegRef::Int(ra), pc.wrapping_add(4));
            rec.next_pc = target;
        }
        Instr::Br { ra, disp } | Instr::Bsr { ra, disp } => {
            let target = hooks.on_execute_result(core, &instr, branch_target(pc, disp));
            write(hooks, arch, RegRef::Int(ra), pc.wrapping_add(4));
            rec.next_pc = target;
        }
        Instr::CondBr { .. } | Instr::FpCondBr { .. } => {
            if let Some(b) = instr.cond_branch() {
                let v = read(hooks, arch, b.reg);
                rec.is_cond_branch = true;
                rec.taken = hooks.on_branch(core, &instr, b.taken(v));
                let target = if rec.taken { branch_target(pc, b.disp) } else { pc.wrapping_add(4) };
                rec.next_pc = hooks.on_execute_result(core, &instr, target);
            }
        }
        Instr::IntOp { func, ra, rb, rc } => {
            let a = read(hooks, arch, RegRef::Int(ra));
            let b = match rb {
                Operand::Reg(r) => read(hooks, arch, RegRef::Int(r)),
                Operand::Lit(v) => v as u64,
            };
            let v = match cmov_cond(func, a) {
                Some(false) => None,
                Some(true) => Some(b),
                None => Some(alu(func, a, b)),
            };
            if let Some(v) = v {
                let v = hooks.on_execute_result(core, &instr, v);
                write(hooks, arch, RegRef::Int(rc), v);
            }
        }
        Instr::FpOp { func, fa, fb, fc } => {
            let a = read(hooks, arch, RegRef::Fp(fa));
            let b = read(hooks, arch, RegRef::Fp(fb));
            let v = match fp_cmov_cond(func, a) {
                Some(false) => None,
                Some(true) => Some(b),
                None => Some(fpu(func, a, b)),
            };
            if let Some(v) = v {
                let v = hooks.on_execute_result(core, &instr, v);
                write(hooks, arch, RegRef::Fp(fc), v);
            }
        }
        Instr::Itoft { rb, fc } => {
            let v = read(hooks, arch, RegRef::Int(rb));
            let v = hooks.on_execute_result(core, &instr, v);
            write(hooks, arch, RegRef::Fp(fc), v);
        }
        Instr::Ftoit { fa, rc } => {
            let v = read(hooks, arch, RegRef::Fp(fa));
            let v = hooks.on_execute_result(core, &instr, v);
            write(hooks, arch, RegRef::Int(rc), v);
        }
    }

    arch.pc = rec.next_pc;
    hooks.on_commit(core, now, pc, &instr);
    drain_lesions(hooks, mem);
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_arithmetic_matches_two_complement() {
        assert_eq!(alu(IntFunc::Addq, u64::MAX, 1), 0);
        assert_eq!(alu(IntFunc::Subq, 0, 1), u64::MAX);
        assert_eq!(alu(IntFunc::Addl, 0x7fff_ffff, 1), 0xffff_ffff_8000_0000);
        assert_eq!(alu(IntFunc::Mull, 0x10000, 0x10000), 0); // 2^32 truncates
        assert_eq!(alu(IntFunc::Umulh, 1 << 63, 4), 2);
        assert_eq!(alu(IntFunc::S8addq, 3, 10), 34);
    }

    #[test]
    fn alu_compares_are_signed_and_unsigned() {
        let neg1 = -1i64 as u64;
        assert_eq!(alu(IntFunc::Cmplt, neg1, 0), 1);
        assert_eq!(alu(IntFunc::Cmpult, neg1, 0), 0);
        assert_eq!(alu(IntFunc::Cmple, 5, 5), 1);
        assert_eq!(alu(IntFunc::Cmpule, 6, 5), 0);
    }

    #[test]
    fn alu_shifts_mask_to_six_bits() {
        assert_eq!(alu(IntFunc::Sll, 1, 64), 1); // shift by 64 & 63 == 0
        assert_eq!(alu(IntFunc::Sra, (-8i64) as u64, 1), (-4i64) as u64);
        assert_eq!(alu(IntFunc::Srl, (-8i64) as u64, 1), 0x7fff_ffff_ffff_fffc);
    }

    #[test]
    fn fpu_compare_encodes_two_or_zero() {
        let two = 2.0f64.to_bits();
        assert_eq!(fpu(FpFunc::Cmpteq, 1.5f64.to_bits(), 1.5f64.to_bits()), two);
        assert_eq!(fpu(FpFunc::Cmptlt, 2.0f64.to_bits(), 1.0f64.to_bits()), 0);
    }

    #[test]
    fn fpu_cvt_roundtrips_integers() {
        let q = 12345i64 as u64;
        let t = fpu(FpFunc::Cvtqt, 0, q);
        assert_eq!(f64::from_bits(t), 12345.0);
        assert_eq!(fpu(FpFunc::Cvttq, 0, (-3.75f64).to_bits()), (-3i64) as u64);
    }

    #[test]
    fn fpu_cvttq_saturates_and_handles_nan() {
        assert_eq!(fpu(FpFunc::Cvttq, 0, f64::NAN.to_bits()), 0);
        assert_eq!(fpu(FpFunc::Cvttq, 0, 1e300f64.to_bits()), i64::MAX as u64);
        assert_eq!(fpu(FpFunc::Cvttq, 0, (-1e300f64).to_bits()), i64::MIN as u64);
    }

    #[test]
    fn fpu_copy_sign() {
        let neg = (-1.0f64).to_bits();
        let pos = 2.5f64.to_bits();
        assert_eq!(f64::from_bits(fpu(FpFunc::Cpys, neg, pos)), -2.5);
        assert_eq!(f64::from_bits(fpu(FpFunc::Cpysn, neg, pos)), 2.5);
    }

    #[test]
    fn cmov_conditions() {
        assert_eq!(cmov_cond(IntFunc::Cmoveq, 0), Some(true));
        assert_eq!(cmov_cond(IntFunc::Cmovne, 0), Some(false));
        assert_eq!(cmov_cond(IntFunc::Cmovlt, -1i64 as u64), Some(true));
        assert_eq!(cmov_cond(IntFunc::Addq, 0), None);
        assert_eq!(fp_cmov_cond(FpFunc::Fcmoveq, 0), Some(true));
        assert_eq!(fp_cmov_cond(FpFunc::Addt, 0), None);
    }

    #[test]
    fn exec_latency_orders_op_classes() {
        use gemfi_isa::{FpReg, IntReg, Operand};
        let add = Instr::IntOp {
            func: IntFunc::Addq,
            ra: IntReg::ZERO,
            rb: Operand::Lit(0),
            rc: IntReg::ZERO,
        };
        let mul = Instr::IntOp {
            func: IntFunc::Mulq,
            ra: IntReg::ZERO,
            rb: Operand::Lit(0),
            rc: IntReg::ZERO,
        };
        let div =
            Instr::FpOp { func: FpFunc::Divt, fa: FpReg::ZERO, fb: FpReg::ZERO, fc: FpReg::ZERO };
        assert!(exec_latency(&add) < exec_latency(&mul));
        assert!(exec_latency(&mul) < exec_latency(&div));
    }
}
