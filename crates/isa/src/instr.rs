//! Decoded instructions and the encode/decode pair.
//!
//! `decode(encode(i)) == i` for every well-formed instruction; the property
//! tests in `tests/codec.rs` check this exhaustively over random operands.
//! Decoding is *total over register fields* (any 5-bit pattern selects a
//! register) and *partial over opcode/function fields* (holes raise
//! [`Trap::IllegalInstruction`]), which is exactly the behaviour the paper's
//! fetched-instruction fault analysis relies on.

use crate::format::{self, RawInstr};
use crate::opcode::{BranchCond, FpBranchCond, FpFunc, IntFunc, Opcode, PalFunc};
use crate::regs::{FpReg, IntReg, RegRef};
use crate::semantics::{cmov_cond, fp_cmov_cond};
use crate::trap::Trap;
use std::fmt;

/// Second operand of an integer operate instruction: a register or an 8-bit
/// literal (Alpha's `lit` encoding, bit 12 of the word).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// Register operand.
    Reg(IntReg),
    /// Zero-extended 8-bit literal operand.
    Lit(u8),
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Lit(v) => write!(f, "#{v}"),
        }
    }
}

/// Integer load/store operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// Load sign-extended 32-bit.
    Ldl,
    /// Load 64-bit.
    Ldq,
    /// Store low 32 bits.
    Stl,
    /// Store 64-bit.
    Stq,
}

impl MemOp {
    /// Whether this operation writes memory.
    pub fn is_store(self) -> bool {
        matches!(self, MemOp::Stl | MemOp::Stq)
    }

    /// Access width in bytes.
    pub fn width(self) -> u64 {
        match self {
            MemOp::Ldl | MemOp::Stl => 4,
            MemOp::Ldq | MemOp::Stq => 8,
        }
    }

    fn opcode(self) -> Opcode {
        match self {
            MemOp::Ldl => Opcode::Ldl,
            MemOp::Ldq => Opcode::Ldq,
            MemOp::Stl => Opcode::Stl,
            MemOp::Stq => Opcode::Stq,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            MemOp::Ldl => "ldl",
            MemOp::Ldq => "ldq",
            MemOp::Stl => "stl",
            MemOp::Stq => "stq",
        }
    }
}

/// Memory-format jump flavours (opcode 0x1a, selected by displacement bits
/// 15:14 as on Alpha).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JumpKind {
    /// Indirect jump.
    Jmp,
    /// Jump to subroutine (pushes the return-address stack).
    Jsr,
    /// Return (pops the return-address stack).
    Ret,
}

impl JumpKind {
    fn hint_bits(self) -> u32 {
        match self {
            JumpKind::Jmp => 0,
            JumpKind::Jsr => 1,
            JumpKind::Ret => 2,
        }
    }

    fn from_hint_bits(bits: u32) -> JumpKind {
        match bits & 3 {
            1 => JumpKind::Jsr,
            2 => JumpKind::Ret,
            // Hint bits are advisory on Alpha: unknown patterns behave as JMP.
            _ => JumpKind::Jmp,
        }
    }

    fn mnemonic(self) -> &'static str {
        match self {
            JumpKind::Jmp => "jmp",
            JumpKind::Jsr => "jsr",
            JumpKind::Ret => "ret",
        }
    }
}

/// A decoded instruction of the Alpha subset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Trap into the PAL/kernel layer.
    CallPal {
        /// Which PAL service.
        func: PalFunc,
    },
    /// GemFI pseudo-op `fi_activate_inst(id)`: toggles fault injection for
    /// the running thread (Sec. III-A).
    FiActivate {
        /// Thread identifier used in fault configurations.
        id: u32,
    },
    /// GemFI pseudo-op `fi_read_init_all()`: checkpoint the simulation and,
    /// on restore, re-read the fault configuration file.
    FiReadInit,
    /// `Ra = Rb + disp`.
    Lda {
        /// Destination.
        ra: IntReg,
        /// Base.
        rb: IntReg,
        /// Signed 16-bit displacement.
        disp: i16,
    },
    /// `Ra = Rb + (disp << 16)`.
    Ldah {
        /// Destination.
        ra: IntReg,
        /// Base.
        rb: IntReg,
        /// Signed 16-bit displacement (shifted left 16).
        disp: i16,
    },
    /// Integer load/store: `Ra ↔ mem[Rb + disp]`.
    Mem {
        /// Operation.
        op: MemOp,
        /// Data register.
        ra: IntReg,
        /// Base register.
        rb: IntReg,
        /// Signed byte displacement.
        disp: i16,
    },
    /// FP load: `Fa = mem[Rb + disp]` (64-bit).
    Ldt {
        /// Destination FP register.
        fa: FpReg,
        /// Base register.
        rb: IntReg,
        /// Signed byte displacement.
        disp: i16,
    },
    /// FP store: `mem[Rb + disp] = Fa` (64-bit).
    Stt {
        /// Source FP register.
        fa: FpReg,
        /// Base register.
        rb: IntReg,
        /// Signed byte displacement.
        disp: i16,
    },
    /// Indirect jump: `Ra = return address; PC = Rb & !3`.
    Jump {
        /// Flavour (JMP/JSR/RET) — affects the return-address stack only.
        kind: JumpKind,
        /// Link register receiving the return address.
        ra: IntReg,
        /// Target register.
        rb: IntReg,
    },
    /// Unconditional branch: `Ra = return address; PC += 4 + disp*4`.
    Br {
        /// Link register.
        ra: IntReg,
        /// Signed word displacement.
        disp: i32,
    },
    /// Branch to subroutine (identical dataflow to `Br`; pushes the RAS).
    Bsr {
        /// Link register.
        ra: IntReg,
        /// Signed word displacement.
        disp: i32,
    },
    /// Conditional branch on an integer register.
    CondBr {
        /// Condition.
        cond: BranchCond,
        /// Tested register.
        ra: IntReg,
        /// Signed word displacement.
        disp: i32,
    },
    /// Conditional branch on an FP register.
    FpCondBr {
        /// Condition.
        cond: FpBranchCond,
        /// Tested FP register.
        fa: FpReg,
        /// Signed word displacement.
        disp: i32,
    },
    /// Integer operate: `Rc = Ra <op> Rb|lit`.
    IntOp {
        /// Operation.
        func: IntFunc,
        /// First source.
        ra: IntReg,
        /// Second source (register or literal).
        rb: Operand,
        /// Destination.
        rc: IntReg,
    },
    /// FP operate: `Fc = Fa <op> Fb`.
    FpOp {
        /// Operation (pure-FP subset; `Itoft`/`Ftoit` have own variants).
        func: FpFunc,
        /// First source.
        fa: FpReg,
        /// Second source.
        fb: FpReg,
        /// Destination.
        fc: FpReg,
    },
    /// Move integer register bits to an FP register.
    Itoft {
        /// Integer source (decoded from the `Rb` field).
        rb: IntReg,
        /// FP destination (decoded from the `Rc` field).
        fc: FpReg,
    },
    /// Move FP register bits to an integer register.
    Ftoit {
        /// FP source (decoded from the `Ra` field).
        fa: FpReg,
        /// Integer destination (decoded from the `Rc` field).
        rc: IntReg,
    },
}

impl Instr {
    /// Whether this instruction is any control-flow transfer.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Instr::Jump { .. }
                | Instr::Br { .. }
                | Instr::Bsr { .. }
                | Instr::CondBr { .. }
                | Instr::FpCondBr { .. }
        )
    }

    /// Whether this instruction is a conditional branch.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Instr::CondBr { .. } | Instr::FpCondBr { .. })
    }

    /// The memory operand of a load or store (`Mem`, `Ldt`, `Stt`).
    pub fn mem_operand(&self) -> Option<MemOperand> {
        Some(match *self {
            Instr::Mem { op, ra, rb, disp } => MemOperand {
                base: rb,
                disp,
                data: RegRef::Int(ra),
                width: op.width(),
                store: op.is_store(),
            },
            Instr::Ldt { fa, rb, disp } => {
                MemOperand { base: rb, disp, data: RegRef::Fp(fa), width: 8, store: false }
            }
            Instr::Stt { fa, rb, disp } => {
                MemOperand { base: rb, disp, data: RegRef::Fp(fa), width: 8, store: true }
            }
            _ => return None,
        })
    }

    /// The operands of a conditional branch (`CondBr`, `FpCondBr`).
    pub fn cond_branch(&self) -> Option<CondBranch> {
        Some(match *self {
            Instr::CondBr { cond, ra, disp } => {
                CondBranch { reg: RegRef::Int(ra), disp, test: BranchTest::Int(cond) }
            }
            Instr::FpCondBr { cond, fa, disp } => {
                CondBranch { reg: RegRef::Fp(fa), disp, test: BranchTest::Fp(cond) }
            }
            _ => return None,
        })
    }

    /// The source registers this instruction reads, in operand order.
    /// Conditional moves list their destination as a third source (they
    /// need its old value when the move is not performed — the classic
    /// renaming wrinkle).
    pub fn src_regs(&self) -> [Option<RegRef>; 3] {
        use Instr::*;
        match *self {
            CallPal { .. } | FiActivate { .. } | FiReadInit | Br { .. } | Bsr { .. } => {
                [None, None, None]
            }
            Lda { rb, .. } | Ldah { rb, .. } => [Some(RegRef::Int(rb)), None, None],
            Mem { .. } | Ldt { .. } | Stt { .. } => self.mem_operand().map_or([None; 3], |m| {
                [Some(RegRef::Int(m.base)), m.store.then_some(m.data), None]
            }),
            Jump { rb, .. } => [Some(RegRef::Int(rb)), None, None],
            CondBr { .. } | FpCondBr { .. } => [self.cond_branch().map(|b| b.reg), None, None],
            IntOp { func, ra, rb, rc } => {
                let b = match rb {
                    Operand::Reg(r) => Some(RegRef::Int(r)),
                    Operand::Lit(_) => None,
                };
                let c = cmov_cond(func, 0).is_some().then_some(RegRef::Int(rc));
                [Some(RegRef::Int(ra)), b, c]
            }
            FpOp { func, fa, fb, fc } => {
                let c = fp_cmov_cond(func, 0).is_some().then_some(RegRef::Fp(fc));
                [Some(RegRef::Fp(fa)), Some(RegRef::Fp(fb)), c]
            }
            Itoft { rb, .. } => [Some(RegRef::Int(rb)), None, None],
            Ftoit { fa, .. } => [Some(RegRef::Fp(fa)), None, None],
        }
    }

    /// The register this instruction writes, if any.
    pub fn dst_reg(&self) -> Option<RegRef> {
        use Instr::*;
        match *self {
            Lda { ra, .. } | Ldah { ra, .. } => Some(RegRef::Int(ra)),
            Mem { .. } | Ldt { .. } => self.mem_operand().filter(|m| !m.store).map(|m| m.data),
            Jump { ra, .. } | Br { ra, .. } | Bsr { ra, .. } => Some(RegRef::Int(ra)),
            IntOp { rc, .. } => Some(RegRef::Int(rc)),
            FpOp { fc, .. } => Some(RegRef::Fp(fc)),
            Itoft { fc, .. } => Some(RegRef::Fp(fc)),
            Ftoit { rc, .. } => Some(RegRef::Int(rc)),
            _ => None,
        }
    }

    /// Every register this instruction may read or write, as a
    /// [`RegRef::mask_bit`] mask: [`Instr::src_regs`] and
    /// [`Instr::dst_reg`] together, which is a superset of what any CPU
    /// model reports through its register hooks for it.
    pub fn reg_footprint(&self) -> u64 {
        self.src_regs()
            .into_iter()
            .chain([self.dst_reg()])
            .flatten()
            .fold(0, |m, r| m | r.mask_bit())
    }
}

/// One view over the three memory instructions: an integer or FP data
/// register moved to or from `base + disp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemOperand {
    /// Base address register.
    pub base: IntReg,
    /// Signed byte displacement.
    pub disp: i16,
    /// The register loaded into or stored from.
    pub data: RegRef,
    /// Access width in bytes (4 or 8).
    pub width: u64,
    /// Whether the access writes memory.
    pub store: bool,
}

impl MemOperand {
    /// The effective address for a base register value.
    pub fn address(self, base: u64) -> u64 {
        base.wrapping_add(self.disp as i64 as u64)
    }

    /// A loaded value as the data register receives it: a 4-byte load
    /// sign-extends.
    pub fn extend(self, value: u64) -> u64 {
        if self.width == 4 {
            value as u32 as i32 as i64 as u64
        } else {
            value
        }
    }
}

/// One view over the two conditional branches: a test of one integer or
/// FP register, and a displacement taken when it holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CondBranch {
    /// The tested register.
    pub reg: RegRef,
    /// Signed word displacement of the taken target.
    pub disp: i32,
    test: BranchTest,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BranchTest {
    Int(BranchCond),
    Fp(FpBranchCond),
}

impl CondBranch {
    /// Whether the branch is taken when the tested register holds `bits`.
    pub fn taken(self, bits: u64) -> bool {
        match self.test {
            BranchTest::Int(c) => c.eval(bits),
            BranchTest::Fp(c) => c.eval(bits),
        }
    }
}

/// Decodes an instruction word.
///
/// # Errors
///
/// Returns [`Trap::IllegalInstruction`] for opcode holes, unimplemented
/// operate-group function codes, and non-zero SBZ bits in register-mode
/// operates are *accepted* (they are "should be zero", not "must be zero" —
/// matching the tolerance real decoders have, and keeping single-bit SBZ
/// corruption in the paper's "strictly correct" class).
pub fn decode(word: RawInstr) -> Result<Instr, Trap> {
    let illegal = || Trap::IllegalInstruction { word: word.0, pc: 0 };
    let opcode = Opcode::from_bits(word.opcode()).ok_or_else(illegal)?;
    let ra_int = IntReg::from_bits(word.ra());
    let ra_fp = FpReg::from_bits(word.ra());
    let rb_int = IntReg::from_bits(word.rb());
    let disp16 = word.field(format::MDISP) as u16 as i16;
    let disp21 = word.bdisp() as i32;

    Ok(match opcode {
        Opcode::CallPal => {
            Instr::CallPal { func: PalFunc::from_number(word.palnum()).ok_or_else(illegal)? }
        }
        Opcode::FiActivate => Instr::FiActivate { id: word.palnum() },
        Opcode::FiReadInit => Instr::FiReadInit,
        Opcode::Lda => Instr::Lda { ra: ra_int, rb: rb_int, disp: disp16 },
        Opcode::Ldah => Instr::Ldah { ra: ra_int, rb: rb_int, disp: disp16 },
        Opcode::Ldl => Instr::Mem { op: MemOp::Ldl, ra: ra_int, rb: rb_int, disp: disp16 },
        Opcode::Ldq => Instr::Mem { op: MemOp::Ldq, ra: ra_int, rb: rb_int, disp: disp16 },
        Opcode::Stl => Instr::Mem { op: MemOp::Stl, ra: ra_int, rb: rb_int, disp: disp16 },
        Opcode::Stq => Instr::Mem { op: MemOp::Stq, ra: ra_int, rb: rb_int, disp: disp16 },
        Opcode::Ldt => Instr::Ldt { fa: ra_fp, rb: rb_int, disp: disp16 },
        Opcode::Stt => Instr::Stt { fa: ra_fp, rb: rb_int, disp: disp16 },
        Opcode::Jmp => Instr::Jump {
            kind: JumpKind::from_hint_bits(word.field(format::MDISP) >> 14),
            ra: ra_int,
            rb: rb_int,
        },
        Opcode::Br => Instr::Br { ra: ra_int, disp: disp21 },
        Opcode::Bsr => Instr::Bsr { ra: ra_int, disp: disp21 },
        Opcode::Beq => Instr::CondBr { cond: BranchCond::Eq, ra: ra_int, disp: disp21 },
        Opcode::Bne => Instr::CondBr { cond: BranchCond::Ne, ra: ra_int, disp: disp21 },
        Opcode::Blt => Instr::CondBr { cond: BranchCond::Lt, ra: ra_int, disp: disp21 },
        Opcode::Ble => Instr::CondBr { cond: BranchCond::Le, ra: ra_int, disp: disp21 },
        Opcode::Bgt => Instr::CondBr { cond: BranchCond::Gt, ra: ra_int, disp: disp21 },
        Opcode::Bge => Instr::CondBr { cond: BranchCond::Ge, ra: ra_int, disp: disp21 },
        Opcode::Blbc => Instr::CondBr { cond: BranchCond::Lbc, ra: ra_int, disp: disp21 },
        Opcode::Blbs => Instr::CondBr { cond: BranchCond::Lbs, ra: ra_int, disp: disp21 },
        Opcode::Fbeq => Instr::FpCondBr { cond: FpBranchCond::Eq, fa: ra_fp, disp: disp21 },
        Opcode::Fbne => Instr::FpCondBr { cond: FpBranchCond::Ne, fa: ra_fp, disp: disp21 },
        Opcode::Fblt => Instr::FpCondBr { cond: FpBranchCond::Lt, fa: ra_fp, disp: disp21 },
        Opcode::Fble => Instr::FpCondBr { cond: FpBranchCond::Le, fa: ra_fp, disp: disp21 },
        Opcode::Fbgt => Instr::FpCondBr { cond: FpBranchCond::Gt, fa: ra_fp, disp: disp21 },
        Opcode::Fbge => Instr::FpCondBr { cond: FpBranchCond::Ge, fa: ra_fp, disp: disp21 },
        Opcode::IntArith | Opcode::IntLogic | Opcode::IntShift | Opcode::IntMul => {
            let func = IntFunc::from_encoding(opcode, word.function()).ok_or_else(illegal)?;
            let rb = if word.lit_flag() {
                Operand::Lit(word.literal() as u8)
            } else {
                Operand::Reg(rb_int)
            };
            Instr::IntOp { func, ra: ra_int, rb, rc: IntReg::from_bits(word.rc()) }
        }
        Opcode::FltOp => {
            let func = FpFunc::from_function(word.function()).ok_or_else(illegal)?;
            match func {
                FpFunc::Itoft => Instr::Itoft { rb: rb_int, fc: FpReg::from_bits(word.rc()) },
                FpFunc::Ftoit => Instr::Ftoit { fa: ra_fp, rc: IntReg::from_bits(word.rc()) },
                _ => Instr::FpOp {
                    func,
                    fa: ra_fp,
                    fb: FpReg::from_bits(word.rb()),
                    fc: FpReg::from_bits(word.rc()),
                },
            }
        }
    })
}

/// Encodes an instruction into its 32-bit word.
pub fn encode(instr: &Instr) -> RawInstr {
    fn base(op: Opcode) -> RawInstr {
        RawInstr(0).with_field(format::OPCODE, op as u8 as u32)
    }
    fn mem(op: Opcode, ra: u32, rb: IntReg, disp: i16) -> RawInstr {
        base(op)
            .with_field(format::RA, ra)
            .with_field(format::RB, rb.index() as u32)
            .with_field(format::MDISP, disp as u16 as u32)
    }
    fn branch(op: Opcode, ra: u32, disp: i32) -> RawInstr {
        base(op).with_field(format::RA, ra).with_field(format::BDISP, (disp as u32) & 0x1f_ffff)
    }

    match *instr {
        Instr::CallPal { func } => {
            base(Opcode::CallPal).with_field(format::PAL_NUMBER, func.number())
        }
        Instr::FiActivate { id } => {
            base(Opcode::FiActivate).with_field(format::PAL_NUMBER, id & 0x03ff_ffff)
        }
        Instr::FiReadInit => base(Opcode::FiReadInit),
        Instr::Lda { ra, rb, disp } => mem(Opcode::Lda, ra.index() as u32, rb, disp),
        Instr::Ldah { ra, rb, disp } => mem(Opcode::Ldah, ra.index() as u32, rb, disp),
        Instr::Mem { op, ra, rb, disp } => mem(op.opcode(), ra.index() as u32, rb, disp),
        Instr::Ldt { fa, rb, disp } => mem(Opcode::Ldt, fa.index() as u32, rb, disp),
        Instr::Stt { fa, rb, disp } => mem(Opcode::Stt, fa.index() as u32, rb, disp),
        Instr::Jump { kind, ra, rb } => {
            mem(Opcode::Jmp, ra.index() as u32, rb, ((kind.hint_bits() << 14) & 0xffff) as i16)
        }
        Instr::Br { ra, disp } => branch(Opcode::Br, ra.index() as u32, disp),
        Instr::Bsr { ra, disp } => branch(Opcode::Bsr, ra.index() as u32, disp),
        Instr::CondBr { cond, ra, disp } => {
            let op = match cond {
                BranchCond::Eq => Opcode::Beq,
                BranchCond::Ne => Opcode::Bne,
                BranchCond::Lt => Opcode::Blt,
                BranchCond::Le => Opcode::Ble,
                BranchCond::Gt => Opcode::Bgt,
                BranchCond::Ge => Opcode::Bge,
                BranchCond::Lbc => Opcode::Blbc,
                BranchCond::Lbs => Opcode::Blbs,
            };
            branch(op, ra.index() as u32, disp)
        }
        Instr::FpCondBr { cond, fa, disp } => {
            let op = match cond {
                FpBranchCond::Eq => Opcode::Fbeq,
                FpBranchCond::Ne => Opcode::Fbne,
                FpBranchCond::Lt => Opcode::Fblt,
                FpBranchCond::Le => Opcode::Fble,
                FpBranchCond::Gt => Opcode::Fbgt,
                FpBranchCond::Ge => Opcode::Fbge,
            };
            branch(op, fa.index() as u32, disp)
        }
        Instr::IntOp { func, ra, rb, rc } => {
            let (op, code) = func.encoding();
            let mut w = base(op)
                .with_field(format::RA, ra.index() as u32)
                .with_field(format::FUNCTION, code)
                .with_field(format::RC, rc.index() as u32);
            match rb {
                Operand::Reg(r) => w = w.with_field(format::RB, r.index() as u32),
                Operand::Lit(v) => {
                    w = w.with_field(format::LITFLAG, 1).with_field(format::LITERAL, v as u32);
                }
            }
            w
        }
        Instr::FpOp { func, fa, fb, fc } => base(Opcode::FltOp)
            .with_field(format::RA, fa.index() as u32)
            .with_field(format::RB, fb.index() as u32)
            .with_field(format::FUNCTION, func.function())
            .with_field(format::RC, fc.index() as u32),
        Instr::Itoft { rb, fc } => base(Opcode::FltOp)
            .with_field(format::RB, rb.index() as u32)
            .with_field(format::FUNCTION, FpFunc::Itoft.function())
            .with_field(format::RC, fc.index() as u32)
            .with_field(format::RA, 31),
        Instr::Ftoit { fa, rc } => base(Opcode::FltOp)
            .with_field(format::RA, fa.index() as u32)
            .with_field(format::FUNCTION, FpFunc::Ftoit.function())
            .with_field(format::RC, rc.index() as u32)
            .with_field(format::RB, 31),
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::CallPal { func } => write!(f, "call_pal {func}"),
            Instr::FiActivate { id } => write!(f, "fi_activate_inst {id}"),
            Instr::FiReadInit => write!(f, "fi_read_init_all"),
            Instr::Lda { ra, rb, disp } => write!(f, "lda {ra}, {disp}({rb})"),
            Instr::Ldah { ra, rb, disp } => write!(f, "ldah {ra}, {disp}({rb})"),
            Instr::Mem { op, ra, rb, disp } => {
                write!(f, "{} {ra}, {disp}({rb})", op.mnemonic())
            }
            Instr::Ldt { fa, rb, disp } => write!(f, "ldt {fa}, {disp}({rb})"),
            Instr::Stt { fa, rb, disp } => write!(f, "stt {fa}, {disp}({rb})"),
            Instr::Jump { kind, ra, rb } => write!(f, "{} {ra}, ({rb})", kind.mnemonic()),
            Instr::Br { ra, disp } => write!(f, "br {ra}, {disp}"),
            Instr::Bsr { ra, disp } => write!(f, "bsr {ra}, {disp}"),
            Instr::CondBr { cond, ra, disp } => {
                write!(f, "{} {ra}, {disp}", cond.mnemonic())
            }
            Instr::FpCondBr { cond, fa, disp } => {
                write!(f, "{} {fa}, {disp}", cond.mnemonic())
            }
            Instr::IntOp { func, ra, rb, rc } => write!(f, "{func} {ra}, {rb}, {rc}"),
            Instr::FpOp { func, fa, fb, fc } => write!(f, "{func} {fa}, {fb}, {fc}"),
            Instr::Itoft { rb, fc } => write!(f, "itoft {rb}, {fc}"),
            Instr::Ftoit { fa, rc } => write!(f, "ftoit {fa}, {rc}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u8) -> IntReg {
        IntReg::new(n).unwrap()
    }
    fn fr(n: u8) -> FpReg {
        FpReg::new(n).unwrap()
    }

    #[test]
    fn encode_decode_roundtrip_samples() {
        let samples = [
            Instr::CallPal { func: PalFunc::Exit },
            Instr::FiActivate { id: 7 },
            Instr::FiReadInit,
            Instr::Lda { ra: r(1), rb: r(2), disp: -8 },
            Instr::Ldah { ra: r(3), rb: IntReg::ZERO, disp: 0x10 },
            Instr::Mem { op: MemOp::Ldq, ra: r(4), rb: r(30), disp: 16 },
            Instr::Mem { op: MemOp::Stl, ra: r(5), rb: r(29), disp: -4 },
            Instr::Ldt { fa: fr(2), rb: r(9), disp: 24 },
            Instr::Stt { fa: fr(3), rb: r(9), disp: -24 },
            Instr::Jump { kind: JumpKind::Ret, ra: IntReg::ZERO, rb: r(26) },
            Instr::Br { ra: IntReg::ZERO, disp: -100 },
            Instr::Bsr { ra: r(26), disp: 1000 },
            Instr::CondBr { cond: BranchCond::Ne, ra: r(1), disp: -1 },
            Instr::FpCondBr { cond: FpBranchCond::Lt, fa: fr(1), disp: 3 },
            Instr::IntOp { func: IntFunc::Addq, ra: r(1), rb: Operand::Reg(r(2)), rc: r(3) },
            Instr::IntOp { func: IntFunc::Sll, ra: r(1), rb: Operand::Lit(63), rc: r(3) },
            Instr::FpOp { func: FpFunc::Mult, fa: fr(1), fb: fr(2), fc: fr(3) },
            Instr::Itoft { rb: r(7), fc: fr(7) },
            Instr::Ftoit { fa: fr(8), rc: r(8) },
        ];
        for i in &samples {
            let w = encode(i);
            let d = decode(w).unwrap_or_else(|e| panic!("{i}: {e}"));
            assert_eq!(&d, i, "word {w}");
        }
    }

    #[test]
    fn illegal_opcode_traps() {
        let w = RawInstr(0).with_field(format::OPCODE, 0x3u32);
        assert!(matches!(decode(w), Err(Trap::IllegalInstruction { .. })));
    }

    #[test]
    fn illegal_function_code_traps() {
        // Valid opcode (IntArith = 0x10) with an unimplemented function.
        let w = RawInstr(0).with_field(format::OPCODE, 0x10).with_field(format::FUNCTION, 0x7f);
        assert!(matches!(decode(w), Err(Trap::IllegalInstruction { .. })));
    }

    #[test]
    fn sbz_bits_are_tolerated() {
        // Flipping an SBZ bit of a register-mode operate must still decode to
        // the same instruction (the paper observed "strictly correct" for
        // unused-bit corruption).
        let i = Instr::IntOp { func: IntFunc::Addq, ra: r(1), rb: Operand::Reg(r(2)), rc: r(3) };
        let w = encode(&i).flip_bit(13); // bit 13 is SBZ
        assert_eq!(decode(w).unwrap(), i);
    }

    #[test]
    fn literal_flag_flips_operand_kind() {
        let i = Instr::IntOp { func: IntFunc::Addq, ra: r(1), rb: Operand::Reg(r(2)), rc: r(3) };
        let w = encode(&i).flip_bit(12); // literal flag
        match decode(w).unwrap() {
            Instr::IntOp { rb: Operand::Lit(_), .. } => {}
            other => panic!("expected literal operand, got {other}"),
        }
    }

    #[test]
    fn jump_hint_bits_select_kind() {
        for kind in [JumpKind::Jmp, JumpKind::Jsr, JumpKind::Ret] {
            let i = Instr::Jump { kind, ra: r(26), rb: r(27) };
            assert_eq!(decode(encode(&i)).unwrap(), i);
        }
    }

    #[test]
    fn display_formats_read_like_assembly() {
        let i = Instr::Mem { op: MemOp::Ldq, ra: r(4), rb: IntReg::SP, disp: 16 };
        assert_eq!(i.to_string(), "ldq r4, 16(sp)");
        let i = Instr::IntOp { func: IntFunc::Addq, ra: r(1), rb: Operand::Lit(8), rc: r(2) };
        assert_eq!(i.to_string(), "addq r1, #8, r2");
    }

    #[test]
    fn classification_predicates() {
        let br = Instr::CondBr { cond: BranchCond::Eq, ra: r(0), disp: 0 };
        assert!(br.is_control() && br.is_cond_branch() && br.mem_operand().is_none());
        let st = Instr::Stt { fa: fr(0), rb: r(1), disp: 0 };
        assert!(!st.is_control() && st.cond_branch().is_none());
    }

    #[test]
    fn mem_operand_views_every_load_and_store() {
        let ldl = Instr::Mem { op: MemOp::Ldl, ra: r(2), rb: r(3), disp: -8 };
        let m = ldl.mem_operand().unwrap();
        assert_eq!((m.base, m.data, m.width, m.store), (r(3), RegRef::Int(r(2)), 4, false));
        assert_eq!(m.address(0x108), 0x100);
        assert_eq!(m.extend(0x8000_0000), 0xffff_ffff_8000_0000);
        let stt = Instr::Stt { fa: fr(5), rb: r(1), disp: 16 };
        let m = stt.mem_operand().unwrap();
        assert_eq!((m.data, m.width, m.store), (RegRef::Fp(fr(5)), 8, true));
        assert_eq!(m.extend(0x8000_0000), 0x8000_0000);
        let ldt = Instr::Ldt { fa: fr(6), rb: r(1), disp: 0 };
        assert_eq!(ldt.mem_operand().unwrap().data, RegRef::Fp(fr(6)));
    }

    #[test]
    fn cond_branch_views_int_and_fp_tests() {
        let beq = Instr::CondBr { cond: BranchCond::Eq, ra: r(4), disp: -3 };
        let b = beq.cond_branch().unwrap();
        assert_eq!((b.reg, b.disp), (RegRef::Int(r(4)), -3));
        assert!(b.taken(0) && !b.taken(1));
        let fblt = Instr::FpCondBr { cond: FpBranchCond::Lt, fa: fr(2), disp: 7 };
        let b = fblt.cond_branch().unwrap();
        assert_eq!((b.reg, b.disp), (RegRef::Fp(fr(2)), 7));
        assert!(b.taken((-1.0f64).to_bits()) && !b.taken((-0.0f64).to_bits()));
    }
}
