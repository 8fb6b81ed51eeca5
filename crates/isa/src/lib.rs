//! Alpha-subset guest ISA for the GemFI reproduction.
//!
//! This crate defines the instruction set simulated by the `ghost5`
//! full-system simulator. The encoding is bit-compatible with the four Alpha
//! instruction formats the paper reproduces in Table I:
//!
//! ```text
//! PALcode : opcode[31:26] | number[25:0]
//! Branch  : opcode[31:26] | Ra[25:21] | displacement[20:0]
//! Memory  : opcode[31:26] | Ra[25:21] | Rb[20:16] | displacement[15:0]
//! Operate : opcode[31:26] | Ra[25:21] | Rb[20:16] | SBZ[15:13] | lit[12] | function[11:5] | Rc[4:0]
//! ```
//!
//! Keeping the exact field positions matters for the reproduction: the
//! paper's Sec. IV-B validates fetched-instruction fault injection by
//! correlating the *bit position* of a flip with the architectural outcome
//! (flips in unused bits → strictly correct, flips in `opcode`/`function`
//! producing unimplemented encodings → illegal-instruction crash, flips in a
//! memory instruction's `displacement` → segmentation faults, …). The same
//! analysis is meaningful here because the fields occupy the same bits.
//!
//! Containment contract: decoding is total over `u32` — every word either
//! decodes or returns `Trap::IllegalInstruction`-shaped errors upstream, so
//! corrupted fetch words can never panic the simulator (see DESIGN.md).
//!
//! # Example
//!
//! ```
//! use gemfi_isa::{decode, encode, Instr, IntReg, Operand};
//! use gemfi_isa::opcode::IntFunc;
//!
//! let add = Instr::IntOp {
//!     func: IntFunc::Addq,
//!     ra: IntReg::new(1).unwrap(),
//!     rb: Operand::Reg(IntReg::new(2).unwrap()),
//!     rc: IntReg::new(3).unwrap(),
//! };
//! let word = encode(&add);
//! assert_eq!(decode(word).unwrap(), add);
//! ```

// Guest-reachable crate: new unwrap/expect sites need an explicit allow with
// a written justification (fault containment, see DESIGN.md).
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod arch;
pub mod codec;
pub mod disasm;
pub mod format;
pub mod instr;
pub mod opcode;
pub mod predecode;
pub mod regs;
pub mod semantics;
pub mod superblock;
pub mod trap;

pub use arch::{ArchState, PSR_INT_ENABLE, PSR_KERNEL};
pub use disasm::disassemble;
pub use format::{Field, Format, RawInstr};
pub use instr::{decode, encode, CondBranch, Instr, JumpKind, MemOp, MemOperand, Operand};
pub use opcode::{BranchCond, FpBranchCond, FpFunc, IntFunc, Opcode, PalFunc};
pub use predecode::{PredecodeCache, PredecodeStats, DEFAULT_PREDECODE_ENTRIES};
pub use regs::{FpReg, IntReg, RegFile, RegRef, SpecialReg};
pub use superblock::{
    BlockRun, SbMemory, Superblock, SuperblockCache, SuperblockStats, DEFAULT_SUPERBLOCK_ENTRIES,
    MAX_SUPERBLOCK_UOPS,
};
pub use trap::{ExecError, SimError, Trap};

/// Size of one instruction word in bytes. All instructions are 32 bits.
pub const INSTR_BYTES: u64 = 4;

/// Number of architectural integer registers (R0–R31, R31 reads as zero).
pub const NUM_INT_REGS: usize = 32;

/// Number of architectural floating-point registers (F0–F31, F31 reads as zero).
pub const NUM_FP_REGS: usize = 32;
