//! Architectural register identities and the register file.

use std::fmt;

/// An integer register index, `R0`–`R31`.
///
/// `R31` is architecturally wired to zero: reads return 0, writes are
/// discarded. The type guarantees the index is in range so the register file
/// can index arrays without bounds checks failing at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntReg(u8);

impl IntReg {
    /// The always-zero register, `R31`.
    pub const ZERO: IntReg = IntReg(31);
    /// Stack pointer by software convention (`R30`).
    pub const SP: IntReg = IntReg(30);
    /// Return-address register by software convention (`R26`).
    pub const RA: IntReg = IntReg(26);
    /// Global pointer by software convention (`R29`).
    pub const GP: IntReg = IntReg(29);
    /// First argument register by software convention (`R16`).
    pub const A0: IntReg = IntReg(16);
    /// Second argument register (`R17`).
    pub const A1: IntReg = IntReg(17);
    /// Third argument register (`R18`).
    pub const A2: IntReg = IntReg(18);
    /// Return-value register (`R0`).
    pub const V0: IntReg = IntReg(0);

    /// Creates a register index, returning `None` if `n > 31`.
    pub const fn new(n: u8) -> Option<IntReg> {
        if n < 32 {
            Some(IntReg(n))
        } else {
            None
        }
    }

    /// Creates a register index from the low five bits of `n`.
    ///
    /// This is the decoder's (and the fault injector's) view: any 5-bit
    /// pattern names a valid register, so corrupting a register-selector
    /// field always yields a decodable instruction.
    pub fn from_bits(n: u32) -> IntReg {
        IntReg((n & 0x1f) as u8)
    }

    /// The register number, 0–31.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hardwired zero register `R31`.
    pub fn is_zero(self) -> bool {
        self.0 == 31
    }
}

impl fmt::Display for IntReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            IntReg::ZERO => write!(f, "zero"),
            IntReg::SP => write!(f, "sp"),
            IntReg::RA => write!(f, "ra"),
            IntReg::GP => write!(f, "gp"),
            r => write!(f, "r{}", r.0),
        }
    }
}

/// A floating-point register index, `F0`–`F31`. `F31` is wired to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FpReg(u8);

impl FpReg {
    /// The always-zero register, `F31`.
    pub const ZERO: FpReg = FpReg(31);

    /// Creates a register index, returning `None` if `n > 31`.
    pub const fn new(n: u8) -> Option<FpReg> {
        if n < 32 {
            Some(FpReg(n))
        } else {
            None
        }
    }

    /// Creates a register index from the low five bits of `n`.
    pub fn from_bits(n: u32) -> FpReg {
        FpReg((n & 0x1f) as u8)
    }

    /// The register number, 0–31.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the hardwired zero register `F31`.
    pub fn is_zero(self) -> bool {
        self.0 == 31
    }
}

impl fmt::Display for FpReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Special (non-general-purpose) architectural registers.
///
/// These are the GemFI "special purpose register" fault locations: the
/// program counter, the PCB base register the kernel substrate uses to name
/// the running thread, and the processor status word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpecialReg {
    /// Program counter.
    Pc,
    /// Process-control-block base address of the running thread. GemFI keys
    /// its thread tracking on this value (Sec. III-C).
    PcbBase,
    /// Processor status: bit 0 = kernel mode, bit 1 = interrupts enabled.
    Psr,
    /// Address of the last exception, for diagnostics.
    ExcAddr,
}

impl SpecialReg {
    /// All special registers, in fault-location index order.
    pub const ALL: [SpecialReg; 4] =
        [SpecialReg::Pc, SpecialReg::PcbBase, SpecialReg::Psr, SpecialReg::ExcAddr];
}

impl fmt::Display for SpecialReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecialReg::Pc => write!(f, "pc"),
            SpecialReg::PcbBase => write!(f, "pcbb"),
            SpecialReg::Psr => write!(f, "psr"),
            SpecialReg::ExcAddr => write!(f, "excaddr"),
        }
    }
}

/// A reference to any architectural register, used by the fault engine to
/// track which location was corrupted and whether it was later consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegRef {
    /// An integer register.
    Int(IntReg),
    /// A floating-point register.
    Fp(FpReg),
    /// A special register.
    Special(SpecialReg),
}

impl RegRef {
    /// This register's bit in a 64-bit register mask: integer registers
    /// 0–31 in the low half, floating-point registers 0–31 in the high
    /// half. Special registers have no bit (0). Superblock footprints and
    /// the live consumption watches a hooks implementation reports use
    /// this one layout, so a footprint meets a watch with one `&`.
    #[inline]
    pub fn mask_bit(self) -> u64 {
        match self {
            RegRef::Int(r) => 1 << r.index(),
            RegRef::Fp(r) => 1 << (32 + r.index()),
            RegRef::Special(_) => 0,
        }
    }
}

impl fmt::Display for RegRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegRef::Int(r) => write!(f, "{r}"),
            RegRef::Fp(r) => write!(f, "{r}"),
            RegRef::Special(r) => write!(f, "{r}"),
        }
    }
}

/// The architectural register file of one hardware thread context.
///
/// Floating-point registers are stored as raw `u64` bit patterns rather than
/// `f64` so that bit-level fault injection (flip/XOR/set) is exact and so
/// checkpoints are bit-stable across hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    int: [u64; super::NUM_INT_REGS],
    fp: [u64; super::NUM_FP_REGS],
}

impl RegFile {
    /// A register file with every register zeroed.
    pub fn new() -> RegFile {
        RegFile { int: [0; super::NUM_INT_REGS], fp: [0; super::NUM_FP_REGS] }
    }

    /// Reads an integer register; `R31` always reads as zero.
    pub fn read_int(&self, r: IntReg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.int[r.index()]
        }
    }

    /// Writes an integer register; writes to `R31` are discarded.
    pub fn write_int(&mut self, r: IntReg, value: u64) {
        if !r.is_zero() {
            self.int[r.index()] = value;
        }
    }

    /// Reads an FP register as raw bits; `F31` always reads as zero.
    pub fn read_fp_bits(&self, r: FpReg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.fp[r.index()]
        }
    }

    /// Reads an FP register as an `f64` value.
    pub fn read_fp(&self, r: FpReg) -> f64 {
        f64::from_bits(self.read_fp_bits(r))
    }

    /// Writes raw bits to an FP register; writes to `F31` are discarded.
    pub fn write_fp_bits(&mut self, r: FpReg, bits: u64) {
        if !r.is_zero() {
            self.fp[r.index()] = bits;
        }
    }

    /// Writes an `f64` value to an FP register.
    pub fn write_fp(&mut self, r: FpReg, value: f64) {
        self.write_fp_bits(r, value.to_bits());
    }

    /// Raw access for fault injection and checkpointing: the integer bank.
    pub fn int_bank_mut(&mut self) -> &mut [u64; super::NUM_INT_REGS] {
        &mut self.int
    }

    /// Raw access for fault injection and checkpointing: the FP bank.
    pub fn fp_bank_mut(&mut self) -> &mut [u64; super::NUM_FP_REGS] {
        &mut self.fp
    }

    /// Read-only view of the integer bank.
    pub fn int_bank(&self) -> &[u64; super::NUM_INT_REGS] {
        &self.int
    }

    /// Read-only view of the FP bank.
    pub fn fp_bank(&self) -> &[u64; super::NUM_FP_REGS] {
        &self.fp
    }
}

impl Default for RegFile {
    fn default() -> RegFile {
        RegFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r31_reads_zero_and_discards_writes() {
        let mut rf = RegFile::new();
        rf.write_int(IntReg::ZERO, 0xdead_beef);
        assert_eq!(rf.read_int(IntReg::ZERO), 0);
    }

    #[test]
    fn f31_reads_zero_and_discards_writes() {
        let mut rf = RegFile::new();
        rf.write_fp(FpReg::ZERO, 1.5);
        assert_eq!(rf.read_fp_bits(FpReg::ZERO), 0);
        assert_eq!(rf.read_fp(FpReg::ZERO), 0.0);
    }

    #[test]
    fn int_reg_new_rejects_out_of_range() {
        assert!(IntReg::new(32).is_none());
        assert!(IntReg::new(31).is_some());
        assert!(FpReg::new(200).is_none());
    }

    #[test]
    fn from_bits_masks_to_five_bits() {
        assert_eq!(IntReg::from_bits(0x3f).index(), 31);
        assert_eq!(FpReg::from_bits(33).index(), 1);
    }

    #[test]
    fn regfile_roundtrips_values() {
        let mut rf = RegFile::new();
        let r5 = IntReg::new(5).unwrap();
        rf.write_int(r5, u64::MAX);
        assert_eq!(rf.read_int(r5), u64::MAX);
        let f2 = FpReg::new(2).unwrap();
        rf.write_fp(f2, -0.75);
        assert_eq!(rf.read_fp(f2), -0.75);
    }

    #[test]
    fn display_names_match_convention() {
        assert_eq!(IntReg::SP.to_string(), "sp");
        assert_eq!(IntReg::new(4).unwrap().to_string(), "r4");
        assert_eq!(FpReg::new(7).unwrap().to_string(), "f7");
        assert_eq!(SpecialReg::Pc.to_string(), "pc");
    }
}
