//! Architectural (software-visible) state of one hardware thread context.

use crate::regs::{RegFile, RegRef, SpecialReg};

/// Processor-status bit: executing in kernel (PAL) mode.
pub const PSR_KERNEL: u64 = 1 << 0;
/// Processor-status bit: timer interrupts enabled.
pub const PSR_INT_ENABLE: u64 = 1 << 1;

/// The complete architectural state a context switch saves and restores,
/// and the complete target surface for *register* and *PC* fault injection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchState {
    /// General-purpose register files.
    pub regs: RegFile,
    /// Program counter.
    pub pc: u64,
    /// Process-control-block base of the running thread; GemFI's thread
    /// identity (changes exactly at context switches).
    pub pcbb: u64,
    /// Processor status word ([`PSR_KERNEL`], [`PSR_INT_ENABLE`]).
    pub psr: u64,
    /// Last exception address (diagnostics).
    pub exc_addr: u64,
}

impl ArchState {
    /// Fresh state: zeroed registers, PC at `entry`, interrupts enabled.
    pub fn new(entry: u64) -> ArchState {
        ArchState { regs: RegFile::new(), pc: entry, pcbb: 0, psr: PSR_INT_ENABLE, exc_addr: 0 }
    }

    /// Reads a special register by identity.
    pub fn read_special(&self, r: SpecialReg) -> u64 {
        match r {
            SpecialReg::Pc => self.pc,
            SpecialReg::PcbBase => self.pcbb,
            SpecialReg::Psr => self.psr,
            SpecialReg::ExcAddr => self.exc_addr,
        }
    }

    /// Writes a special register by identity (the register-fault path).
    pub fn write_special(&mut self, r: SpecialReg, value: u64) {
        match r {
            SpecialReg::Pc => self.pc = value,
            SpecialReg::PcbBase => self.pcbb = value,
            SpecialReg::Psr => self.psr = value,
            SpecialReg::ExcAddr => self.exc_addr = value,
        }
    }

    /// Reads any register: FP registers as raw bits.
    pub fn read_reg(&self, r: RegRef) -> u64 {
        match r {
            RegRef::Int(r) => self.regs.read_int(r),
            RegRef::Fp(r) => self.regs.read_fp_bits(r),
            RegRef::Special(r) => self.read_special(r),
        }
    }

    /// Writes any register: FP registers as raw bits. Writes to the zero
    /// registers are discarded.
    pub fn write_reg(&mut self, r: RegRef, value: u64) {
        match r {
            RegRef::Int(r) => self.regs.write_int(r, value),
            RegRef::Fp(r) => self.regs.write_fp_bits(r, value),
            RegRef::Special(r) => self.write_special(r, value),
        }
    }

    /// Whether the context is in kernel (PAL) mode.
    pub fn in_kernel(&self) -> bool {
        self.psr & PSR_KERNEL != 0
    }

    /// Whether timer interrupts are enabled.
    pub fn interrupts_enabled(&self) -> bool {
        self.psr & PSR_INT_ENABLE != 0
    }
}

impl Default for ArchState {
    fn default() -> ArchState {
        ArchState::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn special_register_roundtrip() {
        let mut a = ArchState::new(0x1_0000);
        for r in SpecialReg::ALL {
            a.write_special(r, 0xabcd);
            assert_eq!(a.read_special(r), 0xabcd);
        }
    }

    #[test]
    fn read_reg_and_write_reg_reach_every_bank() {
        use crate::regs::{FpReg, IntReg};
        let mut a = ArchState::new(0);
        let (r5, f5) = (IntReg::new(5).unwrap(), FpReg::new(5).unwrap());
        for (r, v) in [(RegRef::Int(r5), 7), (RegRef::Fp(f5), 1.5f64.to_bits())] {
            a.write_reg(r, v);
            assert_eq!(a.read_reg(r), v);
        }
        assert_eq!(a.regs.read_fp(f5), 1.5);
        a.write_reg(RegRef::Special(SpecialReg::Psr), 3);
        assert_eq!(a.psr, 3);
        a.write_reg(RegRef::Int(IntReg::ZERO), 9);
        assert_eq!(a.read_reg(RegRef::Int(IntReg::ZERO)), 0);
    }

    #[test]
    fn fresh_state_has_interrupts_enabled_user_mode() {
        let a = ArchState::new(0x40);
        assert_eq!(a.pc, 0x40);
        assert!(a.interrupts_enabled());
        assert!(!a.in_kernel());
    }
}
