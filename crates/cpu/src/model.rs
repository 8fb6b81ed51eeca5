//! The unified CPU-model wrapper the machine drives.

use crate::hooks::FaultHooks;
use crate::inorder::InOrderCpu;
use crate::o3::O3Cpu;
use crate::simple::{AtomicCpu, TimingCpu};
use crate::StepResult;
use gemfi_isa::{ArchState, ExecError};
use gemfi_kernel::Kernel;
use gemfi_mem::{MemorySystem, Ticks};
use std::fmt;

/// Which CPU model to simulate with (gem5's four-model spectrum).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuKind {
    /// One instruction per tick, untimed memory.
    Atomic,
    /// Functional with memory-reference timing.
    Timing,
    /// Pipelined in-order with a tournament predictor.
    InOrder,
    /// Out-of-order, speculative, precise-commit.
    O3,
}

impl fmt::Display for CpuKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CpuKind::Atomic => write!(f, "atomic"),
            CpuKind::Timing => write!(f, "timing"),
            CpuKind::InOrder => write!(f, "inorder"),
            CpuKind::O3 => write!(f, "o3"),
        }
    }
}

/// A CPU of any model. Supports mid-run model switching at instruction
/// boundaries, which the paper's methodology uses (O3 until the fault
/// commits or squashes, atomic afterwards).
#[derive(Debug, Clone)]
pub enum Cpu {
    /// Atomic simple model.
    Atomic(AtomicCpu),
    /// Timing simple model.
    Timing(TimingCpu),
    /// Pipelined in-order model.
    InOrder(InOrderCpu),
    /// Out-of-order model.
    O3(Box<O3Cpu>),
}

impl Cpu {
    /// Builds a CPU of the given kind, fetching from `entry_pc`.
    pub fn new(kind: CpuKind, entry_pc: u64) -> Cpu {
        match kind {
            CpuKind::Atomic => Cpu::Atomic(AtomicCpu),
            CpuKind::Timing => Cpu::Timing(TimingCpu),
            CpuKind::InOrder => Cpu::InOrder(InOrderCpu::new()),
            CpuKind::O3 => Cpu::O3(Box::new(O3Cpu::new(entry_pc))),
        }
    }

    /// This CPU's model kind.
    pub fn kind(&self) -> CpuKind {
        match self {
            Cpu::Atomic(_) => CpuKind::Atomic,
            Cpu::Timing(_) => CpuKind::Timing,
            Cpu::InOrder(_) => CpuKind::InOrder,
            Cpu::O3(_) => CpuKind::O3,
        }
    }

    /// Advances the CPU.
    ///
    /// # Errors
    ///
    /// [`ExecError::Trap`] carries the guest trap that terminated execution;
    /// [`ExecError::Sim`] reports a violated simulator invariant (a tool
    /// bug, classified as infrastructure — never a guest outcome).
    #[allow(clippy::too_many_arguments)]
    pub fn step<H: FaultHooks>(
        &mut self,
        core: usize,
        arch: &mut ArchState,
        mem: &mut MemorySystem,
        kernel: &mut Kernel,
        hooks: &mut H,
        now: Ticks,
    ) -> Result<StepResult, ExecError> {
        match self {
            Cpu::Atomic(c) => c.step(core, arch, mem, kernel, hooks, now),
            Cpu::Timing(c) => c.step(core, arch, mem, kernel, hooks, now),
            Cpu::InOrder(c) => c.step(core, arch, mem, kernel, hooks, now),
            Cpu::O3(c) => c.step(core, arch, mem, kernel, hooks, now),
        }
    }

    /// Discards speculative state (no-op on in-order models). Must be called
    /// before delivering an asynchronous event (timer interrupt) and before
    /// switching models.
    pub fn flush(&mut self, arch: &ArchState) {
        if let Cpu::O3(c) = self {
            c.flush(arch);
        }
    }

    /// Whether the CPU has uncommitted speculative work in flight.
    pub fn has_in_flight(&self) -> bool {
        matches!(self, Cpu::O3(c) if c.in_flight() > 0)
    }

    /// Instructions committed by this CPU instance (only the O3 engine
    /// tracks this internally; in-order models report through
    /// [`StepResult::committed`]).
    pub fn o3_stats(&self) -> Option<crate::o3::O3Stats> {
        match self {
            Cpu::O3(c) => Some(*c.stats()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_roundtrip_through_new() {
        for kind in [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3] {
            assert_eq!(Cpu::new(kind, 0x1_0000).kind(), kind);
        }
    }

    #[test]
    fn kind_display_is_lowercase() {
        assert_eq!(CpuKind::O3.to_string(), "o3");
        assert_eq!(CpuKind::InOrder.to_string(), "inorder");
    }
}
