//! Machine configuration.

use gemfi_cpu::CpuKind;
use gemfi_mem::MemConfig;

/// Configuration of a [`crate::Machine`]: the guest machine, exactly as the
/// checkpoint codec writes it. The host-side fast paths (hook elision and
/// superblocks, see [`crate::Machine::run`]) are not configuration: they
/// are always on and architecturally invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineConfig {
    /// CPU model to boot with.
    pub cpu: CpuKind,
    /// Memory hierarchy configuration.
    pub mem: MemConfig,
    /// Timer quantum in ticks (0 disables preemption). Only meaningful for
    /// multi-threaded guests.
    pub quantum: u64,
    /// Watchdog: maximum ticks before a run is declared hung. Corrupted
    /// control flow routinely produces infinite loops; the watchdog turns
    /// them into the paper's *Crashed* outcome class.
    pub max_ticks: u64,
    /// Guest instructions of synthetic "OS boot" work executed before the
    /// program entry (a spin stub in the kernel region). Models the Linux
    /// boot the paper's checkpoints fast-forward past (Sec. III-D: "one
    /// simulation up to the point when fault injection is activated
    /// (including booting of the operating system…)"); 0 disables it.
    pub boot_spin: u64,
}

impl Default for MachineConfig {
    /// The Sec. IV experimental platform: a single-core machine with split
    /// L1s, a unified L2 and a tournament predictor, booted in atomic mode
    /// (campaigns switch to O3 around the injection point).
    fn default() -> MachineConfig {
        MachineConfig {
            cpu: CpuKind::Atomic,
            mem: MemConfig { phys_size: 16 << 20, ..MemConfig::default() },
            quantum: 10_000,
            max_ticks: 2_000_000_000,
            boot_spin: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_single_core_atomic() {
        let c = MachineConfig::default();
        assert_eq!(c.cpu, CpuKind::Atomic);
        assert!(c.max_ticks > 0);
    }
}
