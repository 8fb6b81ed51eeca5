//! Fault specifications: Location × Thread × Time × Behavior (Sec. III-A),
//! extended with memory-hierarchy (cache-array) locations and
//! security-style behaviors.

use gemfi_cpu::Dormancy;
use gemfi_isa::SpecialReg;
pub use gemfi_mem::CacheLevel;
use std::fmt;

/// The spatial pattern of a multi-bit upset (MBU) in a cache array: which
/// bits of the 64-bit datum the fault behavior is confined to. Models the
/// physically-adjacent upset shapes of particle strikes (a run of adjacent
/// bits, a whole row, or a column of the array's byte grid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MbuPattern {
    /// No spatial confinement: the behavior sees the whole 64-bit datum.
    Single,
    /// A run of `width` adjacent bits starting at `bit`.
    Adjacent {
        /// First affected bit (0–63).
        bit: u8,
        /// Run length in bits (clamped to 1–64).
        width: u8,
    },
    /// Byte row `r` of the 8×8 bit grid: bits `8r .. 8r+8`.
    Row(u8),
    /// Bit column `c` of the 8×8 bit grid: bit `c` of every byte.
    Column(u8),
}

impl MbuPattern {
    /// The bit mask this pattern confines the fault behavior to.
    pub fn mask(self) -> u64 {
        match self {
            MbuPattern::Single => u64::MAX,
            MbuPattern::Adjacent { bit, width } => {
                let bit = u32::from(bit) % 64;
                let width = u32::from(width).clamp(1, 64);
                let run = if width >= 64 { u64::MAX } else { (1u64 << width) - 1 };
                // The run wraps at bit 63 rather than silently shrinking.
                run.rotate_left(bit)
            }
            MbuPattern::Row(r) => 0xffu64.rotate_left(8 * (u32::from(r) % 8)),
            MbuPattern::Column(c) => 0x0101_0101_0101_0101u64.rotate_left(u32::from(c) % 8),
        }
    }
}

impl fmt::Display for MbuPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MbuPattern::Single => write!(f, "mbu:single"),
            MbuPattern::Adjacent { bit, width } => write!(f, "mbu:adj:{bit}:{width}"),
            MbuPattern::Row(r) => write!(f, "mbu:row:{r}"),
            MbuPattern::Column(c) => write!(f, "mbu:col:{c}"),
        }
    }
}

/// Which memory transactions a memory-stage fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemTarget {
    /// Loaded values only.
    Load,
    /// Stored values only.
    Store,
    /// Either direction.
    Any,
}

impl fmt::Display for MemTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemTarget::Load => write!(f, "load"),
            MemTarget::Store => write!(f, "store"),
            MemTarget::Any => write!(f, "any"),
        }
    }
}

/// The micro-architectural fault location (Sec. III-A-1).
///
/// Every variant names a core (GemFI's `system.cpuN` syntax); the supported
/// module set matches the paper: registers (integer, floating point,
/// special purpose), the fetched instruction, the selection of read/write
/// registers during decoding, the result of an instruction at the execution
/// stage, the PC address, and memory transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultLocation {
    /// An integer register of a core.
    IntReg {
        /// Target core.
        core: usize,
        /// Register number 0–31.
        reg: u8,
    },
    /// A floating-point register of a core.
    FpReg {
        /// Target core.
        core: usize,
        /// Register number 0–31.
        reg: u8,
    },
    /// A special-purpose register of a core.
    SpecialReg {
        /// Target core.
        core: usize,
        /// Which special register.
        reg: SpecialReg,
    },
    /// The instruction word produced by the fetch stage.
    Fetch {
        /// Target core.
        core: usize,
    },
    /// The register-selection fields seen by the decode stage.
    Decode {
        /// Target core.
        core: usize,
    },
    /// The result produced by the execution stage (ALU/FPU results,
    /// computed effective addresses, control-flow targets).
    Execute {
        /// Target core.
        core: usize,
    },
    /// The program counter.
    Pc {
        /// Target core.
        core: usize,
    },
    /// A memory transaction's data value.
    Mem {
        /// Target core.
        core: usize,
        /// Loads, stores, or both.
        target: MemTarget,
    },
    /// One cache line's *data-array* entry: when the fault fires it plants
    /// a lesion that corrupts every access landing on the (set, way) slot,
    /// confined to the MBU pattern, for `occurrences` applications
    /// ([`OCC_PERMANENT`] = stuck-at).
    CacheData {
        /// Target core.
        core: usize,
        /// Which cache array.
        level: CacheLevel,
        /// Set index (wrapped into the level's geometry).
        set: u32,
        /// Way index within the set.
        way: u32,
        /// MBU spatial confinement of the behavior.
        pattern: MbuPattern,
    },
    /// One cache line's *tag-array* entry: the slot answers for the aliased
    /// line, so reads that hit it serve wrong data (never a sim abort).
    CacheTag {
        /// Target core.
        core: usize,
        /// Which cache array.
        level: CacheLevel,
        /// Set index (wrapped into the level's geometry).
        set: u32,
        /// Way index within the set.
        way: u32,
    },
    /// A whole cache way across every set (a stuck-at column of the data
    /// array).
    CacheWay {
        /// Target core.
        core: usize,
        /// Which cache array.
        level: CacheLevel,
        /// Way index within each set.
        way: u32,
        /// MBU spatial confinement of the behavior.
        pattern: MbuPattern,
    },
}

impl FaultLocation {
    /// The core this fault targets.
    pub fn core(&self) -> usize {
        match *self {
            FaultLocation::IntReg { core, .. }
            | FaultLocation::FpReg { core, .. }
            | FaultLocation::SpecialReg { core, .. }
            | FaultLocation::Fetch { core }
            | FaultLocation::Decode { core }
            | FaultLocation::Execute { core }
            | FaultLocation::Pc { core }
            | FaultLocation::Mem { core, .. }
            | FaultLocation::CacheData { core, .. }
            | FaultLocation::CacheTag { core, .. }
            | FaultLocation::CacheWay { core, .. } => core,
        }
    }

    /// Whether this is a cache-array (memory-hierarchy) location. Cache
    /// faults fire exactly once — `occurrences` then governs how long the
    /// planted lesion persists, not how often the spec re-fires.
    pub fn is_cache(&self) -> bool {
        matches!(
            self,
            FaultLocation::CacheData { .. }
                | FaultLocation::CacheTag { .. }
                | FaultLocation::CacheWay { .. }
        )
    }

    /// The cache array a cache location targets, if any.
    pub fn cache_level(&self) -> Option<CacheLevel> {
        match *self {
            FaultLocation::CacheData { level, .. }
            | FaultLocation::CacheTag { level, .. }
            | FaultLocation::CacheWay { level, .. } => Some(level),
            _ => None,
        }
    }

    /// The pipeline-stage queue this fault belongs to (Sec. III-C: "each
    /// queue corresponds to a different pipeline stage").
    pub fn stage(&self) -> Stage {
        match self {
            FaultLocation::Fetch { .. } => Stage::Fetch,
            FaultLocation::Decode { .. } => Stage::Decode,
            FaultLocation::Execute { .. } => Stage::Execute,
            FaultLocation::Mem { .. } => Stage::Memory,
            FaultLocation::IntReg { .. }
            | FaultLocation::FpReg { .. }
            | FaultLocation::SpecialReg { .. }
            | FaultLocation::Pc { .. } => Stage::Register,
            // Cache faults ride the queue whose events naturally reach the
            // damaged array: L1I lesions arm on fetch activity, L1D/L2 on
            // memory transactions.
            FaultLocation::CacheData { level, .. }
            | FaultLocation::CacheTag { level, .. }
            | FaultLocation::CacheWay { level, .. } => {
                if *level == CacheLevel::L1I {
                    Stage::Fetch
                } else {
                    Stage::Memory
                }
            }
        }
    }
}

impl fmt::Display for FaultLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultLocation::IntReg { core, reg } => write!(f, "system.cpu{core} int {reg}"),
            FaultLocation::FpReg { core, reg } => write!(f, "system.cpu{core} float {reg}"),
            FaultLocation::SpecialReg { core, reg } => {
                write!(f, "system.cpu{core} special {reg}")
            }
            FaultLocation::Fetch { core } => write!(f, "system.cpu{core} fetch"),
            FaultLocation::Decode { core } => write!(f, "system.cpu{core} decode"),
            FaultLocation::Execute { core } => write!(f, "system.cpu{core} execute"),
            FaultLocation::Pc { core } => write!(f, "system.cpu{core} pc"),
            FaultLocation::Mem { core, target } => write!(f, "system.cpu{core} mem {target}"),
            FaultLocation::CacheData { core, level, set, way, pattern } => {
                write!(f, "system.cpu{core} {level} data set:{set} way:{way} {pattern}")
            }
            FaultLocation::CacheTag { core, level, set, way } => {
                write!(f, "system.cpu{core} {level} tag set:{set} way:{way}")
            }
            FaultLocation::CacheWay { core, level, way, pattern } => {
                write!(f, "system.cpu{core} {level} way:{way} {pattern}")
            }
        }
    }
}

/// The five per-stage fault queues of Sec. III-C.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Fetched-instruction faults.
    Fetch,
    /// Decode register-selection faults.
    Decode,
    /// Execution-stage result faults.
    Execute,
    /// Memory-transaction faults.
    Memory,
    /// Register-file and PC faults (applied at instruction boundaries).
    Register,
}

impl Stage {
    /// All stages, queue-index order.
    pub const ALL: [Stage; 5] =
        [Stage::Fetch, Stage::Decode, Stage::Execute, Stage::Memory, Stage::Register];

    /// Dense index of this stage (queue array position).
    pub fn index(self) -> usize {
        match self {
            Stage::Fetch => 0,
            Stage::Decode => 1,
            Stage::Execute => 2,
            Stage::Memory => 3,
            Stage::Register => 4,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Stage::Fetch => write!(f, "fetch"),
            Stage::Decode => write!(f, "decode"),
            Stage::Execute => write!(f, "execute"),
            Stage::Memory => write!(f, "memory"),
            Stage::Register => write!(f, "register"),
        }
    }
}

/// How the value at the fault location is corrupted (Sec. III-A-4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultBehavior {
    /// Assign an immediate value.
    Set(u64),
    /// XOR the running value with a constant.
    Xor(u64),
    /// Flip one bit. Multiple bit flips are expressed as multiple faults on
    /// the same module, exactly as the paper prescribes.
    Flip(u8),
    /// Set all bits to zero.
    AllZero,
    /// Set all bits to one.
    AllOne,
    /// Security-style: suppress the fetched instruction entirely — the PC
    /// advances past it with no architectural side effects (an instruction
    /// skip, as induced by clock/voltage glitching). Fetch stage only.
    Skip,
    /// Security-style: replace the opcode field (the top 6 bits of the
    /// instruction word) with the given 6-bit value, leaving the operand
    /// fields intact. Decodes-or-traps per the containment taxonomy. Fetch
    /// stage only.
    Opcode(u8),
    /// Security-style: invert the evaluated condition of the targeted
    /// conditional branch (taken ↔ not-taken). Execute stage only.
    InvertBranch,
}

impl FaultBehavior {
    /// Whether this is one of the security-style behaviors (instruction
    /// skip, opcode replacement, branch-condition inversion).
    pub fn is_security(&self) -> bool {
        matches!(self, FaultBehavior::Skip | FaultBehavior::Opcode(_) | FaultBehavior::InvertBranch)
    }
}

impl fmt::Display for FaultBehavior {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultBehavior::Set(v) => write!(f, "Set:{v:#x}"),
            FaultBehavior::Xor(v) => write!(f, "Xor:{v:#x}"),
            FaultBehavior::Flip(b) => write!(f, "Flip:{b}"),
            FaultBehavior::AllZero => write!(f, "AllZero"),
            FaultBehavior::AllOne => write!(f, "AllOne"),
            FaultBehavior::Skip => write!(f, "Skip"),
            FaultBehavior::Opcode(v) => write!(f, "Opcode:{v:#x}"),
            FaultBehavior::InvertBranch => write!(f, "InvertBranch"),
        }
    }
}

/// When the fault fires, relative to the thread's `fi_activate_inst` call
/// (Sec. III-A-3): either after a number of instructions served at the
/// target stage, or after a number of simulation ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTiming {
    /// Fire at the N-th instruction served at the target stage.
    Instructions(u64),
    /// Fire once the thread has run for N ticks.
    Ticks(u64),
}

impl fmt::Display for FaultTiming {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTiming::Instructions(n) => write!(f, "Inst:{n}"),
            FaultTiming::Ticks(n) => write!(f, "Tick:{n}"),
        }
    }
}

/// Marker for permanent faults in the `occ:` attribute.
pub const OCC_PERMANENT: u64 = u64::MAX;

/// One fault to inject: the unit of the paper's input-file lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Where.
    pub location: FaultLocation,
    /// Which thread (the id given to `fi_activate_inst`).
    pub thread: u32,
    /// When, relative to activation.
    pub timing: FaultTiming,
    /// How the value is corrupted.
    pub behavior: FaultBehavior,
    /// For how many events (in the timing unit) the fault stays active:
    /// 1 = transient, N = intermittent, [`OCC_PERMANENT`] = permanent.
    pub occurrences: u64,
}

impl FaultSpec {
    /// The fault's stage queue.
    pub fn stage(&self) -> Stage {
        self.location.stage()
    }

    /// Whether this spec fires exactly once and is then retired from its
    /// queue. Cache faults are one-shot: the fire plants a persistent
    /// lesion whose lifetime `occurrences` governs instead.
    pub fn is_one_shot(&self) -> bool {
        self.location.is_cache()
    }

    /// The activation window `[start, end)` in the timing unit.
    pub fn window(&self) -> (u64, u64) {
        let start = match self.timing {
            FaultTiming::Instructions(n) | FaultTiming::Ticks(n) => n,
        };
        (start, start.saturating_add(self.occurrences))
    }

    /// The arming rule: how far this spec is from arming on a thread that
    /// has served `stage_count` events at the spec's stage and run for
    /// `ticks_since` ticks since it activated injection. `Active` once the
    /// spec is armed (the next matching event may fire it, or a scan may
    /// expire it); otherwise `Quiet`, with `u64::MAX` on the axis that does
    /// not constrain the spec. Never `Dormant`.
    ///
    /// The queue scan, the elision horizon and a campaign's choice of
    /// station all ask this one question.
    pub fn arming(&self, stage_count: u64, ticks_since: u64) -> Dormancy {
        match self.timing {
            FaultTiming::Instructions(start) if stage_count < start => {
                Dormancy::Quiet { events: start - stage_count, ticks: u64::MAX }
            }
            FaultTiming::Ticks(start) if ticks_since < start => {
                Dormancy::Quiet { events: u64::MAX, ticks: start - ticks_since }
            }
            _ => Dormancy::Active,
        }
    }
}

impl fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.location {
            FaultLocation::IntReg { .. }
            | FaultLocation::FpReg { .. }
            | FaultLocation::SpecialReg { .. } => "RegisterInjectedFault",
            FaultLocation::Fetch { .. } => "FetchedInstructionInjectedFault",
            FaultLocation::Decode { .. } => "DecodeStageInjectedFault",
            FaultLocation::Execute { .. } => "ExecutionStageInjectedFault",
            FaultLocation::Pc { .. } => "PCInjectedFault",
            FaultLocation::Mem { .. } => "MemoryInjectedFault",
            FaultLocation::CacheData { .. }
            | FaultLocation::CacheTag { .. }
            | FaultLocation::CacheWay { .. } => "CacheInjectedFault",
        };
        let occ = if self.occurrences == OCC_PERMANENT {
            "perm".to_string()
        } else {
            self.occurrences.to_string()
        };
        write!(
            f,
            "{kind} {} {} Threadid:{} occ:{occ} {}",
            self.timing, self.behavior, self.thread, self.location
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_routing_matches_the_five_queues() {
        assert_eq!(FaultLocation::Fetch { core: 0 }.stage(), Stage::Fetch);
        assert_eq!(FaultLocation::Decode { core: 0 }.stage(), Stage::Decode);
        assert_eq!(FaultLocation::Execute { core: 0 }.stage(), Stage::Execute);
        assert_eq!(FaultLocation::Mem { core: 0, target: MemTarget::Any }.stage(), Stage::Memory);
        assert_eq!(FaultLocation::IntReg { core: 0, reg: 1 }.stage(), Stage::Register);
        assert_eq!(FaultLocation::Pc { core: 0 }.stage(), Stage::Register);
    }

    #[test]
    fn window_saturates_for_permanent_faults() {
        let spec = FaultSpec {
            location: FaultLocation::Execute { core: 0 },
            thread: 0,
            timing: FaultTiming::Instructions(100),
            behavior: FaultBehavior::Flip(3),
            occurrences: OCC_PERMANENT,
        };
        assert_eq!(spec.window(), (100, u64::MAX));
        let transient = FaultSpec { occurrences: 1, ..spec };
        assert_eq!(transient.window(), (100, 101));
    }

    #[test]
    fn display_round_trips_the_listing1_shape() {
        let spec = FaultSpec {
            location: FaultLocation::IntReg { core: 1, reg: 1 },
            thread: 0,
            timing: FaultTiming::Instructions(2457),
            behavior: FaultBehavior::Flip(21),
            occurrences: 1,
        };
        let s = spec.to_string();
        assert!(s.contains("RegisterInjectedFault"));
        assert!(s.contains("Inst:2457"));
        assert!(s.contains("Flip:21"));
        assert!(s.contains("Threadid:0"));
        assert!(s.contains("system.cpu1"));
        assert!(s.contains("occ:1"));
        assert!(s.contains("int 1"));
    }

    #[test]
    fn mbu_patterns_mask_the_right_bits() {
        assert_eq!(MbuPattern::Single.mask(), u64::MAX);
        assert_eq!(MbuPattern::Adjacent { bit: 4, width: 3 }.mask(), 0b111 << 4);
        assert_eq!(MbuPattern::Adjacent { bit: 62, width: 4 }.mask(), (0b11 << 62) | 0b11);
        assert_eq!(MbuPattern::Row(2).mask(), 0xff_0000);
        assert_eq!(MbuPattern::Column(0).mask(), 0x0101_0101_0101_0101);
        assert_eq!(MbuPattern::Column(7).mask(), 0x8080_8080_8080_8080);
        // Out-of-range indices wrap rather than widen or panic.
        assert_eq!(MbuPattern::Row(10).mask(), MbuPattern::Row(2).mask());
        assert_eq!(MbuPattern::Column(15).mask(), MbuPattern::Column(7).mask());
        assert_eq!(MbuPattern::Adjacent { bit: 0, width: 0 }.mask(), 1);
    }

    #[test]
    fn cache_locations_route_by_level_and_are_one_shot() {
        let data = FaultLocation::CacheData {
            core: 0,
            level: CacheLevel::L1I,
            set: 3,
            way: 0,
            pattern: MbuPattern::Single,
        };
        assert_eq!(data.stage(), Stage::Fetch);
        let tag = FaultLocation::CacheTag { core: 0, level: CacheLevel::L1D, set: 3, way: 0 };
        assert_eq!(tag.stage(), Stage::Memory);
        let way = FaultLocation::CacheWay {
            core: 0,
            level: CacheLevel::L2,
            way: 1,
            pattern: MbuPattern::Row(0),
        };
        assert_eq!(way.stage(), Stage::Memory);
        for loc in [data, tag, way] {
            assert!(loc.is_cache());
            assert_eq!(loc.core(), 0);
            let spec = FaultSpec {
                location: loc,
                thread: 0,
                timing: FaultTiming::Instructions(1),
                behavior: FaultBehavior::Flip(0),
                occurrences: OCC_PERMANENT,
            };
            assert!(spec.is_one_shot());
            assert!(spec.to_string().starts_with("CacheInjectedFault"));
        }
        assert!(!FaultLocation::Fetch { core: 0 }.is_cache());
    }

    #[test]
    fn security_behaviors_render_their_tokens() {
        assert_eq!(FaultBehavior::Skip.to_string(), "Skip");
        assert_eq!(FaultBehavior::Opcode(0x1a).to_string(), "Opcode:0x1a");
        assert_eq!(FaultBehavior::InvertBranch.to_string(), "InvertBranch");
        assert!(FaultBehavior::Skip.is_security());
        assert!(FaultBehavior::Opcode(0).is_security());
        assert!(FaultBehavior::InvertBranch.is_security());
        assert!(!FaultBehavior::Flip(3).is_security());
    }
}
