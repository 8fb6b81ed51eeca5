//! Uniform fault sampling over (Location, Time, Behavior) — Sec. IV-B-1:
//! "Each experiment injects a flip-bit fault, using a uniform distribution
//! for the Location, Time and Behavior" (a single-event-upset model).

use crate::rng::SplitMix64;
use gemfi::spec::OCC_PERMANENT;
use gemfi::{
    CacheLevel, FaultBehavior, FaultLocation, FaultSpec, FaultTiming, MbuPattern, MemTarget, Stage,
    VddModel,
};
use std::fmt;

/// The (sets, ways) geometry cache-fault sampling draws targets from,
/// matching `gemfi_mem::MemConfig::default()`: 32 KiB 2-way L1s and a 1 MiB
/// 8-way L2, all with 64-byte lines.
pub fn cache_geometry(level: CacheLevel) -> (u64, u32) {
    match level {
        CacheLevel::L1I | CacheLevel::L1D => (256, 2),
        CacheLevel::L2 => (2048, 8),
    }
}

/// Total data-array bits of `level` under the default geometry — the `bits`
/// argument for [`VddModel::expected_upsets`] when scaling cache-fault
/// density with supply voltage.
pub fn cache_bits(level: CacheLevel) -> u64 {
    let (sets, ways) = cache_geometry(level);
    sets * u64::from(ways) * 64 * 8
}

/// The location classes of the paper's Fig. 5 columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LocationClass {
    /// Integer register file.
    IntReg,
    /// Floating-point register file.
    FpReg,
    /// Fetched instruction word.
    Fetch,
    /// Decode-stage register selection.
    Decode,
    /// Execution-stage result.
    Execute,
    /// Memory transaction data.
    Mem,
    /// Program counter.
    Pc,
}

impl LocationClass {
    /// All classes, Fig. 5 column order.
    pub const ALL: [LocationClass; 7] = [
        LocationClass::IntReg,
        LocationClass::FpReg,
        LocationClass::Fetch,
        LocationClass::Decode,
        LocationClass::Execute,
        LocationClass::Mem,
        LocationClass::Pc,
    ];

    /// The stage whose event counter bounds this class's injection times.
    pub fn stage(self) -> Stage {
        match self {
            LocationClass::Fetch => Stage::Fetch,
            LocationClass::Decode => Stage::Decode,
            LocationClass::Execute => Stage::Execute,
            LocationClass::Mem => Stage::Memory,
            LocationClass::IntReg | LocationClass::FpReg | LocationClass::Pc => Stage::Register,
        }
    }

    /// Number of corruptible bits at this location class.
    pub fn bit_width(self) -> u8 {
        match self {
            LocationClass::Fetch => 32,
            LocationClass::Decode => gemfi::engine::DECODE_SELECTOR_BITS,
            _ => 64,
        }
    }
}

impl fmt::Display for LocationClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LocationClass::IntReg => "int-reg",
            LocationClass::FpReg => "fp-reg",
            LocationClass::Fetch => "fetch",
            LocationClass::Decode => "decode",
            LocationClass::Execute => "execute",
            LocationClass::Mem => "mem",
            LocationClass::Pc => "pc",
        };
        f.write_str(name)
    }
}

/// Uniform single-bit-flip fault sampler over a measured fault space.
///
/// `stage_events` come from a fault-free profiling run: the number of
/// instructions served per stage while injection was active, which bounds
/// the `Inst:` times so every sampled fault lands inside the kernel.
#[derive(Debug, Clone)]
pub struct FaultSampler {
    rng: SplitMix64,
    stage_events: [u64; 5],
    thread: u32,
    core: usize,
}

impl FaultSampler {
    /// A sampler for thread `thread` on core `core`, over the given
    /// per-stage event counts, seeded deterministically.
    pub fn new(seed: u64, stage_events: [u64; 5], thread: u32, core: usize) -> FaultSampler {
        FaultSampler { rng: SplitMix64::new(seed), stage_events, thread, core }
    }

    /// A sampler dedicated to one campaign cell: the campaign seed mixed
    /// with the cell's index, so each cell owns an independent deterministic
    /// stream. The sequential engine draws cells batch-by-batch in whatever
    /// order the stopping rule dictates; per-cell streams make draw `k` of a
    /// cell invariant to that interleaving — the property its resume path
    /// (and its byte-identical-decisions guarantee) is built on.
    pub fn for_cell(seed: u64, cell: usize, stage_events: [u64; 5]) -> FaultSampler {
        // SplitMix64's increment constant keeps distinct cells' seeds
        // decorrelated even for adjacent campaign seeds.
        let mixed = seed ^ (cell as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        FaultSampler::new(mixed, stage_events, 0, 0)
    }

    /// The population size of class `class` (events × bits), the `N` of the
    /// Leveugle sizing formula.
    pub fn population(&self, class: LocationClass) -> u64 {
        let events = self.stage_events[class.stage().index()].max(1);
        events.saturating_mul(class.bit_width() as u64)
    }

    /// Profiled events of one stage (≥ 1) — the time axis of any fault
    /// family whose activation rides that stage's queue.
    pub fn stage_events(&self, stage: Stage) -> u64 {
        self.stage_events[stage.index()].max(1)
    }

    /// Total population over all classes.
    pub fn total_population(&self) -> u64 {
        LocationClass::ALL.iter().map(|c| self.population(*c)).sum()
    }

    /// Draws one transient single-bit-flip fault in `class`.
    pub fn sample(&mut self, class: LocationClass) -> FaultSpec {
        let core = self.core;
        let location = match class {
            // R31/F31 are architectural zeroes; the samplable file is 0–30.
            LocationClass::IntReg => FaultLocation::IntReg { core, reg: self.rng.below(31) as u8 },
            LocationClass::FpReg => FaultLocation::FpReg { core, reg: self.rng.below(31) as u8 },
            LocationClass::Fetch => FaultLocation::Fetch { core },
            LocationClass::Decode => FaultLocation::Decode { core },
            LocationClass::Execute => FaultLocation::Execute { core },
            LocationClass::Mem => FaultLocation::Mem {
                core,
                target: if self.rng.coin() { MemTarget::Load } else { MemTarget::Store },
            },
            LocationClass::Pc => FaultLocation::Pc { core },
        };
        let events = self.stage_events[class.stage().index()].max(1);
        let time = self.rng.range_inclusive(1, events);
        let bit = self.rng.below(class.bit_width() as u64) as u8;
        FaultSpec {
            location,
            thread: self.thread,
            timing: FaultTiming::Instructions(time),
            behavior: FaultBehavior::Flip(bit),
            occurrences: 1,
        }
    }

    /// Draws one fault with the injection time confined to the given
    /// fraction band `[lo, hi)` of the kernel (the Fig. 6 deciles).
    pub fn sample_in_band(&mut self, class: LocationClass, lo: f64, hi: f64) -> FaultSpec {
        let events = self.stage_events[class.stage().index()].max(1);
        let start = ((events as f64 * lo) as u64).max(1);
        let end = ((events as f64 * hi) as u64).max(start + 1);
        let mut spec = self.sample(class);
        spec.timing = FaultTiming::Instructions(self.rng.range_inclusive(start, end - 1));
        spec
    }

    /// Draws a fault from a uniformly chosen class (the whole-space model).
    pub fn sample_any(&mut self) -> FaultSpec {
        let class = LocationClass::ALL[self.rng.below(LocationClass::ALL.len() as u64) as usize];
        self.sample(class)
    }

    /// Draws one memory-hierarchy fault in `level`: a uniformly chosen
    /// data-line, tag, or whole-way target, a uniformly chosen MBU spatial
    /// pattern (tag faults always corrupt the full tag), and a fair coin
    /// between a transient lesion (`occ:1`) and a stuck-at (`occ:perm`).
    pub fn sample_cache(&mut self, level: CacheLevel) -> FaultSpec {
        let core = self.core;
        let (sets, ways) = cache_geometry(level);
        let set = self.rng.below(sets) as u32;
        let way = self.rng.below(u64::from(ways)) as u32;
        let pattern = match self.rng.below(4) {
            0 => MbuPattern::Single,
            1 => MbuPattern::Adjacent {
                bit: self.rng.below(64) as u8,
                width: 2 + self.rng.below(3) as u8,
            },
            2 => MbuPattern::Row(self.rng.below(8) as u8),
            _ => MbuPattern::Column(self.rng.below(8) as u8),
        };
        let location = match self.rng.below(3) {
            0 => FaultLocation::CacheData { core, level, set, way, pattern },
            1 => FaultLocation::CacheTag { core, level, set, way },
            _ => FaultLocation::CacheWay { core, level, way, pattern },
        };
        let events = self.stage_events[location.stage().index()].max(1);
        FaultSpec {
            location,
            thread: self.thread,
            timing: FaultTiming::Instructions(self.rng.range_inclusive(1, events)),
            behavior: FaultBehavior::Flip(self.rng.below(64) as u8),
            occurrences: if self.rng.coin() { 1 } else { OCC_PERMANENT },
        }
    }

    /// Draws one security-style control-flow fault: instruction skip, opcode
    /// replacement (fetch stage), or branch-condition inversion (execute
    /// stage), uniformly.
    pub fn sample_security(&mut self) -> FaultSpec {
        let core = self.core;
        let (location, behavior) = match self.rng.below(3) {
            0 => (FaultLocation::Fetch { core }, FaultBehavior::Skip),
            1 => (FaultLocation::Fetch { core }, FaultBehavior::Opcode(self.rng.below(64) as u8)),
            _ => (FaultLocation::Execute { core }, FaultBehavior::InvertBranch),
        };
        let events = self.stage_events[location.stage().index()].max(1);
        FaultSpec {
            location,
            thread: self.thread,
            timing: FaultTiming::Instructions(self.rng.range_inclusive(1, events)),
            behavior,
            occurrences: 1,
        }
    }

    /// Draws the Vdd-scaled cache fault set for `level`: the expected upset
    /// count over the level's bit population and `cycles` cycles at `vdd`,
    /// each drawn by [`FaultSampler::sample_cache`]. At nominal voltage this
    /// is empty; deep in the scaling region it grows exponentially (capped
    /// at 10k so a below-`v_min` request cannot allocate unboundedly).
    pub fn sample_cache_at_vdd(
        &mut self,
        level: CacheLevel,
        model: &VddModel,
        vdd: f64,
        cycles: u64,
    ) -> Vec<FaultSpec> {
        let expected = model.expected_upsets(vdd, cache_bits(level), cycles);
        let count = (expected.min(10_000.0)) as u64;
        (0..count).map(|_| self.sample_cache(level)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampler() -> FaultSampler {
        FaultSampler::new(42, [1000, 1000, 800, 300, 900], 0, 0)
    }

    #[test]
    fn samples_stay_inside_the_fault_space() {
        let mut s = sampler();
        for class in LocationClass::ALL {
            for _ in 0..200 {
                let f = s.sample(class);
                assert_eq!(f.thread, 0);
                assert_eq!(f.occurrences, 1);
                let FaultTiming::Instructions(t) = f.timing else { panic!("inst timing") };
                assert!((1..=1000).contains(&t), "{class}: t={t}");
                let FaultBehavior::Flip(bit) = f.behavior else { panic!("flip") };
                assert!(bit < class.bit_width());
                assert_eq!(f.location.stage(), class.stage());
            }
        }
    }

    #[test]
    fn register_samples_avoid_the_zero_registers() {
        let mut s = sampler();
        for _ in 0..500 {
            if let FaultLocation::IntReg { reg, .. } = s.sample(LocationClass::IntReg).location {
                assert!(reg < 31);
            }
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mut a = FaultSampler::new(7, [100; 5], 0, 0);
        let mut b = FaultSampler::new(7, [100; 5], 0, 0);
        for _ in 0..50 {
            assert_eq!(a.sample_any(), b.sample_any());
        }
    }

    #[test]
    fn cell_samplers_are_independent_deterministic_streams() {
        let events = [100; 5];
        // Same (seed, cell) → same stream; different cell → different one.
        let mut a = FaultSampler::for_cell(7, 3, events);
        let mut b = FaultSampler::for_cell(7, 3, events);
        for _ in 0..50 {
            assert_eq!(a.sample_any(), b.sample_any());
        }
        let mut d = FaultSampler::for_cell(7, 3, events);
        let mut c = FaultSampler::for_cell(7, 4, events);
        let diverged =
            (0..50).any(|_| d.sample(LocationClass::Fetch) != c.sample(LocationClass::Fetch));
        assert!(diverged, "distinct cells draw distinct streams");
    }

    #[test]
    fn bands_confine_times() {
        let mut s = sampler();
        for _ in 0..100 {
            let f = s.sample_in_band(LocationClass::Execute, 0.5, 0.6);
            let FaultTiming::Instructions(t) = f.timing else { panic!() };
            assert!((400..=480).contains(&t), "t={t}");
        }
    }

    #[test]
    fn populations_multiply_events_and_bits() {
        let s = sampler();
        assert_eq!(s.population(LocationClass::Fetch), 1000 * 32);
        assert_eq!(s.population(LocationClass::Execute), 800 * 64);
        assert!(s.total_population() > 0);
    }

    #[test]
    fn cache_samples_stay_inside_the_geometry() {
        let mut s = sampler();
        for level in CacheLevel::ALL {
            let (sets, ways) = cache_geometry(level);
            for _ in 0..300 {
                let f = s.sample_cache(level);
                assert!(f.location.is_cache());
                assert_eq!(f.location.cache_level(), Some(level));
                match f.location {
                    FaultLocation::CacheData { set, way, .. }
                    | FaultLocation::CacheTag { set, way, .. } => {
                        assert!(u64::from(set) < sets);
                        assert!(way < ways);
                    }
                    FaultLocation::CacheWay { way, .. } => assert!(way < ways),
                    _ => unreachable!(),
                }
                assert!(f.occurrences == 1 || f.occurrences == OCC_PERMANENT);
                // Every sample round-trips through the Listing-1 syntax.
                let line = f.to_string();
                let parsed: gemfi::FaultConfig = line
                    .parse()
                    .unwrap_or_else(|e| panic!("sampled spec must reparse: {line}: {e:?}"));
                assert_eq!(parsed.faults(), &[f]);
            }
        }
    }

    #[test]
    fn security_samples_bind_behavior_to_the_right_stage() {
        let mut s = sampler();
        for _ in 0..300 {
            let f = s.sample_security();
            assert!(f.behavior.is_security());
            match f.behavior {
                FaultBehavior::Skip | FaultBehavior::Opcode(_) => {
                    assert!(matches!(f.location, FaultLocation::Fetch { .. }));
                }
                FaultBehavior::InvertBranch => {
                    assert!(matches!(f.location, FaultLocation::Execute { .. }));
                }
                _ => unreachable!(),
            }
            let line = f.to_string();
            let parsed: gemfi::FaultConfig =
                line.parse().unwrap_or_else(|e| panic!("must reparse: {line}: {e:?}"));
            assert_eq!(parsed.faults(), &[f]);
        }
    }

    #[test]
    fn vdd_scaling_grows_the_cache_fault_set() {
        let model = VddModel::new();
        let mut s = sampler();
        let nominal = s.sample_cache_at_vdd(CacheLevel::L2, &model, 1.0, 1_000);
        assert!(nominal.is_empty(), "nominal voltage: vanishing upset rate");
        let mut s = sampler();
        let low = s.sample_cache_at_vdd(CacheLevel::L2, &model, 0.55, 1_000);
        assert!(!low.is_empty(), "deep scaling region produces faults");
        assert!(low.len() <= 10_000, "bounded even below v_min");
    }
}
