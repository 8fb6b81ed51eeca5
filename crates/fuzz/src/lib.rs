//! Differential fault fuzzing: the enforcement arm of the containment
//! contract (see `DESIGN.md`).
//!
//! The contract says that **no injected fault may panic the simulator**:
//! any state reachable by corrupting registers, fetched words, decode
//! selections, execute results, the PC, or memory transactions must
//! terminate as a [`RunExit`] — a trap, a halt, or the watchdog — never a
//! Rust panic and never a [`RunExit::SimError`]. This crate checks that
//! claim the only way it can be checked: by throwing the whole fault space
//! at the whole machine space and watching for escapes.
//!
//! One **case** is derived from a single 64-bit seed and covers:
//!
//! * a random (but always halting, fault-free) guest program;
//! * a random machine: any of the four CPU models, always running the
//!   dormancy-elision and superblock fast paths;
//! * a random [`FaultSpec`]: all five stage queues, all behaviors
//!   (including the security-style skip / opcode-replacement /
//!   branch-inversion trio), cache data/tag/way lesions under every MBU
//!   spatial pattern, both timing units, and
//!   transient/intermittent/permanent occurrence classes.
//!
//! The case first runs the program fault-free **twice** and demands
//! byte-identical results (exit, output words, console, instruction count,
//! final tick) — the differential baseline. It then runs the faulty
//! configuration under [`catch_unwind`] and demands a classifiable
//! [`RunExit`]: every surviving run maps onto one of the paper's outcome
//! classes. A panic, a [`RunExit::SimError`], or a non-deterministic
//! fault-free replay is a harness **failure**, reported with the seed and
//! the rendered fault spec so the case replays from the command line:
//!
//! ```text
//! cargo run -p gemfi-fuzz -- --seed <seed> --cases 1
//! ```

use gemfi::spec::OCC_PERMANENT;
use gemfi::{
    CacheLevel, FaultBehavior, FaultConfig, FaultLocation, FaultSpec, FaultTiming, GemFiEngine,
    InjectionRecord, MbuPattern, MemTarget, Outcome,
};
use gemfi_asm::{Assembler, FReg, Program, Reg};
use gemfi_campaign::sampler::cache_geometry;
use gemfi_campaign::SplitMix64;
use gemfi_cpu::CpuKind;
use gemfi_isa::{IntReg, SpecialReg};
use gemfi_sim::{Machine, MachineConfig, RunExit};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Tick budget per run. Generated programs finish in well under 100 k ticks
/// on every model; a corrupted run that spins past this bound becomes the
/// watchdog exit (→ *Crashed*), exactly like a campaign hang.
const CASE_MAX_TICKS: u64 = 3_000_000;

/// Bound on checkpoint-request pseudo-ops honoured per run. A corrupted
/// fetch word can decode into `fi_read_init_all`; each occurrence makes
/// progress, but a permanent fetch fault could produce an endless stream,
/// so the drive loop gives up (→ watchdog) after this many.
const MAX_CHECKPOINT_REQUESTS: u32 = 1_000;

/// What one fuzz case exercised and how it came out.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case seed (replays the whole case).
    pub seed: u64,
    /// CPU model of the faulty run.
    pub cpu: CpuKind,
    /// The injected fault.
    pub spec: FaultSpec,
    /// Paper outcome class of the faulty run.
    pub outcome: Outcome,
    /// Terminal exit of the faulty run (rendered).
    pub exit: String,
}

/// A containment violation (or harness-level defect) found by one case.
#[derive(Debug, Clone)]
pub enum CaseFailure {
    /// The simulator panicked — the contract's cardinal sin.
    Panicked {
        /// Panic payload message.
        message: String,
    },
    /// The run terminated as [`RunExit::SimError`]: the simulator kept
    /// control but admitted a broken internal invariant.
    SimError {
        /// Rendered invariant violation.
        error: String,
    },
    /// The run terminated in a state no paper outcome describes.
    Unclassifiable {
        /// Rendered exit.
        exit: String,
    },
    /// Two fault-free executions of the same program disagreed.
    NonDeterministic {
        /// What differed.
        detail: String,
    },
}

impl CaseFailure {
    /// Short machine-readable kind tag for the reproducer seed list.
    pub fn kind(&self) -> &'static str {
        match self {
            CaseFailure::Panicked { .. } => "panic",
            CaseFailure::SimError { .. } => "sim-error",
            CaseFailure::Unclassifiable { .. } => "unclassifiable",
            CaseFailure::NonDeterministic { .. } => "non-deterministic",
        }
    }

    /// Human-readable detail.
    pub fn detail(&self) -> &str {
        match self {
            CaseFailure::Panicked { message } => message,
            CaseFailure::SimError { error } => error,
            CaseFailure::Unclassifiable { exit } => exit,
            CaseFailure::NonDeterministic { detail } => detail,
        }
    }
}

/// One failed case with its reproduction handles.
#[derive(Debug, Clone)]
pub struct FuzzFailure {
    /// The case seed.
    pub seed: u64,
    /// Rendered fault spec of the case.
    pub spec: String,
    /// CPU model of the case.
    pub cpu: CpuKind,
    /// What went wrong.
    pub failure: CaseFailure,
}

/// Aggregate of a fuzzing run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases executed.
    pub cases: u64,
    /// Outcome histogram over the surviving cases ([`Outcome::ALL`] order).
    pub outcomes: [u64; 6],
    /// Containment violations, with reproduction handles.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Renders the outcome histogram as `name:count` pairs.
    pub fn histogram(&self) -> String {
        Outcome::ALL
            .iter()
            .zip(self.outcomes.iter())
            .map(|(o, n)| format!("{}:{n}", o.name()))
            .collect::<Vec<_>>()
            .join(" ")
    }
}

/// Everything a fault-free execution leaves behind that a replay must
/// reproduce byte-for-byte.
#[derive(Debug, Clone, PartialEq, Eq)]
struct FreeRun {
    exit: RunExit,
    out_words: Vec<u64>,
    console: Vec<u8>,
    instret: u64,
    tick: u64,
}

// ---- generation -------------------------------------------------------------

/// Boundary values a `Set`/`Xor` behavior draws from (alongside fully
/// random words): the corners where address arithmetic, sign handling, and
/// alignment checks live.
const INTERESTING: [u64; 10] = [
    0,
    1,
    7,
    0x7fff_ffff_ffff_ffff,
    0x8000_0000_0000_0000,
    u64::MAX,
    u64::MAX - 7,
    0x0001_0000,
    0x00ff_ff01,
    0xdead_beef_dead_beef,
];

fn corruption_value(rng: &mut SplitMix64) -> u64 {
    if rng.coin() {
        INTERESTING[rng.below(INTERESTING.len() as u64) as usize]
    } else {
        rng.next_u64()
    }
}

/// Scratch registers the generated program computes in. `R7` is the data
/// base pointer and `R9` the loop counter; PAL argument registers are used
/// only in the postlude.
const SCRATCH: [IntReg; 6] = [Reg::R1, Reg::R2, Reg::R3, Reg::R4, Reg::R5, Reg::R6];

fn pick_scratch(rng: &mut SplitMix64) -> IntReg {
    SCRATCH[rng.below(SCRATCH.len() as u64) as usize]
}

/// Generates a random guest program that always halts cleanly when run
/// fault-free: a seeded register mix, a bounded counted loop of random ALU
/// and memory operations over a private data buffer, and a postlude that
/// publishes two result registers through the binary output channel.
pub fn gen_program(rng: &mut SplitMix64) -> Program {
    let mut a = Assembler::new();
    a.fi_activate(0);
    for (i, r) in SCRATCH.iter().enumerate() {
        a.li(*r, rng.next_u64() as i64 >> (i as u32 * 7));
    }
    a.la(Reg::R7, "buf");
    let iters = rng.range_inclusive(4, 24) as i64;
    a.li(Reg::R9, iters);
    a.label("loop");
    let body_ops = rng.range_inclusive(3, 10);
    for _ in 0..body_ops {
        emit_random_op(&mut a, rng);
    }
    a.subq_lit(Reg::R9, 1, Reg::R9);
    a.bne(Reg::R9, "loop");
    // Publish two accumulators so silent corruption is visible output.
    a.mov(Reg::R1, Reg::A0);
    a.write_word();
    a.mov(Reg::R2, Reg::A0);
    a.write_word();
    a.exit(0);
    a.dsym("buf");
    let data: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
    a.data_u64(&data);
    #[allow(clippy::expect_used)] // the generator only emits resolvable labels
    a.finish().expect("generated program assembles")
}

fn emit_random_op(a: &mut Assembler, rng: &mut SplitMix64) {
    let ra = pick_scratch(rng);
    let rb = pick_scratch(rng);
    let rc = pick_scratch(rng);
    match rng.below(12) {
        0 => a.addq(ra, rb, rc),
        1 => a.subq(ra, rb, rc),
        2 => a.mulq(ra, rb, rc),
        3 => a.xor(ra, rb, rc),
        4 => a.and(ra, rb, rc),
        5 => a.bis(ra, rb, rc),
        6 => a.cmple(ra, rb, rc),
        7 => a.sll_lit(ra, rng.below(63) as u8, rc),
        8 => a.srl_lit(ra, rng.below(63) as u8, rc),
        // A store followed (program-order-soon) by loads keeps the O3
        // load/store queue honest under corrupted effective addresses.
        9 => a.stq(ra, (rng.below(8) * 8) as i16, Reg::R7),
        10 => a.ldq(rc, (rng.below(8) * 8) as i16, Reg::R7),
        // A short FP round-trip so floating-point state is live too.
        _ => a.itoft(ra, FReg::F1).addt(FReg::F1, FReg::F2, FReg::F2).ftoit(FReg::F2, rc),
    };
}

/// Samples the full fault space of the paper: all five stage queues, all
/// five behaviors, both timing units, transient/intermittent/permanent.
pub fn gen_spec(rng: &mut SplitMix64) -> FaultSpec {
    let location = match rng.below(8) {
        0 => FaultLocation::IntReg { core: 0, reg: rng.below(32) as u8 },
        1 => FaultLocation::FpReg { core: 0, reg: rng.below(32) as u8 },
        2 => FaultLocation::SpecialReg {
            core: 0,
            reg: SpecialReg::ALL[rng.below(SpecialReg::ALL.len() as u64) as usize],
        },
        3 => FaultLocation::Fetch { core: 0 },
        4 => FaultLocation::Decode { core: 0 },
        5 => FaultLocation::Execute { core: 0 },
        6 => FaultLocation::Pc { core: 0 },
        _ => FaultLocation::Mem {
            core: 0,
            target: [MemTarget::Load, MemTarget::Store, MemTarget::Any][rng.below(3) as usize],
        },
    };
    let behavior = match rng.below(5) {
        0 => FaultBehavior::Set(corruption_value(rng)),
        1 => FaultBehavior::Xor(corruption_value(rng)),
        2 => FaultBehavior::Flip(rng.below(64) as u8),
        3 => FaultBehavior::AllZero,
        _ => FaultBehavior::AllOne,
    };
    // Windows sized to the generated programs (tens to a few hundred
    // instructions) so most faults actually fire inside the run; the tail
    // that lands past termination exercises the never-fires path.
    let timing = if rng.coin() {
        FaultTiming::Instructions(rng.below(250))
    } else {
        FaultTiming::Ticks(rng.below(2_000))
    };
    let occurrences = match rng.below(3) {
        0 => 1,
        1 => rng.range_inclusive(2, 16),
        _ => OCC_PERMANENT,
    };
    FaultSpec { location, thread: 0, timing, behavior, occurrences }
}

/// Stream-separation constant for the expanded fault axes. Each case draws
/// its program, machine, and base spec from the main seed stream exactly as
/// it always has; a second stream seeded with `seed ^ NEW_AXES_STREAM` then
/// decides whether the case swaps in a cache-hierarchy or security-style
/// spec instead. Keeping the main stream's draw count fixed means every
/// pre-expansion seed — including the committed regression list — replays
/// its original case bit-identically.
const NEW_AXES_STREAM: u64 = 0x6361_6368_655f_6c73;

/// Samples the memory-hierarchy fault axis: data/tag/way targets across all
/// three cache arrays, every MBU spatial pattern, and transient through
/// stuck-at persistence.
pub fn gen_cache_spec(rng: &mut SplitMix64) -> FaultSpec {
    let level = [CacheLevel::L1I, CacheLevel::L1D, CacheLevel::L2][rng.below(3) as usize];
    let (sets, ways) = cache_geometry(level);
    let set = rng.below(sets) as u32;
    let way = rng.below(u64::from(ways)) as u32;
    let pattern = match rng.below(4) {
        0 => MbuPattern::Single,
        1 => MbuPattern::Adjacent { bit: rng.below(64) as u8, width: 2 + rng.below(3) as u8 },
        2 => MbuPattern::Row(rng.below(8) as u8),
        _ => MbuPattern::Column(rng.below(8) as u8),
    };
    let location = match rng.below(3) {
        0 => FaultLocation::CacheData { core: 0, level, set, way, pattern },
        1 => FaultLocation::CacheTag { core: 0, level, set, way },
        _ => FaultLocation::CacheWay { core: 0, level, way, pattern },
    };
    let behavior = match rng.below(5) {
        0 => FaultBehavior::Set(corruption_value(rng)),
        1 => FaultBehavior::Xor(corruption_value(rng)),
        2 => FaultBehavior::Flip(rng.below(64) as u8),
        3 => FaultBehavior::AllZero,
        _ => FaultBehavior::AllOne,
    };
    let timing = if rng.coin() {
        FaultTiming::Instructions(rng.below(250))
    } else {
        FaultTiming::Ticks(rng.below(2_000))
    };
    // For cache locations `occurrences` is lesion lifetime, not re-fire
    // count: 1 = transient upset, permanent = stuck-at cell.
    let occurrences = match rng.below(3) {
        0 => 1,
        1 => rng.range_inclusive(2, 16),
        _ => OCC_PERMANENT,
    };
    FaultSpec { location, thread: 0, timing, behavior, occurrences }
}

/// Samples the security-style behavior axis: instruction skip, opcode
/// replacement, and branch-condition inversion, each bound to the only
/// stage that accepts it.
pub fn gen_security_spec(rng: &mut SplitMix64) -> FaultSpec {
    let (location, behavior) = match rng.below(3) {
        0 => (FaultLocation::Fetch { core: 0 }, FaultBehavior::Skip),
        1 => (FaultLocation::Fetch { core: 0 }, FaultBehavior::Opcode(rng.below(64) as u8)),
        _ => (FaultLocation::Execute { core: 0 }, FaultBehavior::InvertBranch),
    };
    let timing = if rng.coin() {
        FaultTiming::Instructions(rng.below(250))
    } else {
        FaultTiming::Ticks(rng.below(2_000))
    };
    let occurrences = match rng.below(3) {
        0 => 1,
        1 => rng.range_inclusive(2, 16),
        _ => OCC_PERMANENT,
    };
    FaultSpec { location, thread: 0, timing, behavior, occurrences }
}

/// Draws the fault spec for case `seed`: the base spec always comes off the
/// main stream (preserving the seed contract), then the auxiliary stream
/// picks which axis the case actually exercises — base, cache, or security,
/// one third each.
pub fn gen_case_spec(seed: u64, rng: &mut SplitMix64) -> FaultSpec {
    let base = gen_spec(rng);
    let mut aux = SplitMix64::new(seed ^ NEW_AXES_STREAM);
    match aux.below(3) {
        0 => base,
        1 => gen_cache_spec(&mut aux),
        _ => gen_security_spec(&mut aux),
    }
}

/// Samples the machine space: any of the four CPU models. The fast paths
/// (hook elision and superblocks) are always on, so every case runs them.
pub fn gen_machine(rng: &mut SplitMix64) -> MachineConfig {
    // Draw order is part of the seed contract: cpu, three retired coins.
    let cpu =
        [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3][rng.below(4) as usize];
    // The predecode, copy-on-write and elision switches these coins once
    // chose are gone; drawing and discarding them keeps every later draw,
    // and so every pinned seed's documented case, unchanged.
    let _ = (rng.coin(), rng.coin(), rng.coin());
    MachineConfig { cpu, max_ticks: CASE_MAX_TICKS, ..MachineConfig::default() }
}

// ---- execution --------------------------------------------------------------

/// Runs a machine to a terminal exit, stepping over checkpoint-request
/// pseudo-ops (reachable by corrupted fetch words).
fn drive(machine: &mut Machine<GemFiEngine>) -> RunExit {
    for _ in 0..MAX_CHECKPOINT_REQUESTS {
        match machine.run() {
            RunExit::CheckpointRequest => continue,
            exit => return exit,
        }
    }
    RunExit::Watchdog
}

/// Boots one [`gen_machine`] draw.
pub fn boot(
    program: &Program,
    config: MachineConfig,
    engine: GemFiEngine,
) -> Result<Machine<GemFiEngine>, String> {
    Machine::boot(config, program, engine).map_err(|t| format!("boot failed: {t}"))
}

fn run_fault_free(program: &Program, config: MachineConfig) -> Result<FreeRun, String> {
    let mut machine = boot(program, config, GemFiEngine::new(FaultConfig::empty()))?;
    let exit = drive(&mut machine);
    Ok(FreeRun {
        exit,
        out_words: machine.out_words().to_vec(),
        console: machine.console().to_vec(),
        instret: machine.instret(),
        tick: machine.tick(),
    })
}

fn run_faulty(
    program: &Program,
    config: MachineConfig,
    spec: FaultSpec,
) -> Result<(RunExit, Vec<u64>, Vec<InjectionRecord>), String> {
    let mut machine = boot(program, config, GemFiEngine::new(FaultConfig::from_specs(vec![spec])))?;
    let exit = drive(&mut machine);
    let out = machine.out_words().to_vec();
    let records = machine.hooks().records().to_vec();
    Ok((exit, out, records))
}

/// Maps a terminal exit onto a paper outcome, or `None` when the exit is
/// outside the contract (the case then fails).
fn classify_exit(
    exit: &RunExit,
    golden: &FreeRun,
    out_words: &[u64],
    records: &[InjectionRecord],
) -> Option<Outcome> {
    match exit {
        RunExit::Trapped(_) | RunExit::Watchdog => Some(Outcome::Crashed),
        RunExit::Halted(code) if *code != 0 => Some(Outcome::Crashed),
        RunExit::Halted(_) => {
            if out_words == golden.out_words {
                if records.iter().any(InjectionRecord::propagated) {
                    Some(Outcome::StrictlyCorrect)
                } else {
                    Some(Outcome::NonPropagated)
                }
            } else {
                // Random programs define no quality margin, so any output
                // deviation is silent data corruption.
                Some(Outcome::Sdc)
            }
        }
        RunExit::SimError(_) | RunExit::CheckpointRequest => None,
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one complete case from its seed.
pub fn run_case(seed: u64) -> Result<CaseReport, FuzzFailure> {
    let mut rng = SplitMix64::new(seed);
    let program = gen_program(&mut rng);
    let machine = gen_machine(&mut rng);
    let cpu = machine.cpu;
    let spec = gen_case_spec(seed, &mut rng);
    let fail = |failure: CaseFailure| FuzzFailure { seed, spec: spec.to_string(), cpu, failure };

    // Differential baseline: the same fault-free program twice, demanding
    // byte-identical results. Catches state leaking across runs and
    // non-determinism that would poison every classification downstream.
    let golden = match catch_unwind(AssertUnwindSafe(|| run_fault_free(&program, machine))) {
        Err(p) => {
            return Err(fail(CaseFailure::Panicked {
                message: format!("fault-free run: {}", panic_message(&p)),
            }))
        }
        Ok(Err(e)) => return Err(fail(CaseFailure::Unclassifiable { exit: e })),
        Ok(Ok(run)) => run,
    };
    if golden.exit != RunExit::Halted(0) {
        return Err(fail(CaseFailure::Unclassifiable {
            exit: format!("fault-free run did not halt cleanly: {}", golden.exit),
        }));
    }
    match catch_unwind(AssertUnwindSafe(|| run_fault_free(&program, machine))) {
        Err(p) => {
            return Err(fail(CaseFailure::Panicked {
                message: format!("fault-free replay: {}", panic_message(&p)),
            }))
        }
        Ok(Err(e)) => return Err(fail(CaseFailure::Unclassifiable { exit: e })),
        Ok(Ok(replay)) => {
            if replay != golden {
                return Err(fail(CaseFailure::NonDeterministic {
                    detail: format!(
                        "fault-free replay diverged: first ({}, {} words, instret {}, tick {}) \
                         vs replay ({}, {} words, instret {}, tick {})",
                        golden.exit,
                        golden.out_words.len(),
                        golden.instret,
                        golden.tick,
                        replay.exit,
                        replay.out_words.len(),
                        replay.instret,
                        replay.tick,
                    ),
                }));
            }
        }
    }

    // The faulty run: whatever the fault does, the simulator must keep
    // control and land on a classifiable exit.
    let (exit, out_words, records) =
        match catch_unwind(AssertUnwindSafe(|| run_faulty(&program, machine, spec))) {
            Err(p) => return Err(fail(CaseFailure::Panicked { message: panic_message(&p) })),
            Ok(Err(e)) => return Err(fail(CaseFailure::Unclassifiable { exit: e })),
            Ok(Ok(r)) => r,
        };
    if let RunExit::SimError(e) = exit {
        return Err(fail(CaseFailure::SimError { error: e.to_string() }));
    }
    let Some(outcome) = classify_exit(&exit, &golden, &out_words, &records) else {
        return Err(fail(CaseFailure::Unclassifiable { exit: exit.to_string() }));
    };
    Ok(CaseReport { seed, cpu, spec, outcome, exit: exit.to_string() })
}

/// Runs case seeds `base_seed`, `base_seed + 1`, … and aggregates the
/// report. Sequential seeding is deliberate: SplitMix64 decorrelates
/// consecutive seeds by construction, and it makes every reported case seed
/// replayable verbatim as `--seed <seed> --cases 1`.
pub fn fuzz(base_seed: u64, cases: u64) -> FuzzReport {
    let mut report = FuzzReport::default();
    for i in 0..cases {
        let seed = base_seed.wrapping_add(i);
        report.cases += 1;
        match run_case(seed) {
            Ok(case) => {
                let slot = Outcome::ALL
                    .iter()
                    .position(|o| *o == case.outcome)
                    .unwrap_or(Outcome::ALL.len() - 1);
                report.outcomes[slot] += 1;
            }
            Err(failure) => report.failures.push(failure),
        }
    }
    report
}

/// Parses a reproducer seed list: one decimal seed per line, `#` comments
/// and blank lines ignored.
pub fn parse_seed_list(text: &str) -> Vec<u64> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.split_whitespace().next())
        .filter_map(|tok| tok.parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_halt_cleanly_on_every_model() {
        for seed in 0..12 {
            let mut rng = SplitMix64::new(seed);
            let program = gen_program(&mut rng);
            for cpu in [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3] {
                let config = MachineConfig { cpu, max_ticks: CASE_MAX_TICKS, ..Default::default() };
                let run = run_fault_free(&program, config).unwrap();
                assert_eq!(run.exit, RunExit::Halted(0), "seed {seed} on {cpu}");
                assert_eq!(run.out_words.len(), 2, "seed {seed} on {cpu}");
            }
        }
    }

    #[test]
    fn spec_generation_reaches_every_stage_and_occurrence_class() {
        let mut rng = SplitMix64::new(7);
        let mut stages = std::collections::HashSet::new();
        let mut transient = false;
        let mut intermittent = false;
        let mut permanent = false;
        for _ in 0..300 {
            let spec = gen_spec(&mut rng);
            stages.insert(spec.stage().index());
            match spec.occurrences {
                1 => transient = true,
                OCC_PERMANENT => permanent = true,
                _ => intermittent = true,
            }
        }
        assert_eq!(stages.len(), 5, "all five stage queues sampled");
        assert!(transient && intermittent && permanent);
    }

    /// The spec case `seed` will inject, without running anything.
    fn spec_for_seed(seed: u64) -> FaultSpec {
        let mut rng = SplitMix64::new(seed);
        let _ = gen_program(&mut rng);
        let _ = gen_machine(&mut rng);
        gen_case_spec(seed, &mut rng)
    }

    #[test]
    fn extended_axes_are_reachable_and_parse_back() {
        let mut cache = std::collections::HashSet::new();
        let mut security = std::collections::HashSet::new();
        for seed in 0..400u64 {
            let spec = spec_for_seed(seed);
            match spec.location {
                FaultLocation::CacheData { .. } => cache.insert("data"),
                FaultLocation::CacheTag { .. } => cache.insert("tag"),
                FaultLocation::CacheWay { .. } => cache.insert("way"),
                _ => match spec.behavior {
                    FaultBehavior::Skip => security.insert("skip"),
                    FaultBehavior::Opcode(_) => security.insert("opcode"),
                    FaultBehavior::InvertBranch => security.insert("invert"),
                    _ => continue,
                },
            };
            // Every generated spec must survive the Listing-1 round trip —
            // i.e. stay reachable from `gemfi_run` input syntax.
            let parsed: FaultConfig = spec
                .to_string()
                .parse()
                .unwrap_or_else(|e| panic!("seed {seed}: `{spec}` does not re-parse: {e:?}"));
            assert_eq!(parsed.faults(), &[spec], "seed {seed} round trip");
        }
        assert_eq!(cache.len(), 3, "cache targets sampled: {cache:?}");
        assert_eq!(security.len(), 3, "security behaviors sampled: {security:?}");
    }

    #[test]
    fn committed_seeds_replay_their_documented_specs() {
        // The regression list's value is that each seed replays a *known*
        // case: the panic reproducer must predate the cache/security axes
        // (the auxiliary stream leaves its base spec untouched), and each
        // family pin must keep drawing its documented fault. Any drift in
        // the generators or the stream constant trips this first.
        let pinned: &[(u64, &str)] = &[
            (
                31914,
                "ExecutionStageInjectedFault Inst:53 AllOne Threadid:0 occ:perm \
                 system.cpu0 execute",
            ),
            (
                3,
                "CacheInjectedFault Inst:248 Flip:3 Threadid:0 occ:1 system.cpu0 \
                 l1d data set:218 way:0 mbu:col:7",
            ),
            (
                0,
                "CacheInjectedFault Inst:225 Set:0x10000 Threadid:0 occ:perm \
                 system.cpu0 l1d tag set:98 way:1",
            ),
            (
                935,
                "CacheInjectedFault Inst:71 AllOne Threadid:0 occ:1 system.cpu0 \
                 l1i way:0 mbu:single",
            ),
            (
                2,
                "FetchedInstructionInjectedFault Inst:214 Skip Threadid:0 occ:11 system.cpu0 fetch",
            ),
            (
                17,
                "FetchedInstructionInjectedFault Inst:50 Opcode:0x1f Threadid:0 occ:perm \
                 system.cpu0 fetch",
            ),
            (
                18,
                "ExecutionStageInjectedFault Inst:146 InvertBranch Threadid:0 occ:perm \
                 system.cpu0 execute",
            ),
        ];
        for (seed, expected) in pinned {
            assert_eq!(&spec_for_seed(*seed).to_string(), expected, "seed {seed}");
        }
    }

    #[test]
    fn cases_are_reproducible_from_their_seed() {
        let first = run_case(0xfeed_beef).expect("case survives");
        let second = run_case(0xfeed_beef).expect("case survives");
        assert_eq!(first.outcome, second.outcome);
        assert_eq!(first.exit, second.exit);
        assert_eq!(first.spec, second.spec);
    }

    #[test]
    fn regression_seeds_stay_contained() {
        // Each committed seed once panicked the simulator (see the file's
        // comments); all must now classify cleanly on every replay.
        let seeds = parse_seed_list(include_str!("../regression-seeds.txt"));
        assert!(!seeds.is_empty(), "regression list must not be empty");
        for seed in seeds {
            let case = run_case(seed).unwrap_or_else(|f| {
                panic!("regression seed {seed} violated containment again: {f:?}")
            });
            assert!(Outcome::ALL.contains(&case.outcome));
        }
    }

    #[test]
    fn seed_list_parser_skips_comments_and_annotations() {
        let text = "# header\n\n123 panic o3\n456\n  # tail\n789 sdc\n";
        assert_eq!(parse_seed_list(text), vec![123, 456, 789]);
    }
}
