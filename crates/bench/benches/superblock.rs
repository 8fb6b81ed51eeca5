//! Ablation for the superblock translation cache (PR 8).
//!
//! The dormant fast-forward — the post-fault stretch that dominates every
//! experiment's watchdog budget — steps the Atomic model one instruction at
//! a time even with hooks elided. The superblock cache pre-translates
//! straight-line guest regions into flat vectors of pre-resolved micro-ops
//! and lets the sprint execute whole blocks per dispatch. This bench
//! measures that fast path against the per-instruction sprint in the two
//! dormant states:
//!
//! * `nofi` — no engine at all (`NoopHooks`): dormant from the first tick,
//!   the entire run is sprintable.
//! * `dormant` — one transient `Xor(0)` execute fault that fires shortly
//!   after activation (corrupting nothing, but producing a real
//!   `InjectionRecord`): once served, the engine is fully dormant and the
//!   rest of the run fast-forwards.
//!
//! Each configuration runs with the superblock knob on and off; the two
//! runs must agree on the *entire* outcome vector — exit, full
//! [`ArchState`], guest output, injection records, and committed
//! instruction count — proving the translation cache architecturally
//! invisible. The knob-on run must actually execute translated micro-ops
//! and the knob-off run must execute none, so the ablation cannot silently
//! measure the same path twice. The bench prints its table
//! (instructions/sec and on/off speedups) and fails when the dormant ratio
//! falls under [`DORMANT_FLOOR`].
//!
//! Options: `--samples N` (default 10), `--points N` (Monte-Carlo points,
//! default 20000).

use gemfi::{
    FaultBehavior, FaultConfig, FaultLocation, FaultSpec, FaultTiming, GemFiEngine, InjectionRecord,
};
use gemfi_bench::{time_it_secs, Args};
use gemfi_cpu::{CpuKind, FaultHooks, NoopHooks};
use gemfi_isa::ArchState;
use gemfi_sim::{Machine, RunExit};
use gemfi_workloads::pi::MonteCarloPi;
use gemfi_workloads::{workload_machine_config, Workload};

/// Floor of the `atomic_dormant` on/off speedup: dispatching pre-resolved
/// micro-ops must stay comfortably faster than the per-instruction sprint
/// (~4x measured), or the translation cache has regressed.
const DORMANT_FLOOR: f64 = 2.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    NoFi,
    Dormant,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::NoFi => "nofi",
            Scenario::Dormant => "dormant",
        }
    }

    /// The fault population realizing this engine state.
    fn faults(self) -> Vec<FaultSpec> {
        match self {
            Scenario::NoFi => Vec::new(),
            // Fires at the 10th post-activation execute event. Xor(0)
            // leaves the value intact, so the run's architecture is
            // untouched — but the injection is served and recorded, and
            // from then on the engine is fully dormant.
            Scenario::Dormant => vec![FaultSpec {
                location: FaultLocation::Execute { core: 0 },
                thread: 0,
                timing: FaultTiming::Instructions(10),
                behavior: FaultBehavior::Xor(0),
                occurrences: 1,
            }],
        }
    }
}

/// Everything the translation cache must leave bit-identical.
#[derive(Debug, PartialEq)]
struct OutcomeVector {
    exit: RunExit,
    arch: ArchState,
    output: Vec<u8>,
    records: Vec<InjectionRecord>,
    instret: u64,
    tick: u64,
}

fn drive<H: FaultHooks>(m: &mut Machine<H>) -> RunExit {
    let mut exit = m.run();
    while exit == RunExit::CheckpointRequest {
        exit = m.run();
    }
    exit
}

/// One full run; returns the outcome vector plus the count of micro-ops the
/// run committed through translated superblocks.
fn run_once(pi: &MonteCarloPi, scenario: Scenario, superblock: bool) -> (OutcomeVector, u64) {
    let guest = pi.build();
    let cfg = workload_machine_config(CpuKind::Atomic);
    let (exit, arch, output, records, instret, tick, uops) = if scenario == Scenario::NoFi {
        let mut m = Machine::boot(cfg, &guest.program, NoopHooks).expect("boots");
        m.set_superblock(superblock);
        let exit = drive(&mut m);
        let output = m.mem().read_slice(guest.output_addr(), guest.output_len).unwrap_or_default();
        let uops = m.mem().stats().superblock.uops_executed;
        (exit, m.arch().clone(), output, Vec::new(), m.instret(), m.tick(), uops)
    } else {
        let engine = GemFiEngine::new(FaultConfig::from_specs(scenario.faults()));
        let mut m = Machine::boot(cfg, &guest.program, engine).expect("boots");
        m.set_superblock(superblock);
        let exit = drive(&mut m);
        let output = m.mem().read_slice(guest.output_addr(), guest.output_len).unwrap_or_default();
        let uops = m.mem().stats().superblock.uops_executed;
        (exit, m.arch().clone(), output, m.hooks().records().to_vec(), m.instret(), m.tick(), uops)
    };
    (OutcomeVector { exit, arch, output, records, instret, tick }, uops)
}

struct Measurement {
    scenario: Scenario,
    median_secs: f64,
    instructions: u64,
}

impl Measurement {
    fn ips(&self) -> f64 {
        self.instructions as f64 / self.median_secs
    }
}

fn main() {
    let args = Args::from_env();
    let samples = args.number("samples", 10usize);
    let points = args.number("points", 20_000u64);
    let pi = MonteCarloPi { points, init_spins: 100, ..MonteCarloPi::default() };

    println!("superblock ablation (pi, {points} points, atomic)\n");
    let mut results = Vec::new();
    for scenario in [Scenario::NoFi, Scenario::Dormant] {
        // Architectural invisibility first: both knob positions must
        // produce the same outcome vector, bit for bit — and the ablation
        // must be real (translated micro-ops on, none off).
        let (on, on_uops) = run_once(&pi, scenario, true);
        let (off, off_uops) = run_once(&pi, scenario, false);
        assert_eq!(
            on,
            off,
            "{}: superblock execution must be architecturally invisible",
            scenario.name()
        );
        assert_eq!(on.exit, RunExit::Halted(0), "{}", scenario.name());
        assert!(on_uops > 0, "{}: knob-on run executed no superblock uops", scenario.name());
        assert_eq!(off_uops, 0, "{}: knob-off run touched superblocks", scenario.name());
        if scenario == Scenario::Dormant {
            assert_eq!(on.records.len(), 1, "harmless fault must fire and be logged");
        } else {
            assert!(on.records.is_empty(), "{}: no fault may fire", scenario.name());
        }

        for superblock in [true, false] {
            let label = format!(
                "atomic_{}_{}",
                scenario.name(),
                if superblock { "superblock" } else { "stepped" }
            );
            let (median_secs, _) = time_it_secs(&label, samples, || {
                run_once(&pi, scenario, superblock);
            });
            results.push(Measurement { scenario, median_secs, instructions: on.instret });
        }
    }

    println!();
    for pair in results.chunks(2) {
        let [on, off] = pair else { continue };
        let name = format!("speedup_atomic_{}", on.scenario.name());
        let ratio = on.ips() / off.ips();
        println!("{name:<32} {ratio:.2}x  ({:.0} vs {:.0} instructions/sec)", on.ips(), off.ips());
        assert!(
            on.scenario != Scenario::Dormant || ratio >= DORMANT_FLOOR,
            "superblock regressed: {name} {ratio:.2}x is under its {DORMANT_FLOOR}x floor"
        );
    }
}
