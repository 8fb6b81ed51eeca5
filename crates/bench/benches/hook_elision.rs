//! Ablation for the dormancy-aware hook-elision fast path.
//!
//! The paper's headline performance claim (Sec. V, Fig. 5/6) is near-zero
//! overhead whenever fault injection is dormant. This bench measures the
//! elided sprint loop against the fully hooked loop in the three states an
//! experiment passes through:
//!
//! * `nofi` — no engine at all (`NoopHooks`): the unmodified-simulator
//!   baseline, dormant from the first tick.
//! * `pending` — one instruction-timed fault whose arming point lies beyond
//!   the end of the run: the engine sprints under a shrinking *event
//!   horizon* (`Dormancy::Quiet`) for the whole run.
//! * `dormant` — one transient `Xor(0)` execute fault that fires shortly
//!   after activation (corrupting nothing, but producing a real
//!   `InjectionRecord`): once served, the queue is empty and the engine is
//!   fully dormant (`Dormancy::Dormant`) — the post-fault fast-forward that
//!   dominates every experiment's watchdog budget.
//! * `watched` — one register fault that fires early on a register pi never
//!   reads or writes afterwards: the queue is empty but the consumption
//!   watch stays live to the end, so the engine is dormant with a non-empty
//!   [`FaultHooks::watched_regs`] mask. The sprint keeps running
//!   superblocks whose footprint misses the register.
//!
//! Each configuration runs with elision on and off; the two runs must agree
//! on the *entire* outcome vector — exit, full `ArchState`, guest output,
//! injection records, and committed instruction count — proving the fast
//! path architecturally invisible. The bench prints its table
//! (instructions/sec and on/off speedups) and fails when a floored ratio
//! ([`floor`]) is not met.
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

/// The on/off speedup a configuration must reach, if it is floored. The
/// floor sits well under the ratios the Atomic model measures even at CI's
/// small budget (`--samples 3 --points 2000`), so only a real regression —
/// not runner noise — trips it. O3 is reported but not floored: elision
/// there saves only the hook calls around each cycle, about 1.3x on
/// `pending`/`dormant` at the default budget (it was about 1.0x while the
/// O3 scheduler still scanned its ROB every cycle), too thin a margin to
/// floor on a shared runner.
///
/// `watched` has a floor of its own: with the live watch holding the run in
/// the fully hooked loop, as it once did, the ratio reads about 1.0x, while
/// sprinting past the watch measures 8-9x at CI's budget.
fn floor(cpu: CpuKind, scenario: Scenario) -> Option<f64> {
    match (cpu, scenario) {
        (CpuKind::Atomic, Scenario::Pending | Scenario::Dormant) => Some(1.2),
        (CpuKind::Atomic, Scenario::Watched) => Some(2.0),
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scenario {
    NoFi,
    Pending,
    Dormant,
    Watched,
}

impl Scenario {
    fn name(self) -> &'static str {
        match self {
            Scenario::NoFi => "nofi",
            Scenario::Pending => "pending",
            Scenario::Dormant => "dormant",
            Scenario::Watched => "watched",
        }
    }

    /// The fault population realizing this engine state.
    fn faults(self) -> Vec<FaultSpec> {
        match self {
            Scenario::NoFi => Vec::new(),
            // Arms far past the end of any run: permanently pending, so the
            // sprint runs under a Quiet event horizon the whole way.
            Scenario::Pending => vec![FaultSpec {
                location: FaultLocation::Execute { core: 0 },
                thread: 0,
                timing: FaultTiming::Instructions(u64::MAX / 2),
                behavior: FaultBehavior::Flip(0),
                occurrences: 1,
            }],
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
            // Flips r25 before the 10th post-activation instruction. Pi
            // never names r25, so the consumption watch outlives the run.
            Scenario::Watched => vec![FaultSpec {
                location: FaultLocation::IntReg { core: 0, reg: 25 },
                thread: 0,
                timing: FaultTiming::Instructions(10),
                behavior: FaultBehavior::Flip(0),
                occurrences: 1,
            }],
        }
    }
}

/// Everything elision must leave bit-identical.
#[derive(Debug, PartialEq)]
struct OutcomeVector {
    exit: RunExit,
    arch: ArchState,
    output: Vec<u8>,
    records: Vec<InjectionRecord>,
    instret: u64,
}

fn drive<H: FaultHooks>(m: &mut Machine<H>) -> RunExit {
    let mut exit = m.run();
    while exit == RunExit::CheckpointRequest {
        exit = m.run();
    }
    exit
}

/// One full run; returns the outcome vector and instructions committed.
fn run_once(pi: &MonteCarloPi, cpu: CpuKind, scenario: Scenario, elide: bool) -> OutcomeVector {
    let guest = pi.build();
    let cfg = workload_machine_config(cpu);
    let (exit, arch, output, records, instret) = if scenario == Scenario::NoFi {
        let mut m = Machine::boot(cfg, &guest.program, NoopHooks).expect("boots");
        m.set_elide(elide);
        let exit = drive(&mut m);
        let output = m.mem().read_slice(guest.output_addr(), guest.output_len).unwrap_or_default();
        (exit, m.arch().clone(), output, Vec::new(), m.instret())
    } else {
        let engine = GemFiEngine::new(FaultConfig::from_specs(scenario.faults()));
        let mut m = Machine::boot(cfg, &guest.program, engine).expect("boots");
        m.set_elide(elide);
        let exit = drive(&mut m);
        let output = m.mem().read_slice(guest.output_addr(), guest.output_len).unwrap_or_default();
        (exit, m.arch().clone(), output, m.hooks().records().to_vec(), m.instret())
    };
    OutcomeVector { exit, arch, output, records, instret }
}

struct Measurement {
    cpu: CpuKind,
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

    println!("hook_elision ablation (pi, {points} points)\n");
    let mut results = Vec::new();
    for cpu in [CpuKind::Atomic, CpuKind::O3] {
        for scenario in [Scenario::NoFi, Scenario::Pending, Scenario::Dormant, Scenario::Watched] {
            // Architectural invisibility first: both modes must produce the
            // same outcome vector, bit for bit.
            let on = run_once(&pi, cpu, scenario, true);
            let off = run_once(&pi, cpu, scenario, false);
            assert_eq!(
                on,
                off,
                "{cpu}/{}: elision must be architecturally invisible",
                scenario.name()
            );
            assert_eq!(on.exit, RunExit::Halted(0), "{cpu}/{}", scenario.name());
            if scenario == Scenario::Dormant {
                assert_eq!(on.records.len(), 1, "{cpu}: harmless fault must fire and be logged");
            } else if scenario == Scenario::Watched {
                let [record] = on.records.as_slice() else { panic!("{cpu}: one record") };
                assert!(
                    !record.consumed && !record.overwritten,
                    "{cpu}: the watched register must stay untouched to the end"
                );
            } else {
                assert!(on.records.is_empty(), "{cpu}/{}: no fault may fire", scenario.name());
            }

            for elide in [true, false] {
                let label =
                    format!("{cpu}_{}_{}", scenario.name(), if elide { "elide" } else { "hooked" });
                let (median_secs, _) = time_it_secs(&label, samples, || {
                    run_once(&pi, cpu, scenario, elide);
                });
                results.push(Measurement { cpu, scenario, median_secs, instructions: on.instret });
            }
        }
    }

    println!();
    let mut regressed = Vec::new();
    for pair in results.chunks(2) {
        let [on, off] = pair else { continue };
        let name = format!("speedup_{}_{}", on.cpu, on.scenario.name());
        let ratio = on.ips() / off.ips();
        println!("{name:<32} {ratio:.2}x  ({:.0} vs {:.0} instructions/sec)", on.ips(), off.ips());
        if let Some(floor) = floor(on.cpu, on.scenario).filter(|floor| ratio < *floor) {
            regressed.push(format!("{name} {ratio:.2}x is under its {floor}x floor"));
        }
    }
    assert!(regressed.is_empty(), "hook elision regressed: {}", regressed.join("; "));
}
