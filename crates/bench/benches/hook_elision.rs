//! Ablation for the host-side fast paths: dormancy-aware hook elision and,
//! on the Atomic model, superblocks.
//!
//! The paper's headline performance claim (Sec. V, Fig. 5/6) is near-zero
//! overhead whenever fault injection is dormant. This bench measures
//! `Machine::run` — the elided sprint, which runs translated superblocks on
//! Atomic — against the fully hooked `Machine::step()` loop in the states
//! an experiment passes through:
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
//! Each configuration runs both ways; the two runs must agree on the
//! *entire* outcome vector — exit, full `ArchState`, guest output,
//! injection records, committed instruction count and tick — proving the
//! fast paths architecturally invisible. On Atomic the fast run must
//! execute translated micro-ops, and the stepped run never does, so the
//! ablation cannot silently measure the same path twice. The bench prints
//! its table (instructions/sec and fast/stepped speedups) and fails when a
//! floored ratio ([`floor`]) is not met.
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
use gemfi_workloads::{workload_machine_config, GuestWorkload, Workload};

/// The fast/stepped speedup a configuration must reach, if it is floored.
/// Each floor sits well under the ratio the Atomic model measures even at
/// CI's small budget (`--samples 3 --points 2000`), so only a real
/// regression — not runner noise — trips it. O3 is reported but not
/// floored: elision there saves only the hook calls around each cycle,
/// about 1.3x on `pending`/`dormant` at the default budget (it was about
/// 1.0x while the O3 scheduler still scanned its ROB every cycle), too thin
/// a margin to floor on a shared runner.
///
/// `dormant` is the post-fault fast-forward, where dispatching pre-resolved
/// micro-ops must stay well ahead of stepping. `watched` reads about 1.0x
/// if the live watch holds the run in the fully hooked loop, as it once
/// did, while sprinting past the watch measures 8-9x at CI's budget.
fn floor(cpu: CpuKind, scenario: Scenario) -> Option<f64> {
    match (cpu, scenario) {
        (CpuKind::Atomic, Scenario::Pending) => Some(1.2),
        (CpuKind::Atomic, Scenario::Dormant | Scenario::Watched) => Some(2.0),
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

/// Everything the fast paths must leave bit-identical.
#[derive(Debug, PartialEq)]
struct OutcomeVector {
    exit: RunExit,
    arch: ArchState,
    output: Vec<u8>,
    records: Vec<InjectionRecord>,
    instret: u64,
    tick: u64,
}

/// Runs to a terminal exit, skipping checkpoint requests: through
/// `Machine::run`, or with `stepped` through the fully hooked reference.
fn drive<H: FaultHooks>(m: &mut Machine<H>, stepped: bool) -> RunExit {
    loop {
        let exit = if stepped { m.step() } else { Some(m.run()) };
        match exit {
            None | Some(RunExit::CheckpointRequest) => {}
            Some(exit) => return exit,
        }
    }
}

/// One full run; returns the outcome vector and the micro-ops the run
/// committed through translated superblocks.
fn run_once(
    pi: &MonteCarloPi,
    cpu: CpuKind,
    scenario: Scenario,
    stepped: bool,
) -> (OutcomeVector, u64) {
    let guest = pi.build();
    if scenario == Scenario::NoFi {
        run_guest(&guest, cpu, NoopHooks, stepped, |_| Vec::new())
    } else {
        let engine = GemFiEngine::new(FaultConfig::from_specs(scenario.faults()));
        run_guest(&guest, cpu, engine, stepped, |e| e.records().to_vec())
    }
}

fn run_guest<H: FaultHooks>(
    guest: &GuestWorkload,
    cpu: CpuKind,
    hooks: H,
    stepped: bool,
    records: impl Fn(&H) -> Vec<InjectionRecord>,
) -> (OutcomeVector, u64) {
    let mut m = Machine::boot(workload_machine_config(cpu), &guest.program, hooks).expect("boots");
    let exit = drive(&mut m, stepped);
    let output = m.mem().read_slice(guest.output_addr(), guest.output_len).unwrap_or_default();
    let outcome = OutcomeVector {
        exit,
        arch: m.arch().clone(),
        output,
        records: records(m.hooks()),
        instret: m.instret(),
        tick: m.tick(),
    };
    (outcome, m.mem().stats().superblock.uops_executed)
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
            // Architectural invisibility first: both ways must produce the
            // same outcome vector, bit for bit — and the ablation must be
            // real (translated micro-ops on the fast Atomic run, none on
            // the stepped one).
            let (fast, fast_uops) = run_once(&pi, cpu, scenario, false);
            let (stepped, stepped_uops) = run_once(&pi, cpu, scenario, true);
            let tag = format!("{cpu}/{}", scenario.name());
            assert_eq!(fast, stepped, "{tag}: the fast paths must be architecturally invisible");
            assert_eq!(fast.exit, RunExit::Halted(0), "{tag}");
            assert!(cpu != CpuKind::Atomic || fast_uops > 0, "{tag}: no superblock uops executed");
            assert_eq!(stepped_uops, 0, "{tag}: the stepped reference touched superblocks");
            if scenario == Scenario::Dormant {
                assert_eq!(fast.records.len(), 1, "{cpu}: harmless fault must fire and be logged");
            } else if scenario == Scenario::Watched {
                let [record] = fast.records.as_slice() else { panic!("{cpu}: one record") };
                assert!(
                    !record.consumed && !record.overwritten,
                    "{cpu}: the watched register must stay untouched to the end"
                );
            } else {
                assert!(fast.records.is_empty(), "{tag}: no fault may fire");
            }

            for stepped in [false, true] {
                let label = format!(
                    "{cpu}_{}_{}",
                    scenario.name(),
                    if stepped { "stepped" } else { "fast" }
                );
                let (median_secs, _) = time_it_secs(&label, samples, || {
                    run_once(&pi, cpu, scenario, stepped);
                });
                results.push(Measurement {
                    cpu,
                    scenario,
                    median_secs,
                    instructions: fast.instret,
                });
            }
        }
    }

    println!();
    let mut regressed = Vec::new();
    for pair in results.chunks(2) {
        let [fast, stepped] = pair else { continue };
        let name = format!("speedup_{}_{}", fast.cpu, fast.scenario.name());
        let ratio = fast.ips() / stepped.ips();
        println!(
            "{name:<32} {ratio:.2}x  ({:.0} vs {:.0} instructions/sec)",
            fast.ips(),
            stepped.ips()
        );
        if let Some(floor) = floor(fast.cpu, fast.scenario).filter(|floor| ratio < *floor) {
            regressed.push(format!("{name} {ratio:.2}x is under its {floor}x floor"));
        }
    }
    assert!(regressed.is_empty(), "the fast paths regressed: {}", regressed.join("; "));
}
