//! The experiment runner: checkpoint preparation and single-experiment
//! execution (Sec. IV-B methodology).

use crate::classify::classify;
use crate::snapshot::Snapshot;
use gemfi::{AbortToken, FaultConfig, FaultSpec, GemFiEngine, InjectionRecord, Outcome};
use gemfi_cpu::CpuKind;
use gemfi_sim::{Checkpoint, Machine, RunExit};
use gemfi_workloads::{workload_machine_config, GuestWorkload, RunOutput, Workload};
use std::sync::Arc;

/// Everything a campaign needs about one workload, produced once and shared
/// by all experiments.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// The built guest program.
    pub guest: GuestWorkload,
    /// Snapshot taken at the `fi_read_init_all()` marker (post-boot,
    /// post-initialization — the Fig. 3 fast-forward point). Shared: every
    /// experiment restores straight from this one immutable checkpoint —
    /// restoring bumps page refcounts instead of copying guest memory.
    pub checkpoint: Arc<Checkpoint>,
    /// The fault-free reference run (output bytes, stats).
    pub golden: RunOutput,
    /// Instructions served per pipeline stage during the fault-injection
    /// window — the samplable fault space.
    pub stage_events: [u64; 5],
    /// Ticks from machine boot to the checkpoint (the initialization cost
    /// that checkpointing amortizes away, Fig. 8).
    pub boot_ticks: u64,
    /// Fault-free ticks from the checkpoint to termination.
    pub kernel_ticks: u64,
}

/// How experiments are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunnerConfig {
    /// CPU model used around the injection point (the paper uses O3).
    pub inject_cpu: CpuKind,
    /// CPU model used to fast-forward after the fault commits or squashes
    /// (the paper switches to atomic simple).
    pub finish_cpu: CpuKind,
    /// Extra ticks to run in the injection model after the last fault fires,
    /// letting it commit or squash before the switch.
    pub switch_grace: u64,
    /// Watchdog budget as a multiple of the fault-free kernel ticks.
    pub watchdog_factor: u64,
    /// Scheduling granularity in ticks while the engine can still observe
    /// something. Once the engine reports itself fully dormant the loop
    /// switches to horizon-sized chunks ([`DORMANT_CHUNK_FACTOR`]× larger):
    /// nothing can fire, so fine-grained polling buys nothing but abort
    /// latency.
    pub chunk: u64,
    /// Forwarded to [`Machine::set_elide`] on every machine a campaign
    /// builds (architecturally invisible; off is the stepped reference the
    /// ablation benches compare against).
    pub elide: bool,
    /// Forwarded to [`Machine::set_superblock`], like `elide`.
    pub superblock: bool,
}

/// How much coarser the chunk granularity gets once the engine is dormant.
pub const DORMANT_CHUNK_FACTOR: u64 = 50;

impl Default for RunnerConfig {
    fn default() -> RunnerConfig {
        RunnerConfig {
            inject_cpu: CpuKind::O3,
            finish_cpu: CpuKind::Atomic,
            switch_grace: 2_000,
            watchdog_factor: 30,
            chunk: 20_000,
            elide: true,
            superblock: true,
        }
    }
}

/// The record of one completed experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The injected fault.
    pub spec: FaultSpec,
    /// The classified outcome.
    pub outcome: Outcome,
    /// How the run terminated.
    pub exit: RunExit,
    /// Injection records (what was corrupted, and the affected instruction).
    pub injections: Vec<InjectionRecord>,
    /// The output region at termination (possibly partial after a crash).
    pub output: Vec<u8>,
    /// Total simulated ticks of this run (from boot, including the
    /// checkpointed prefix).
    pub ticks: u64,
    /// Normalized injection time actually observed: fraction of the
    /// fault-free kernel at which the (first) fault fired.
    pub injection_fraction: Option<f64>,
}

/// Builds the guest, runs to the checkpoint marker, snapshots, and finishes
/// a fault-free golden run, profiling the fault space along the way.
///
/// # Errors
///
/// Returns a message when the workload does not reach its checkpoint marker
/// or does not terminate cleanly.
pub fn prepare_workload(workload: &dyn Workload) -> Result<PreparedWorkload, String> {
    let guest = workload.build();
    // Profile with a faultless engine: its per-stage counters measure the
    // fault space between the fi_activate markers.
    let engine = GemFiEngine::new(FaultConfig::empty());
    let mut machine =
        Machine::boot(workload_machine_config(CpuKind::Atomic), &guest.program, engine)
            .map_err(|t| format!("{}: image does not fit: {t}", workload.name()))?;

    let exit = machine.run();
    if exit != RunExit::CheckpointRequest {
        return Err(format!(
            "{}: expected a fi_read_init_all checkpoint, got {exit}",
            workload.name()
        ));
    }
    let checkpoint = Arc::new(machine.checkpoint());
    let boot_ticks = machine.tick();

    let mut exit = machine.run();
    while exit == RunExit::CheckpointRequest {
        exit = machine.run();
    }
    if exit != RunExit::Halted(0) {
        return Err(format!("{}: golden run ended with {exit}", workload.name()));
    }
    let bytes = machine
        .mem()
        .read_slice(guest.output_addr(), guest.output_len)
        .expect("output region mapped");
    let golden =
        RunOutput { exit, bytes, console: machine.console().to_vec(), stats: machine.stats() };
    let stage_events = machine.hooks().stage_events();
    let kernel_ticks = machine.tick() - boot_ticks;
    Ok(PreparedWorkload { guest, checkpoint, golden, stage_events, boot_ticks, kernel_ticks })
}

/// The tick budget for one experiment: checkpoint time plus a multiple of
/// the fault-free kernel time, plus slack for the grace window.
pub(crate) fn watchdog_budget(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    config: &RunnerConfig,
) -> u64 {
    checkpoint
        .tick()
        .saturating_add(prepared.kernel_ticks.saturating_mul(config.watchdog_factor))
        .saturating_add(1_000_000)
}

/// The first scheduling boundary strictly after `tick` on the absolute grid
/// `{origin + n·granularity}`.
///
/// Anchoring boundaries to the *checkpoint's* tick rather than to wherever
/// the loop happens to stand makes the pre-switch polling schedule a pure
/// function of the machine's execution: a suffix forked mid-run lands on
/// the same grid as a whole run from the checkpoint, so both observe "the
/// fault has fired" at the identical tick and switch CPU models at the
/// identical tick — the load-bearing half of fork-at-injection's
/// bit-identical guarantee.
fn next_boundary(tick: u64, origin: u64, granularity: u64) -> u64 {
    let rel = tick.saturating_sub(origin);
    origin.saturating_add((rel / granularity + 1).saturating_mul(granularity))
}

/// Where an experiment's machine comes from.
#[derive(Clone, Copy)]
pub(crate) enum Source<'a> {
    /// A whole run: restore the campaign checkpoint (or a workstation-local
    /// copy of it) into the injection model.
    Checkpoint(&'a Checkpoint),
    /// Resume a mid-run snapshot ([`crate::snapshot`]) of a run that
    /// descends from `origin`.
    Snapshot {
        /// The campaign checkpoint the snapshotted run was restored from.
        origin: &'a Checkpoint,
        /// The decoded snapshot.
        snapshot: &'a Snapshot,
    },
    /// Fork the fault-free trunk of a fork-at-injection plan
    /// ([`crate::fork`]) where it stands.
    Trunk(&'a Machine<GemFiEngine>),
}

/// Builds the machine of one experiment — the one place a campaign machine
/// is restored and handed the [`RunnerConfig`] fast-path switches. An empty
/// `specs` builds a fault-free machine (the fork planner's trunk).
///
/// `fi_read_init_all` restore semantics: a fresh engine re-reads the fault
/// configuration for this experiment. The shared checkpoint is restored in
/// place — no per-experiment deep copy; the watchdog bound (corrupted
/// control flow loops forever, so cap the run relative to the fault-free
/// kernel time) rides along as a restore override.
pub(crate) fn build_machine(
    source: Source<'_>,
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    config: &RunnerConfig,
) -> Machine<GemFiEngine> {
    let faults = || FaultConfig::from_specs(specs.to_vec());
    let (image, cpu, budget, faults) = match source {
        // A fork is warm and inherits the trunk's switches along with its
        // pipeline, tick clock and watchdog.
        Source::Trunk(trunk) => return trunk.fork_with(trunk.hooks().fork_with_faults(faults())),
        Source::Checkpoint(checkpoint) => (
            checkpoint,
            Some(config.inject_cpu),
            watchdog_budget(checkpoint, prepared, config),
            faults(),
        ),
        // Captured post-switch and dormant: the fault has already fired,
        // so the resumed engine carries none. `None` keeps the snapshot's
        // CPU model (the finish model) and the stored absolute budget keeps
        // the watchdog anchored to the original run, not restarted here.
        Source::Snapshot { snapshot, .. } => {
            (&snapshot.checkpoint, None, snapshot.budget, FaultConfig::empty())
        }
    };
    let mut machine = Machine::restore_with(image, cpu, Some(budget), GemFiEngine::new(faults));
    machine.set_elide(config.elide);
    machine.set_superblock(config.superblock);
    machine
}

/// Drives a built machine to completion: the switch-grace/model-switch
/// protocol, horizon-aware chunked scheduling, and abort polling — the one
/// loop every experiment path runs. `origin` is the checkpoint tick the
/// experiment descends from; pre-switch boundaries are anchored to it (see
/// [`next_boundary`]). `observer` is invoked once per scheduling chunk (with
/// the machine and whether the CPU switch has happened) and must not advance
/// the machine; the mid-run snapshot policy ([`crate::snapshot`]) hangs off
/// it.
///
/// Pre-switch polling always runs at the fine granularity, even while the
/// engine is dormant: the boundary at which `pending_faults() == 0` is
/// first observed decides the CPU-switch tick, so it must not depend on a
/// dormancy observation a forked suffix (whose engine starts with its fault
/// queued) would make differently. Once switched, boundaries are
/// state-neutral and the dormant coarsening is pure abort-latency tuning.
///
/// Returns the terminal exit and whether the abort token cut the run short.
pub(crate) fn drive_to_completion(
    machine: &mut Machine<GemFiEngine>,
    config: &RunnerConfig,
    abort: &AbortToken,
    origin: u64,
    observer: &mut dyn FnMut(&Machine<GemFiEngine>, bool),
) -> (RunExit, bool) {
    machine.hooks_mut().set_abort_token(abort.clone());
    let mut switched = config.inject_cpu == config.finish_cpu;
    loop {
        if abort.is_aborted() {
            return (RunExit::Watchdog, true);
        }
        observer(machine, switched);
        if !switched && machine.hooks_mut().pending_faults() == 0 {
            // The fault fired (or expired): give the affected instruction
            // time to commit or squash, then fast-forward in the cheap model.
            if let Some(exit) = machine.run_for(config.switch_grace) {
                if exit != RunExit::CheckpointRequest {
                    return (exit, false);
                }
            }
            machine.switch_cpu(config.finish_cpu);
            switched = true;
        }
        // Horizon-aware scheduling: after the switch, once the engine is
        // fully dormant nothing can fire and the chunk exists only to bound
        // abort latency, so poll far more coarsely.
        let target = if switched {
            let chunk = if machine.hooks().is_dormant(0, machine.tick()) {
                config.chunk.saturating_mul(DORMANT_CHUNK_FACTOR)
            } else {
                config.chunk
            };
            machine.tick().saturating_add(chunk)
        } else {
            next_boundary(machine.tick(), origin, config.chunk)
        };
        match machine.run_for(target.saturating_sub(machine.tick()).max(1)) {
            Some(RunExit::CheckpointRequest) => continue,
            Some(exit) => return (exit, false),
            None => {}
        }
    }
}

/// The observer of a run nobody watches.
pub(crate) fn unobserved(_: &Machine<GemFiEngine>, _: bool) {}

/// The one experiment driver: builds the machine from `source` loaded with
/// `specs`, drives it under `abort`, and classifies. Every `run_*` entry
/// point — whole run, multi-fault, snapshot resume — is a call into this.
pub(crate) fn experiment(
    source: Source<'_>,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    config: &RunnerConfig,
    abort: &AbortToken,
    observer: &mut dyn FnMut(&Machine<GemFiEngine>, bool),
) -> ExperimentResult {
    assert!(!specs.is_empty(), "at least one fault");
    let mut machine = build_machine(source, prepared, specs, config);
    let (origin, config, stored) = match source {
        Source::Checkpoint(checkpoint) => (checkpoint.tick(), *config, None),
        Source::Trunk(_) => (prepared.checkpoint.tick(), *config, None),
        // Already switched: drive with inject == finish so the loop never
        // re-enters the grace/switch protocol. The resumed engine never saw
        // the injection — the records that classify the run were persisted
        // in the snapshot.
        Source::Snapshot { origin, snapshot } => (
            origin.tick(),
            RunnerConfig { inject_cpu: config.finish_cpu, ..*config },
            Some(snapshot.records.clone()),
        ),
    };
    let drove = drive_to_completion(&mut machine, &config, abort, origin, observer);
    finish_result(&machine, origin, prepared, workload, specs[0], drove, stored)
}

/// Restores from `checkpoint` with a fresh single-fault engine and drives
/// the whole experiment — everything [`run_experiment_from_with_abort`]
/// does short of classification. The fork-at-injection conformance suite
/// compares this machine's terminal state bit-for-bit against a forked
/// suffix's, so the full machine comes back, not just the result.
pub fn drive_whole_run(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    spec: FaultSpec,
    config: &RunnerConfig,
    abort: &AbortToken,
) -> (Machine<GemFiEngine>, RunExit, bool) {
    let mut machine = build_machine(Source::Checkpoint(checkpoint), prepared, &[spec], config);
    let (exit, aborted) =
        drive_to_completion(&mut machine, config, abort, checkpoint.tick(), &mut unobserved);
    (machine, exit, aborted)
}

/// Runs one experiment from an explicit checkpoint (the NoW path passes a
/// workstation-local copy) with an external abort token checked between
/// scheduling chunks. The campaign's lease reaper raises the token when
/// this experiment's lease expires; the run then stops at the next chunk
/// boundary and classifies as [`Outcome::Infrastructure`] (the harness gave
/// up — the guest's own behavior is unknown).
pub fn run_experiment_from_with_abort(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    spec: FaultSpec,
    config: &RunnerConfig,
    abort: &AbortToken,
) -> ExperimentResult {
    let source = Source::Checkpoint(checkpoint);
    experiment(source, prepared, workload, &[spec], config, abort, &mut unobserved)
}

/// Classification and result assembly shared by every experiment path.
/// `drove` is what [`drive_to_completion`] returned. `stored` are the
/// injection records of a run resumed from a mid-run snapshot
/// ([`crate::snapshot`]), whose finishing engine never saw the injection;
/// every other run classifies by its own engine's records.
pub(crate) fn finish_result(
    machine: &Machine<GemFiEngine>,
    checkpoint_tick: u64,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    spec: FaultSpec,
    (exit, aborted): (RunExit, bool),
    stored: Option<Vec<InjectionRecord>>,
) -> ExperimentResult {
    let injections = stored.unwrap_or_else(|| machine.hooks().records().to_vec());
    let output = machine
        .mem()
        .read_slice(prepared.guest.output_addr(), prepared.guest.output_len)
        .unwrap_or_default();
    let outcome = if aborted {
        Outcome::Infrastructure
    } else {
        classify(workload, &prepared.golden.bytes, exit, &output, &injections)
    };
    let injection_fraction = injections.first().map(|r| {
        let rel = r.tick.saturating_sub(checkpoint_tick) as f64;
        (rel / prepared.kernel_ticks.max(1) as f64).min(1.0)
    });
    ExperimentResult {
        spec,
        outcome,
        exit,
        injections,
        output,
        ticks: machine.tick(),
        injection_fraction,
    }
}

/// Runs one experiment with *multiple* simultaneous faults (multi-bit
/// upsets, or the Vdd-scaling model's per-run fault population). The
/// outcome is classified exactly like a single-fault experiment.
pub fn run_experiment_multi(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    config: &RunnerConfig,
) -> ExperimentResult {
    let source = Source::Checkpoint(&prepared.checkpoint);
    experiment(source, prepared, workload, specs, config, &AbortToken::new(), &mut unobserved)
}

/// Runs one experiment using the prepared workload's own checkpoint.
pub fn run_experiment(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    spec: FaultSpec,
    config: &RunnerConfig,
) -> ExperimentResult {
    let abort = AbortToken::new();
    run_experiment_from_with_abort(&prepared.checkpoint, prepared, workload, spec, config, &abort)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemfi::{FaultBehavior, FaultLocation, FaultTiming};
    use gemfi_workloads::pi::MonteCarloPi;

    fn small_pi() -> MonteCarloPi {
        MonteCarloPi { points: 120, init_spins: 60, ..MonteCarloPi::default() }
    }

    #[test]
    fn prepare_measures_the_fault_space() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        assert_eq!(p.golden.bytes, w.reference(), "golden must match the host model");
        assert!(p.stage_events[0] > 0, "fetch events counted");
        assert!(p.stage_events[4] > 0, "committed instructions counted");
        assert!(p.boot_ticks > 0 && p.kernel_ticks > 0);
        // The kernel is ~120 iterations × ~20 instructions.
        assert!(p.stage_events[4] > 1_000 && p.stage_events[4] < 100_000);
    }

    #[test]
    fn harmless_fault_is_not_sdc() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        // Flip a bit of FP register f20 (unused by pi): never consumed.
        let spec = FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(10),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        };
        let r = run_experiment(&p, &w, spec, &RunnerConfig::default());
        assert_eq!(r.outcome, Outcome::NonPropagated, "{:?}", r.exit);
        assert_eq!(r.injections.len(), 1);
    }

    #[test]
    fn wild_base_register_fault_crashes() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        // Set the stack pointer to garbage right inside the kernel: the
        // next stack access (or PAL context save) dies.
        let spec = FaultSpec {
            location: FaultLocation::Pc { core: 0 },
            thread: 0,
            timing: FaultTiming::Instructions(50),
            behavior: FaultBehavior::Set(0x00ff_ff00),
            occurrences: 1,
        };
        let r = run_experiment(&p, &w, spec, &RunnerConfig::default());
        assert_eq!(r.outcome, Outcome::Crashed, "{:?}", r.exit);
    }

    #[test]
    fn low_bit_flip_in_counted_register_gives_close_pi() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        // Flip the low bit of the inside-count register (r2) late in the
        // kernel: pi changes by ±4/120 — not strictly correct, and outside
        // the 2-decimal gate → SDC; or masked if r2's low bit flips back.
        let spec = FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 2 },
            thread: 0,
            timing: FaultTiming::Instructions(p.stage_events[4] - 100),
            behavior: FaultBehavior::Flip(0),
            occurrences: 1,
        };
        // Under O3 the in-flight consumer may have captured its operand
        // before the boundary injection, erasing the fault (a legitimate
        // non-propagated outcome); under atomic injection the next reader
        // always consumes it.
        let r = run_experiment(&p, &w, spec, &RunnerConfig::default());
        assert!(
            matches!(
                r.outcome,
                Outcome::Sdc | Outcome::StrictlyCorrect | Outcome::Correct | Outcome::NonPropagated
            ),
            "unexpected outcome {:?} ({:?})",
            r.outcome,
            r.exit
        );
        let atomic = run_experiment(
            &p,
            &w,
            spec,
            &RunnerConfig {
                inject_cpu: CpuKind::Atomic,
                finish_cpu: CpuKind::Atomic,
                ..RunnerConfig::default()
            },
        );
        assert!(
            atomic.injections.iter().any(|i| i.consumed),
            "atomic-mode injection into a live register must be consumed"
        );
    }

    #[test]
    fn injection_fraction_tracks_fault_time() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let spec = FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(p.stage_events[4] / 2),
            behavior: FaultBehavior::Flip(1),
            occurrences: 1,
        };
        let r = run_experiment(&p, &w, spec, &RunnerConfig::default());
        let f = r.injection_fraction.expect("fault fired");
        assert!((0.2..0.9).contains(&f), "fraction {f}");
    }

    #[test]
    fn raised_abort_token_surfaces_as_infrastructure() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let spec = FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(10),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        };
        let abort = AbortToken::new();
        abort.abort();
        let r = run_experiment_from_with_abort(
            &p.checkpoint,
            &p,
            &w,
            spec,
            &RunnerConfig::default(),
            &abort,
        );
        assert_eq!(r.outcome, Outcome::Infrastructure, "{:?}", r.exit);
        assert_eq!(r.exit, RunExit::Watchdog);
    }

    #[test]
    fn atomic_only_runner_agrees_with_o3_runner_on_outcome() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let spec = FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 1 },
            thread: 0,
            timing: FaultTiming::Instructions(200),
            behavior: FaultBehavior::Flip(3),
            occurrences: 1,
        };
        let o3 = run_experiment(&p, &w, spec, &RunnerConfig::default());
        let atomic = run_experiment(
            &p,
            &w,
            spec,
            &RunnerConfig {
                inject_cpu: CpuKind::Atomic,
                finish_cpu: CpuKind::Atomic,
                ..RunnerConfig::default()
            },
        );
        // Both models classify the experiment to *some* outcome and record
        // the injection; the exact class may differ because O3's in-flight
        // instructions capture operands before a boundary injection lands.
        assert_eq!(o3.injections.len(), 1);
        assert_eq!(atomic.injections.len(), 1);
        assert_ne!(atomic.outcome, Outcome::Crashed, "{:?}", atomic.exit);
    }
}
