//! The experiment runner: checkpoint preparation and single-experiment
//! execution (Sec. IV-B methodology).
//!
//! An experiment runs on the injection model up to its fault and on the
//! finish model after it. Everything before the fault is the fault-free
//! run every experiment shares, so the runner does not re-simulate it per
//! experiment: a [`PreparedWorkload`] lazily walks one fault-free *trunk*
//! from its checkpoint and keeps warm forks of it, *stations*, on the
//! checkpoint-anchored tick grid. An experiment forks the latest station
//! at which none of its specs has armed ([`GemFiEngine::arming`]) and
//! drives the fork with the same loop a whole run uses. Every executor
//! starts from stations. Lines of stations are keyed by
//! [`Checkpoint::digest`], the identity resume and the wire already trust,
//! so a spool workstation's local copy of the campaign checkpoint forks the
//! same stations; a run from a checkpoint with another digest restores
//! whole, as [`drive_whole_run`] always does.
//!
//! # Why a station fork is bit-identical to a whole run
//!
//! Three facts compose into the guarantee that
//! `tests/fork_prefix_conformance.rs` pins against [`drive_whole_run`]:
//!
//! 1. **The trunk is state-identical to any experiment's prefix.** Before
//!    a spec's window opens, queue scans never mutate the engine, and the
//!    per-event hooks are value-preserving; so a fault-free engine and an
//!    engine carrying the not-yet-armed spec drive the machine through the
//!    exact same tick stream. [`GemFiEngine::fork_with_faults`] then
//!    reconstructs the carried engine's state at the station from the
//!    trunk's.
//! 2. **A fork is warm.** [`Machine::fork_with`] keeps the pipeline,
//!    branch predictor, tick clock and preempt phase, so the fork's future
//!    tick stream is the trunk's (only the tick-invisible predecode and
//!    superblock caches drop, per the never-serialized contract).
//! 3. **The drive loop's decisions are tick-aligned.** Pre-switch
//!    scheduling boundaries are anchored to the *checkpoint* tick (see
//!    `next_boundary`), so a fork polls `pending_faults()` at the same
//!    absolute ticks a whole run does and switches CPU models at the
//!    identical tick.

use crate::classify::classify;
use gemfi::{AbortToken, FaultConfig, FaultSpec, GemFiEngine, InjectionRecord, Outcome};
use gemfi_cpu::{CpuKind, Dormancy};
use gemfi_sim::{Checkpoint, Machine, RunExit};
use gemfi_workloads::{workload_machine_config, GuestWorkload, RunOutput, Workload};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Everything a campaign needs about one workload, produced once and shared
/// by all experiments.
#[derive(Debug, Clone)]
pub struct PreparedWorkload {
    /// The built guest program.
    pub guest: GuestWorkload,
    /// Snapshot taken at the `fi_read_init_all()` marker (post-boot,
    /// post-initialization — the Fig. 3 fast-forward point). Shared: every
    /// experiment descends from this one immutable checkpoint, through a
    /// station or a whole restore — restoring bumps page refcounts instead
    /// of copying guest memory.
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
    /// Warm fault-free forks experiments start from, built on first use
    /// and shared by every clone of this value.
    pub stations: Stations,
}

/// The byte budget of one line of stations: 24 MiB. A station owns what it
/// does not share with the station before it ([`Machine::unshared_bytes`]):
/// the machine and its CPU model, and the copy-on-write cache chunks,
/// page-table leaves and pages the trunk wrote since that station, with the
/// chunk and leaf tables that point to them. The first station is priced
/// over the checkpoint. On the six Default guests a paper-default (O3)
/// station owns 46–69 KiB, 36 KiB of it the O3 core and its predictor, so
/// a full line holds about 420; an Atomic station owns about 13 KiB. A
/// line over budget drops every other station and doubles its spacing, so
/// the walk covers any kernel length in bounded memory. The budget keeps
/// `paper_inproc`'s peak RSS below what its lines of 64 whole-array
/// stations (≈ 0.7 MiB each) cost.
pub const MAX_STATIONS: usize = 24 << 20;

/// Stations per scheduling chunk ([`RunnerConfig::chunk`]) at a line's
/// starting spacing: 500 ticks at the default chunk. With 60 sampled
/// faults per Default guest the mean O3 run from a station to its fault
/// measured 238–918 ticks, against 2 192–4 477 at a quarter chunk;
/// eighty stations per chunk measured no faster.
const STATIONS_PER_CHUNK: u64 = 40;

/// The stations of a [`PreparedWorkload`]: one *line* per checkpoint
/// digest and [`RunnerConfig`] it has run experiments with. Equal
/// checkpoints (copies of one file, say) share a line; a line whose own
/// checkpoint nobody else holds any more is dropped when another line is
/// made. Opaque; its one constructor is [`Default`], an empty set.
#[derive(Clone, Default)]
pub struct Stations(Arc<Mutex<Vec<Line>>>);

impl fmt::Debug for Stations {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Stations({})", self.count())
    }
}

impl Stations {
    /// Stations held over all lines.
    pub fn count(&self) -> usize {
        self.0.lock().map_or(0, |lines| lines.iter().map(|l| l.stations.len()).sum())
    }

    /// Bytes the stations own over all lines, as [`MAX_STATIONS`] prices
    /// them.
    pub fn owned_bytes(&self) -> usize {
        self.0.lock().map_or(0, |lines| lines.iter().map(|l| l.owned).sum())
    }

    /// The latest station of `prepared`'s line for `config` at which none
    /// of `specs` has armed, walking the line's trunk as far as `specs`
    /// need first. `None` when no station qualifies or the lock is
    /// poisoned: the experiment then restores whole.
    fn latest_unarmed(
        &self,
        prepared: &PreparedWorkload,
        specs: &[FaultSpec],
        config: &RunnerConfig,
    ) -> Option<Arc<Machine<GemFiEngine>>> {
        let digest = prepared.checkpoint.digest();
        let mut lines = self.0.lock().ok()?;
        let at = lines.iter().position(|l| l.checkpoint.digest() == digest && l.config == *config);
        let line = match at {
            Some(at) => &mut lines[at],
            None => {
                // A line whose checkpoint only the line itself still holds
                // has most likely served its last experiment: contexts
                // that each carry a checkpoint of their own would
                // otherwise pile up lines.
                lines.retain(|l| Arc::strong_count(&l.checkpoint) > 1);
                lines.push(Line::new(prepared, config));
                lines.last_mut()?
            }
        };
        line.walk(specs);
        let qualifying = line.stations.partition_point(|s| !armed_at(s, specs));
        Some(Arc::clone(&line.stations[qualifying.checked_sub(1)?]))
    }
}

/// One fault-free trunk walked from a checkpoint under one config, and the
/// stations it left behind, in tick order.
struct Line {
    /// The checkpoint the trunk was restored from; the line serves every
    /// checkpoint with its digest.
    checkpoint: Arc<Checkpoint>,
    config: RunnerConfig,
    trunk: Machine<GemFiEngine>,
    stations: Vec<Arc<Machine<GemFiEngine>>>,
    /// Bytes the stations own, each over the station before it (the first
    /// over the checkpoint), summed.
    owned: usize,
    /// Ticks between stations, on the grid anchored at the checkpoint.
    spacing: u64,
    /// The trunk terminated: no station lies past the last one.
    done: bool,
}

impl Line {
    fn new(prepared: &PreparedWorkload, config: &RunnerConfig) -> Line {
        let checkpoint = Arc::clone(&prepared.checkpoint);
        let trunk = build_machine(&checkpoint, prepared, &[], config);
        let spacing = (config.chunk / STATIONS_PER_CHUNK).max(1);
        Line {
            checkpoint,
            config: *config,
            trunk,
            stations: Vec::new(),
            owned: 0,
            spacing,
            done: false,
        }
    }

    /// Walks the trunk until one of `specs` has armed at it or it
    /// terminates, leaving a station at every grid point on the way.
    fn walk(&mut self, specs: &[FaultSpec]) {
        let origin = self.checkpoint.tick();
        while !self.done && !armed_at(&self.trunk, specs) {
            let tick = self.trunk.tick();
            if self.stations.last().is_none_or(|s| s.tick() < tick) {
                let station = fork_loaded(&self.trunk, &[]);
                // The trunk goes on as a fork of the station, so it shares
                // every cache chunk, leaf and page with it, and the next
                // station owns only what the trunk writes until then.
                self.trunk = fork_loaded(&station, &[]);
                self.push(Arc::new(station));
                while self.owned > MAX_STATIONS && self.stations.len() > 1 {
                    self.thin();
                }
            }
            let target = next_boundary(tick, origin, self.spacing);
            self.done = self.trunk.run_to_tick(target).is_some();
        }
    }

    fn push(&mut self, station: Arc<Machine<GemFiEngine>>) {
        let base = self.stations.last().map_or(self.checkpoint.mem(), |prev| prev.mem());
        self.owned += station.unshared_bytes(base);
        self.stations.push(station);
    }

    /// Drops every other station and doubles the spacing: station 2k stands
    /// at grid point 2k, so what is left lies on the grid of twice the
    /// spacing. Each survivor is re-priced over its new predecessor.
    fn thin(&mut self) {
        let kept = std::mem::take(&mut self.stations).into_iter().step_by(2);
        self.owned = 0;
        for station in kept {
            self.push(station);
        }
        self.spacing = self.spacing.saturating_mul(2);
    }
}

/// A warm fork of `machine` whose engine carries exactly `specs` (none: a
/// fault-free fork). It inherits the machine's switches along with its
/// pipeline, tick clock and watchdog.
fn fork_loaded(machine: &Machine<GemFiEngine>, specs: &[FaultSpec]) -> Machine<GemFiEngine> {
    let faults = FaultConfig::from_specs(specs.to_vec());
    machine.fork_with(machine.hooks().fork_with_faults(faults))
}

/// Whether any of `specs` has armed at `machine`'s position. Monotone
/// along a run, which makes the stations that qualify a prefix of a line.
fn armed_at(machine: &Machine<GemFiEngine>, specs: &[FaultSpec]) -> bool {
    let now = machine.tick();
    specs
        .iter()
        .any(|spec| machine.hooks().arming(spec.location.core(), now, spec) == Dormancy::Active)
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
    /// Must be `true`: hook elision is unconditional. Read only by the
    /// benchmark's traced replica and goes with it; `build_machine`
    /// forwards it to a `Machine` setter that panics on `false`.
    pub elide: bool,
    /// Must be `true`, like `elide`: superblocks are unconditional.
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
    Ok(PreparedWorkload {
        guest,
        checkpoint,
        golden,
        stage_events,
        boot_ticks,
        kernel_ticks,
        stations: Stations::default(),
    })
}

/// The tick budget for one experiment: checkpoint time plus a multiple of
/// the fault-free kernel time, plus slack for the grace window.
fn watchdog_budget(
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
/// function of the machine's execution: a station forked mid-run lands on
/// the same grid as a whole run from the checkpoint, so both observe "the
/// fault has fired" at the identical tick and switch CPU models at the
/// identical tick — the load-bearing half of a station fork's
/// bit-identical guarantee.
fn next_boundary(tick: u64, origin: u64, granularity: u64) -> u64 {
    let rel = tick.saturating_sub(origin);
    origin.saturating_add((rel / granularity + 1).saturating_mul(granularity))
}

/// Restores the machine of one experiment from `checkpoint` — the one
/// place a campaign machine is restored and handed the [`RunnerConfig`]
/// fast-path switches. An empty `specs` builds a fault-free machine (a
/// line's trunk).
///
/// `fi_read_init_all` restore semantics: a fresh engine re-reads the fault
/// configuration for this experiment. The shared checkpoint is restored in
/// place — no per-experiment deep copy; the watchdog bound (corrupted
/// control flow loops forever, so cap the run relative to the fault-free
/// kernel time) rides along as a restore override.
fn build_machine(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    config: &RunnerConfig,
) -> Machine<GemFiEngine> {
    let budget = Some(watchdog_budget(checkpoint, prepared, config));
    let engine = GemFiEngine::new(FaultConfig::from_specs(specs.to_vec()));
    let mut machine = Machine::restore_with(checkpoint, Some(config.inject_cpu), budget, engine);
    machine.set_elide(config.elide);
    machine.set_superblock(config.superblock);
    machine
}

/// Drives a started machine to completion: the switch-grace/model-switch
/// protocol, horizon-aware chunked scheduling, and abort polling — the one
/// loop every experiment path runs. `origin` is the checkpoint tick the
/// experiment descends from; pre-switch boundaries are anchored to it (see
/// [`next_boundary`]).
///
/// Pre-switch polling always runs at the fine granularity, even while the
/// engine is dormant: the boundary at which `pending_faults() == 0` is
/// first observed decides the CPU-switch tick, so it must not depend on a
/// dormancy observation a station fork (whose engine starts with its fault
/// queued) would make differently. Once switched, boundaries are
/// state-neutral and the dormant coarsening is pure abort-latency tuning.
///
/// Returns the terminal exit and whether the abort token cut the run short.
fn drive_to_completion(
    machine: &mut Machine<GemFiEngine>,
    config: &RunnerConfig,
    abort: &AbortToken,
    origin: u64,
) -> (RunExit, bool) {
    let mut switched = config.inject_cpu == config.finish_cpu;
    loop {
        if abort.is_aborted() {
            return (RunExit::Watchdog, true);
        }
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
        // abort latency, so poll far more coarsely. A live consumption
        // watch does not hold this back: the sprint reports its register
        // at any chunk size.
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

/// The one experiment driver: drives `specs` from `checkpoint` under
/// `abort` ([`drive_experiment`]) and classifies. Every `run_*` entry
/// point — single fault, multi-fault, a campaign worker's lease — is a call
/// into this.
fn experiment(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    config: &RunnerConfig,
    abort: &AbortToken,
) -> ExperimentResult {
    assert!(!specs.is_empty(), "at least one fault");
    let run = drive_experiment(checkpoint, prepared, specs, config, abort);
    finish_result(&run.machine, checkpoint.tick(), prepared, workload, specs[0], run.drove)
}

/// A driven experiment, before classification.
#[derive(Debug)]
pub struct DrivenRun {
    /// The machine at termination.
    pub machine: Machine<GemFiEngine>,
    /// Tick of the station the run forked; `None` for a whole restore.
    pub station: Option<u64>,
    /// The terminal exit, and whether the abort token cut the run short.
    pub drove: (RunExit, bool),
}

/// Drives one experiment loaded with `specs` from `checkpoint`
/// (`start_experiment`, then the drive loop). The result is
/// bit-identical to [`drive_whole_run`]'s; the full machine comes back so
/// the conformance suite can compare them.
pub fn drive_experiment(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    config: &RunnerConfig,
    abort: &AbortToken,
) -> DrivenRun {
    let (mut machine, station) = start_experiment(checkpoint, prepared, specs, config, abort);
    let drove = drive_to_completion(&mut machine, config, abort, checkpoint.tick());
    DrivenRun { machine, station, drove }
}

/// The machine of one experiment loaded with `specs`, and the tick of the
/// station it forked: the latest unarmed station when `checkpoint` has the
/// digest of `prepared`'s own (it is that checkpoint, or a copy such as a
/// spool workstation's) and the run is not already aborted, otherwise a
/// whole restore (`None`).
fn start_experiment(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    config: &RunnerConfig,
    abort: &AbortToken,
) -> (Machine<GemFiEngine>, Option<u64>) {
    let own = checkpoint.digest() == prepared.checkpoint.digest();
    let station = if own && !abort.is_aborted() {
        prepared.stations.latest_unarmed(prepared, specs, config)
    } else {
        None
    };
    match station {
        Some(station) => (fork_loaded(&station, specs), Some(station.tick())),
        None => (build_machine(checkpoint, prepared, specs, config), None),
    }
}

/// Restores from `checkpoint` with a fresh engine loaded with `specs` and
/// drives the whole experiment: the restore-only reference. The
/// conformance suite compares this machine's terminal state bit-for-bit
/// against a station fork's, so the full machine comes back, not just the
/// result.
pub fn drive_whole_run(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    config: &RunnerConfig,
    abort: &AbortToken,
) -> (Machine<GemFiEngine>, RunExit, bool) {
    let mut machine = build_machine(checkpoint, prepared, specs, config);
    let (exit, aborted) = drive_to_completion(&mut machine, config, abort, checkpoint.tick());
    (machine, exit, aborted)
}

/// Runs one experiment from an explicit checkpoint (the NoW path passes a
/// workstation-local copy; it starts from a station, like `prepared`'s
/// own, whenever its digest matches) with an external abort token checked
/// between scheduling chunks. The campaign's lease reaper raises the token when
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
    experiment(checkpoint, prepared, workload, &[spec], config, abort)
}

/// Classification and result assembly shared by every experiment path.
/// `drove` is what [`drive_to_completion`] returned.
fn finish_result(
    machine: &Machine<GemFiEngine>,
    checkpoint_tick: u64,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    spec: FaultSpec,
    (exit, aborted): (RunExit, bool),
) -> ExperimentResult {
    let injections = machine.hooks().records().to_vec();
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
    experiment(&prepared.checkpoint, prepared, workload, specs, config, &AbortToken::new())
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

/// Runs a whole campaign, one [`run_experiment`] per spec in order, so
/// every experiment forks a station of `prepared`. Results come back
/// indexed like `specs`. It stays only for the benchmark's traced replica,
/// and goes with it.
pub fn run_campaign_forked(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    _fork: &ForkConfig,
) -> Vec<ExperimentResult> {
    specs.iter().map(|spec| run_experiment(prepared, workload, *spec, runner)).collect()
}

/// The argument of [`plan_suffixes`], [`run_campaign_forked`] and
/// [`crate::run_campaign_adaptive`]; it has nothing to tune. It stays only
/// for the benchmark's traced replica, and goes with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ForkConfig;

/// One experiment's machine as [`plan_suffixes`] starts it. It stays only
/// for the benchmark's traced replica, and goes with it.
#[derive(Debug)]
pub struct ForkedSuffix {
    /// Index of the experiment in the campaign's spec list.
    pub index: usize,
    /// Tick of the station the machine forked; `None` for a whole restore.
    pub forked_at: Option<u64>,
    /// The machine to drive: engine loaded with exactly this experiment's
    /// fault, elision configured, watchdog installed.
    pub machine: Machine<GemFiEngine>,
}

/// Starts every spec's experiment as [`drive_experiment`] does, in spec
/// order, from `prepared`'s own checkpoint. It stays only for the
/// benchmark's traced replica, and goes with it.
pub fn plan_suffixes(
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    _fork: &ForkConfig,
) -> Vec<ForkedSuffix> {
    let abort = AbortToken::new();
    let checkpoint = &prepared.checkpoint;
    specs
        .iter()
        .enumerate()
        .map(|(index, spec)| {
            let (machine, forked_at) =
                start_experiment(checkpoint, prepared, &[*spec], runner, &abort);
            ForkedSuffix { index, forked_at, machine }
        })
        .collect()
}

/// Drives a machine [`plan_suffixes`] started to completion under `abort`,
/// with the loop every experiment runs. Returns the terminal exit and
/// whether the abort cut it short. It stays only for the benchmark's
/// traced replica, and goes with it.
pub fn drive_suffix(
    suffix: &mut ForkedSuffix,
    prepared: &PreparedWorkload,
    runner: &RunnerConfig,
    abort: &AbortToken,
) -> (RunExit, bool) {
    drive_to_completion(&mut suffix.machine, runner, abort, prepared.checkpoint.tick())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemfi::{FaultBehavior, FaultLocation, FaultTiming, MemTarget};
    use gemfi_isa::codec::Codec;
    use gemfi_workloads::jacobi::Jacobi;
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
    fn equal_checkpoints_share_a_line_and_a_dead_line_makes_way() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let spec = FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(p.stage_events[4] / 2),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        };
        let config = RunnerConfig::default();
        let lines = || p.stations.0.lock().unwrap().len();
        run_experiment(&p, &w, spec, &config);
        let per_line = p.stations.count();
        assert!(per_line > 0);
        // A byte round-tripped copy, as a workstation loads or a socket
        // worker fetches it, has the same digest and forks p's stations.
        let bytes = p.checkpoint.to_bytes();
        let copy = PreparedWorkload {
            checkpoint: Arc::new(Checkpoint::from_bytes(&bytes).unwrap()),
            ..p.clone()
        };
        run_experiment(&copy, &w, spec, &config);
        assert_eq!((lines(), p.stations.count()), (1, per_line), "equal checkpoints share");
        // Contexts with checkpoints of their own sharing the stations, as
        // a caller that clones the context around each fetched image
        // builds them.
        let other = |init_spins| {
            let w = MonteCarloPi { init_spins, ..small_pi() };
            let q =
                PreparedWorkload { stations: p.stations.clone(), ..prepare_workload(&w).unwrap() };
            run_experiment(&q, &w, spec, &config);
            q
        };
        let first = other(61);
        assert_eq!(lines(), 2);
        drop(first);
        let _second = other(62);
        assert_eq!(lines(), 2, "the dropped context's line is gone, p's stays");
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

    fn late_fp_flip(p: &PreparedWorkload, offset: u64) -> FaultSpec {
        FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(p.stage_events[4].saturating_sub(offset)),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        }
    }

    /// Checks `run_campaign_forked` and every machine [`plan_suffixes`]
    /// starts, driven to the end, against a whole run of its spec: same
    /// exit, tick, records and output. Returns where each spec started.
    fn assert_planned_campaign_matches_whole_runs(
        p: &PreparedWorkload,
        w: &dyn Workload,
        specs: &[FaultSpec],
    ) -> Vec<Option<u64>> {
        let runner = RunnerConfig::default();
        let forked = run_campaign_forked(p, w, specs, &runner, &ForkConfig);
        let planned = plan_suffixes(p, specs, &runner, &ForkConfig);
        assert_eq!((forked.len(), planned.len()), (specs.len(), specs.len()));
        let mut starts = Vec::new();
        for (i, mut s) in planned.into_iter().enumerate() {
            assert_eq!(s.index, i, "suffixes come in spec order");
            let (exit, aborted) = drive_suffix(&mut s, p, &runner, &AbortToken::new());
            let (whole, whole_exit, _) =
                drive_whole_run(&p.checkpoint, p, &[specs[i]], &runner, &AbortToken::new());
            let got = &forked[i];
            assert!(!aborted);
            assert_eq!(got.spec, specs[i]);
            assert_eq!((got.exit, exit), (whole_exit, whole_exit));
            assert_eq!((got.ticks, s.machine.tick()), (whole.tick(), whole.tick()));
            assert_eq!(got.injections, whole.hooks().records());
            assert_eq!(s.machine.hooks().records(), whole.hooks().records());
            let output = s.machine.mem().read_slice(p.guest.output_addr(), p.guest.output_len);
            assert_eq!(Ok(&got.output), output.as_ref());
            starts.push(s.forked_at);
        }
        starts
    }

    #[test]
    fn forked_campaign_matches_whole_runs() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let specs = vec![late_fp_flip(&p, 100), late_fp_flip(&p, 400), late_fp_flip(&p, 50)];
        assert_planned_campaign_matches_whole_runs(&p, &w, &specs);
    }

    #[test]
    fn a_later_counted_spec_that_fires_first_still_forks() {
        // Stages advance at different rates per tick: this memory-stage
        // spec has the smaller count, but the register-stage spec fires
        // thousands of ticks earlier. Both must fork a station.
        let w = Jacobi::default();
        let p = prepare_workload(&w).unwrap();
        let mem_count = p.stage_events[3] / 4;
        let spec = |location, count| FaultSpec {
            location,
            thread: 0,
            timing: FaultTiming::Instructions(count),
            behavior: FaultBehavior::Flip(7),
            occurrences: 1,
        };
        let specs = vec![
            spec(FaultLocation::Mem { core: 0, target: MemTarget::Any }, mem_count),
            spec(FaultLocation::IntReg { core: 0, reg: 1 }, mem_count + 64),
        ];
        let starts = assert_planned_campaign_matches_whole_runs(&p, &w, &specs);
        for (i, start) in starts.iter().enumerate() {
            assert!(start.is_some(), "spec #{i} must fork, not restore whole");
        }
    }

    #[test]
    fn specs_past_the_trunks_end_fork_its_last_station() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        // More committed instructions than the kernel has: the trunk halts
        // before the spec arms, so its last station serves the spec.
        let spec = FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 1 },
            thread: 0,
            timing: FaultTiming::Instructions(p.stage_events[4] + 10_000),
            behavior: FaultBehavior::Flip(3),
            occurrences: 1,
        };
        let starts = assert_planned_campaign_matches_whole_runs(&p, &w, &[spec]);
        assert!(starts[0].is_some(), "a spec the trunk never reaches forks its last station");
    }

    #[test]
    fn late_faults_actually_fork() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let specs = vec![late_fp_flip(&p, 60), late_fp_flip(&p, 200)];
        for (i, start) in
            assert_planned_campaign_matches_whole_runs(&p, &w, &specs).iter().enumerate()
        {
            let start = start.expect("late faults must fork, not restore whole");
            assert!(start > p.checkpoint.tick(), "spec #{i}: the station lies past the checkpoint");
        }
    }

    #[test]
    fn armed_spec_falls_back_to_a_whole_run() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        // Inst:0 is armed the moment its thread activates: never forkable.
        let spec = FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(0),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        };
        let starts = assert_planned_campaign_matches_whole_runs(&p, &w, &[spec]);
        assert_eq!(starts, [None], "armed spec must restore whole");
    }
}
