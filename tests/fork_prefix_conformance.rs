//! Station conformance (the non-negotiable half of the shared-prefix
//! executors): a run forked off a station of the fault-free trunk must be
//! *bit-identical* to a whole run of the same experiment — same `RunExit`,
//! same complete [`ArchState`], same every-byte-of-physical-memory, same
//! injection records, same tick and instruction counts.
//!
//! The matrix covers all 4 CPU models as the injection model, reaching
//! stations both through `drive_experiment` and through the
//! benchmark-facing `plan_suffixes` / `drive_suffix`. It also pins the derived-state contract at the fork
//! (the never-serialized rule): the trunk runs with warm predecode and
//! superblock caches, but a fork must come out decode-cold and
//! translation-cold — asserted here rather than trusted.
//! Stations are further checked on a fault that fires right before its
//! activation ends, on a trunk that outgrows its line's byte budget, on a
//! seeded sample of every small guest, and from a byte copy of the
//! checkpoint, as a spool workstation runs them.

use gemfi::{AbortToken, FaultBehavior, FaultLocation, FaultSpec, FaultTiming, GemFiEngine};
use gemfi_bench::{workloads, Scale};
use gemfi_campaign::runner::{
    drive_experiment, drive_suffix, drive_whole_run, plan_suffixes, prepare_workload, ForkConfig,
    RunnerConfig, MAX_STATIONS,
};
use gemfi_campaign::{FaultSampler, PreparedWorkload, Stations};
use gemfi_cpu::{CpuKind, NoopHooks};
use gemfi_isa::codec::Codec;
use gemfi_sim::{Checkpoint, Machine, RunExit};
use gemfi_workloads::canneal::Canneal;
use gemfi_workloads::pi::MonteCarloPi;
use gemfi_workloads::workload_machine_config;

const MODELS: [CpuKind; 4] = [CpuKind::Atomic, CpuKind::Timing, CpuKind::InOrder, CpuKind::O3];

/// Asserts two terminated experiment machines are bit-identical.
fn assert_same_machine(got: &Machine<GemFiEngine>, want: &Machine<GemFiEngine>, tag: &str) {
    assert_eq!(got.tick(), want.tick(), "{tag}: tick differs");
    assert_eq!(got.instret(), want.instret(), "{tag}: instret differs");
    assert_eq!(got.arch(), want.arch(), "{tag}: ArchState differs");
    assert_eq!(got.hooks().records(), want.hooks().records(), "{tag}: injection records differ");
    let size = want.mem().size() as usize;
    assert!(
        got.mem().read_slice(0, size).expect("memory")
            == want.mem().read_slice(0, size).expect("memory"),
        "{tag}: physical memory differs"
    );
}

/// Drives `specs` through [`drive_experiment`] and through a whole
/// restore, asserts the two bit-identical, and returns the tick of the
/// station the first run forked (`None`: it restored whole).
fn station_matches_whole_run(
    p: &PreparedWorkload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    tag: &str,
) -> Option<u64> {
    let run = drive_experiment(&p.checkpoint, p, specs, runner, &AbortToken::new());
    let (whole, exit, aborted) =
        drive_whole_run(&p.checkpoint, p, specs, runner, &AbortToken::new());
    let tag = format!("{tag} station={:?}", run.station);
    assert!(!aborted, "{tag}");
    assert_eq!(run.drove, (exit, aborted), "{tag}: exit differs");
    assert_same_machine(&run.machine, &whole, &tag);
    run.station
}

/// `p` with no stations walked yet.
fn unwalked(p: &PreparedWorkload) -> PreparedWorkload {
    PreparedWorkload { stations: Stations::default(), ..p.clone() }
}

fn specs_for(p: &PreparedWorkload) -> Vec<FaultSpec> {
    let committed = p.stage_events[4];
    vec![
        // Late single-bit flip into an unused FP register: the canonical
        // prefix-heavy experiment (long shared trunk, tiny suffix).
        FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(committed.saturating_sub(120)),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        },
        // Mid-kernel flip into a live register: the fault propagates, so
        // the divergent suffix carries real architectural consequences.
        FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 1 },
            thread: 0,
            timing: FaultTiming::Instructions(committed / 2),
            behavior: FaultBehavior::Flip(3),
            occurrences: 1,
        },
        // Tick-timed window: exercises the second timing axis of the
        // arming rule (and its window-expiry semantics).
        FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 3 },
            thread: 0,
            timing: FaultTiming::Ticks(p.kernel_ticks / 2),
            behavior: FaultBehavior::Flip(5),
            occurrences: 1_000,
        },
        // Cache-line lesion (memory-hierarchy axis): one-shot firing plants
        // persistent damage in the memory system — state that lives outside
        // ArchState, so a station fork must plant and apply it exactly as
        // a whole run does. Memory-stage timing counts *memory events*, of
        // which this kernel serves only a handful — time it to the second.
        FaultSpec {
            location: FaultLocation::CacheData {
                core: 0,
                level: gemfi::CacheLevel::L1D,
                set: 7,
                way: 0,
                pattern: gemfi::MbuPattern::Row(1),
            },
            thread: 0,
            timing: FaultTiming::Instructions(2),
            behavior: FaultBehavior::Flip(9),
            occurrences: 5,
        },
        // Instruction skip (security axis): fires on the Fetch queue and
        // carries armed per-core state across the fork boundary.
        FaultSpec {
            location: FaultLocation::Fetch { core: 0 },
            thread: 0,
            timing: FaultTiming::Instructions(committed / 2),
            behavior: FaultBehavior::Skip,
            occurrences: 1,
        },
    ]
}

fn conformance(model: CpuKind) {
    let w = MonteCarloPi { points: 120, init_spins: 60, ..MonteCarloPi::default() };
    let p = prepare_workload(&w).expect("prepares");
    let specs = specs_for(&p);
    let runner = RunnerConfig { inject_cpu: model, ..RunnerConfig::default() };
    let planned = plan_suffixes(&p, &specs, &runner, &ForkConfig);
    assert_eq!(planned.len(), specs.len());
    assert!(
        planned.iter().all(|s| s.forked_at.is_some()),
        "{model}: every spec must fork a station"
    );
    for mut suffix in planned {
        let spec = specs[suffix.index];
        let tag = format!("{model} spec#{} forked_at={:?}", suffix.index, suffix.forked_at);
        // The trunk ran warm; the fork must not inherit the
        // (never-serialized) predecode or superblock caches.
        assert_eq!(
            suffix.machine.mem().stats().predecode,
            gemfi_isa::PredecodeStats::default(),
            "{tag}: fork must start decode-cold"
        );
        assert_eq!(
            suffix.machine.mem().stats().superblock,
            gemfi_isa::SuperblockStats::default(),
            "{tag}: fork must start translation-cold"
        );
        let (fork_exit, fork_aborted) = drive_suffix(&mut suffix, &p, &runner, &AbortToken::new());
        let (whole, whole_exit, whole_aborted) =
            drive_whole_run(&p.checkpoint, &p, &[spec], &runner, &AbortToken::new());
        assert!(!fork_aborted && !whole_aborted, "{tag}");
        assert_eq!(fork_exit, whole_exit, "{tag}: exit differs");
        assert_same_machine(&suffix.machine, &whole, &tag);
    }
    // Stations, walked in spec order and again in reverse: the order
    // decides how far the trunk stands when each spec asks. This kernel
    // runs for only a few default chunks, so a finer chunk puts several
    // stations ahead of its faults.
    let runner = RunnerConfig { chunk: 2_000, ..runner };
    for reverse in [false, true] {
        let walked = unwalked(&p);
        let mut indices: Vec<usize> = (0..specs.len()).collect();
        if reverse {
            indices.reverse();
        }
        for index in indices {
            let tag = format!("{model} reverse={reverse} spec#{index}");
            let station = station_matches_whole_run(&walked, &[specs[index]], &runner, &tag);
            let station = station.expect("no spec of the list is armed at the checkpoint");
            if index == 0 {
                assert!(station > p.checkpoint.tick(), "{tag}: the late fault starts late");
            }
        }
    }
}

#[test]
fn fork_prefix_conformance_atomic() {
    conformance(CpuKind::Atomic);
}

#[test]
fn fork_prefix_conformance_timing() {
    conformance(CpuKind::Timing);
}

#[test]
fn fork_prefix_conformance_inorder() {
    conformance(CpuKind::InOrder);
}

#[test]
fn fork_prefix_conformance_o3() {
    conformance(CpuKind::O3);
}

/// Small canneal's kernel activation ends shortly after this fault fires
/// on O3. A station past the closing `fi_activate` must not be taken for
/// one before the fault's window: the whole run fires it.
#[test]
fn a_fault_near_the_end_of_its_activation_still_fires() {
    let w = Canneal { steps: 128, ..Canneal::default() };
    let p = prepare_workload(&w).expect("prepares");
    let spec = FaultSpec {
        location: FaultLocation::FpReg { core: 0, reg: 7 },
        thread: 0,
        timing: FaultTiming::Instructions(350_393),
        behavior: FaultBehavior::Flip(17),
        occurrences: 1,
    };
    let runner = RunnerConfig::default();
    // Walk the trunk past the kernel first, then ask for the fault.
    let past_the_kernel = FaultSpec { timing: FaultTiming::Instructions(u64::MAX), ..spec };
    station_matches_whole_run(&p, &[past_the_kernel], &runner, "past the kernel");
    let station = station_matches_whole_run(&p, &[spec], &runner, "canneal f7");
    assert!(station.is_some(), "a station before the fault's window serves it");
    let run = drive_experiment(&p.checkpoint, &p, &[spec], &runner, &AbortToken::new());
    assert_eq!(run.machine.hooks().records().len(), 1, "the fault fires");
}

/// A line prices its stations in bytes. Small canneal on Atomic at a fine
/// chunk walks about 7 300 grid points at the starting spacing (chunk / 40),
/// far more than one line's budget holds: the line must thin itself until
/// its stations own at most `MAX_STATIONS` bytes, and still serve exact
/// forks.
#[test]
fn a_line_over_its_byte_budget_thins_and_still_forks_exactly() {
    let w = Canneal { steps: 128, ..Canneal::default() };
    let p = prepare_workload(&w).expect("prepares");
    let runner = RunnerConfig {
        inject_cpu: CpuKind::Atomic,
        finish_cpu: CpuKind::Atomic,
        chunk: 2_000,
        ..RunnerConfig::default()
    };
    let late = FaultSpec {
        location: FaultLocation::IntReg { core: 0, reg: 9 },
        thread: 0,
        timing: FaultTiming::Instructions(p.stage_events[4] - 40),
        behavior: FaultBehavior::Flip(2),
        occurrences: 1,
    };
    let never = FaultSpec { timing: FaultTiming::Instructions(u64::MAX), ..late };
    let grid_points = p.kernel_ticks / (runner.chunk / 40);
    for (i, spec) in [never, late].into_iter().enumerate() {
        let station = station_matches_whole_run(&p, &[spec], &runner, &format!("spec#{i}"));
        assert!(station.is_some());
        let (count, bytes) = (p.stations.count(), p.stations.owned_bytes());
        assert!(bytes <= MAX_STATIONS, "{bytes} bytes in {count} stations");
        assert!(count >= 2, "{count} stations");
        assert!(
            (count as u64) < grid_points / 2,
            "{count} of {grid_points} grid points: no thinning"
        );
    }
    let mid = FaultSpec { timing: FaultTiming::Instructions(p.stage_events[4] / 3), ..late };
    station_matches_whole_run(&p, &[mid, late], &runner, "two faults");
}

/// A seeded sample of faults of every kind on every small guest, on every
/// injection model: each station fork matches its whole run.
#[test]
fn stations_match_whole_runs_on_every_small_guest() {
    for (g, w) in workloads(Scale::Small).into_iter().enumerate() {
        let p = prepare_workload(w.as_ref()).expect("prepares");
        let mut sampler = FaultSampler::new(0x5ea7_0000 + g as u64, p.stage_events, 0, 0);
        let specs: Vec<FaultSpec> = (0..3)
            .map(|i| match i {
                0 => sampler.sample_any(),
                1 => sampler.sample_cache(gemfi::CacheLevel::L1D),
                _ => sampler.sample_security(),
            })
            .collect();
        for model in MODELS {
            let runner = RunnerConfig { inject_cpu: model, ..RunnerConfig::default() };
            for (i, spec) in specs.iter().enumerate() {
                let tag = format!("{} {model} spec#{i} {spec}", w.name());
                station_matches_whole_run(&p, &[*spec], &runner, &tag);
            }
        }
    }
}

/// A spool workstation runs from its own copy of the campaign checkpoint.
/// A byte round-tripped copy has the prepared checkpoint's digest, so it
/// forks the prepared workload's stations, and the fork matches a whole run
/// from the copy on every model. A checkpoint with another digest restores
/// whole.
#[test]
fn a_local_checkpoint_copy_forks_stations_and_another_checkpoint_does_not() {
    let w = MonteCarloPi { points: 120, init_spins: 60, ..MonteCarloPi::default() };
    let p = prepare_workload(&w).expect("prepares");
    let copy = Checkpoint::from_bytes(&p.checkpoint.to_bytes()).expect("round-trips");
    let mid_kernel = specs_for(&p)[1];
    // The same guest booted through a longer boot spin: another digest.
    let mut config = workload_machine_config(CpuKind::Atomic);
    config.boot_spin = 1_000;
    let mut machine = Machine::boot(config, &p.guest.program, NoopHooks).expect("boots");
    assert_eq!(machine.run(), RunExit::CheckpointRequest);
    let other = machine.checkpoint();
    assert_ne!(other.digest(), p.checkpoint.digest());
    for model in MODELS {
        // A fine chunk puts stations ahead of the fault, as in `conformance`.
        let runner = RunnerConfig { inject_cpu: model, chunk: 2_000, ..RunnerConfig::default() };
        let tag = format!("{model} local copy");
        let run = drive_experiment(&copy, &p, &[mid_kernel], &runner, &AbortToken::new());
        assert!(run.station.is_some(), "{tag}: the copy forks a station");
        let (whole, exit, aborted) =
            drive_whole_run(&copy, &p, &[mid_kernel], &runner, &AbortToken::new());
        assert_eq!(run.drove, (exit, aborted), "{tag}: exit differs");
        assert_same_machine(&run.machine, &whole, &tag);
        let run = drive_experiment(&other, &p, &[mid_kernel], &runner, &AbortToken::new());
        assert_eq!(run.station, None, "{model}: another checkpoint restores whole");
    }
}
