//! Fork-at-injection: shared-prefix campaign execution.
//!
//! Every experiment in a campaign replays an identical fault-free
//! instruction stream from the checkpoint up to its injection point; with
//! CoW restores and dormancy elision landed, that redundant prefix is the
//! dominant cost of a campaign. This module removes it: one *trunk*
//! machine sprints along the fault-free path, and each experiment forks a
//! warm machine ([`gemfi_sim::Machine::fork_with`]) shortly before its
//! fault can fire, running only its divergent *suffix*. Campaign cost
//! becomes O(run-length + Σ suffixes) instead of O(experiments ×
//! run-length).
//!
//! # Why the results are bit-identical
//!
//! Three facts compose into the conformance guarantee that
//! `tests/fork_prefix_conformance.rs` pins:
//!
//! 1. **The trunk is state-identical to any experiment's prefix.** Before
//!    a spec's window opens, queue scans never mutate the engine, and the
//!    per-event hooks are value-preserving; so a fault-free engine and an
//!    engine carrying the not-yet-armed spec drive the machine through the
//!    exact same tick stream. [`gemfi::GemFiEngine::fork_with_faults`]
//!    then reconstructs the carried engine's state at the fork point from
//!    the trunk's.
//! 2. **A fork is warm.** [`gemfi_sim::Machine::fork_with`] keeps the
//!    pipeline, branch predictor, tick clock and preempt phase, so the
//!    fork's future tick stream is the trunk's (only the tick-invisible
//!    predecode cache drops, per the never-serialized contract).
//! 3. **The drive loop's decisions are tick-aligned.** Pre-switch
//!    scheduling boundaries are anchored to the *checkpoint* tick (see
//!    `runner::next_boundary`), so a suffix polls `pending_faults()` at
//!    the same absolute ticks a whole run does and switches CPU models at
//!    the identical tick.
//!
//! The planner is a sweep. At every trunk stop it asks
//! [`gemfi::GemFiEngine::arming`] (the engine's one arming rule; a lower
//! bound until the spec's thread activates) how far each unplanned spec is
//! from firing, forks the ones within a slack margin, and advances the
//! trunk by the smallest remaining safe distance, so no spec's window is
//! ever passed. A spec armed at the checkpoint, or one the trunk outlives,
//! falls back to a plain whole-run restore — a perf penalty, never a wrong
//! answer.

use crate::runner::{
    build_machine, drive_to_completion, finish_result, ExperimentResult, PreparedWorkload,
    RunnerConfig, Source,
};
use gemfi::{AbortToken, FaultSpec, GemFiEngine};
use gemfi_cpu::Dormancy;
use gemfi_sim::{Machine, RunExit};
use gemfi_workloads::Workload;

/// Upper bound on matching stage events the guest can serve per tick, used
/// to convert an event-distance into a safe tick advance. Deliberately
/// generous: it only makes the trunk stop more often on its way to a fork.
/// A guest that outran it would leave its spec armed at the next stop,
/// which the planner replays whole rather than fork late.
pub const MAX_EVENTS_PER_TICK: u64 = 16;

/// Fork-at-injection tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForkConfig {
    /// Safety margin, in stage events / ticks, kept between the fork point
    /// and the earliest point the fault could fire. Larger values fork
    /// earlier (longer suffixes); smaller values fork later, at the cost of
    /// more trunk stops on the way.
    pub slack: u64,
}

impl Default for ForkConfig {
    fn default() -> ForkConfig {
        ForkConfig { slack: 512 }
    }
}

/// One experiment's planned execution: a machine positioned at its fork
/// point (or at the checkpoint, for whole-run fallbacks), ready to drive.
#[derive(Debug)]
pub struct ForkedSuffix {
    /// Index of the experiment in the campaign's spec list.
    pub index: usize,
    /// Trunk tick the suffix forked at; `None` for a whole-run fallback
    /// (the spec was armed at the checkpoint, or the trunk terminated
    /// before it).
    pub forked_at: Option<u64>,
    /// The machine to drive: engine loaded with exactly this experiment's
    /// fault, elision configured, watchdog installed.
    pub machine: Machine<GemFiEngine>,
}

/// How far (in safe trunk ticks) a spec is from needing its fork, given its
/// [`GemFiEngine::arming`] distance and a slack margin. `0` means fork now;
/// `u64::MAX` means the spec can never fire and may fork anywhere.
fn safe_advance(distance: Dormancy, slack: u64) -> u64 {
    match distance {
        Dormancy::Active => 0,
        Dormancy::Dormant => u64::MAX,
        Dormancy::Quiet { events, ticks } => {
            let by_events = if events == u64::MAX {
                u64::MAX
            } else {
                events.saturating_sub(slack) / MAX_EVENTS_PER_TICK
            };
            let by_ticks = if ticks == u64::MAX { u64::MAX } else { ticks.saturating_sub(slack) };
            by_events.min(by_ticks)
        }
    }
}

/// Plans the campaign: sweeps one fault-free trunk along the shared
/// prefix, forking each experiment's suffix shortly before its fault can
/// fire. At every trunk stop each unplanned spec is re-checked: one whose
/// `safe_advance` is `0` (or `u64::MAX`) forks there, and the trunk then
/// advances by the smallest remaining `safe_advance`. Each is a lower bound
/// on its spec's distance, so the trunk never passes a spec's fork window.
/// A spec already armed at the checkpoint, or still pending when the trunk
/// terminates, falls back to a whole-run restore, built exactly as
/// [`crate::runner::drive_whole_run`] builds its machine.
///
/// The returned suffixes are in trunk-stop sequence (by experiment index
/// within one stop); each carries its original experiment `index`.
pub fn plan_suffixes(
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    fork: &ForkConfig,
) -> Vec<ForkedSuffix> {
    let checkpoint = Source::Checkpoint(&prepared.checkpoint);
    let mut trunk = build_machine(checkpoint, prepared, &[], runner);
    let mut out = Vec::with_capacity(specs.len());
    let mut pending: Vec<usize> = (0..specs.len()).collect();
    while !pending.is_empty() {
        let now = trunk.tick();
        let mut step = u64::MAX;
        pending.retain(|&index| {
            let distance = trunk.hooks().arming(0, now, &specs[index]);
            let advance = safe_advance(distance, fork.slack);
            let (source, forked_at) = if distance == Dormancy::Active {
                // Armed before the trunk could fork it: replay it whole.
                (checkpoint, None)
            } else if advance == 0 || advance == u64::MAX {
                // Close enough to fork — or unreachable (`MAX`), in which
                // case the fault is frozen and any fork point is exact.
                (Source::Trunk(&trunk), Some(now))
            } else {
                step = step.min(advance);
                return true;
            };
            let machine = build_machine(source, prepared, &[specs[index]], runner);
            out.push(ForkedSuffix { index, forked_at, machine });
            false
        });
        if !pending.is_empty() && trunk.run_to_tick(now.saturating_add(step)).is_some() {
            // The trunk terminated before these specs' injection points:
            // they replay whole.
            for index in pending.drain(..) {
                let machine = build_machine(checkpoint, prepared, &[specs[index]], runner);
                out.push(ForkedSuffix { index, forked_at: None, machine });
            }
        }
    }
    out
}

/// Drives one planned suffix to completion under `abort`, exactly like the
/// whole-run path: same drive loop, same checkpoint-anchored scheduling
/// grid. Returns the terminal exit and whether the abort cut it short.
pub fn drive_suffix(
    suffix: &mut ForkedSuffix,
    prepared: &PreparedWorkload,
    runner: &RunnerConfig,
    abort: &AbortToken,
) -> (RunExit, bool) {
    let origin = prepared.checkpoint.tick();
    drive_to_completion(&mut suffix.machine, runner, abort, origin)
}

/// Runs a whole campaign fork-at-injection style: plan, then drive and
/// classify each suffix in turn. Results come back indexed like `specs` and
/// are element-wise equivalent to running [`crate::runner::run_experiment`]
/// per spec — bit-identical machine states included, which
/// `tests/fork_prefix_conformance.rs` enforces.
pub fn run_campaign_forked(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    fork: &ForkConfig,
) -> Vec<ExperimentResult> {
    let origin = prepared.checkpoint.tick();
    let mut results: Vec<Option<ExperimentResult>> = specs.iter().map(|_| None).collect();
    for mut s in plan_suffixes(prepared, specs, runner, fork) {
        let drove = drive_suffix(&mut s, prepared, runner, &AbortToken::new());
        let spec = specs[s.index];
        results[s.index] = Some(finish_result(&s.machine, origin, prepared, workload, spec, drove));
    }
    results.into_iter().map(|r| r.expect("every planned experiment was driven")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{prepare_workload, run_experiment};
    use gemfi::{FaultBehavior, FaultLocation, FaultTiming, MemTarget};
    use gemfi_workloads::jacobi::Jacobi;
    use gemfi_workloads::pi::MonteCarloPi;

    fn small_pi() -> MonteCarloPi {
        MonteCarloPi { points: 120, init_spins: 60, ..MonteCarloPi::default() }
    }

    fn late_fp_flip(p: &crate::runner::PreparedWorkload, offset: u64) -> FaultSpec {
        FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(p.stage_events[4].saturating_sub(offset)),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        }
    }

    fn assert_forked_campaign_matches_whole_runs(
        p: &PreparedWorkload,
        w: &dyn Workload,
        specs: &[FaultSpec],
    ) {
        let runner = RunnerConfig::default();
        let forked = run_campaign_forked(p, w, specs, &runner, &ForkConfig::default());
        assert_eq!(forked.len(), specs.len());
        for (spec, got) in specs.iter().zip(&forked) {
            let whole = run_experiment(p, w, *spec, &runner);
            assert_eq!(got.outcome, whole.outcome);
            assert_eq!(got.exit, whole.exit);
            assert_eq!(got.ticks, whole.ticks);
            assert_eq!(got.injections, whole.injections);
            assert_eq!(got.output, whole.output);
        }
    }

    #[test]
    fn forked_campaign_matches_whole_runs() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let specs = vec![late_fp_flip(&p, 100), late_fp_flip(&p, 400), late_fp_flip(&p, 50)];
        assert_forked_campaign_matches_whole_runs(&p, &w, &specs);
    }

    #[test]
    fn a_later_counted_spec_that_fires_first_still_forks() {
        // Stages advance at different rates per tick: this memory-stage
        // spec has the smaller count, but the register-stage spec fires
        // thousands of ticks earlier. Both must fork off the trunk.
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
        let planned = plan_suffixes(&p, &specs, &RunnerConfig::default(), &ForkConfig::default());
        for s in &planned {
            assert!(s.forked_at.is_some(), "spec #{} must fork, not replay whole", s.index);
        }
        assert_forked_campaign_matches_whole_runs(&p, &w, &specs);
    }

    #[test]
    fn specs_past_the_trunks_end_fall_back_to_whole_runs() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        // More committed instructions than the kernel has: the trunk halts
        // before the spec's fork point.
        let spec = FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 1 },
            thread: 0,
            timing: FaultTiming::Instructions(p.stage_events[4] + 10_000),
            behavior: FaultBehavior::Flip(3),
            occurrences: 1,
        };
        let planned = plan_suffixes(&p, &[spec], &RunnerConfig::default(), &ForkConfig::default());
        assert_eq!(planned.len(), 1);
        assert_eq!(planned[0].forked_at, None, "a spec the trunk never reaches replays whole");
        assert_forked_campaign_matches_whole_runs(&p, &w, &[spec]);
    }

    #[test]
    fn late_faults_actually_fork() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let runner = RunnerConfig::default();
        let specs = vec![late_fp_flip(&p, 60), late_fp_flip(&p, 200)];
        let planned = plan_suffixes(&p, &specs, &runner, &ForkConfig::default());
        assert!(
            planned.iter().any(|s| s.forked_at.is_some()),
            "late faults must fork, not fall back"
        );
        for s in planned.iter().filter(|s| s.forked_at.is_some()) {
            assert!(s.forked_at.unwrap() > p.checkpoint.tick(), "fork lies past the checkpoint");
        }
    }

    #[test]
    fn armed_spec_falls_back_to_a_whole_run() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let runner = RunnerConfig::default();
        // Inst:0 is armed the moment its thread activates: never forkable.
        let spec = FaultSpec {
            location: FaultLocation::FpReg { core: 0, reg: 20 },
            thread: 0,
            timing: FaultTiming::Instructions(0),
            behavior: FaultBehavior::Flip(40),
            occurrences: 1,
        };
        let planned = plan_suffixes(&p, &[spec], &runner, &ForkConfig::default());
        assert_eq!(planned.len(), 1);
        assert_eq!(planned[0].forked_at, None, "armed spec must replay whole");
        let results = run_campaign_forked(&p, &w, &[spec], &runner, &ForkConfig::default());
        let whole = run_experiment(&p, &w, spec, &runner);
        assert_eq!(results[0].outcome, whole.outcome);
        assert_eq!(results[0].ticks, whole.ticks);
    }
}
