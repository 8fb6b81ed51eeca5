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
//! The planner is conservative where it cannot be exact: fork distance is
//! derived from [`gemfi::FireDistance`] lower bounds with a slack margin,
//! and any spec found already armed (the trunk overshot its window) falls
//! back to a plain whole-run restore — a perf penalty, never a wrong
//! answer.

use crate::runner::{
    build_machine, drive_to_completion, finish_result, unobserved, ExperimentResult,
    PreparedWorkload, RunnerConfig, Source,
};
use gemfi::{AbortToken, FaultSpec, FireDistance, GemFiEngine};
use gemfi_sim::{Machine, RunExit};
use gemfi_workloads::Workload;
use std::sync::Mutex;

/// Upper bound on matching stage events the guest can serve per tick, used
/// to convert an event-distance into a safe tick advance. Deliberately
/// generous — underestimating the rate only forks earlier than necessary,
/// and even a violation is caught (the planner re-checks after every
/// advance and falls back to a whole run on overshoot).
pub const MAX_EVENTS_PER_TICK: u64 = 16;

/// Fork-at-injection tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ForkConfig {
    /// Worker threads driving forked suffixes. `<= 1` runs sequentially on
    /// the caller's thread (the bench's like-for-like ablation mode).
    pub workers: usize,
    /// Safety margin, in stage events / ticks, kept between the fork point
    /// and the earliest point the fault could fire. Larger values fork
    /// earlier (longer suffixes); smaller values risk overshoot fallbacks.
    pub slack: u64,
}

impl Default for ForkConfig {
    fn default() -> ForkConfig {
        ForkConfig { workers: 1, slack: 512 }
    }
}

/// One experiment's planned execution: a machine positioned at its fork
/// point (or at the checkpoint, for whole-run fallbacks), ready to drive.
#[derive(Debug)]
pub struct ForkedSuffix {
    /// Index of the experiment in the campaign's spec list.
    pub index: usize,
    /// Trunk tick the suffix forked at; `None` for a whole-run fallback
    /// (armed-at-plan-time overshoot, or the trunk terminated first).
    pub forked_at: Option<u64>,
    /// The machine to drive: engine loaded with exactly this experiment's
    /// fault, elision configured, watchdog installed.
    pub machine: Machine<GemFiEngine>,
}

/// How far (in safe trunk ticks) a spec is from needing its fork, given a
/// [`FireDistance`] and a slack margin. `0` means fork now; `u64::MAX`
/// means the spec can never fire and may fork anywhere.
fn safe_advance(distance: FireDistance, slack: u64) -> u64 {
    match distance {
        FireDistance::Armed => 0,
        FireDistance::Quiet { events, ticks } => {
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

/// Plans the campaign: sprints one fault-free trunk along the shared
/// prefix, forking each experiment's suffix shortly before its fault can
/// fire. Experiments are visited in ascending estimated injection order so
/// the trunk only ever moves forward; specs the trunk overshot (or that
/// outlive it) fall back to whole-run restores, built exactly as
/// [`crate::runner::drive_whole_run`] builds its machine.
///
/// The returned suffixes are in planning (injection) order; each carries
/// its original experiment `index`.
pub fn plan_suffixes(
    prepared: &PreparedWorkload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    fork: &ForkConfig,
) -> Vec<ForkedSuffix> {
    let checkpoint = Source::Checkpoint(&prepared.checkpoint);
    let mut trunk = build_machine(checkpoint, prepared, &[], runner);

    // Injection-order heuristic only: a bad estimate costs an overshoot
    // fallback, never a wrong result.
    let mut order: Vec<usize> = (0..specs.len()).collect();
    let t0 = trunk.tick();
    order.sort_by_key(|&i| safe_advance(trunk.hooks().fire_distance(0, t0, &specs[i]), 0));

    let mut out = Vec::with_capacity(specs.len());
    let mut trunk_done = false;
    for index in order {
        let spec = specs[index];
        let forked_at = loop {
            if trunk_done {
                break None;
            }
            let now = trunk.tick();
            let distance = trunk.hooks().fire_distance(0, now, &spec);
            if distance == FireDistance::Armed {
                // Overshot this spec's window (ordering estimate was off, or
                // the spec was armed from the start): replay it whole.
                break None;
            }
            let advance = safe_advance(distance, fork.slack);
            if advance == 0 || advance == u64::MAX {
                // Close enough to fork — or unreachable (`MAX`), in which
                // case the fault is frozen and any fork point is exact.
                break Some(now);
            }
            if trunk.run_to_tick(now.saturating_add(advance)).is_some() {
                // The trunk terminated before this spec's injection point;
                // it and everything later replays whole.
                trunk_done = true;
            }
        };
        let source = if forked_at.is_some() { Source::Trunk(&trunk) } else { checkpoint };
        let machine = build_machine(source, prepared, &[spec], runner);
        out.push(ForkedSuffix { index, forked_at, machine });
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
    drive_to_completion(&mut suffix.machine, runner, abort, origin, &mut unobserved)
}

/// Runs a whole campaign fork-at-injection style: plan, drive (optionally
/// across [`ForkConfig::workers`] threads), classify. Results come back in
/// experiment order and are element-wise equivalent to running
/// [`crate::runner::run_experiment`] per spec — bit-identical machine
/// states included, which `tests/fork_prefix_conformance.rs` enforces.
pub fn run_campaign_forked(
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    specs: &[FaultSpec],
    runner: &RunnerConfig,
    fork: &ForkConfig,
) -> Vec<ExperimentResult> {
    let suffixes = plan_suffixes(prepared, specs, runner, fork);
    let drive_one = |mut s: ForkedSuffix| {
        let drove = drive_suffix(&mut s, prepared, runner, &AbortToken::new());
        (s, drove)
    };
    let driven: Vec<(ForkedSuffix, (RunExit, bool))> = if fork.workers <= 1 {
        suffixes.into_iter().map(drive_one).collect()
    } else {
        // Fan out over a shared work queue; classification stays on the
        // caller's thread (`&dyn Workload` need not be `Sync`), so workers
        // hand whole machines back.
        let queue = Mutex::new(suffixes);
        let driven = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..fork.workers {
                scope.spawn(|| loop {
                    let next = queue.lock().expect("queue lock").pop();
                    let Some(suffix) = next else { break };
                    let done = drive_one(suffix);
                    driven.lock().expect("result lock").push(done);
                });
            }
        });
        driven.into_inner().expect("workers joined")
    };

    // Classify and restore experiment order.
    let origin = prepared.checkpoint.tick();
    let mut results: Vec<Option<ExperimentResult>> = specs.iter().map(|_| None).collect();
    for (s, drove) in driven {
        let spec = specs[s.index];
        results[s.index] =
            Some(finish_result(&s.machine, origin, prepared, workload, spec, drove, None));
    }
    results.into_iter().map(|r| r.expect("every planned experiment was driven")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{prepare_workload, run_experiment};
    use gemfi::{FaultBehavior, FaultLocation, FaultTiming};
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

    #[test]
    fn forked_campaign_matches_whole_runs() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let runner = RunnerConfig::default();
        let specs = vec![late_fp_flip(&p, 100), late_fp_flip(&p, 400), late_fp_flip(&p, 50)];
        let forked = run_campaign_forked(&p, &w, &specs, &runner, &ForkConfig::default());
        assert_eq!(forked.len(), specs.len());
        for (spec, got) in specs.iter().zip(&forked) {
            let whole = run_experiment(&p, &w, *spec, &runner);
            assert_eq!(got.outcome, whole.outcome);
            assert_eq!(got.exit, whole.exit);
            assert_eq!(got.ticks, whole.ticks);
            assert_eq!(got.injections, whole.injections);
            assert_eq!(got.output, whole.output);
        }
    }

    #[test]
    fn late_faults_actually_fork_and_parallel_agrees_with_sequential() {
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
        let seq = run_campaign_forked(&p, &w, &specs, &runner, &ForkConfig::default());
        let par =
            run_campaign_forked(&p, &w, &specs, &runner, &ForkConfig { workers: 3, slack: 512 });
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.ticks, b.ticks);
            assert_eq!(a.injections, b.injections);
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
