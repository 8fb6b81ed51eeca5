//! Fork-at-injection conformance (the non-negotiable half of the
//! shared-prefix executor): a forked-suffix run must be *bit-identical* to
//! a whole run of the same experiment — same `RunExit`, same complete
//! [`ArchState`], same every-byte-of-physical-memory, same injection
//! records, same tick and instruction counts.
//!
//! The matrix covers all 4 CPU models as the injection model × dormancy
//! elision on/off × superblock on/off. It also pins the derived-state
//! contract at the fork (the never-serialized rule): the trunk runs with
//! warm predecode and superblock caches, but a fork must come out
//! decode-cold and translation-cold — asserted here rather than trusted.

use gemfi::{AbortToken, FaultBehavior, FaultLocation, FaultSpec, FaultTiming};
use gemfi_campaign::fork::{drive_suffix, plan_suffixes, ForkConfig};
use gemfi_campaign::runner::{drive_whole_run, prepare_workload, RunnerConfig};
use gemfi_campaign::PreparedWorkload;
use gemfi_cpu::CpuKind;
use gemfi_workloads::pi::MonteCarloPi;

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
        // fire-distance planner (and its window-expiry semantics).
        FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 3 },
            thread: 0,
            timing: FaultTiming::Ticks(p.kernel_ticks / 2),
            behavior: FaultBehavior::Flip(5),
            occurrences: 1_000,
        },
        // Cache-line lesion (memory-hierarchy axis): one-shot firing plants
        // persistent damage in the memory system — state that lives outside
        // ArchState, so a forked suffix must plant and apply it exactly as
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
    for (elide, superblock) in [(true, true), (true, false), (false, true), (false, false)] {
        let runner =
            RunnerConfig { inject_cpu: model, elide, superblock, ..RunnerConfig::default() };
        let planned = plan_suffixes(&p, &specs, &runner, &ForkConfig::default());
        assert_eq!(planned.len(), specs.len());
        assert!(
            planned.iter().all(|s| s.forked_at.is_some()),
            "{model} elide={elide} superblock={superblock}: every spec must fork off the trunk"
        );
        for mut suffix in planned {
            let spec = specs[suffix.index];
            let tag = format!(
                "{model} elide={elide} superblock={superblock} spec#{} forked_at={:?}",
                suffix.index, suffix.forked_at
            );
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
            let (fork_exit, fork_aborted) =
                drive_suffix(&mut suffix, &p, &runner, &AbortToken::new());
            let (whole, whole_exit, whole_aborted) =
                drive_whole_run(&p.checkpoint, &p, &[spec], &runner, &AbortToken::new());
            assert!(!fork_aborted && !whole_aborted, "{tag}");
            assert_eq!(fork_exit, whole_exit, "{tag}: exit differs");
            if !superblock {
                // The switch reaches every machine the planner builds.
                assert_eq!(
                    suffix.machine.stats().mem.superblock.uops_executed,
                    0,
                    "{tag}: superblock uops executed with superblocks off"
                );
            }
            assert_eq!(suffix.machine.tick(), whole.tick(), "{tag}: tick differs");
            assert_eq!(suffix.machine.instret(), whole.instret(), "{tag}: instret differs");
            assert_eq!(suffix.machine.arch(), whole.arch(), "{tag}: ArchState differs");
            assert_eq!(
                suffix.machine.hooks().records(),
                whole.hooks().records(),
                "{tag}: injection records differ"
            );
            let size = whole.mem().size() as usize;
            assert!(
                suffix.machine.mem().read_slice(0, size).expect("memory")
                    == whole.mem().read_slice(0, size).expect("memory"),
                "{tag}: physical memory differs"
            );
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
