//! The cross-model ledger, first step: how often the injection model alone
//! changes an experiment's outcome.
//!
//! The paper injects on O3 and finishes on Atomic (Sec. IV-B). A fixed
//! sample of `IntReg`, `FpReg`, `Pc` and `Mem` specs on each Small guest
//! runs three times, with `inject_cpu` O3, InOrder and Atomic (`finish_cpu`
//! Atomic in all three), and the test pins:
//!
//! * InOrder's outcome equals Atomic's on every spec: the two in-order
//!   models run every instruction through the same shared semantics, so
//!   nothing but a different dynamic event could part them (on this sample
//!   that holds for `Mem` specs too);
//! * how many outcomes O3 changes, per guest and location class. O3 reads
//!   register operands at dispatch, so a register fault misses the readers
//!   already in flight and a younger writer already renamed can erase it
//!   (DESIGN §10); `Mem` faults also land on a different dynamic access
//!   when wrong-path loads and stores count;
//! * one hand-checked pi `Mem` case whose injection records agree on every
//!   model while O3 alone classifies it differently.
//!
//! Every count is today's; a change that moves one on purpose re-pins it
//! and says why (ROADMAP item 13 explains each divergence).

use gemfi::{
    FaultBehavior, FaultLocation, FaultSpec, FaultTiming, InjectionRecord, MemTarget, Outcome,
};
use gemfi_bench::{workloads, Scale};
use gemfi_campaign::runner::{prepare_workload, run_experiment, RunnerConfig};
use gemfi_campaign::{FaultSampler, LocationClass};
use gemfi_cpu::CpuKind;
use gemfi_workloads::Workload;

/// The sampled classes, in the order of the pinned counts.
const CLASSES: [LocationClass; 4] =
    [LocationClass::IntReg, LocationClass::FpReg, LocationClass::Pc, LocationClass::Mem];

/// Specs drawn per guest and class.
const PER_CLASS: usize = 10;

/// The sampler seed.
const SEED: u64 = 13;

/// The outcome of `spec` on `workload` with `inject` around the fault.
fn run_on(
    prepared: &gemfi_campaign::PreparedWorkload,
    workload: &dyn Workload,
    spec: FaultSpec,
    inject: CpuKind,
) -> (Outcome, Vec<InjectionRecord>) {
    let config = RunnerConfig { inject_cpu: inject, ..RunnerConfig::default() };
    let r = run_experiment(prepared, workload, spec, &config);
    (r.outcome, r.injections)
}

/// Per guest, in `CLASSES` order, how many of the `PER_CLASS` outcomes
/// O3 changes against Atomic.
const O3_DIVERGENCE: [(&str, [u32; 4]); 6] = [
    ("dct", [4, 0, 0, 0]),
    ("jacobi", [0, 0, 0, 1]),
    ("pi", [0, 0, 0, 0]),
    ("knapsack", [3, 0, 0, 3]),
    ("deblock", [3, 0, 0, 1]),
    ("canneal", [1, 0, 0, 4]),
];

#[test]
fn o3_divergence_from_the_in_order_models_is_pinned() {
    let guests = workloads(Scale::Small);
    assert_eq!(guests.len(), O3_DIVERGENCE.len());
    for (workload, (name, want)) in guests.iter().zip(O3_DIVERGENCE) {
        assert_eq!(workload.name(), name);
        let workload = workload.as_ref();
        let prepared = prepare_workload(workload).expect("prepares");
        let mut sampler = FaultSampler::new(SEED, prepared.stage_events, 0, 0);
        let mut got = [0; 4];
        for (class, count) in CLASSES.iter().zip(&mut got) {
            for _ in 0..PER_CLASS {
                let spec = sampler.sample(*class);
                let (atomic, _) = run_on(&prepared, workload, spec, CpuKind::Atomic);
                let (inorder, _) = run_on(&prepared, workload, spec, CpuKind::InOrder);
                // `Mem` specs agree too, on this sample.
                assert_eq!(inorder, atomic, "{name} {spec:?}: InOrder against Atomic");
                let (o3, _) = run_on(&prepared, workload, spec, CpuKind::O3);
                *count += u32::from(o3 != atomic);
            }
        }
        assert_eq!(got, want, "{name}: O3 outcomes that differ from Atomic's, per class");
    }
}

/// `r` without its tick: the models reach the same event at different
/// ticks.
fn untimed(r: &InjectionRecord) -> InjectionRecord {
    InjectionRecord { tick: 0, ..r.clone() }
}

/// The first load of pi's kernel, bit 60 flipped: every model records the
/// same PC and the same before and after values, and the in-order models
/// classify the run `Sdc` while O3 classifies it `StrictlyCorrect`.
/// Unexplained until the engine records whether the faulted load committed,
/// squashed or replayed (ROADMAP item 10).
#[test]
fn a_pi_mem_fault_with_identical_records_classifies_differently_on_o3() {
    let guests = workloads(Scale::Small);
    let workload = guests[2].as_ref();
    assert_eq!(workload.name(), "pi");
    let prepared = prepare_workload(workload).expect("prepares");
    let spec = FaultSpec {
        location: FaultLocation::Mem { core: 0, target: MemTarget::Load },
        thread: 0,
        timing: FaultTiming::Instructions(4),
        behavior: FaultBehavior::Flip(60),
        occurrences: 1,
    };
    let (atomic, atomic_records) = run_on(&prepared, workload, spec, CpuKind::Atomic);
    assert_eq!(atomic, Outcome::Sdc);
    let untimed_atomic: Vec<_> = atomic_records.iter().map(untimed).collect();
    assert_eq!(untimed_atomic.len(), 1);
    for (cpu, want) in [(CpuKind::InOrder, Outcome::Sdc), (CpuKind::O3, Outcome::StrictlyCorrect)] {
        let (outcome, records) = run_on(&prepared, workload, spec, cpu);
        let records: Vec<_> = records.iter().map(untimed).collect();
        assert_eq!(records, untimed_atomic, "{cpu}: the same load, the same flip");
        assert_eq!(outcome, want, "{cpu}");
    }
}
