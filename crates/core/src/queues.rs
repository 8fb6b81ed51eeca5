//! The five per-pipeline-stage fault queues (Sec. III-C).
//!
//! "The file is parsed at startup and each fault is inserted to one of five
//! internal queues. Each queue corresponds to a different pipeline stage.
//! […] Queue entries are sorted according to the timing of each fault."
//!
//! When a queued spec arms is [`FaultSpec::arming`]'s answer; a scan only
//! adds what happens once it is armed (fire, or expire).

use crate::spec::{FaultSpec, FaultTiming, Stage};
use gemfi_cpu::Dormancy;

/// A queued fault plus its firing bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedFault {
    /// The spec as parsed.
    pub spec: FaultSpec,
    /// How many times it has fired so far.
    pub fired: u64,
}

/// The firing decision for one stage event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Match {
    /// Event is before the fault's window.
    NotYet,
    /// Fire on this event.
    Fire,
    /// The fault can no longer fire; drop it.
    Expired,
}

/// A spec is `NotYet` until [`FaultSpec::arming`] answers `Active`. Armed
/// instruction-timed faults fire on the next `occurrences` *matching* events
/// (a load-value fault whose index lands on a store must fire on the
/// following load, not expire). Tick-timed faults keep strict window
/// semantics: "active for the next N simulation cycles".
fn classify(spec: &FaultSpec, fired: u64, stage_count: u64, ticks_since: u64) -> Match {
    if spec.arming(stage_count, ticks_since) != Dormancy::Active {
        return Match::NotYet;
    }
    let in_window = match spec.timing {
        FaultTiming::Instructions(_) => true,
        FaultTiming::Ticks(_) => ticks_since < spec.window().1,
    };
    if in_window && fired < spec.occurrences {
        Match::Fire
    } else {
        Match::Expired
    }
}

/// The five stage queues.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StageQueues {
    queues: [Vec<QueuedFault>; 5],
}

impl StageQueues {
    /// Builds the queues from parsed faults, each sorted by fault time.
    pub fn from_faults(faults: &[FaultSpec]) -> StageQueues {
        let mut queues: [Vec<QueuedFault>; 5] = Default::default();
        for spec in faults {
            queues[spec.stage().index()].push(QueuedFault { spec: *spec, fired: 0 });
        }
        for q in &mut queues {
            q.sort_by_key(|f| f.spec.window().0);
        }
        StageQueues { queues }
    }

    /// Total faults still queued (not yet expired/exhausted).
    pub fn pending(&self) -> usize {
        self.queues.iter().map(Vec::len).sum()
    }

    /// Faults pending in one stage queue.
    pub fn pending_in(&self, stage: Stage) -> usize {
        self.queues[stage.index()].len()
    }

    /// All still-queued faults, across every stage. Entries that are past
    /// their window but not yet lazily removed by [`StageQueues::scan`] are
    /// included — horizon computation must treat them as imminently
    /// observable, not prune them (a deactivate/re-activate cycle resets a
    /// thread's activation age, which can bring an "expired" tick window
    /// back into reach).
    pub fn iter(&self) -> impl Iterator<Item = &QueuedFault> {
        self.queues.iter().flatten()
    }

    /// Scans `stage`'s queue for faults that fire for a thread whose
    /// stage-served count is `stage_count` and whose activation age is
    /// `ticks_since`, restricted to `thread` and `core`. Fired faults are
    /// passed to `fire`; exhausted and expired entries are removed.
    ///
    /// An extra `filter` narrows matching within a stage (e.g. load vs store
    /// memory faults); it sees each candidate spec.
    #[allow(clippy::too_many_arguments)]
    pub fn scan(
        &mut self,
        stage: Stage,
        core: usize,
        thread: u32,
        stage_count: u64,
        ticks_since: u64,
        mut filter: impl FnMut(&FaultSpec) -> bool,
        mut fire: impl FnMut(&FaultSpec),
    ) {
        let q = &mut self.queues[stage.index()];
        let mut i = 0;
        while i < q.len() {
            let entry = &mut q[i];
            if entry.spec.thread != thread
                || entry.spec.location.core() != core
                || !filter(&entry.spec)
            {
                i += 1;
                continue;
            }
            match classify(&entry.spec, entry.fired, stage_count, ticks_since) {
                Match::NotYet => {
                    // Queues are sorted by start time, but different timing
                    // units (Inst vs Tick) interleave, so keep scanning.
                    i += 1;
                }
                Match::Fire => {
                    entry.fired += 1;
                    let spec = entry.spec;
                    // One-shot specs (cache faults) retire on their first
                    // fire: `occurrences` governs the planted lesion's
                    // lifetime, not how often the spec re-fires.
                    let exhausted = entry.fired >= entry.spec.occurrences || spec.is_one_shot();
                    if exhausted {
                        q.remove(i);
                    } else {
                        i += 1;
                    }
                    fire(&spec);
                }
                Match::Expired => {
                    q.remove(i);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{FaultBehavior, FaultLocation, OCC_PERMANENT};

    fn exec_fault(at: u64, occ: u64) -> FaultSpec {
        FaultSpec {
            location: FaultLocation::Execute { core: 0 },
            thread: 0,
            timing: FaultTiming::Instructions(at),
            behavior: FaultBehavior::Flip(0),
            occurrences: occ,
        }
    }

    fn fired_at(q: &mut StageQueues, count: u64) -> usize {
        let mut n = 0;
        q.scan(Stage::Execute, 0, 0, count, 0, |_| true, |_| n += 1);
        n
    }

    #[test]
    fn transient_fires_exactly_once_at_its_time() {
        let mut q = StageQueues::from_faults(&[exec_fault(5, 1)]);
        assert_eq!(fired_at(&mut q, 4), 0);
        assert_eq!(fired_at(&mut q, 5), 1);
        assert_eq!(q.pending(), 0);
        assert_eq!(fired_at(&mut q, 6), 0);
    }

    #[test]
    fn intermittent_fires_for_its_window() {
        let mut q = StageQueues::from_faults(&[exec_fault(10, 3)]);
        assert_eq!(fired_at(&mut q, 10), 1);
        assert_eq!(fired_at(&mut q, 11), 1);
        assert_eq!(fired_at(&mut q, 12), 1);
        assert_eq!(fired_at(&mut q, 13), 0);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn permanent_fault_keeps_firing() {
        let mut q = StageQueues::from_faults(&[exec_fault(2, OCC_PERMANENT)]);
        for count in 2..100 {
            assert_eq!(fired_at(&mut q, count), 1, "count {count}");
        }
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn armed_fault_fires_on_next_matching_event() {
        // A fault whose exact event index was filtered away (e.g. a
        // load-value fault scheduled on a store event) fires on the next
        // matching event instead of expiring.
        let mut q = StageQueues::from_faults(&[exec_fault(5, 1)]);
        assert_eq!(fired_at(&mut q, 50), 1);
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn tick_windows_do_expire() {
        let spec = FaultSpec { timing: FaultTiming::Ticks(10), ..exec_fault(0, 2) };
        let mut q = StageQueues::from_faults(&[spec]);
        let mut n = 0;
        q.scan(Stage::Execute, 0, 0, 1, 50, |_| true, |_| n += 1);
        assert_eq!(n, 0, "past the tick window: no late fire");
        assert_eq!(q.pending(), 0);
    }

    #[test]
    fn thread_and_core_must_match() {
        let mut q = StageQueues::from_faults(&[exec_fault(1, 1)]);
        let mut n = 0;
        q.scan(Stage::Execute, 0, 9, 1, 0, |_| true, |_| n += 1); // wrong thread
        q.scan(Stage::Execute, 3, 0, 1, 0, |_| true, |_| n += 1); // wrong core
        assert_eq!(n, 0);
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn tick_based_faults_use_activation_age() {
        let spec = FaultSpec { timing: FaultTiming::Ticks(100), ..exec_fault(0, 1) };
        let mut q = StageQueues::from_faults(&[spec]);
        let mut n = 0;
        q.scan(Stage::Execute, 0, 0, 999, 99, |_| true, |_| n += 1);
        assert_eq!(n, 0, "too early in ticks");
        q.scan(Stage::Execute, 0, 0, 1000, 100, |_| true, |_| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn scan_fires_exactly_when_the_arming_rule_answers_active() {
        let points = [0, 4, 5, 6, 50];
        for timing in [FaultTiming::Instructions(5), FaultTiming::Ticks(5)] {
            let spec = FaultSpec { timing, ..exec_fault(0, OCC_PERMANENT) };
            for count in points {
                for ticks in points {
                    let mut q = StageQueues::from_faults(&[spec]);
                    let mut n = 0;
                    q.scan(Stage::Execute, 0, 0, count, ticks, |_| true, |_| n += 1);
                    let armed = spec.arming(count, ticks) == Dormancy::Active;
                    assert_eq!(n == 1, armed, "{timing} at count {count}, ticks {ticks}");
                }
            }
        }
        let inst = exec_fault(5, 1);
        assert_eq!(inst.arming(4, 50), Dormancy::Quiet { events: 1, ticks: u64::MAX });
        let tick = FaultSpec { timing: FaultTiming::Ticks(5), ..inst };
        assert_eq!(tick.arming(50, 4), Dormancy::Quiet { events: u64::MAX, ticks: 1 });
    }

    #[test]
    fn multiple_faults_same_event_all_fire() {
        // "Multiple bit flips are supported by injecting multiple faults on
        // the same module."
        let mut q = StageQueues::from_faults(&[exec_fault(5, 1), exec_fault(5, 1)]);
        assert_eq!(fired_at(&mut q, 5), 2);
    }

    #[test]
    fn queues_route_by_stage() {
        let reg =
            FaultSpec { location: FaultLocation::IntReg { core: 0, reg: 1 }, ..exec_fault(1, 1) };
        let q = StageQueues::from_faults(&[exec_fault(1, 1), reg]);
        assert_eq!(q.pending_in(Stage::Execute), 1);
        assert_eq!(q.pending_in(Stage::Register), 1);
        assert_eq!(q.pending_in(Stage::Fetch), 0);
    }
}
