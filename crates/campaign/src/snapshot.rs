//! Mid-run experiment snapshots: periodic worker-side checkpoints so a
//! crashed worker resumes a long experiment from its last snapshot instead
//! of replaying it from the campaign checkpoint.
//!
//! A snapshot is only captured once the run is past its CPU switch and the
//! engine reports itself fully dormant: at that point every injection
//! record's propagation flags (`consumed`/`overwritten`) are final, so the
//! records can be persisted alongside the machine image and threaded back
//! into classification on resume ([`crate::runner::finish_result`]).
//! Before dormancy the engine still holds live watches that would mutate
//! the records, and a snapshot would freeze them mid-observation.
//!
//! File layout (`expNNNNN.snap`, written atomically via tmp + rename):
//!
//! ```text
//! {"snapshot":"gemfi","version":1,"spec":"...","origin_digest":D,"budget":B,"records":N,"ckpt_len":L}
//! {"tick":..,"stage":..,"thread":..,"pc":..,"before":..,"after":..,"consumed":..,"overwritten":..[,"instr":".."]}
//! ... (N record lines) ...
//! <L raw checkpoint bytes>
//! ```
//!
//! The header pins the fault spec and the *origin* checkpoint digest; a
//! snapshot that does not match the experiment being resumed is discarded
//! and the run starts fresh — stale artifacts degrade to wasted work, never
//! to wrong results.

use crate::runner::{
    experiment, run_experiment_from_with_abort, watchdog_budget, ExperimentResult,
    PreparedWorkload, RunnerConfig, Source,
};
use crate::transport::WorkAssignment;
use crate::wire::{json_escape, parse_flat_object};
use gemfi::{AbortToken, FaultConfig, FaultSpec, GemFiEngine, InjectionRecord, Outcome, Stage};
use gemfi_isa::codec::Codec;
use gemfi_sim::{Checkpoint, Machine};
use gemfi_workloads::Workload;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Snapshot file format version.
pub const SNAPSHOT_VERSION: u64 = 1;

/// When a worker captures mid-run snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Minimum simulated ticks between captures; `0` disables snapshots.
    pub interval_ticks: u64,
}

impl SnapshotPolicy {
    /// No mid-run snapshots (the default: short experiments re-run cheaply).
    pub fn disabled() -> SnapshotPolicy {
        SnapshotPolicy { interval_ticks: 0 }
    }

    /// Capture roughly every `ticks` simulated ticks (first capture once
    /// the run is `ticks` past the campaign checkpoint and dormant).
    pub fn every(ticks: u64) -> SnapshotPolicy {
        SnapshotPolicy { interval_ticks: ticks }
    }

    /// Whether this policy captures at all.
    pub fn enabled(&self) -> bool {
        self.interval_ticks > 0
    }
}

/// A decoded mid-run snapshot.
pub(crate) struct Snapshot {
    pub(crate) spec: String,
    pub(crate) origin_digest: u64,
    pub(crate) budget: u64,
    pub(crate) records: Vec<InjectionRecord>,
    pub(crate) checkpoint: Checkpoint,
}

fn render_record(r: &InjectionRecord) -> String {
    let mut line = format!(
        "{{\"tick\":{},\"stage\":{},\"thread\":{},\"pc\":{},\"before\":{},\"after\":{},\"consumed\":{},\"overwritten\":{}",
        r.tick,
        r.stage.index(),
        r.thread,
        r.pc,
        r.before,
        r.after,
        u64::from(r.consumed),
        u64::from(r.overwritten),
    );
    if let Some(instr) = &r.instr {
        line.push_str(&format!(",\"instr\":\"{}\"", json_escape(instr)));
    }
    line.push('}');
    line
}

/// Record lines carry everything but the fault location, which is
/// recovered from the (single-fault) spec the snapshot pins.
fn parse_record(line: &str, spec: &FaultSpec) -> Result<InjectionRecord, String> {
    let f = parse_flat_object(line)?;
    let stage_idx = f.num_field("stage")? as usize;
    let stage = *Stage::ALL.get(stage_idx).ok_or_else(|| format!("bad stage index {stage_idx}"))?;
    Ok(InjectionRecord {
        tick: f.num_field("tick")?,
        stage,
        location: spec.location,
        thread: f.num_field("thread")? as u32,
        pc: f.num_field("pc")?,
        instr: f.opt_str_field("instr"),
        before: f.num_field("before")?,
        after: f.num_field("after")?,
        consumed: f.num_field("consumed")? != 0,
        overwritten: f.num_field("overwritten")? != 0,
    })
}

/// Writes a snapshot atomically (tmp + rename): a crash mid-write leaves
/// either the previous snapshot or none, never a torn file.
pub(crate) fn write_snapshot(
    path: &Path,
    spec: &FaultSpec,
    origin_digest: u64,
    budget: u64,
    records: &[InjectionRecord],
    checkpoint: &Checkpoint,
) -> std::io::Result<()> {
    let bytes = checkpoint.to_bytes();
    let tmp = path.with_extension("snap.tmp");
    {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        writeln!(
            w,
            "{{\"snapshot\":\"gemfi\",\"version\":{SNAPSHOT_VERSION},\"spec\":\"{}\",\"origin_digest\":{origin_digest},\"budget\":{budget},\"records\":{},\"ckpt_len\":{}}}",
            json_escape(&spec.to_string()),
            records.len(),
            bytes.len(),
        )?;
        for r in records {
            writeln!(w, "{}", render_record(r))?;
        }
        w.write_all(&bytes)?;
        w.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reads and validates a snapshot file. Any malformation is an `Err`; the
/// caller treats it as "no snapshot".
pub(crate) fn load_snapshot(path: &Path) -> Result<Snapshot, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("open: {e}"))?;
    let mut r = BufReader::new(file);
    let mut header = String::new();
    r.read_line(&mut header).map_err(|e| format!("read header: {e}"))?;
    let h = parse_flat_object(header.trim_end())?;
    if h.str_field("snapshot")? != "gemfi" {
        return Err("not a snapshot file".to_string());
    }
    if h.num_field("version")? != SNAPSHOT_VERSION {
        return Err("snapshot version mismatch".to_string());
    }
    let spec_line = h.str_field("spec")?;
    let cfg: FaultConfig = spec_line.parse().map_err(|e| format!("snapshot spec: {e}"))?;
    let &[spec] = cfg.faults() else {
        return Err("snapshot must pin exactly one fault".to_string());
    };
    let n = h.num_field("records")? as usize;
    let ckpt_len = h.num_field("ckpt_len")? as usize;
    let mut records = Vec::with_capacity(n);
    for i in 0..n {
        let mut line = String::new();
        r.read_line(&mut line).map_err(|e| format!("read record {i}: {e}"))?;
        records.push(parse_record(line.trim_end(), &spec)?);
    }
    let mut bytes = vec![0u8; ckpt_len];
    r.read_exact(&mut bytes).map_err(|e| format!("read checkpoint: {e}"))?;
    let checkpoint =
        Checkpoint::from_bytes(&bytes).map_err(|e| format!("decode checkpoint: {e:?}"))?;
    Ok(Snapshot {
        spec: spec_line,
        origin_digest: h.num_field("origin_digest")?,
        budget: h.num_field("budget")?,
        records,
        checkpoint,
    })
}

/// Runs one experiment with periodic mid-run snapshots at `snap_path`. If a
/// valid snapshot for this exact experiment (same spec, same origin
/// checkpoint) already exists, the run resumes from it instead of replaying
/// from `checkpoint` — the crashed-worker recovery path. The snapshot file
/// is left in place on completion; [`execute_leased`] deletes it once the run
/// reached a verdict.
pub(crate) fn run_experiment_snapshotted(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    spec: FaultSpec,
    config: &RunnerConfig,
    abort: &AbortToken,
    (snap_path, policy): (&Path, SnapshotPolicy),
) -> ExperimentResult {
    let origin_digest = checkpoint.digest();
    let mut resumable = None;
    if policy.enabled() && snap_path.exists() {
        match load_snapshot(snap_path) {
            Ok(snap) if snap.spec == spec.to_string() && snap.origin_digest == origin_digest => {
                resumable = Some(snap);
            }
            // Stale or foreign snapshot: start over rather than trust it.
            _ => {
                let _ = std::fs::remove_file(snap_path);
            }
        }
    }
    // A resumed run keeps the original run's absolute watchdog budget and
    // spaces its captures from the snapshot it resumed.
    let (source, budget, mut last_capture) = match &resumable {
        Some(snapshot) => (
            Source::Snapshot { origin: checkpoint, snapshot },
            snapshot.budget,
            snapshot.checkpoint.tick(),
        ),
        None => (
            Source::Checkpoint(checkpoint),
            watchdog_budget(checkpoint, prepared, config),
            checkpoint.tick(),
        ),
    };
    // The per-chunk capture hook: snapshot when the run is switched,
    // dormant, and at least `interval_ticks` past the previous capture.
    let mut observer = |machine: &Machine<GemFiEngine>, switched: bool| {
        if !policy.enabled() || !switched {
            return;
        }
        let now = machine.tick();
        if now < last_capture.saturating_add(policy.interval_ticks) {
            return;
        }
        if !machine.hooks().is_dormant(0, now) {
            return;
        }
        let Some(ckpt) = machine.try_checkpoint() else { return };
        // Best-effort: a failed write costs resumability, not correctness.
        if write_snapshot(snap_path, &spec, origin_digest, budget, machine.hooks().records(), &ckpt)
            .is_ok()
        {
            last_capture = now;
        }
    };
    experiment(source, prepared, workload, &[spec], config, abort, &mut observer)
}

/// Runs one leased experiment for a campaign worker (spool thread or socket
/// process): with mid-run snapshots at `snap` when the worker keeps them,
/// plainly otherwise. Once a verdict is reached the crash-resume state is
/// spent and the snapshot is deleted; aborted runs keep theirs — the retry
/// resumes from it.
pub(crate) fn execute_leased(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    workload: &dyn Workload,
    assignment: &WorkAssignment,
    config: &RunnerConfig,
    snap: Option<(&Path, SnapshotPolicy)>,
) -> ExperimentResult {
    let (spec, abort) = (assignment.spec, &assignment.abort);
    let Some(snap) = snap else {
        return run_experiment_from_with_abort(checkpoint, prepared, workload, spec, config, abort);
    };
    let result =
        run_experiment_snapshotted(checkpoint, prepared, workload, spec, config, abort, snap);
    if result.outcome != Outcome::Infrastructure {
        let _ = std::fs::remove_file(snap.0);
    }
    result
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

    fn scratch(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("gemfi-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn live_spec(p: &PreparedWorkload) -> FaultSpec {
        FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 2 },
            thread: 0,
            timing: FaultTiming::Instructions(p.stage_events[4] / 3),
            behavior: FaultBehavior::Flip(1),
            occurrences: 1,
        }
    }

    /// A scheduling granularity fine enough that the short test workloads
    /// span many chunks *after* the CPU switch — the default 20k-tick chunk
    /// (and 2k-tick switch grace) swallows them whole and the observer would
    /// only ever see the pre-switch prefix. The dormant coarsening multiplies
    /// the chunk by [`crate::runner::DORMANT_CHUNK_FACTOR`], so the chunk
    /// must stay well under `kernel_ticks / that factor` for the post-switch
    /// phase to span multiple observer calls.
    fn fine_grained(p: &PreparedWorkload) -> RunnerConfig {
        RunnerConfig {
            chunk: (p.kernel_ticks / 256).max(4),
            switch_grace: (p.kernel_ticks / 256).max(4),
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn snapshotted_run_matches_plain_run_and_leaves_a_resumable_file() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let spec = live_spec(&p);
        let cfg = fine_grained(&p);
        let plain = run_experiment(&p, &w, spec, &cfg);

        let dir = scratch("roundtrip");
        let snap = dir.join("exp00000.snap");
        let fresh = run_experiment_snapshotted(
            &p.checkpoint,
            &p,
            &w,
            spec,
            &cfg,
            &AbortToken::new(),
            (&snap, SnapshotPolicy::every((p.kernel_ticks / 8).max(1))),
        );
        assert_eq!(fresh.outcome, plain.outcome);
        assert_eq!(fresh.exit, plain.exit);
        assert_eq!(fresh.output, plain.output);
        assert_eq!(fresh.injections.len(), plain.injections.len());
        assert!(snap.exists(), "a mid-run snapshot must have been captured");

        // Second call finds the (late-run) snapshot and takes the resume
        // path: same classification without replaying the whole run.
        let loaded = load_snapshot(&snap).unwrap();
        assert!(loaded.checkpoint.tick() > p.checkpoint.tick());
        assert_eq!(loaded.origin_digest, p.checkpoint.digest());
        let resumed = run_experiment_snapshotted(
            &p.checkpoint,
            &p,
            &w,
            spec,
            &cfg,
            &AbortToken::new(),
            (&snap, SnapshotPolicy::every((p.kernel_ticks / 8).max(1))),
        );
        assert_eq!(resumed.outcome, plain.outcome, "{:?}", resumed.exit);
        assert_eq!(resumed.output, plain.output);
        assert_eq!(
            resumed.injections.len(),
            plain.injections.len(),
            "persisted records survive the resume"
        );
        for (a, b) in resumed.injections.iter().zip(plain.injections.iter()) {
            assert_eq!(a.tick, b.tick);
            assert_eq!(a.consumed, b.consumed);
            assert_eq!(a.overwritten, b.overwritten);
        }
        assert_eq!(resumed.injection_fraction, plain.injection_fraction);
    }

    #[test]
    fn mismatched_snapshot_is_discarded_and_the_run_starts_fresh() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let spec = live_spec(&p);
        let other = FaultSpec { behavior: FaultBehavior::Flip(5), ..spec };
        let cfg = fine_grained(&p);
        let dir = scratch("mismatch");
        let snap = dir.join("exp00000.snap");

        // Produce a snapshot for `other`, then run `spec` against it.
        let _ = run_experiment_snapshotted(
            &p.checkpoint,
            &p,
            &w,
            other,
            &cfg,
            &AbortToken::new(),
            (&snap, SnapshotPolicy::every((p.kernel_ticks / 8).max(1))),
        );
        assert!(snap.exists());
        let plain = run_experiment(&p, &w, spec, &cfg);
        let got = run_experiment_snapshotted(
            &p.checkpoint,
            &p,
            &w,
            spec,
            &cfg,
            &AbortToken::new(),
            (&snap, SnapshotPolicy::every((p.kernel_ticks / 8).max(1))),
        );
        assert_eq!(got.outcome, plain.outcome);
        assert_eq!(got.output, plain.output);
    }

    #[test]
    fn torn_snapshot_file_is_rejected() {
        let dir = scratch("torn");
        let snap = dir.join("exp00000.snap");
        std::fs::write(&snap, "{\"snapshot\":\"gemfi\",\"version\":1,\"spec\":").unwrap();
        assert!(load_snapshot(&snap).is_err());
    }

    #[test]
    fn disabled_policy_never_writes() {
        let w = small_pi();
        let p = prepare_workload(&w).unwrap();
        let dir = scratch("disabled");
        let snap = dir.join("exp00000.snap");
        let _ = run_experiment_snapshotted(
            &p.checkpoint,
            &p,
            &w,
            live_spec(&p),
            &RunnerConfig::default(),
            &AbortToken::new(),
            (&snap, SnapshotPolicy::disabled()),
        );
        assert!(!snap.exists());
    }
}
