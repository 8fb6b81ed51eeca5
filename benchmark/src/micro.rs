//! Direct timings of single public calls — the layers a traced executor
//! cannot isolate from outside (the spool transport is `pub(crate)`; the
//! fork planner does not say how long its forks took), plus Fig. 7's engine
//! overhead.

use crate::workloads::PreparedGuest;
use gemfi::{FaultConfig, FaultSpec, GemFiEngine, Outcome};
use gemfi_campaign::{ClientMsg, Journal, JournalEvent, LeaseDir, RunnerConfig, ServerMsg};
use gemfi_cpu::{CpuKind, FaultHooks, NoopHooks};
use gemfi_isa::codec::Codec;
use gemfi_sim::{Checkpoint, Machine, RunExit};
use std::path::Path;
use std::time::Instant;

/// Mean seconds per call of `f` over `n` calls.
fn mean_secs(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let started = Instant::now();
    for i in 0..n {
        f(i);
    }
    started.elapsed().as_secs_f64() / n as f64
}

/// Journal, lease and fault-file costs on the scratch share's filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShareCosts {
    /// `Journal::append` of a `done` event (write + flush; it never fsyncs).
    pub append_us: f64,
    /// `LeaseDir::claim` + `release` of one experiment.
    pub claim_release_us: f64,
    /// `FaultConfig::load` of a one-line spooled fault file.
    pub fault_load_us: f64,
}

pub fn share_costs(dir: &Path, spec: FaultSpec, n: usize) -> ShareCosts {
    let mut journal = Journal::open(dir).expect("open scratch journal");
    let event = |exp: usize| JournalEvent::Done {
        exp: exp as u64,
        attempt: 1,
        outcome: Outcome::StrictlyCorrect,
        exit: RunExit::Halted(0).to_string(),
        ticks: 1_234_567,
    };
    let append = mean_secs(n, |i| journal.append(&event(i)).expect("journal append"));
    let leases = LeaseDir::new(dir);
    let claim_release = mean_secs(n, |i| {
        leases.claim(i, "w0", 1, u64::MAX).expect("lease claim").expect("fresh lease");
        leases.release(i).expect("lease release");
    });
    let fault_file = dir.join("exp00000.fault");
    FaultConfig::from_specs(vec![spec]).save(&fault_file).expect("spool a fault file");
    let load = mean_secs(n, |_| {
        std::hint::black_box(FaultConfig::load(&fault_file).expect("fault file loads"));
    });
    ShareCosts {
        append_us: append * 1e6,
        claim_release_us: claim_release * 1e6,
        fault_load_us: load * 1e6,
    }
}

/// `Journal::replay` of a finished campaign's journal: (milliseconds,
/// bytes). `(0, 0)` when the executor wrote none.
pub fn journal_replay(share: &Path) -> (f64, u64) {
    let path = Journal::path_in(share);
    let Ok(meta) = std::fs::metadata(&path) else { return (0.0, 0) };
    let started = Instant::now();
    std::hint::black_box(Journal::replay(&path).expect("journal replays"));
    (started.elapsed().as_secs_f64() * 1e3, meta.len())
}

/// Mean (encode, parse) microseconds per wire message over the four
/// messages of one experiment's life: claim → work → result → ack.
pub fn wire_costs(spec: FaultSpec, n: usize) -> (f64, f64) {
    let client = [
        ClientMsg::Claim { worker: "w0".to_string() },
        ClientMsg::Result {
            worker: "w0".to_string(),
            queue: "pi".to_string(),
            exp: 1234,
            attempt: 1,
            outcome: Outcome::StrictlyCorrect.to_string(),
            exit: RunExit::Halted(0).to_string(),
            ticks: 1_234_567,
            spec: spec.to_string(),
        },
    ];
    let server = [
        ServerMsg::Work {
            queue: "pi".to_string(),
            exp: 1234,
            attempt: 1,
            deadline_ms: 1_700_000_000_000,
            lease_ms: 30_000,
            spec: spec.to_string(),
        },
        ServerMsg::Ack { accepted: 1 },
    ];
    let encode = mean_secs(n, |_| {
        for m in &client {
            std::hint::black_box(m.to_json());
        }
        for m in &server {
            std::hint::black_box(m.to_json());
        }
    });
    let client_lines: Vec<String> = client.iter().map(ClientMsg::to_json).collect();
    let server_lines: Vec<String> = server.iter().map(ServerMsg::to_json).collect();
    let parse = mean_secs(n, |_| {
        for line in &client_lines {
            std::hint::black_box(ClientMsg::parse(line).expect("client line parses"));
        }
        for line in &server_lines {
            std::hint::black_box(ServerMsg::parse(line).expect("server line parses"));
        }
    });
    (encode * 1e6 / 4.0, parse * 1e6 / 4.0)
}

/// Checkpoint image costs summed over the guests: (encode ms, decode ms,
/// bytes). A server encodes each queue's image at start; every worker
/// decodes each once.
pub fn checkpoint_costs(guests: &[PreparedGuest]) -> (f64, f64, u64) {
    let (mut encode, mut decode, mut bytes) = (0.0, 0.0, 0);
    for g in guests {
        let started = Instant::now();
        let image = g.prepared.checkpoint.to_bytes();
        encode += started.elapsed().as_secs_f64();
        let started = Instant::now();
        std::hint::black_box(Checkpoint::from_bytes(&image).expect("image decodes"));
        decode += started.elapsed().as_secs_f64();
        bytes += image.len() as u64;
    }
    (encode * 1e3, decode * 1e3, bytes)
}

/// Mean microseconds of one warm fork: `fork_with_faults` + `fork_with` off
/// a trunk restored on the injection model.
pub fn fork_us(guest: &PreparedGuest, cfg: &RunnerConfig, n: usize) -> f64 {
    let trunk = Machine::restore_with(
        &guest.prepared.checkpoint,
        Some(cfg.inject_cpu),
        None,
        GemFiEngine::new(FaultConfig::empty()),
    );
    let spec = guest.specs.first().copied();
    mean_secs(n, |_| {
        let faults = FaultConfig::from_specs(spec.into_iter().collect());
        let engine = trunk.hooks().fork_with_faults(faults);
        std::hint::black_box(trunk.fork_with(engine));
    }) * 1e6
}

/// Seconds per fault-free kernel from the checkpoint under `hooks`,
/// averaged over at least `min_secs` of runs.
fn kernel_secs<H: FaultHooks>(
    checkpoint: &Checkpoint,
    cpu: CpuKind,
    min_secs: f64,
    hooks: impl Fn() -> H,
) -> f64 {
    let started = Instant::now();
    let mut runs = 0u32;
    loop {
        let mut machine = Machine::restore_with(checkpoint, Some(cpu), None, hooks());
        let mut exit = machine.run();
        while exit == RunExit::CheckpointRequest {
            exit = machine.run();
        }
        assert_eq!(exit, RunExit::Halted(0), "fault-free kernel must halt cleanly");
        runs += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed >= min_secs {
            return elapsed / f64::from(runs);
        }
    }
}

/// Fig. 7: the golden kernel under `GemFiEngine::new(FaultConfig::empty())`
/// against `NoopHooks` (the unmodified simulator), as a fraction of the
/// latter. Each of the two samples runs for at least `sample_secs`.
pub fn engine_overhead_frac(guest: &PreparedGuest, cpu: CpuKind, sample_secs: f64) -> f64 {
    let checkpoint = &guest.prepared.checkpoint;
    let noop = kernel_secs(checkpoint, cpu, sample_secs, || NoopHooks);
    let engine =
        kernel_secs(checkpoint, cpu, sample_secs, || GemFiEngine::new(FaultConfig::empty()));
    engine / noop - 1.0
}
