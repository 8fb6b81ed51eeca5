//! The traced run: the executors' drive protocols rebuilt from public calls
//! only, with a span around each call into a layer.
//!
//! Nothing inside `runner.rs`/`fork.rs`/`window.rs`/`worker.rs` is
//! instrumented, so each replica is asserted equal to the real entry
//! point's (outcome, exit, ticks) on every experiment — it cannot drift
//! from the protocol it stands in for without the run failing.

use crate::exec::Verdict;
use crate::trace::{Tracer, NONE};
use crate::workloads::{PreparedGuest, WorkloadDef};
use gemfi::{AbortToken, FaultConfig, FaultSpec, GemFiEngine};
use gemfi_campaign::wire::{read_blob, read_line, write_line};
use gemfi_campaign::{
    classify, drive_suffix, plan_suffixes, run_experiment_from_with_abort, AdaptiveState,
    CampaignTransport, CellReport, ClaimReply, ClientMsg, ForkConfig, PreparedWorkload,
    RunnerConfig, ServerMsg, SocketTransport, WorkerOptions, DORMANT_CHUNK_FACTOR, PROTO_VERSION,
};
use gemfi_isa::codec::Codec;
use gemfi_sim::{Checkpoint, Machine, RunExit, SimStats};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Exact counts off one replica experiment (they repeat bit-for-bit for a
/// given spec, so they may back a count-based claim).
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub experiments: u64,
    /// Ticks stepped on the injection model / on the finish model.
    pub inject_ticks: u64,
    pub finish_ticks: u64,
    pub instructions: u64,
    pub elided: u64,
    pub superblock_uops: u64,
    pub predecode_hits: u64,
    pub predecode_misses: u64,
    pub pages_owned: u64,
    pub watchdog_exits: u64,
}

impl Counters {
    fn add(&mut self, other: &Counters) {
        self.experiments += other.experiments;
        self.inject_ticks += other.inject_ticks;
        self.finish_ticks += other.finish_ticks;
        self.instructions += other.instructions;
        self.elided += other.elided;
        self.superblock_uops += other.superblock_uops;
        self.predecode_hits += other.predecode_hits;
        self.predecode_misses += other.predecode_misses;
        self.pages_owned += other.pages_owned;
        self.watchdog_exits += other.watchdog_exits;
    }

    /// Fast-path counters restart at every model switch; fold one phase in.
    fn absorb_fast_path(&mut self, stats: &SimStats) {
        self.superblock_uops += stats.mem.superblock.uops_executed;
        self.predecode_hits += stats.mem.predecode.hits;
        self.predecode_misses += stats.mem.predecode.misses;
    }
}

/// `runner::watchdog_budget`, which is `pub(crate)`: checkpoint time plus
/// `watchdog_factor` fault-free kernels plus grace slack. A drift would
/// show as a tick mismatch on the first watchdog exit.
fn watchdog_budget(
    checkpoint: &Checkpoint,
    prepared: &PreparedWorkload,
    cfg: &RunnerConfig,
) -> u64 {
    checkpoint
        .tick()
        .saturating_add(prepared.kernel_ticks.saturating_mul(cfg.watchdog_factor))
        .saturating_add(1_000_000)
}

/// Output extraction and classification of a finished machine.
fn classify_machine(
    tr: &mut Tracer,
    exp: u32,
    guest: &PreparedGuest,
    machine: &Machine<GemFiEngine>,
    exit: RunExit,
) -> Verdict {
    tr.span("campaign.classify", exp, |_| {
        let records = machine.hooks().records().to_vec();
        let prepared = &guest.prepared;
        let output = machine
            .mem()
            .read_slice(prepared.guest.output_addr(), prepared.guest.output_len)
            .unwrap_or_default();
        let outcome =
            classify(guest.workload.as_ref(), &prepared.golden.bytes, exit, &output, &records);
        Verdict { outcome, ticks: machine.tick(), exit: Some(exit) }
    })
}

/// One experiment, whole-run: restore → (injection model on the
/// checkpoint-anchored grid until the fault has fired → grace →
/// `switch_cpu`) → finish model to the exit → read output → classify.
pub fn replica_experiment(
    tr: &mut Tracer,
    exp: u32,
    guest: &PreparedGuest,
    checkpoint: &Checkpoint,
    spec: FaultSpec,
    cfg: &RunnerConfig,
) -> (Verdict, Counters) {
    let origin = checkpoint.tick();
    tr.span("exp", exp, |tr| {
        let mut machine = tr.span("sim.restore", exp, |_| {
            let engine = GemFiEngine::new(FaultConfig::from_specs(vec![spec]));
            let budget = watchdog_budget(checkpoint, &guest.prepared, cfg);
            let mut m =
                Machine::restore_with(checkpoint, Some(cfg.inject_cpu), Some(budget), engine);
            m.set_elide(cfg.elide);
            m.set_superblock(cfg.superblock);
            m
        });
        let mut counters = Counters { experiments: 1, ..Counters::default() };
        let mut exit: Option<RunExit> = None;

        if cfg.inject_cpu != cfg.finish_cpu {
            exit = tr.span("cpu.o3.prefix", exp, |_| {
                while machine.hooks_mut().pending_faults() != 0 {
                    // The first grid boundary strictly after now.
                    let steps = machine.tick().saturating_sub(origin) / cfg.chunk + 1;
                    let target = origin.saturating_add(steps.saturating_mul(cfg.chunk));
                    match machine.run_for(target.saturating_sub(machine.tick()).max(1)) {
                        Some(RunExit::CheckpointRequest) | None => {}
                        Some(exit) => return Some(exit),
                    }
                }
                None
            });
            if exit.is_none() {
                exit = tr.span("cpu.o3.grace", exp, |_| {
                    machine.run_for(cfg.switch_grace).filter(|e| *e != RunExit::CheckpointRequest)
                });
            }
            counters.inject_ticks = machine.tick() - origin;
            if exit.is_none() {
                counters.absorb_fast_path(&machine.stats());
                tr.span("sim.switch_cpu", exp, |_| machine.switch_cpu(cfg.finish_cpu));
            }
        }

        let exit = exit.unwrap_or_else(|| {
            tr.span("cpu.atomic.suffix", exp, |_| loop {
                let chunk = if machine.hooks().is_dormant(0, machine.tick()) {
                    cfg.chunk.saturating_mul(DORMANT_CHUNK_FACTOR)
                } else {
                    cfg.chunk
                };
                match machine.run_for(chunk.max(1)) {
                    Some(RunExit::CheckpointRequest) | None => {}
                    Some(exit) => break exit,
                }
            })
        });

        let stats = machine.stats();
        counters.absorb_fast_path(&stats);
        counters.finish_ticks = machine.tick() - origin - counters.inject_ticks;
        counters.instructions = stats.instructions - checkpoint.instret();
        counters.elided = stats.instructions_elided;
        counters.pages_owned = machine.mem().page_footprint().0 as u64;
        counters.watchdog_exits = u64::from(exit == RunExit::Watchdog);
        (classify_machine(tr, exp, guest, &machine, exit), counters)
    })
}

/// The whole-run replica over every guest's specs: the in-process pass
/// every workload's sim/cpu/isa/mem layer figures come from.
pub fn replica_pass(
    tr: &mut Tracer,
    guests: &[PreparedGuest],
    cfg: &RunnerConfig,
    totals: &mut Counters,
) -> Vec<Vec<Verdict>> {
    let mut exp = 0u32;
    tr.span("rep", NONE, |tr| {
        guests
            .iter()
            .map(|g| {
                g.specs
                    .iter()
                    .map(|spec| {
                        let (verdict, counters) =
                            replica_experiment(tr, exp, g, &g.prepared.checkpoint, *spec, cfg);
                        exp += 1;
                        totals.add(&counters);
                        verdict
                    })
                    .collect()
            })
            .collect()
    })
}

/// Exact counts of the forked repetitions.
#[derive(Debug, Clone, Copy, Default)]
pub struct ForkCounters {
    pub forked: u64,
    pub fallbacks: u64,
    /// Ticks the suffixes stepped plus the ticks the trunks stepped to
    /// reach their last fork point.
    pub ticks: u64,
}

/// The forked executor from its public halves: `plan_suffixes` (trunk
/// sprint and forks) then `drive_suffix` + classification per experiment.
pub fn forked_pass(
    tr: &mut Tracer,
    guests: &[PreparedGuest],
    cfg: &RunnerConfig,
    counts: &mut ForkCounters,
) -> Vec<Vec<Verdict>> {
    let mut base = 0u32;
    tr.span("rep", NONE, |tr| {
        guests
            .iter()
            .map(|g| {
                let origin = g.prepared.checkpoint.tick();
                let suffixes = tr.span("campaign.fork.plan", NONE, |_| {
                    plan_suffixes(&g.prepared, &g.specs, cfg, &ForkConfig::default())
                });
                let trunk_end = suffixes.iter().filter_map(|s| s.forked_at).max().unwrap_or(origin);
                counts.ticks += trunk_end - origin;
                let mut verdicts: Vec<Option<Verdict>> = vec![None; g.specs.len()];
                for mut suffix in suffixes {
                    let exp = base + suffix.index as u32;
                    match suffix.forked_at {
                        Some(_) => counts.forked += 1,
                        None => counts.fallbacks += 1,
                    }
                    let from = suffix.forked_at.unwrap_or(origin);
                    verdicts[suffix.index] = Some(tr.span("exp", exp, |tr| {
                        let (exit, _aborted) = tr.span("campaign.fork.drive", exp, |_| {
                            drive_suffix(&mut suffix, &g.prepared, cfg, &AbortToken::new())
                        });
                        counts.ticks += suffix.machine.tick() - from;
                        classify_machine(tr, exp, g, &suffix.machine, exit)
                    }));
                }
                base += g.specs.len() as u32;
                verdicts.into_iter().map(|v| v.expect("every spec was planned")).collect()
            })
            .collect()
    })
}

/// `run_campaign_adaptive` from its public parts: the sequential engine's
/// `next_round` / `record` / `end_round`, with the whole-run replica
/// executing each draw.
pub fn adaptive_pass(
    tr: &mut Tracer,
    guests: &[PreparedGuest],
    seed: u64,
    cfg: &RunnerConfig,
    totals: &mut Counters,
) -> Vec<Vec<CellReport>> {
    let mut exp = 0u32;
    tr.span("rep", NONE, |tr| {
        guests
            .iter()
            .map(|g| {
                let config = WorkloadDef::adaptive_config(g.plan.count);
                let mut state = AdaptiveState::new(&config, seed, g.prepared.stage_events);
                loop {
                    let draws = tr.span("campaign.adaptive.replan", NONE, |_| state.next_round());
                    if draws.is_empty() {
                        break;
                    }
                    let outcomes: Vec<_> = draws
                        .iter()
                        .map(|d| {
                            let (verdict, counters) =
                                replica_experiment(tr, exp, g, &g.prepared.checkpoint, d.spec, cfg);
                            exp += 1;
                            totals.add(&counters);
                            verdict.outcome
                        })
                        .collect();
                    tr.span("campaign.adaptive.replan", NONE, |_| {
                        for (draw, outcome) in draws.iter().zip(&outcomes) {
                            state.record(draw.cell, *outcome);
                        }
                        state.end_round();
                    });
                }
                state.finalize();
                state.reports(config.z)
            })
            .collect()
    })
}

/// What a worker needs per queue, fetched over the wire like
/// `worker::fetch_queue_context` (private) does: the `meta` reply names the
/// guest, the checkpoint image arrives as a digest-checked blob and is
/// decoded once.
fn fetch_checkpoint(addr: &str, worker: &str, queue: &str) -> Result<Arc<Checkpoint>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    let mut writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
    let mut reader = BufReader::new(stream);
    let mut exchange = |msg: ClientMsg| -> Result<ServerMsg, String> {
        write_line(&mut writer, &msg.to_json()).map_err(|e| format!("send: {e}"))?;
        let line = read_line(&mut reader).map_err(|e| format!("receive: {e}"))?;
        ServerMsg::parse(&line.ok_or("server closed the connection")?)
    };
    exchange(ClientMsg::Hello { worker: worker.to_string(), proto: PROTO_VERSION })?;
    let ServerMsg::Meta { checkpoint_digest, .. } =
        exchange(ClientMsg::Meta { queue: queue.to_string() })?
    else {
        return Err("expected a meta reply".to_string());
    };
    let ServerMsg::Blob { len, digest } =
        exchange(ClientMsg::Checkpoint { queue: queue.to_string() })?
    else {
        return Err("expected a blob header".to_string());
    };
    let bytes = read_blob(&mut reader, len).map_err(|e| format!("checkpoint bytes: {e}"))?;
    let checkpoint = Checkpoint::from_bytes(&bytes).map_err(|e| format!("decode: {e:?}"))?;
    if checkpoint.digest() != digest || digest != checkpoint_digest {
        return Err("checkpoint digest mismatch after transfer".to_string());
    }
    Ok(Arc::new(checkpoint))
}

/// The benchmark's own worker loop over the public [`SocketTransport`]:
/// claim → (first time per queue: fetch the checkpoint) → begin_attempt →
/// execute → report, a span around each. Stands in for `run_socket_worker`
/// in the traced run.
pub fn traced_socket_worker(
    epoch: Instant,
    index: usize,
    addr: &str,
    guests: &[PreparedGuest],
    cfg: &RunnerConfig,
) -> Tracer {
    let mut tr = Tracer::new(epoch);
    let opts = WorkerOptions::new(format!("w{index}"));
    let mut transport = SocketTransport::new(addr, &opts);
    let mut contexts: HashMap<String, (usize, PreparedWorkload)> = HashMap::new();
    tr.span("worker", NONE, |tr| loop {
        let reply = tr
            .span("campaign.socket.claim", NONE, |_| transport.claim(&opts.name))
            .expect("claim round-trip");
        let work = match reply {
            ClaimReply::Complete => break,
            ClaimReply::Idle { backoff_ms } => {
                tr.span("campaign.worker.idle", NONE, |_| {
                    std::thread::sleep(Duration::from_millis(backoff_ms.max(1)));
                });
                continue;
            }
            ClaimReply::Work(work) => work,
        };
        let exp = work.exp as u32;
        tr.span("exp", exp, |tr| {
            if !contexts.contains_key(&work.queue) {
                let checkpoint = tr
                    .span("campaign.socket.fetch_context", exp, |_| {
                        fetch_checkpoint(addr, &opts.name, &work.queue)
                    })
                    .expect("queue context");
                let index = guests
                    .iter()
                    .position(|g| g.plan.guest == work.queue)
                    .expect("queue names a guest of this workload");
                let prepared = PreparedWorkload { checkpoint, ..guests[index].prepared.clone() };
                contexts.insert(work.queue.clone(), (index, prepared));
            }
            let (index, prepared) = &contexts[&work.queue];
            let guard = tr.span("campaign.socket.begin_attempt", exp, |_| {
                transport.begin_attempt(&opts.name, &work)
            });
            let result = tr.span("campaign.runner.exp", exp, |_| {
                run_experiment_from_with_abort(
                    &prepared.checkpoint,
                    prepared,
                    guests[*index].workload.as_ref(),
                    work.spec,
                    cfg,
                    &work.abort,
                )
            });
            drop(guard);
            tr.span("campaign.socket.report", exp, |_| {
                transport.report_result(
                    &opts.name,
                    &work,
                    result.outcome,
                    &result.exit.to_string(),
                    result.ticks,
                )
            })
            .expect("report round-trip");
        });
    });
    tr
}

/// Share of the traced workers' loop time spent in `Idle` backoff.
pub fn idle_frac(workers: &[Tracer]) -> f64 {
    let idle: f64 = workers.iter().map(|t| t.total("campaign.worker.idle")).sum();
    let total: f64 = workers.iter().map(|t| t.total("worker")).sum();
    if total > 0.0 {
        idle / total
    } else {
        0.0
    }
}
