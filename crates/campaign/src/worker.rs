//! The campaign worker: one loop, any transport.
//!
//! [`drive_worker`] is the claim → execute → report cycle written against
//! [`CampaignTransport`], so the in-process spool threads of
//! [`crate::now`] and a remote process connected to a
//! [`crate::server::CampaignServer`] run byte-for-byte the same protocol
//! logic — `catch_unwind` containment, zombie-report suppression, chaos
//! hooks and all.
//!
//! [`SocketTransport`] is the TCP backend: flat-JSON lines to the campaign
//! server ([`crate::wire`]), transparent reconnect with capped backoff, and
//! a per-attempt heartbeat thread that renews the lease at a third of its
//! duration and raises the assignment's [`AbortToken`] when the server is
//! unreachable or answers [`ServerMsg::HeartbeatLost`] — the
//! network-partition recovery path: the in-flight run stops at its next
//! chunk boundary, the worker re-registers, and the server re-offers the
//! reaped experiment to the fleet.
//!
//! [`run_socket_worker`] stacks the workload-context bootstrap on top: per
//! queue it fetches campaign metadata once, rebuilds the workload through a
//! caller-supplied resolver, and fetches the checkpoint image once per
//! distinct digest (shared across queues that campaign the same prepared
//! workload).

use crate::runner::{ExperimentResult, PreparedWorkload, RunnerConfig};
use crate::snapshot::{execute_leased, SnapshotPolicy};
use crate::transport::{AttemptGuard, CampaignTransport, ClaimReply, ReportAck, WorkAssignment};
use crate::wire::{
    hex_decode, read_blob, read_line, write_line, ClientMsg, ServerMsg, PROTO_VERSION,
};
use gemfi::{AbortToken, FaultConfig, Outcome};
use gemfi_isa::codec::Codec;
use gemfi_sim::{Checkpoint, RunExit};
use gemfi_workloads::{RunOutput, Workload};
use std::collections::HashMap;
use std::io::{BufReader, Error, ErrorKind};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How a worker behaves, for either backend.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Worker id (lease owner, journal provenance, server metrics key).
    pub name: String,
    /// Experiment execution configuration.
    pub runner: RunnerConfig,
    /// Mid-run snapshot cadence (disabled by default).
    pub snapshot: SnapshotPolicy,
    /// Worker-local scratch directory for snapshot files; required for
    /// snapshots on the socket backend (the spool backend snapshots onto
    /// the share).
    pub scratch_dir: Option<PathBuf>,
    /// Chaos: `(experiment, attempt)` pairs whose execution panics.
    pub chaos_panic_on: Vec<(usize, u64)>,
    /// Chaos: die (return [`ErrorKind::Interrupted`], lease still held)
    /// immediately after making this many claims — a stand-in for
    /// `kill -9` on a worker.
    pub die_after_claims: Option<u64>,
    /// Connection attempts per request before the socket transport gives
    /// up and surfaces the error.
    pub connect_attempts: u32,
    /// Base delay between reconnect attempts; doubles per retry, capped
    /// at 32×.
    pub reconnect_delay: Duration,
}

impl WorkerOptions {
    /// Defaults: no snapshots, no chaos, 8 connection attempts with 50 ms
    /// base backoff.
    pub fn new(name: impl Into<String>) -> WorkerOptions {
        WorkerOptions {
            name: name.into(),
            runner: RunnerConfig::default(),
            snapshot: SnapshotPolicy::disabled(),
            scratch_dir: None,
            chaos_panic_on: Vec::new(),
            die_after_claims: None,
            connect_attempts: 8,
            reconnect_delay: Duration::from_millis(50),
        }
    }
}

/// What one worker did.
#[derive(Debug, Clone, Default)]
pub struct WorkerReport {
    /// Leases obtained.
    pub claims: u64,
    /// Successful terminal results accepted by the scheduler.
    pub completed: u64,
    /// Failed attempts reported (panics and aborted runs).
    pub failed: u64,
    /// Reports dropped as zombies (the reaper had moved on).
    pub stale: u64,
}

/// Extracts a readable message from a panic payload.
pub(crate) fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The generic worker loop: claim, execute under `catch_unwind`, report,
/// until the transport says the campaign is complete. `execute` runs one
/// assignment and returns its result, or a failure description (context
/// fetch errors, snapshot I/O) that burns the attempt like a panic would.
///
/// # Errors
///
/// Transport I/O errors, and [`ErrorKind::Interrupted`] from the
/// [`WorkerOptions::die_after_claims`] chaos hook.
pub(crate) fn drive_worker<T: CampaignTransport>(
    transport: &mut T,
    opts: &WorkerOptions,
    execute: &mut dyn FnMut(&WorkAssignment) -> Result<ExperimentResult, String>,
) -> std::io::Result<WorkerReport> {
    let mut report = WorkerReport::default();
    loop {
        let assignment = match transport.claim(&opts.name)? {
            ClaimReply::Complete => return Ok(report),
            ClaimReply::Idle { backoff_ms } => {
                std::thread::sleep(Duration::from_millis(backoff_ms.max(1)));
                continue;
            }
            ClaimReply::Work(assignment) => assignment,
        };
        report.claims += 1;
        if opts.die_after_claims.is_some_and(|n| report.claims >= n) {
            // Simulated worker kill: the lease stays held until the
            // scheduler's reaper expires it.
            return Err(Error::new(
                ErrorKind::Interrupted,
                format!("chaos: worker {} died after {} claims", opts.name, report.claims),
            ));
        }

        let chaos_panic = opts.chaos_panic_on.contains(&(assignment.exp, assignment.attempt));
        let guard = transport.begin_attempt(&opts.name, &assignment);
        let run = catch_unwind(AssertUnwindSafe(|| {
            assert!(
                !chaos_panic,
                "chaos: injected panic for experiment {} attempt {}",
                assignment.exp, assignment.attempt
            );
            execute(&assignment)
        }));
        drop(guard);

        let verdict = match run {
            Ok(Ok(result)) if result.outcome != Outcome::Infrastructure => Ok(result),
            // The runner aborted (reaper or heartbeat loss raced us) —
            // treat like any other failed attempt.
            Ok(Ok(result)) => Err(format!("runner aborted ({})", result.exit)),
            Ok(Err(reason)) => Err(reason),
            // Panic provenance: the payload message, so the journal alone
            // reproduces the case (the scheduler adds the spec).
            Err(panic) => Err(format!("worker panic: {}", panic_message(&panic))),
        };
        let (ack, tally) = match verdict {
            Ok(result) => {
                let exit = result.exit.to_string();
                let ack = transport.report_result(
                    &opts.name,
                    &assignment,
                    result.outcome,
                    &exit,
                    result.ticks,
                )?;
                (ack, &mut report.completed)
            }
            Err(reason) => {
                (transport.report_failure(&opts.name, &assignment, &reason)?, &mut report.failed)
            }
        };
        match ack {
            ReportAck::Accepted => *tally += 1,
            ReportAck::Stale => report.stale += 1,
        }
    }
}

/// One framed connection to the campaign server (registered via
/// `hello`/`welcome` at construction).
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

fn open_conn(addr: &str, worker: &str) -> std::io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let writer = stream.try_clone()?;
    let mut conn = Conn { reader: BufReader::new(stream), writer };
    let reply = exchange(
        &mut conn,
        &ClientMsg::Hello { worker: worker.to_string(), proto: PROTO_VERSION },
    )?;
    match reply {
        ServerMsg::Welcome { proto, .. } if proto == PROTO_VERSION => Ok(conn),
        ServerMsg::Welcome { proto, .. } => Err(Error::new(
            ErrorKind::InvalidData,
            format!("server speaks protocol {proto}, worker speaks {PROTO_VERSION}"),
        )),
        other => {
            Err(Error::new(ErrorKind::InvalidData, format!("expected welcome, got {other:?}")))
        }
    }
}

fn exchange(conn: &mut Conn, msg: &ClientMsg) -> std::io::Result<ServerMsg> {
    write_line(&mut conn.writer, &msg.to_json())?;
    let line = read_line(&mut conn.reader)?
        .ok_or_else(|| Error::new(ErrorKind::UnexpectedEof, "server closed the connection"))?;
    ServerMsg::parse(&line).map_err(|e| Error::new(ErrorKind::InvalidData, e))
}

/// The TCP backend of [`CampaignTransport`]: every verb is one
/// request/reply line to the campaign server. Connection loss is retried
/// with capped exponential backoff (re-registering via `hello` each time);
/// only an exhausted retry budget surfaces as an error. Requests are
/// idempotent on the server (zombie reports come back
/// [`ReportAck::Stale`]), so a retried request after a half-delivered one
/// cannot double-count.
pub struct SocketTransport {
    addr: String,
    conn: Option<Conn>,
    connect_attempts: u32,
    reconnect_delay: Duration,
}

impl SocketTransport {
    /// A transport for `addr` (`host:port`), with `opts` supplying the
    /// retry budget.
    pub fn new(addr: impl Into<String>, opts: &WorkerOptions) -> SocketTransport {
        SocketTransport {
            addr: addr.into(),
            conn: None,
            connect_attempts: opts.connect_attempts.max(1),
            reconnect_delay: opts.reconnect_delay,
        }
    }

    /// Sends `msg`, reconnecting (with capped backoff) on connection loss.
    fn request(&mut self, worker: &str, msg: &ClientMsg) -> std::io::Result<ServerMsg> {
        let mut last_err: Option<Error> = None;
        for attempt in 0..self.connect_attempts {
            if attempt > 0 {
                let factor = 1u64 << (attempt as u64 - 1).min(5);
                std::thread::sleep(self.reconnect_delay.saturating_mul(factor as u32));
            }
            if self.conn.is_none() {
                match open_conn(&self.addr, worker) {
                    Ok(conn) => self.conn = Some(conn),
                    Err(e) => {
                        last_err = Some(e);
                        continue;
                    }
                }
            }
            let conn = self.conn.as_mut().expect("connection just ensured");
            match exchange(conn, msg) {
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // Drop the broken connection; the next iteration
                    // re-registers from scratch.
                    self.conn = None;
                    last_err = Some(e);
                }
            }
        }
        Err(last_err.unwrap_or_else(|| Error::other("no connection attempts made")))
    }

    /// Sends a result/failure report and reads its `ack`.
    fn report(&mut self, worker: &str, msg: &ClientMsg) -> std::io::Result<ReportAck> {
        match self.request(worker, msg)? {
            ServerMsg::Ack { accepted } => {
                Ok(if accepted == 1 { ReportAck::Accepted } else { ReportAck::Stale })
            }
            other => Err(Error::new(ErrorKind::InvalidData, format!("unexpected reply {other:?}"))),
        }
    }
}

impl CampaignTransport for SocketTransport {
    fn claim(&mut self, worker: &str) -> std::io::Result<ClaimReply> {
        match self.request(worker, &ClientMsg::Claim { worker: worker.to_string() })? {
            ServerMsg::Complete => Ok(ClaimReply::Complete),
            ServerMsg::Idle { backoff_ms } => Ok(ClaimReply::Idle { backoff_ms }),
            ServerMsg::Work { queue, exp, attempt, deadline_ms, lease_ms, spec } => {
                let cfg: FaultConfig = spec
                    .parse()
                    .map_err(|e| Error::new(ErrorKind::InvalidData, format!("work spec: {e}")))?;
                let &[spec] = cfg.faults() else {
                    return Err(Error::new(ErrorKind::InvalidData, "work must carry one fault"));
                };
                Ok(ClaimReply::Work(WorkAssignment {
                    queue,
                    exp: exp as usize,
                    attempt,
                    deadline_ms,
                    lease_ms,
                    spec,
                    abort: AbortToken::new(),
                }))
            }
            ServerMsg::Error { reason } => Err(Error::new(ErrorKind::InvalidData, reason)),
            other => Err(Error::new(ErrorKind::InvalidData, format!("unexpected reply {other:?}"))),
        }
    }

    fn begin_attempt(&mut self, worker: &str, assignment: &WorkAssignment) -> AttemptGuard {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let abort = assignment.abort.clone();
        let addr = self.addr.clone();
        let worker = worker.to_string();
        let msg = ClientMsg::Heartbeat {
            worker: worker.clone(),
            queue: assignment.queue.clone(),
            exp: assignment.exp as u64,
            attempt: assignment.attempt,
        };
        // Renew at a third of the lease: two beats can be lost before the
        // server-side reaper fires.
        let period = Duration::from_millis((assignment.lease_ms / 3).max(10));
        std::thread::spawn(move || {
            let mut misses = 0u32;
            loop {
                // Sleep in short steps so dropping the guard stops the
                // thread promptly.
                let deadline = std::time::Instant::now() + period;
                while std::time::Instant::now() < deadline {
                    if thread_stop.load(Ordering::SeqCst) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                if thread_stop.load(Ordering::SeqCst) {
                    return;
                }
                // Each beat uses a fresh connection: heartbeat liveness
                // must not depend on the state of the main request stream.
                let beat = open_conn(&addr, &worker).and_then(|mut c| exchange(&mut c, &msg));
                match beat {
                    Ok(ServerMsg::HeartbeatAck { .. }) => misses = 0,
                    Ok(_) => {
                        // `heartbeat-lost` (or anything unexpected): the
                        // lease is gone; stop the doomed run now.
                        abort.abort();
                        return;
                    }
                    Err(_) => {
                        misses += 1;
                        if misses >= 3 {
                            // Partition detected: abandon the window; the
                            // worker loop will re-register and re-claim.
                            abort.abort();
                            return;
                        }
                    }
                }
            }
        });
        AttemptGuard::stopping(stop)
    }

    fn report_result(
        &mut self,
        worker: &str,
        assignment: &WorkAssignment,
        outcome: Outcome,
        exit: &str,
        ticks: u64,
    ) -> std::io::Result<ReportAck> {
        let msg = ClientMsg::Result {
            worker: worker.to_string(),
            queue: assignment.queue.clone(),
            exp: assignment.exp as u64,
            attempt: assignment.attempt,
            outcome: outcome.to_string(),
            exit: exit.to_string(),
            ticks,
            spec: assignment.spec.to_string(),
        };
        self.report(worker, &msg)
    }

    fn report_failure(
        &mut self,
        worker: &str,
        assignment: &WorkAssignment,
        reason: &str,
    ) -> std::io::Result<ReportAck> {
        let msg = ClientMsg::Failed {
            worker: worker.to_string(),
            queue: assignment.queue.clone(),
            exp: assignment.exp as u64,
            attempt: assignment.attempt,
            reason: reason.to_string(),
            spec: assignment.spec.to_string(),
        };
        self.report(worker, &msg)
    }
}

/// A worker's workload registry: maps the server's `(workload, scale)`
/// metadata to a locally-built guest, or [`None`] for names the worker
/// does not know how to reconstruct.
pub type WorkloadResolver = dyn Fn(&str, &str) -> Option<Box<dyn Workload>>;

/// Everything a socket worker rebuilds per queue from the server's `meta`
/// reply: the workload (via the resolver), the prepared context, and the
/// checkpoint (fetched once per distinct digest).
struct QueueContext {
    workload: Box<dyn Workload>,
    prepared: PreparedWorkload,
}

/// Fetches queue metadata and the checkpoint image over dedicated
/// connections, rebuilding the worker-local execution context.
fn fetch_queue_context(
    addr: &str,
    worker: &str,
    queue: &str,
    resolver: &WorkloadResolver,
    checkpoints: &mut HashMap<u64, Arc<Checkpoint>>,
) -> Result<QueueContext, String> {
    let mut conn = open_conn(addr, worker).map_err(|e| format!("meta connect: {e}"))?;
    let meta = exchange(&mut conn, &ClientMsg::Meta { queue: queue.to_string() })
        .map_err(|e| format!("meta request: {e}"))?;
    let ServerMsg::Meta {
        workload,
        scale,
        checkpoint_digest,
        boot_ticks,
        kernel_ticks,
        stage_events,
        golden_hex,
        ..
    } = meta
    else {
        return Err(format!("expected meta, got {meta:?}"));
    };
    let workload = resolver(&workload, &scale)
        .ok_or_else(|| format!("no local workload for `{workload}` (scale `{scale}`)"))?;
    let checkpoint = match checkpoints.get(&checkpoint_digest) {
        Some(ckpt) => Arc::clone(ckpt),
        None => {
            // One image per digest per worker; queues sharing a prepared
            // workload share the fetched bytes.
            let reply = exchange(&mut conn, &ClientMsg::Checkpoint { queue: queue.to_string() })
                .map_err(|e| format!("checkpoint request: {e}"))?;
            let ServerMsg::Blob { len, digest } = reply else {
                return Err(format!("expected blob, got {reply:?}"));
            };
            let bytes =
                read_blob(&mut conn.reader, len).map_err(|e| format!("checkpoint bytes: {e}"))?;
            let ckpt =
                Checkpoint::from_bytes(&bytes).map_err(|e| format!("checkpoint decode: {e:?}"))?;
            if ckpt.digest() != digest || digest != checkpoint_digest {
                return Err("checkpoint digest mismatch after transfer".to_string());
            }
            let ckpt = Arc::new(ckpt);
            checkpoints.insert(checkpoint_digest, Arc::clone(&ckpt));
            ckpt
        }
    };
    let golden_bytes = hex_decode(&golden_hex).map_err(|e| format!("golden output: {e}"))?;
    let guest = workload.build();
    let prepared = PreparedWorkload {
        guest,
        checkpoint,
        golden: RunOutput {
            exit: RunExit::Halted(0),
            bytes: golden_bytes,
            console: Vec::new(),
            stats: Default::default(),
        },
        stage_events,
        boot_ticks,
        kernel_ticks,
    };
    Ok(QueueContext { workload, prepared })
}

/// Runs one remote worker against the campaign server at `addr` until the
/// server reports every queue complete. `resolver` maps the server's
/// `(workload, scale)` metadata to a locally-built [`Workload`] — the
/// binary's registry of workloads it knows how to reconstruct.
///
/// # Errors
///
/// Transport errors that survive the reconnect budget, and
/// [`ErrorKind::Interrupted`] from the chaos kill hook.
pub fn run_socket_worker(
    addr: &str,
    resolver: &WorkloadResolver,
    opts: &WorkerOptions,
) -> std::io::Result<WorkerReport> {
    let mut transport = SocketTransport::new(addr, opts);
    let mut contexts: HashMap<String, QueueContext> = HashMap::new();
    let mut checkpoints: HashMap<u64, Arc<Checkpoint>> = HashMap::new();
    let addr = addr.to_string();
    let name = opts.name.clone();
    let runner = opts.runner;
    let snapshot = opts.snapshot;
    let scratch = opts.scratch_dir.clone();

    let mut execute = move |assignment: &WorkAssignment| -> Result<ExperimentResult, String> {
        if !contexts.contains_key(&assignment.queue) {
            let ctx =
                fetch_queue_context(&addr, &name, &assignment.queue, resolver, &mut checkpoints)?;
            contexts.insert(assignment.queue.clone(), ctx);
        }
        let ctx = contexts.get(&assignment.queue).expect("context just inserted");
        let snap_path = scratch
            .as_ref()
            .filter(|_| snapshot.enabled())
            .map(|dir| dir.join(format!("{}-exp{:05}.snap", assignment.queue, assignment.exp)));
        let snap = snap_path.as_deref().map(|path| (path, snapshot));
        let checkpoint = &ctx.prepared.checkpoint;
        Ok(execute_leased(
            checkpoint,
            &ctx.prepared,
            ctx.workload.as_ref(),
            assignment,
            &runner,
            snap,
        ))
    };
    drive_worker(&mut transport, opts, &mut execute)
}
