//! The campaign worker: one loop, any transport.
//!
//! `drive_worker` is the claim → execute → report cycle written against
//! [`CampaignTransport`], so the in-process spool threads of
//! [`crate::now`] and a remote process connected to a
//! [`crate::server::CampaignServer`] run byte-for-byte the same protocol
//! logic — `catch_unwind` containment and zombie-report suppression
//! included. Tests reach the failure paths through the loop's own seams: a
//! panicking attempt is an `execute` that panics, and a worker killed
//! holding a lease is a [`SocketTransport`] that claims and is dropped.
//!
//! [`SocketTransport`] is the TCP backend: flat-JSON lines to the campaign
//! server ([`crate::wire`]), transparent reconnect with capped backoff, and
//! one heartbeat thread per transport. `begin_attempt` hands that thread the
//! attempt over a channel; it renews the lease at a third of its duration on
//! its own connection, whose every step gives up after one period, and
//! raises the assignment's [`AbortToken`] after three missed beats or on
//! [`ServerMsg::HeartbeatLost`] — the network-partition recovery path: the
//! in-flight run stops at its next chunk boundary, the worker re-registers,
//! and the server re-offers the reaped experiment to the fleet.
//!
//! [`run_socket_worker`] stacks the workload-context bootstrap on top: per
//! queue it fetches campaign metadata once, rebuilds the workload through a
//! caller-supplied resolver, and fetches the checkpoint image once per
//! distinct digest (shared across queues that campaign the same prepared
//! workload). Every attempt — a retry included — runs the experiment from
//! that checkpoint, starting at the latest unarmed station of the queue's
//! prepared context (`runner::Stations`, rebuilt locally from the
//! checkpoint); a worker keeps nothing on disk.

use crate::runner::{
    run_experiment_from_with_abort, ExperimentResult, PreparedWorkload, RunnerConfig, Stations,
};
use crate::transport::{AttemptGuard, CampaignTransport, ClaimReply, ReportAck, WorkAssignment};
use crate::wire::{
    clip, hex_decode, read_blob, read_line, write_line, ClientMsg, ServerMsg, MAX_REASON_BYTES,
    PROTO_VERSION,
};
use gemfi::{AbortToken, FaultConfig, Outcome};
use gemfi_isa::codec::Codec;
use gemfi_sim::{Checkpoint, RunExit};
use gemfi_workloads::{RunOutput, Workload};
use std::collections::HashMap;
use std::io::{BufReader, Error, ErrorKind};
use std::net::{TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a worker behaves, for either backend.
#[derive(Debug, Clone)]
pub struct WorkerOptions {
    /// Worker id (lease owner, journal provenance, server metrics key).
    pub name: String,
    /// Experiment execution configuration.
    pub runner: RunnerConfig,
    /// Connection attempts per request before the socket transport gives
    /// up and surfaces the error.
    pub connect_attempts: u32,
    /// Base delay between reconnect attempts; doubles per retry, capped
    /// at 32×.
    pub reconnect_delay: Duration,
}

impl WorkerOptions {
    /// Defaults: 8 connection attempts with 50 ms base backoff.
    pub fn new(name: impl Into<String>) -> WorkerOptions {
        WorkerOptions {
            name: name.into(),
            runner: RunnerConfig::default(),
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
/// assignment and returns its result, or a failure description (a socket
/// worker's context fetch errors) that burns the attempt like a panic would.
///
/// # Errors
///
/// Transport I/O errors.
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
        let guard = transport.begin_attempt(&opts.name, &assignment);
        let run = catch_unwind(AssertUnwindSafe(|| execute(&assignment)));
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
    register(TcpStream::connect(addr)?, worker)
}

/// [`open_conn`] for the heartbeat: connecting, and every later read and
/// write on the connection, gives up after `timeout`.
fn open_conn_within(addr: &str, worker: &str, timeout: Duration) -> std::io::Result<Conn> {
    let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
        Error::new(ErrorKind::InvalidInput, format!("`{addr}` resolves to no address"))
    })?;
    let stream = TcpStream::connect_timeout(&sock, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    register(stream, worker)
}

/// Registers a fresh connection via `hello`/`welcome`.
fn register(stream: TcpStream, worker: &str) -> std::io::Result<Conn> {
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
    /// The heartbeat thread and the channel that hands it attempts:
    /// spawned by the first `begin_attempt`, ended by dropping the transport.
    heartbeat: Option<(Sender<Beat>, JoinHandle<()>)>,
}

/// One attempt as the heartbeat thread sees it.
struct Beat {
    msg: ClientMsg,
    abort: AbortToken,
    period: Duration,
    /// Raised when the attempt's [`AttemptGuard`] drops.
    stop: Arc<AtomicBool>,
}

/// Beats the current attempt every period on one persistent connection,
/// until the channel disconnects. A new attempt replaces the current one;
/// an attempt stops being beaten when its guard drops, when the server
/// answers anything but `heartbeat-ack`, or after three misses in a row
/// (a failed connect, write or read, each bounded by one period). The last
/// two raise its abort token.
fn heartbeat_loop(addr: &str, worker: &str, attempts: &Receiver<Beat>) {
    let mut conn: Option<Conn> = None;
    let mut current: Option<Beat> = None;
    let mut misses = 0u32;
    let mut due = Instant::now();
    loop {
        let next = match &current {
            None => attempts.recv().map_err(|_| RecvTimeoutError::Disconnected),
            Some(_) => attempts.recv_timeout(due.saturating_duration_since(Instant::now())),
        };
        let beat = match next {
            Ok(beat) => {
                due = Instant::now() + beat.period;
                misses = 0;
                current = Some(beat);
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => return,
            Err(RecvTimeoutError::Timeout) => {
                current.as_ref().expect("a timed wait has an attempt")
            }
        };
        if beat.stop.load(Ordering::SeqCst) {
            current = None;
            continue;
        }
        // Beats stay on the period grid: a miss that used up its period
        // leaves the next beat due at once.
        due += beat.period;
        let reply = match &mut conn {
            Some(c) => exchange(c, &beat.msg),
            None => open_conn_within(addr, worker, beat.period)
                .and_then(|c| exchange(conn.insert(c), &beat.msg)),
        };
        let lost = match reply {
            Ok(ServerMsg::HeartbeatAck { .. }) => {
                misses = 0;
                false
            }
            // `heartbeat-lost` (or anything unexpected): the lease is gone.
            Ok(_) => true,
            Err(_) => {
                conn = None;
                misses += 1;
                misses >= 3
            }
        };
        if lost {
            beat.abort.abort();
            current = None;
        }
    }
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
            heartbeat: None,
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

impl Drop for SocketTransport {
    fn drop(&mut self) {
        if let Some((attempts, thread)) = self.heartbeat.take() {
            // Disconnecting the channel ends the thread's wait.
            drop(attempts);
            let _ = thread.join();
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
        let beat = Beat {
            msg: ClientMsg::Heartbeat {
                worker: worker.to_string(),
                queue: assignment.queue.clone(),
                exp: assignment.exp as u64,
                attempt: assignment.attempt,
            },
            abort: assignment.abort.clone(),
            // Renew at a third of the lease: two beats can be lost before
            // the server-side reaper fires.
            period: Duration::from_millis((assignment.lease_ms / 3).max(10)),
            stop: Arc::clone(&stop),
        };
        let (attempts, _) = self.heartbeat.get_or_insert_with(|| {
            let (attempts, rx) = mpsc::channel();
            let (addr, worker) = (self.addr.clone(), worker.to_string());
            let thread = std::thread::Builder::new()
                .name("gemfi-heartbeat".to_string())
                .spawn(move || heartbeat_loop(&addr, &worker, &rx))
                .expect("spawn heartbeat thread");
            (attempts, thread)
        });
        // The send fails only if the thread is gone; the lease then expires
        // on the server and the report comes back stale.
        let _ = attempts.send(beat);
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
            reason: clip(reason, MAX_REASON_BYTES).to_string(),
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
        stations: Stations::default(),
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
/// Transport errors that survive the reconnect budget.
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

    let mut execute = move |assignment: &WorkAssignment| -> Result<ExperimentResult, String> {
        if !contexts.contains_key(&assignment.queue) {
            let ctx =
                fetch_queue_context(&addr, &name, &assignment.queue, resolver, &mut checkpoints)?;
            contexts.insert(assignment.queue.clone(), ctx);
        }
        let ctx = contexts.get(&assignment.queue).expect("context just inserted");
        Ok(run_experiment_from_with_abort(
            &ctx.prepared.checkpoint,
            &ctx.prepared,
            ctx.workload.as_ref(),
            assignment.spec,
            &runner,
            &assignment.abort,
        ))
    };
    drive_worker(&mut transport, opts, &mut execute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;

    /// What a stand-in server saw: connections accepted and closed by the
    /// worker, and the experiment of every heartbeat it acked.
    #[derive(Default)]
    struct Seen {
        opened: AtomicUsize,
        closed: AtomicUsize,
        beats: Mutex<Vec<usize>>,
    }

    /// A stand-in campaign server that welcomes every `hello` and acks
    /// every heartbeat.
    fn acking_server() -> (String, Arc<Seen>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let seen = Arc::new(Seen::default());
        let server_seen = Arc::clone(&seen);
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let stream = stream.unwrap();
                server_seen.opened.fetch_add(1, Ordering::SeqCst);
                let seen = Arc::clone(&server_seen);
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().unwrap();
                    let mut reader = BufReader::new(stream);
                    while let Ok(Some(line)) = read_line(&mut reader) {
                        let reply = match ClientMsg::parse(&line).unwrap() {
                            ClientMsg::Hello { .. } => {
                                ServerMsg::Welcome { proto: PROTO_VERSION, queues: 1 }
                            }
                            ClientMsg::Heartbeat { exp, .. } => {
                                seen.beats.lock().unwrap().push(exp as usize);
                                ServerMsg::HeartbeatAck { deadline_ms: 0 }
                            }
                            other => panic!("a heartbeat connection sent {other:?}"),
                        };
                        write_line(&mut writer, &reply.to_json()).unwrap();
                    }
                    seen.closed.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        (addr, seen)
    }

    fn assignment(exp: usize, lease_ms: u64) -> WorkAssignment {
        WorkAssignment {
            queue: "q".to_string(),
            exp,
            attempt: 1,
            deadline_ms: 0,
            lease_ms,
            spec: crate::FaultSampler::new(1, [100; 5], 0, 0).sample_any(),
            abort: AbortToken::new(),
        }
    }

    fn wait_for(what: &str, timeout: Duration, done: impl Fn() -> bool) {
        let deadline = Instant::now() + timeout;
        while !done() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn attempts_share_one_heartbeat_connection() {
        let (addr, seen) = acking_server();
        let mut transport = SocketTransport::new(addr, &WorkerOptions::new("w"));
        let lease_ms = 150;
        let period = Duration::from_millis(lease_ms / 3);
        for exp in 0..5 {
            let work = assignment(exp, lease_ms);
            let guard = transport.begin_attempt("w", &work);
            std::thread::sleep(period * 3);
            drop(guard);
            assert!(!work.abort.is_aborted(), "an acked attempt runs on");
        }
        assert_eq!(seen.opened.load(Ordering::SeqCst), 1, "one connection for every beat");
        let beats = seen.beats.lock().unwrap().clone();
        for exp in 0..5 {
            assert!(beats.contains(&exp), "attempt {exp} was never beaten: {beats:?}");
        }
    }

    #[test]
    fn a_server_that_never_answers_aborts_the_attempt_within_five_periods() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        // Accepts every connection and holds it open, never reading.
        std::thread::spawn(move || {
            let held: Vec<_> = listener.incoming().collect();
            drop(held);
        });
        let mut transport = SocketTransport::new(addr, &WorkerOptions::new("w"));
        let lease_ms = 600;
        let period = Duration::from_millis(lease_ms / 3);
        let work = assignment(0, lease_ms);
        let began = Instant::now();
        let _guard = transport.begin_attempt("w", &work);
        wait_for("the abort token", period * 5, || work.abort.is_aborted());
        // Three misses, each a read that waited out its period.
        assert!(began.elapsed() >= period * 3, "aborted after {:?}", began.elapsed());
    }

    #[test]
    fn dropping_the_transport_ends_its_heartbeat_thread() {
        let (addr, seen) = acking_server();
        let mut transport = SocketTransport::new(addr, &WorkerOptions::new("w"));
        let work = assignment(7, 60);
        let _guard = transport.begin_attempt("w", &work);
        wait_for("a first beat", Duration::from_secs(10), || {
            !seen.beats.lock().unwrap().is_empty()
        });
        // The connection belongs to the thread: it closes when the thread
        // returns, which `drop` waits for.
        drop(transport);
        wait_for("the connection to close", Duration::from_secs(10), || {
            seen.closed.load(Ordering::SeqCst) == 1
        });
    }
}
