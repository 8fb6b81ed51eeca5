//! The campaign server: the NoW spool share lifted onto a socket.
//!
//! [`CampaignServer`] owns one `Campaign` per queue and speaks the
//! line-delimited JSON protocol of [`crate::wire`] to a fleet of remote
//! [`crate::worker`] processes. The server side of every verb is a direct
//! call into the same slot table the spool backend locks in-process —
//! claims lease experiments, heartbeats renew them, results fold into the
//! durable journal as they arrive, expired leases are reaped and retried
//! with capped backoff, a drained round closes and the next one is drawn —
//! so the campaign pipeline is written (and tested) exactly once, in
//! [`crate::now`].
//!
//! Topology (Sec. III-E, networked): the server process holds the share
//! directory and the journal; workers hold nothing durable. A worker that
//! dies mid-window simply stops heartbeating — the lease expires, the
//! server reaps it and re-offers the experiment. A server that dies is
//! restarted with `resume: true` and replays its journal, re-offering
//! only the remainder. Workers that lose the server abandon their window
//! via the heartbeat-miss abort and re-register against the restarted
//! instance.
//!
//! Queues are multi-tenant: each has a priority (higher is offered
//! first) and an optional lease quota (a cap on concurrently outstanding
//! experiments, so a low-priority bulk campaign cannot starve an urgent
//! one of workers). Fixed-n and adaptive campaigns both run behind the
//! same claim verb; a queue's kind only picks its campaign's plan.

use crate::adaptive::{AdaptiveConfig, AdaptiveOutcome, Plan};
use crate::clock::{system_clock, Clock};
use crate::now::{Campaign, CompletedExperiment, SchedulerPolicy};
use crate::report::OutcomeTable;
use crate::runner::PreparedWorkload;
use crate::transport::{ClaimReply, ReportAck};
use crate::wire::{
    hex_encode, ppm, read_line_within, write_line, ClientMsg, FlatWriter, ServerMsg,
    MAX_REQUEST_LINE,
};
use crate::PROTO_VERSION;
use gemfi::{FaultSpec, Outcome};
use gemfi_isa::codec::Codec;
use std::collections::BTreeMap;
use std::io::{BufReader, Error, ErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server-wide configuration: bind address, share layout and the
/// fault-tolerance policy applied to every queue's scheduler.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to listen on. Default `127.0.0.1:0` (ephemeral port;
    /// read the bound address back via [`CampaignServer::addr`]).
    pub bind_addr: String,
    /// Root share directory; each queue gets a subdirectory.
    pub share_dir: PathBuf,
    /// Lease duration. Remote workers heartbeat at a third of this.
    pub lease: Duration,
    /// Failed attempts retried per experiment before it is terminally
    /// [`Outcome::Infrastructure`].
    pub max_retries: u64,
    /// Base retry backoff; doubles per failed attempt, capped at 64×.
    pub retry_backoff: Duration,
    /// Idle hint handed to workers when nothing is claimable.
    pub idle_backoff: Duration,
    /// Replay existing journals instead of starting fresh campaigns.
    pub resume: bool,
    /// Time source for leases (tests inject a [`crate::clock::TestClock`]).
    pub clock: Arc<dyn Clock>,
}

impl ServerConfig {
    /// A config serving `share_dir` on an ephemeral localhost port.
    pub fn new(share_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            bind_addr: "127.0.0.1:0".to_string(),
            share_dir: share_dir.into(),
            lease: Duration::from_secs(30),
            max_retries: 2,
            retry_backoff: Duration::from_millis(50),
            idle_backoff: Duration::from_millis(20),
            resume: false,
            clock: system_clock(),
        }
    }

    fn scheduler_policy(&self) -> SchedulerPolicy {
        SchedulerPolicy {
            lease_ms: self.lease.as_millis() as u64,
            max_attempts: self.max_retries + 1,
            backoff_ms: self.retry_backoff.as_millis() as u64,
            idle_backoff_ms: self.idle_backoff.as_millis().max(1) as u64,
        }
    }
}

/// What kind of campaign a queue runs.
#[derive(Debug, Clone)]
pub enum QueueKind {
    /// A fixed experiment list (statistical-fault-injection sized).
    FixedN {
        /// The faults to inject, one experiment each.
        specs: Vec<FaultSpec>,
    },
    /// An adaptive sequential-sampling campaign.
    Adaptive {
        /// Stopping rule and cell layout.
        config: AdaptiveConfig,
        /// Campaign RNG seed (drives the draw sequence).
        seed: u64,
    },
}

/// One campaign queue as submitted to [`CampaignServer::start`].
pub struct QueueSpec {
    /// Queue name (also its share subdirectory; must be unique).
    pub name: String,
    /// Scheduling priority; higher is offered to claimants first.
    pub priority: u32,
    /// Max concurrently leased experiments, `0` = unlimited.
    pub quota: usize,
    /// Workload name workers resolve against their own registry.
    pub workload: String,
    /// Workload scale label (same registry key).
    pub scale: String,
    /// Prepared golden-run context (checkpoint, reference output, timing).
    pub prepared: PreparedWorkload,
    /// Fixed-n or adaptive.
    pub kind: QueueKind,
}

/// One queue: its campaign plus the static context served to workers.
struct Queue {
    name: String,
    priority: u32,
    quota: usize,
    workload: String,
    scale: String,
    prepared: PreparedWorkload,
    /// Serialized checkpoint image, encoded once and served by digest.
    ckpt_bytes: Arc<Vec<u8>>,
    campaign: Campaign,
}

impl Queue {
    fn report(&self) -> QueueReport {
        QueueReport {
            name: self.name.clone(),
            table: self.campaign.table(),
            completed: self.campaign.records(),
            adaptive: self.campaign.adaptive_outcome(),
            resumed: self.campaign.resumed(),
            retries: self.campaign.retries(),
            reclaimed: self.campaign.reclaimed(),
            per_worker: self.campaign.worker_counts().clone(),
        }
    }
}

/// The terminal summary of one queue.
#[derive(Debug)]
pub struct QueueReport {
    /// Queue name.
    pub name: String,
    /// Outcome histogram of every folded experiment.
    pub table: OutcomeTable,
    /// Terminal per-experiment records, in experiment order.
    pub completed: Vec<CompletedExperiment>,
    /// Adaptive conclusion, when the queue ran to its stopping rule.
    pub adaptive: Option<AdaptiveOutcome>,
    /// Terminal records replayed from the journal rather than executed.
    pub resumed: usize,
    /// Failed attempts retried.
    pub retries: u64,
    /// Expired leases reaped.
    pub reclaimed: u64,
    /// Completions credited per worker.
    pub per_worker: BTreeMap<String, usize>,
}

/// What the server did over its lifetime.
#[derive(Debug)]
pub struct ServerReport {
    /// Per-queue summaries, in priority order.
    pub queues: Vec<QueueReport>,
    /// Server uptime.
    pub wall: Duration,
}

/// State shared between the accept loop, connection handlers and the
/// owning [`CampaignServer`] handle.
struct Shared {
    queues: Mutex<Vec<Queue>>,
    shutdown: AtomicBool,
    started: Instant,
}

impl Shared {
    /// Offers `worker` the first claimable experiment in priority order.
    fn claim(&self, worker: &str) -> std::io::Result<ServerMsg> {
        let mut queues = self.queues.lock().expect("queue mutex");
        let mut reply = ServerMsg::Complete;
        for queue in queues.iter_mut() {
            match queue.campaign.try_claim(&queue.name, worker, queue.quota)? {
                // The server-side abort token is dropped: remote workers
                // abandon reaped attempts via heartbeat loss instead.
                ClaimReply::Work(work) => {
                    return Ok(ServerMsg::Work {
                        queue: work.queue,
                        exp: work.exp as u64,
                        attempt: work.attempt,
                        deadline_ms: work.deadline_ms,
                        lease_ms: work.lease_ms,
                        spec: work.spec.to_string(),
                    });
                }
                ClaimReply::Idle { backoff_ms } => reply = ServerMsg::Idle { backoff_ms },
                ClaimReply::Complete => {}
            }
        }
        Ok(reply)
    }

    fn heartbeat(&self, queue: &str, worker: &str, exp: usize, attempt: u64) -> ServerMsg {
        let mut queues = self.queues.lock().expect("queue mutex");
        let Some(q) = queues.iter_mut().find(|q| q.name == queue) else {
            return ServerMsg::HeartbeatLost;
        };
        match q.campaign.heartbeat(exp, worker, attempt) {
            Some(deadline_ms) => ServerMsg::HeartbeatAck { deadline_ms },
            None => ServerMsg::HeartbeatLost,
        }
    }

    /// Folds a result or failure report. Reports for unknown queues or
    /// experiments that moved on are stale, not errors — a worker may land
    /// a report after losing a race with the reaper.
    fn report(&self, msg: &ClientMsg) -> std::io::Result<ServerMsg> {
        let (ClientMsg::Result { queue, .. } | ClientMsg::Failed { queue, .. }) = msg else {
            unreachable!("report() is called for Result/Failed only")
        };
        let mut queues = self.queues.lock().expect("queue mutex");
        let Some(q) = queues.iter_mut().find(|q| &q.name == queue) else {
            return Ok(ServerMsg::Ack { accepted: 0 });
        };
        let ack = match msg {
            ClientMsg::Result { exp, attempt, worker, outcome, exit, ticks, .. } => {
                let Ok(outcome) = outcome.parse::<Outcome>() else {
                    return Ok(ServerMsg::Error { reason: format!("unknown outcome `{outcome}`") });
                };
                let done = CompletedExperiment {
                    exp: *exp as usize,
                    outcome,
                    attempts: *attempt,
                    ticks: *ticks,
                    resumed: false,
                };
                q.campaign.report_done(worker, None, done, exit)?
            }
            ClientMsg::Failed { exp, attempt, worker, reason, .. } => {
                q.campaign.report_failed(*exp as usize, *attempt, worker, reason)?
            }
            _ => unreachable!(),
        };
        Ok(ServerMsg::Ack { accepted: u64::from(ack == ReportAck::Accepted) })
    }

    /// The STATUS line stream: flat JSON, one object per line, terminated
    /// by `{"status":"end"}`.
    fn status_lines(&self) -> Vec<String> {
        let queues = self.queues.lock().expect("queue mutex");
        let done = queues.iter().all(|q| q.campaign.is_done());
        let status = |kind| FlatWriter::new("status", kind);
        let mut lines = vec![status("server")
            .num("queues", queues.len() as u64)
            .num("uptime_ms", self.started.elapsed().as_millis() as u64)
            .num("done", u64::from(done))
            .finish()];
        for q in queues.iter() {
            let sequential = q.campaign.sequential();
            let (terminal, total, leased) = q.campaign.progress();
            lines.push(
                status("queue")
                    .str("queue", &q.name)
                    .str("kind", if sequential.is_some() { "adaptive" } else { "fixed" })
                    .num("priority", u64::from(q.priority))
                    .num("quota", q.quota as u64)
                    .str("workload", &q.workload)
                    .num("terminal", terminal)
                    .num("total", total)
                    .num("leased", leased)
                    .num("retries", q.campaign.retries())
                    .num("reclaimed", q.campaign.reclaimed())
                    .num("resumed", q.campaign.resumed() as u64)
                    .num("done", u64::from(q.campaign.is_done()))
                    .finish(),
            );
            for (worker, n) in q.campaign.worker_counts() {
                lines.push(
                    status("worker")
                        .str("queue", &q.name)
                        .str("worker", worker)
                        .num("completed", *n as u64)
                        .finish(),
                );
            }
            if let Some((config, state)) = sequential {
                // Per-cell sequential-sampling telemetry: the live Wilson
                // intervals the stopping rule is watching, in ppm.
                for cell in state.reports(config.z) {
                    lines.push(
                        status("cell")
                            .str("queue", &q.name)
                            .text("cell", cell.cell)
                            .text("decision", cell.decision)
                            .num("n", cell.n)
                            .num("drawn", cell.drawn)
                            .num("max_hw_ppm", ppm(cell.stats.max_halfwidth(config.z)))
                            .finish(),
                    );
                    for outcome in Outcome::ALL {
                        if !outcome.is_experiment_outcome() {
                            continue;
                        }
                        lines.push(
                            status("rate")
                                .str("queue", &q.name)
                                .text("cell", cell.cell)
                                .text("outcome", outcome)
                                .num("rate_ppm", ppm(cell.stats.rate(outcome)))
                                .num("hw_ppm", ppm(cell.stats.halfwidth(outcome, config.z)))
                                .finish(),
                        );
                    }
                }
            }
        }
        lines.push(status("end").finish());
        lines
    }
}

/// A running campaign server. Dropping the handle does **not** stop the
/// daemon; call [`CampaignServer::shutdown`].
pub struct CampaignServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

impl CampaignServer {
    /// Seeds every queue's share (spooling the checkpoint and writing the
    /// journal header, or replaying the journal on resume), binds the
    /// listener and starts serving.
    ///
    /// # Errors
    ///
    /// Seeding I/O, journal-replay mismatches, or bind failures.
    pub fn start(config: ServerConfig, specs: Vec<QueueSpec>) -> std::io::Result<CampaignServer> {
        if specs.is_empty() {
            return Err(Error::new(ErrorKind::InvalidInput, "campaign server needs >= 1 queue"));
        }
        std::fs::create_dir_all(&config.share_dir)?;
        let policy = config.scheduler_policy();
        let mut queues = Vec::with_capacity(specs.len());
        for spec in specs {
            if queues.iter().any(|q: &Queue| q.name == spec.name) {
                return Err(Error::new(
                    ErrorKind::InvalidInput,
                    format!("duplicate queue name `{}`", spec.name),
                ));
            }
            queues.push(build_queue(&config, &policy, spec)?);
        }
        // Priority order is claim order; stable sort keeps submission
        // order among equals.
        queues.sort_by_key(|q| std::cmp::Reverse(q.priority));

        let listener = TcpListener::bind(&config.bind_addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            queues: Mutex::new(queues),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("gemfi-serve-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn accept thread");
        Ok(CampaignServer { addr, shared, accept: Some(accept) })
    }

    /// The bound listen address (resolves `:0` ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether every queue is terminal.
    pub fn is_complete(&self) -> bool {
        let queues = self.shared.queues.lock().expect("queue mutex");
        queues.iter().all(|q| q.campaign.is_done())
    }

    /// Polls until every queue is terminal or `timeout` elapses. Returns
    /// whether completion was reached.
    pub fn wait_complete(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.is_complete() {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Stops accepting connections and returns the per-queue summaries.
    /// In-flight journals stay on disk: a later `resume: true` start
    /// replays them and re-offers only the remainder.
    ///
    /// # Errors
    ///
    /// Propagates accept-thread panics as I/O errors.
    pub fn shutdown(mut self) -> std::io::Result<ServerReport> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop; a failed connect means it is already
        // gone, which is fine.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            accept.join().map_err(|_| Error::other("campaign server accept thread panicked"))?;
        }
        let queues = self.shared.queues.lock().expect("queue mutex");
        Ok(ServerReport {
            queues: queues.iter().map(Queue::report).collect(),
            wall: self.shared.started.elapsed(),
        })
    }
}

fn build_queue(
    config: &ServerConfig,
    policy: &SchedulerPolicy,
    spec: QueueSpec,
) -> std::io::Result<Queue> {
    let plan = match spec.kind {
        QueueKind::FixedN { specs } => Plan::fixed(specs),
        QueueKind::Adaptive { config: adaptive, seed } => {
            Plan::adaptive(adaptive, seed, spec.prepared.stage_events)
        }
    };
    let campaign = Campaign::open(
        &config.share_dir.join(&spec.name),
        &spec.prepared,
        plan,
        config.resume,
        config.clock.clone(),
        policy.clone(),
        0,
    )?;
    Ok(Queue {
        name: spec.name,
        priority: spec.priority,
        quota: spec.quota,
        workload: spec.workload,
        scale: spec.scale,
        ckpt_bytes: Arc::new(spec.prepared.checkpoint.to_bytes()),
        prepared: spec.prepared,
        campaign,
    })
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let conn_shared = Arc::clone(&shared);
        let _ = std::thread::Builder::new()
            .name("gemfi-serve-conn".to_string())
            .spawn(move || handle_connection(stream, conn_shared));
    }
}

/// One connection: a loop of line-delimited requests. Any read/parse/write
/// failure drops the connection; workers reconnect and retry.
fn handle_connection(stream: TcpStream, shared: Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let Ok(writer) = stream.try_clone() else { return };
    let mut writer = writer;
    let mut reader = BufReader::new(stream);
    loop {
        let line = match read_line_within(&mut reader, MAX_REQUEST_LINE) {
            Ok(Some(line)) => line,
            Ok(None) => return,
            // An overlong line cannot be resynchronised: refuse it and drop
            // the connection.
            Err(e) => {
                let reply = ServerMsg::Error { reason: e.to_string() };
                let _ = write_line(&mut writer, &reply.to_json());
                return;
            }
        };
        // The read may have blocked across `shutdown`: a request that lands
        // after it is dropped unanswered, so it can neither lease nor fold
        // into a journal a resumed server may own.
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let msg = match ClientMsg::parse(&line) {
            Ok(msg) => msg,
            Err(reason) => {
                let reply = ServerMsg::Error { reason };
                if write_line(&mut writer, &reply.to_json()).is_err() {
                    return;
                }
                continue;
            }
        };
        if dispatch(&shared, msg, &mut writer).is_err() {
            return;
        }
    }
}

fn dispatch(shared: &Shared, msg: ClientMsg, writer: &mut TcpStream) -> std::io::Result<()> {
    match msg {
        ClientMsg::Hello { worker: _, proto } => {
            let reply = if proto == PROTO_VERSION {
                let queues = shared.queues.lock().expect("queue mutex").len() as u64;
                ServerMsg::Welcome { proto: PROTO_VERSION, queues }
            } else {
                ServerMsg::Error {
                    reason: format!("protocol mismatch: server {PROTO_VERSION}, worker {proto}"),
                }
            };
            write_line(writer, &reply.to_json())
        }
        ClientMsg::Claim { worker } => {
            let reply = shared.claim(&worker)?;
            write_line(writer, &reply.to_json())
        }
        ClientMsg::Meta { queue } => {
            let reply = {
                let queues = shared.queues.lock().expect("queue mutex");
                match queues.iter().find(|q| q.name == queue) {
                    Some(q) => ServerMsg::Meta {
                        queue: q.name.clone(),
                        workload: q.workload.clone(),
                        scale: q.scale.clone(),
                        checkpoint_digest: q.prepared.checkpoint.digest(),
                        boot_ticks: q.prepared.boot_ticks,
                        kernel_ticks: q.prepared.kernel_ticks,
                        stage_events: q.prepared.stage_events,
                        golden_hex: hex_encode(&q.prepared.golden.bytes),
                    },
                    None => ServerMsg::Error { reason: format!("unknown queue `{queue}`") },
                }
            };
            write_line(writer, &reply.to_json())
        }
        ClientMsg::Checkpoint { queue } => {
            // Clone the Arc under the lock, stream the bytes outside it.
            let blob = {
                let queues = shared.queues.lock().expect("queue mutex");
                queues
                    .iter()
                    .find(|q| q.name == queue)
                    .map(|q| (Arc::clone(&q.ckpt_bytes), q.prepared.checkpoint.digest()))
            };
            match blob {
                Some((bytes, digest)) => {
                    let header = ServerMsg::Blob { len: bytes.len() as u64, digest };
                    write_line(writer, &header.to_json())?;
                    use std::io::Write;
                    writer.write_all(&bytes)?;
                    writer.flush()
                }
                None => {
                    let reply = ServerMsg::Error { reason: format!("unknown queue `{queue}`") };
                    write_line(writer, &reply.to_json())
                }
            }
        }
        ClientMsg::Heartbeat { worker, queue, exp, attempt } => {
            let reply = shared.heartbeat(&queue, &worker, exp as usize, attempt);
            write_line(writer, &reply.to_json())
        }
        msg @ (ClientMsg::Result { .. } | ClientMsg::Failed { .. }) => {
            let reply = shared.report(&msg)?;
            write_line(writer, &reply.to_json())
        }
        ClientMsg::Status => {
            for line in shared.status_lines() {
                write_line(writer, &line)?;
            }
            Ok(())
        }
    }
}
