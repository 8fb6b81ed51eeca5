//! Recovery tests for the campaign server: every recovery path the
//! networked topology promises, exercised over real localhost sockets.
//!
//! - a worker killed mid-window (lease held: a [`SocketTransport`] that
//!   claims and is dropped) is reaped and its experiment
//!   retried, and a server killed mid-campaign restarts from the journal,
//!   re-offering only the remainder — with the final outcome table
//!   byte-identical to a single-host spool run of the same seed;
//! - a worker that loses the server mid-experiment (network partition)
//!   detects heartbeat loss, aborts its window, and the restarted campaign
//!   still converges to the spool baseline;
//! - adaptive sequential-sampling campaigns run over the socket backend and
//!   agree with the spool backend;
//! - the `STATUS` endpoint streams live per-queue and per-cell metrics;
//! - a worker that cannot rebuild a queue's workload burns every attempt,
//!   and the queue ends all `Infrastructure` with the reason journaled;
//! - a worker name carrying a newline is refused by the protocol parser
//!   before it reaches the journal.
//! - a request line that never ends is refused, and the server keeps
//!   serving other connections.

use gemfi::Outcome;
use gemfi_campaign::wire::{read_line, write_line};
use gemfi_campaign::{
    prepare_workload, run_campaign_adaptive_now, run_campaign_now, run_experiment,
    run_socket_worker, AdaptiveConfig, CampaignServer, CampaignTransport, CellKind, ClaimReply,
    ClientMsg, FaultSampler, Journal, JournalEvent, NowConfig, QueueKind, QueueSpec, ReportAck,
    RunnerConfig, ServerConfig, SocketTransport, WorkerOptions, PROTO_VERSION,
};
use gemfi_workloads::pi::MonteCarloPi;
use gemfi_workloads::Workload;
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("gemfi-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn pi_workload() -> MonteCarloPi {
    MonteCarloPi { points: 60, init_spins: 30, ..MonteCarloPi::default() }
}

fn resolver(workload: &str, scale: &str) -> Option<Box<dyn Workload>> {
    (workload == "pi" && scale == "test").then(|| Box::new(pi_workload()) as Box<dyn Workload>)
}

/// A queue's share holds the campaign's three files and nothing per
/// experiment.
fn assert_only_campaign_files(queue_share: &Path) {
    let mut names: Vec<_> = std::fs::read_dir(queue_share)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["campaign.ckpt", "campaign.faults", "campaign.journal"]);
}

fn fast_server_config(share: &PathBuf) -> ServerConfig {
    ServerConfig {
        lease: Duration::from_millis(300),
        retry_backoff: Duration::from_millis(10),
        idle_backoff: Duration::from_millis(5),
        ..ServerConfig::new(share)
    }
}

fn fast_worker(name: &str) -> WorkerOptions {
    let mut opts = WorkerOptions::new(name);
    opts.connect_attempts = 4;
    opts.reconnect_delay = Duration::from_millis(5);
    opts
}

/// Scrapes the STATUS stream: Hello/Welcome handshake, then one line per
/// metrics object up to the `end` marker.
fn status_lines(addr: SocketAddr) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let hello = ClientMsg::Hello { worker: "probe".to_string(), proto: PROTO_VERSION };
    write_line(&mut stream, &hello.to_json()).unwrap();
    let welcome = read_line(&mut reader).unwrap().unwrap();
    assert!(welcome.contains("welcome"), "handshake reply: {welcome}");
    write_line(&mut stream, &ClientMsg::Status.to_json()).unwrap();
    let mut lines = Vec::new();
    loop {
        let line = read_line(&mut reader).unwrap().unwrap();
        let end = line.contains("\"end\"");
        lines.push(line);
        if end {
            return lines;
        }
    }
}

/// Crude flat-JSON field extraction for status assertions.
fn num_field(line: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat).unwrap() + pat.len()..];
    let end = rest.find([',', '}']).unwrap();
    rest[..end].parse().unwrap()
}

#[test]
fn killed_worker_and_restarted_server_match_the_spool_baseline() {
    let w = pi_workload();
    let prepared = prepare_workload(&w).unwrap();
    let mut sampler = FaultSampler::new(11, prepared.stage_events, 0, 0);
    let specs: Vec<_> = (0..6).map(|_| sampler.sample_any()).collect();
    let runner = RunnerConfig::default();

    // Single-host spool baseline of the same seed.
    let spool = scratch("kill-spool");
    let now_config = NowConfig::new(2, 1, &spool);
    let (baseline, baseline_completed, _) =
        run_campaign_now(&prepared, &w, &specs, &runner, &now_config).unwrap();

    // Phase 1: a worker that finishes one experiment, claims a second and
    // dies with that lease in hand.
    let share = scratch("kill-share");
    let queue = || QueueSpec {
        name: "pi-fixed".to_string(),
        priority: 1,
        quota: 0,
        workload: "pi".to_string(),
        scale: "test".to_string(),
        prepared: prepared.clone(),
        kind: QueueKind::FixedN { specs: specs.clone() },
    };
    let server1 = CampaignServer::start(fast_server_config(&share), vec![queue()]).unwrap();
    let addr1 = server1.addr();
    let mut doomed = SocketTransport::new(addr1.to_string(), &fast_worker("doomed"));
    let claim = |doomed: &mut SocketTransport| match doomed.claim("doomed").unwrap() {
        ClaimReply::Work(work) => work,
        other => panic!("expected work, got {other:?}"),
    };
    let first = claim(&mut doomed);
    let ran = run_experiment(&prepared, &w, first.spec, &runner);
    let exit = ran.exit.to_string();
    let ack = doomed.report_result("doomed", &first, ran.outcome, &exit, ran.ticks).unwrap();
    assert_eq!(ack, ReportAck::Accepted);
    // The second claim is the doomed worker's last act: dropped, it never
    // reports or heartbeats again.
    claim(&mut doomed);
    drop(doomed);

    // Mid-campaign metrics: the queue is visibly incomplete and a lease is
    // still outstanding (the dead worker's orphan).
    let status = status_lines(addr1);
    let qline = status.iter().find(|l| l.contains("\"pi-fixed\"")).unwrap();
    assert!(num_field(qline, "terminal") < num_field(qline, "total"));
    assert_eq!(num_field(qline, "leased"), 1, "orphaned lease outstanding: {qline}");
    assert_eq!(num_field(qline, "done"), 0);

    // Phase 2: kill the server mid-campaign. The journal, with the dead
    // worker's dangling `leased` line, stays on the share.
    let partial = server1.shutdown().unwrap();
    assert!(partial.queues[0].table.total() < specs.len() as u64);

    // Phase 3: restart on a fresh port with `resume`, finish with two new
    // workers.
    let config2 = ServerConfig { resume: true, ..fast_server_config(&share) };
    let server2 = CampaignServer::start(config2, vec![queue()]).unwrap();
    let addr2 = server2.addr();
    let workers: Vec<_> = ["w1", "w2"]
        .into_iter()
        .map(|name| {
            std::thread::spawn(move || {
                run_socket_worker(&addr2.to_string(), &resolver, &fast_worker(name))
            })
        })
        .collect();
    assert!(server2.wait_complete(Duration::from_secs(120)), "campaign must finish");
    for worker in workers {
        let report = worker.join().unwrap().unwrap();
        assert_eq!(report.failed, 0);
    }
    let report = server2.shutdown().unwrap();
    let q = &report.queues[0];

    // The restart replayed the journal (the dead worker's completed
    // experiment) and reaped its orphaned lease.
    assert!(q.resumed >= 1, "journal replay must supply the finished prefix");
    assert!(q.reclaimed >= 1, "the orphaned lease must be reaped");

    // Byte-identical outcome table and per-experiment outcomes vs the
    // spool run of the same seed.
    assert_eq!(q.table, baseline);
    let mut got: Vec<_> = q.completed.iter().map(|c| (c.exp, c.outcome)).collect();
    got.sort_unstable_by_key(|(exp, _)| *exp);
    let mut want: Vec<_> = baseline_completed.iter().map(|c| (c.exp, c.outcome)).collect();
    want.sort_unstable_by_key(|(exp, _)| *exp);
    assert_eq!(got, want);

    // The queue's share holds the campaign's files and nothing per
    // experiment; `campaign.faults` lists the specs in experiment order.
    let queue_share = share.join("pi-fixed");
    assert_only_campaign_files(&queue_share);
    let listed = gemfi::FaultConfig::load(&queue_share.join("campaign.faults")).unwrap();
    assert_eq!(listed.faults(), specs);
}

#[test]
fn partitioned_worker_abandons_via_heartbeat_loss_and_the_campaign_recovers() {
    let w = MonteCarloPi { points: 4_000, init_spins: 200, ..MonteCarloPi::default() };
    let prepared = prepare_workload(&w).unwrap();
    let mut sampler = FaultSampler::new(23, prepared.stage_events, 0, 0);
    let specs: Vec<_> = (0..2).map(|_| sampler.sample_any()).collect();
    let runner = RunnerConfig::default();

    let spool = scratch("part-spool");
    let (baseline, _, _) =
        run_campaign_now(&prepared, &w, &specs, &runner, &NowConfig::new(1, 1, &spool)).unwrap();

    let resolve = move |workload: &str, scale: &str| -> Option<Box<dyn Workload>> {
        (workload == "pi" && scale == "test").then(|| Box::new(w) as Box<dyn Workload>)
    };
    let share = scratch("part-share");
    let queue = || QueueSpec {
        name: "pi-long".to_string(),
        priority: 1,
        quota: 0,
        workload: "pi".to_string(),
        scale: "test".to_string(),
        prepared: prepared.clone(),
        kind: QueueKind::FixedN { specs: specs.clone() },
    };
    let config = ServerConfig { lease: Duration::from_millis(150), ..fast_server_config(&share) };
    let server = CampaignServer::start(config, vec![queue()]).unwrap();
    let addr = server.addr();
    let stranded = std::thread::spawn(move || {
        let mut opts = fast_worker("stranded");
        // Poll the abort token often so heartbeat loss cuts the run fast.
        opts.runner = RunnerConfig { chunk: 2_000, ..RunnerConfig::default() };
        run_socket_worker(&addr.to_string(), &resolve, &opts)
    });

    // Wait until the worker holds a lease (it is mid-experiment), then
    // partition it by killing the server.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let status = status_lines(addr);
        let qline = status.iter().find(|l| l.contains("\"pi-long\"")).unwrap().clone();
        if num_field(&qline, "leased") >= 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "worker never claimed: {qline}");
        std::thread::sleep(Duration::from_millis(5));
    }
    let _ = server.shutdown().unwrap();

    // The stranded worker must notice the dead server (missed heartbeats
    // raise its abort token, reports cannot land) and give up with an
    // error rather than hanging.
    let stranded = stranded.join().unwrap();
    assert!(stranded.is_err(), "partitioned worker must surface the loss, got {stranded:?}");

    // Recovery: restart from the journal; a fresh worker finishes the
    // campaign and the abandoned experiment reruns cleanly.
    let config2 = ServerConfig { resume: true, ..fast_server_config(&share) };
    let server2 = CampaignServer::start(config2, vec![queue()]).unwrap();
    let addr2 = server2.addr();
    let finisher = std::thread::spawn(move || {
        run_socket_worker(&addr2.to_string(), &resolve, &fast_worker("finisher"))
    });
    assert!(server2.wait_complete(Duration::from_secs(120)));
    finisher.join().unwrap().unwrap();
    let report = server2.shutdown().unwrap();
    assert_eq!(report.queues[0].table, baseline);
}

#[test]
fn adaptive_campaign_over_the_socket_matches_the_spool_backend() {
    let w = pi_workload();
    let prepared = prepare_workload(&w).unwrap();
    let adaptive = AdaptiveConfig {
        min_n: 6,
        budget: 18,
        batch: 6,
        cells: vec![CellKind::parse("int-reg").unwrap(), CellKind::parse("pc").unwrap()],
        ..AdaptiveConfig::default()
    };
    let seed = 41;
    let runner = RunnerConfig::default();

    let spool = scratch("adapt-spool");
    let (spool_outcome, _) = run_campaign_adaptive_now(
        &prepared,
        &w,
        &runner,
        &NowConfig::new(2, 1, &spool),
        &adaptive,
        seed,
    )
    .unwrap();

    let share = scratch("adapt-share");
    let server = CampaignServer::start(
        fast_server_config(&share),
        vec![QueueSpec {
            name: "pi-adaptive".to_string(),
            priority: 1,
            quota: 0,
            workload: "pi".to_string(),
            scale: "test".to_string(),
            prepared: prepared.clone(),
            kind: QueueKind::Adaptive { config: adaptive.clone(), seed },
        }],
    )
    .unwrap();
    let addr = server.addr();
    let workers: Vec<_> = ["a1", "a2"]
        .into_iter()
        .map(|name| {
            std::thread::spawn(move || {
                run_socket_worker(&addr.to_string(), &resolver, &fast_worker(name))
            })
        })
        .collect();
    assert!(server.wait_complete(Duration::from_secs(120)));

    // The live STATUS stream carries the per-cell adaptive telemetry:
    // decision, sample counts, and Wilson-interval widths in ppm.
    let status = status_lines(addr);
    let cells: Vec<_> = status.iter().filter(|l| l.contains("\"status\":\"cell\"")).collect();
    assert_eq!(cells.len(), adaptive.cells.len(), "one cell line per cell: {status:?}");
    for cell in &cells {
        assert!(cell.contains("\"decision\""), "{cell}");
        assert!(num_field(cell, "drawn") >= num_field(cell, "n"));
    }
    let rates: Vec<_> = status.iter().filter(|l| l.contains("\"status\":\"rate\"")).collect();
    assert_eq!(rates.len(), adaptive.cells.len() * 5, "five outcome rates per cell");

    for worker in workers {
        worker.join().unwrap().unwrap();
    }
    let report = server.shutdown().unwrap();
    let socket_outcome = report.queues[0].adaptive.as_ref().expect("adaptive queue finished");

    // Same draw sequence, same per-experiment results: the two transports
    // must agree exactly.
    assert_eq!(socket_outcome.table, spool_outcome.table);
    assert_eq!(socket_outcome.experiments, spool_outcome.experiments);
    assert_eq!(socket_outcome.rounds, spool_outcome.rounds);
    for (a, b) in socket_outcome.cells.iter().zip(spool_outcome.cells.iter()) {
        assert_eq!(a.n, b.n);
        assert_eq!(a.drawn, b.drawn);
        assert_eq!(a.stats.table(), b.stats.table());
    }
}

#[test]
fn a_worker_without_the_queue_workload_fails_every_attempt_into_infrastructure() {
    let w = pi_workload();
    let prepared = prepare_workload(&w).unwrap();
    let mut sampler = FaultSampler::new(13, prepared.stage_events, 0, 0);
    let specs: Vec<_> = (0..3).map(|_| sampler.sample_any()).collect();
    let share = scratch("no-workload");
    let queue = QueueSpec {
        name: "pi-fixed".to_string(),
        priority: 1,
        quota: 0,
        workload: "pi".to_string(),
        scale: "test".to_string(),
        prepared,
        kind: QueueKind::FixedN { specs: specs.clone() },
    };
    let config = ServerConfig { max_retries: 1, ..fast_server_config(&share) };
    let server = CampaignServer::start(config, vec![queue]).unwrap();
    let knows_nothing = |_: &str, _: &str| -> Option<Box<dyn Workload>> { None };
    let report =
        run_socket_worker(&server.addr().to_string(), &knows_nothing, &fast_worker("w")).unwrap();
    assert!(server.wait_complete(Duration::from_secs(60)));

    // Every claim burned its attempt on the missing workload: two per
    // experiment under `max_retries: 1`.
    assert_eq!((report.completed, report.failed), (0, report.claims), "{report:?}");
    assert_eq!(report.claims, 2 * specs.len() as u64);
    let q = &server.shutdown().unwrap().queues[0];
    assert_eq!(q.table.count(Outcome::Infrastructure), specs.len() as u64);
    assert!(q.completed.iter().all(|c| c.outcome == Outcome::Infrastructure));

    // Each terminal `failed` line names the cause and the experiment's spec.
    let queue_share = share.join("pi-fixed");
    let events = Journal::replay(&Journal::path_in(&queue_share)).unwrap();
    let failed: Vec<_> = events
        .into_iter()
        .filter_map(|e| match e {
            JournalEvent::Failed { exp, reason, spec, .. } => Some((exp, reason, spec)),
            _ => None,
        })
        .collect();
    assert_eq!(failed.len(), specs.len());
    for (exp, reason, spec) in failed {
        assert!(reason.contains("no local workload for `pi`"), "exp {exp}: {reason}");
        assert_eq!(spec, Some(specs[exp as usize].to_string()));
    }
    assert_only_campaign_files(&queue_share);
}

#[test]
fn a_worker_name_with_a_newline_is_refused_before_it_reaches_the_journal() {
    let w = pi_workload();
    let prepared = prepare_workload(&w).unwrap();
    let mut sampler = FaultSampler::new(5, prepared.stage_events, 0, 0);
    let specs: Vec<_> = (0..2).map(|_| sampler.sample_any()).collect();
    let share = scratch("hostile-name");
    let queue = QueueSpec {
        name: "pi-fixed".to_string(),
        priority: 1,
        quota: 0,
        workload: "pi".to_string(),
        scale: "test".to_string(),
        prepared,
        kind: QueueKind::FixedN { specs },
    };
    let server = CampaignServer::start(fast_server_config(&share), vec![queue]).unwrap();
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut ask = |msg: ClientMsg| {
        write_line(&mut stream, &msg.to_json()).unwrap();
        read_line(&mut reader).unwrap().unwrap()
    };
    // The lease owners the queue's journal records.
    let leases = || {
        let events = Journal::replay(&Journal::path_in(&share.join("pi-fixed"))).unwrap();
        let owner = |e: JournalEvent| match e {
            JournalEvent::Leased { worker, .. } => Some(worker),
            _ => None,
        };
        events.into_iter().filter_map(owner).collect::<Vec<_>>()
    };

    // A name that spans lines would split every plain-text line it is
    // printed in, such as `gemfi_serve`'s `workers:` summary.
    let hostile = "w\nattempt=99";
    for msg in [
        ClientMsg::Hello { worker: hostile.to_string(), proto: PROTO_VERSION },
        ClientMsg::Claim { worker: hostile.to_string() },
    ] {
        let reply = ask(msg);
        assert!(reply.contains("\"error\"") && reply.contains("control character"), "{reply}");
        assert_eq!(leases(), Vec::<String>::new(), "no lease for a refused name");
    }

    // The connection survives the refusal, and an honest name owns its lease.
    let reply = ask(ClientMsg::Claim { worker: "w".to_string() });
    assert!(reply.contains("\"work\""), "{reply}");
    assert_eq!(leases(), ["w"]);
    let _ = server.shutdown().unwrap();
}

#[test]
fn an_endless_request_line_is_refused_and_the_server_keeps_serving() {
    let w = pi_workload();
    let prepared = prepare_workload(&w).unwrap();
    let mut sampler = FaultSampler::new(5, prepared.stage_events, 0, 0);
    let specs: Vec<_> = (0..2).map(|_| sampler.sample_any()).collect();
    let share = scratch("endless-line");
    let queue = QueueSpec {
        name: "pi-fixed".to_string(),
        priority: 1,
        quota: 0,
        workload: "pi".to_string(),
        scale: "test".to_string(),
        prepared,
        kind: QueueKind::FixedN { specs },
    };
    let server = CampaignServer::start(fast_server_config(&share), vec![queue]).unwrap();

    // A client that streams bytes and never a newline: 1 MiB, far past any
    // legitimate request. The server must hang up rather than buffer it all.
    let mut flood = TcpStream::connect(server.addr()).unwrap();
    flood.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    flood.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    for _ in 0..128 {
        if flood.write_all(&[b'x'; 8192]).is_err() {
            break; // the server hung up
        }
    }
    match read_line(&mut BufReader::new(flood)) {
        Ok(Some(reply)) => assert!(reply.contains("\"error\""), "{reply}"),
        Ok(None) => {}
        Err(e) => assert_eq!(e.kind(), ErrorKind::ConnectionReset, "the server kept reading: {e}"),
    }

    // Other connections are still served.
    let lines = status_lines(server.addr());
    assert!(lines[0].contains("\"status\":\"server\""), "{lines:?}");
    let _ = server.shutdown().unwrap();
    std::fs::remove_dir_all(&share).ok();
}
