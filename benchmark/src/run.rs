//! One benchmark run: set-up, reference, warm-up, timed repetitions, the
//! correctness gate, and the metrics — end-to-end with tracing off, or
//! per-layer from the traced run.

use crate::exec::{
    fold_server_report, inproc_adaptive, inproc_verdicts, out_dir, run_fleet, run_rep, spool_rep,
    RepResult, Scratch, Stopwatch, Verdict, FABRIC_WORKERS,
};
use crate::host::{median, peak_rss_mib, provenance, quantile};
use crate::json::Json;
use crate::metrics::{Metrics, END_TO_END, PER_LAYER};
use crate::micro;
use crate::replica::{
    adaptive_pass, forked_pass, idle_frac, replica_pass, traced_socket_worker, Counters,
    ForkCounters,
};
use crate::trace::{dump, merge_self_times, Tracer};
use crate::workloads::{find, prepare, Executor, PreparedGuest, WorkloadDef, WORKLOADS};
use gemfi::Outcome;
use gemfi_campaign::{CellDecision, CellReport, OutcomeTable};
use gemfi_cpu::CpuKind;
use std::path::PathBuf;
use std::time::Instant;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// How long to keep starting timed repetitions.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny counts: a smoke run, not a measurement.
    pub quick: bool,
    /// Where the result file and span dump go.
    pub out: PathBuf,
}

impl RunArgs {
    pub fn new(workload: &str) -> RunArgs {
        RunArgs {
            workload: workload.to_string(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            quick: false,
            out: out_dir(),
        }
    }
}

/// What the run ends with: the driver's last line, and whether it passed.
#[derive(Debug)]
pub struct RunReport {
    pub line: Json,
    pub correct: bool,
}

/// The per-cell facts an adaptive campaign must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CellSummary {
    decision: CellDecision,
    n: u64,
    drawn: u64,
    table: OutcomeTable,
}

impl From<&CellReport> for CellSummary {
    fn from(c: &CellReport) -> CellSummary {
        CellSummary { decision: c.decision, n: c.n, drawn: c.drawn, table: *c.stats.table() }
    }
}

/// What every repetition is checked against: the in-process run of the same
/// specs and config.
enum Reference {
    Fixed(Vec<Vec<Verdict>>),
    Adaptive(Vec<Vec<CellSummary>>),
}

impl Reference {
    fn adaptive<'a>(cells: impl Iterator<Item = &'a [CellReport]>) -> Reference {
        Reference::Adaptive(cells.map(|c| c.iter().map(CellSummary::from).collect()).collect())
    }

    /// Experiments of `rep` that failed: classified `Infrastructure`,
    /// missing, or differing from the reference (outcome, exit or ticks);
    /// for the adaptive workload, every experiment of a cell whose decision
    /// or counts differ.
    fn failures(&self, rep: &RepResult) -> u64 {
        match self {
            Reference::Fixed(reference) => {
                let mut failed = 0;
                for (want, got) in reference.iter().zip(&rep.verdicts) {
                    failed += want.len().saturating_sub(got.len()) as u64;
                    for (w, g) in want.iter().zip(got) {
                        let exits_agree = match (w.exit, g.exit) {
                            (Some(a), Some(b)) => a == b,
                            _ => true,
                        };
                        let same = w.outcome == g.outcome && w.ticks == g.ticks && exits_agree;
                        failed += u64::from(!same || g.outcome == Outcome::Infrastructure);
                    }
                }
                failed + reference.len().saturating_sub(rep.verdicts.len()) as u64
            }
            Reference::Adaptive(reference) => {
                let mut failed = 0;
                for (want, got) in reference.iter().zip(&rep.adaptive) {
                    failed += got.table.infrastructure_failures();
                    for (w, g) in want.iter().zip(&got.cells) {
                        if *w != CellSummary::from(g) {
                            failed += w.n.max(g.n).max(1);
                        }
                    }
                    failed += want.len().abs_diff(got.cells.len()) as u64;
                }
                failed + reference.len().saturating_sub(rep.adaptive.len()) as u64
            }
        }
    }
}

/// Timed repetitions: keeps starting one until `seconds` have passed, and
/// runs at least `min_reps`.
fn timed_reps(seconds: f64, min_reps: usize, mut rep: impl FnMut() -> RepResult) -> Vec<RepResult> {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        reps.push(rep());
    }
    reps
}

fn rates<'a>(reps: impl IntoIterator<Item = &'a RepResult>) -> Vec<f64> {
    reps.into_iter().map(|r| r.experiments() as f64 / r.wall_s).collect()
}

/// Runs one workload and reports.
///
/// # Errors
///
/// Unknown workload, a guest that fails to prepare, or result-file I/O.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    let def = find(&args.workload).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{}` (one of: {})", args.workload, names.join(", "))
    })?;
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let scratch = Scratch::new().map_err(|e| format!("scratch: {e}"))?;
    let min_reps = if args.quick { 2 } else { 3 };

    // Set-up is everything before the first timed repetition: guest build,
    // `prepare_workload` (boot → checkpoint → golden run) and spec sampling.
    // (A socket workload starts a fresh server inside every timed
    // repetition, so server start and checkpoint shipping are part of
    // `exp_per_s` there, not of set-up.) It takes a few dozen milliseconds —
    // one on the small guests — so it is repeated and the median reported.
    // The traced run reports no set-up time and sets up once.
    let setup_started = Instant::now();
    let mut setup_samples = Vec::new();
    let mut guests = Vec::new();
    while setup_samples.is_empty()
        || (!args.trace
            && setup_samples.len() < 40
            && (setup_samples.len() < 3 || setup_started.elapsed().as_secs_f64() < 0.5))
    {
        let started = Instant::now();
        guests = prepare(def, args.seed, args.quick)?;
        setup_samples.push(started.elapsed().as_secs_f64());
    }

    let mut report = if args.trace {
        traced_run(def, args, &guests, &scratch)
    } else {
        untraced_run(def, args, &guests, &scratch, min_reps, &setup_samples)
    };

    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    if args.trace {
        report.metrics.set("failed_frac", failed_frac);
        report.metrics.set("peak_rss_mib", peak_rss_mib());
    }
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let metrics = report.metrics.completed(expected);
    let correct = report.failed == 0;

    println!("workload {} seed {} trace {}", def.name, args.seed, u8::from(args.trace));
    metrics.print();
    println!(
        "attempted {} failed {} failed_frac {failed_frac} repetitions {}",
        report.attempted, report.failed, report.repetitions
    );

    let counts = Json::Obj(
        guests.iter().map(|g| (g.plan.guest.to_string(), Json::from(g.plan.count))).collect(),
    );
    let file = Json::obj([
        ("benchmark", Json::str("campaign_e2e")),
        ("workload", Json::str(def.name)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("quick", Json::Bool(args.quick)),
        ("provenance", provenance(scratch.root())),
        ("counts_per_repetition", counts),
        ("repetitions", Json::from(report.repetitions)),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("failed_frac", Json::from(failed_frac)),
        ("correct", Json::Bool(correct)),
        ("metrics", metrics.file_json()),
        ("budget", Json::Arr(report.budget)),
    ]);
    let name = format!("result.{}.seed{}.trace{}.json", def.name, args.seed, u8::from(args.trace));
    let path = args.out.join(name);
    std::fs::write(&path, file.pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    if let Some(spans) = report.spans {
        let path = args.out.join(format!("trace.{}.json", def.name));
        std::fs::write(&path, spans.compact()).map_err(|e| format!("{}: {e}", path.display()))?;
    }

    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(report.attempted)),
        ("failed", Json::from(report.failed)),
        ("metrics", metrics.driver_json()),
    ]);
    Ok(RunReport { line, correct })
}

/// What either kind of run hands back to [`run`].
struct Measured {
    metrics: Metrics,
    attempted: u64,
    failed: u64,
    repetitions: usize,
    /// Time-budget rows (traced run only).
    budget: Vec<Json>,
    /// Span dump (traced run only).
    spans: Option<Json>,
}

/// End-to-end metrics, through the real entry points with tracing off.
fn untraced_run(
    def: &WorkloadDef,
    args: &RunArgs,
    guests: &[PreparedGuest],
    scratch: &Scratch,
    min_reps: usize,
    setup_samples: &[f64],
) -> Measured {
    let runner = def.runner();
    // The in-process executor is its own reference: its warm-up repetition
    // stands for the spec list, and every timed one must reproduce it.
    let warm_up = run_rep(def, guests, args.seed, scratch);
    let reference = match def.executor {
        Executor::Inproc => Reference::Fixed(warm_up.verdicts.clone()),
        Executor::AdaptiveSocket => {
            let outcomes = inproc_adaptive(guests, args.seed);
            Reference::adaptive(outcomes.iter().map(|o| o.cells.as_slice()))
        }
        _ => Reference::Fixed(guests.iter().map(|g| inproc_verdicts(g, &runner)).collect()),
    };
    let reps = timed_reps(args.seconds, min_reps, || run_rep(def, guests, args.seed, scratch));

    let mut attempted = warm_up.experiments();
    let mut failed = reference.failures(&warm_up);
    for rep in &reps {
        attempted += rep.experiments();
        failed += reference.failures(rep);
    }

    let mut metrics = Metrics::default();
    let rate_samples = rates(&reps);
    metrics.set_samples("exp_per_s", median(&rate_samples), &rate_samples);
    let cpu_samples: Vec<f64> =
        reps.iter().map(|r| r.cpu_s / r.experiments() as f64 * 1000.0).collect();
    metrics.set_samples("cpu_s_per_kexp", median(&cpu_samples), &cpu_samples);
    metrics.set_samples("setup_s", median(setup_samples), setup_samples);
    Measured {
        metrics,
        attempted,
        failed,
        repetitions: reps.len(),
        budget: Vec::new(),
        spans: None,
    }
}

/// One traced repetition of the executor, and what it left behind.
struct TracedRep {
    rep: RepResult,
    workers: Vec<Tracer>,
    /// Shares whose journals are still on disk.
    shares: Vec<PathBuf>,
}

/// What the traced repetitions add up across a run.
struct TraceTotals {
    /// Main-thread spans of the whole-run replica.
    replica_tr: Tracer,
    /// Main-thread spans of the executor, where it is not the replica.
    exec_tr: Tracer,
    counters: Counters,
    replica_passes: u64,
    fork: ForkCounters,
}

fn traced_rep(
    def: &WorkloadDef,
    args: &RunArgs,
    guests: &[PreparedGuest],
    scratch: &Scratch,
    epoch: Instant,
    totals: &mut TraceTotals,
) -> TracedRep {
    let runner = def.runner();
    let mut out = TracedRep { rep: RepResult::default(), workers: Vec::new(), shares: Vec::new() };
    match def.executor {
        Executor::Inproc => {
            let watch = Stopwatch::start();
            out.rep.verdicts =
                replica_pass(&mut totals.replica_tr, guests, &runner, &mut totals.counters);
            (out.rep.wall_s, out.rep.cpu_s) = watch.stop();
            totals.replica_passes += 1;
        }
        Executor::Forked => {
            let watch = Stopwatch::start();
            out.rep.verdicts = forked_pass(&mut totals.exec_tr, guests, &runner, &mut totals.fork);
            (out.rep.wall_s, out.rep.cpu_s) = watch.stop();
        }
        // `SpoolTransport` is `pub(crate)`: no span can get inside
        // `run_campaign_now`. The spool is measured by subtraction.
        Executor::Spool => out.shares = spool_rep(guests, &runner, scratch, &mut out.rep),
        Executor::Socket | Executor::AdaptiveSocket => {
            let share = scratch.fresh("server");
            let (report, workers) =
                run_fleet(def, guests, args.seed, &share, &mut out.rep, |i, addr| {
                    traced_socket_worker(epoch, i, addr, guests, &runner)
                });
            fold_server_report(def, report, &mut out.rep);
            out.workers = workers;
            out.shares = guests.iter().map(|g| share.join(g.plan.guest)).collect();
        }
    }
    out
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Per-layer metrics: the workload once more with spans recorded.
fn traced_run(
    def: &WorkloadDef,
    args: &RunArgs,
    guests: &[PreparedGuest],
    scratch: &Scratch,
) -> Measured {
    let runner = def.runner();
    let epoch = Instant::now();
    let mut metrics = Metrics::default();
    metrics
        .set("campaign.runner.prepare_ms", guests.iter().map(|g| g.prepare_s).sum::<f64>() * 1e3);

    // The real entry points once, untimed: what the replicas are held to.
    let warm_up = run_rep(def, guests, args.seed, scratch);

    // The whole-run replica over the same specs, in-process: where every
    // workload's sim/cpu/isa/mem figures come from. On the in-process
    // workloads it *is* the traced executor; elsewhere it is also the
    // reference the real executor's results must equal.
    let mut totals = TraceTotals {
        replica_tr: Tracer::new(epoch),
        exec_tr: Tracer::new(epoch),
        counters: Counters::default(),
        replica_passes: 0,
        fork: ForkCounters::default(),
    };
    let reference = match def.executor {
        Executor::Inproc => Reference::Fixed(warm_up.verdicts.clone()),
        Executor::AdaptiveSocket => {
            totals.replica_passes += 1;
            let cells = adaptive_pass(
                &mut totals.replica_tr,
                guests,
                args.seed,
                &runner,
                &mut totals.counters,
            );
            Reference::adaptive(cells.iter().map(Vec::as_slice))
        }
        _ => {
            totals.replica_passes += 1;
            Reference::Fixed(replica_pass(
                &mut totals.replica_tr,
                guests,
                &runner,
                &mut totals.counters,
            ))
        }
    };

    // Untraced and traced repetitions take turns, so that a drift over the
    // run (the share's filesystem slows as leases are deleted) falls on both
    // alike and the tracing overhead is not an ordering artefact.
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while traced.len() < 2 || started.elapsed().as_secs_f64() < args.seconds {
        untraced.push(run_rep(def, guests, args.seed, scratch));
        traced.push(traced_rep(def, args, guests, scratch, epoch, &mut totals));
    }
    let TraceTotals { replica_tr, exec_tr, counters, replica_passes, fork } = totals;

    let mut attempted = warm_up.experiments();
    let mut failed = reference.failures(&warm_up);
    for rep in untraced.iter().chain(traced.iter().map(|t| &t.rep)) {
        attempted += rep.experiments();
        failed += reference.failures(rep);
    }

    // Whole-run layers, off the replica's spans and exact counters.
    let n = counters.experiments as f64;
    let o3_s = replica_tr.total("cpu.o3.prefix") + replica_tr.total("cpu.o3.grace");
    let atomic_s = replica_tr.total("cpu.atomic.suffix");
    let exp_ms: Vec<f64> = replica_tr.durations("exp").iter().map(|s| s * 1e3).collect();
    let replica_exec_s = replica_tr.total("exp") / replica_passes as f64;
    metrics.set("sim.restore_us", mean(&replica_tr.durations("sim.restore")) * 1e6);
    metrics.set("sim.switch_cpu_us", mean(&replica_tr.durations("sim.switch_cpu")) * 1e6);
    let ticks_per_pass =
        (counters.inject_ticks + counters.finish_ticks) as f64 / replica_passes as f64;
    metrics.set("sim.ticks_simulated", ticks_per_pass);
    metrics.set("sim.elided_frac", ratio(counters.elided as f64, counters.instructions as f64));
    metrics.set("cpu.o3.prefix_ms_per_exp", ratio(replica_tr.total("cpu.o3.prefix") * 1e3, n));
    metrics.set("cpu.o3.grace_us", mean(&replica_tr.durations("cpu.o3.grace")) * 1e6);
    metrics.set("cpu.o3.ns_per_tick", ratio(o3_s * 1e9, counters.inject_ticks as f64));
    metrics.set("cpu.o3.wall_share", ratio(o3_s, replica_tr.total("rep")));
    metrics.set("cpu.atomic.suffix_ms_per_exp", ratio(atomic_s * 1e3, n));
    metrics.set("cpu.atomic.ns_per_tick", ratio(atomic_s * 1e9, counters.finish_ticks as f64));
    metrics.set(
        "isa.superblock.uop_frac",
        ratio(counters.superblock_uops as f64, counters.instructions as f64),
    );
    metrics.set(
        "isa.predecode.hit_frac",
        ratio(
            counters.predecode_hits as f64,
            (counters.predecode_hits + counters.predecode_misses) as f64,
        ),
    );
    metrics.set("mem.cow.pages_owned_per_exp", ratio(counters.pages_owned as f64, n));
    metrics.set("campaign.classify_us", mean(&replica_tr.durations("campaign.classify")) * 1e6);
    metrics.set_samples("campaign.runner.exp_ms.p50", quantile(&exp_ms, 0.5), &exp_ms);
    metrics.set_samples("campaign.runner.exp_ms.p99", quantile(&exp_ms, 0.99), &exp_ms);
    metrics.set("campaign.runner.watchdog_frac", ratio(counters.watchdog_exits as f64, n));
    if def.executor == Executor::AdaptiveSocket {
        let rounds: u64 = untraced[0].adaptive.iter().map(|a| a.rounds).sum();
        metrics.set("campaign.adaptive.rounds", rounds as f64);
        metrics.set("campaign.adaptive.experiments", untraced[0].experiments() as f64);
        metrics.set(
            "campaign.adaptive.replan_us",
            ratio(replica_tr.total("campaign.adaptive.replan") * 1e6, rounds as f64),
        );
    }

    // The forked executor's own halves.
    if def.executor == Executor::Forked {
        let reps = traced.len() as f64;
        metrics.set("campaign.fork.plan_ms", exec_tr.total("campaign.fork.plan") * 1e3 / reps);
        metrics.set("campaign.fork.drive_ms", exec_tr.total("campaign.fork.drive") * 1e3 / reps);
        metrics.set(
            "campaign.fork.forked_frac",
            ratio(fork.forked as f64, (fork.forked + fork.fallbacks) as f64),
        );
        metrics
            .set("campaign.fork.suffix_tick_frac", ratio(fork.ticks as f64 / reps, ticks_per_pass));
    }

    // The fabric: what it costs on top of executing the same specs.
    let per_rep_exps = untraced[0].experiments() as f64;
    let untraced_rates = rates(&untraced);
    let untraced_wall = per_rep_exps / median(&untraced_rates);
    let overhead_us = (FABRIC_WORKERS as f64 * untraced_wall - replica_exec_s) / per_rep_exps * 1e6;
    match def.executor {
        Executor::Spool => metrics.set("campaign.spool.overhead_us_per_exp", overhead_us),
        Executor::Socket | Executor::AdaptiveSocket => {
            metrics.set("campaign.socket.overhead_us_per_exp", overhead_us);
        }
        Executor::Inproc | Executor::Forked => {}
    }
    let workers: Vec<Tracer> = traced.iter().flat_map(|t| t.workers.iter().cloned()).collect();
    if !workers.is_empty() {
        let us = |name: &str| -> Vec<f64> {
            workers.iter().flat_map(|t| t.durations(name)).map(|s| s * 1e6).collect()
        };
        let (claims, reports) = (us("campaign.socket.claim"), us("campaign.socket.report"));
        metrics.set_samples("campaign.socket.claim_rtt_us.p50", quantile(&claims, 0.5), &claims);
        metrics.set_samples("campaign.socket.claim_rtt_us.p99", quantile(&claims, 0.99), &claims);
        metrics.set_samples("campaign.socket.report_rtt_us.p50", quantile(&reports, 0.5), &reports);
        metrics.set_samples(
            "campaign.socket.report_rtt_us.p99",
            quantile(&reports, 0.99),
            &reports,
        );
        metrics.set("campaign.worker.idle_frac", idle_frac(&workers));
    }
    let retries: u64 = untraced.iter().map(|r| r.retries).sum();
    metrics.set("campaign.retry_frac", ratio(retries as f64, per_rep_exps * untraced.len() as f64));

    // Journals the last traced repetition left on its share.
    let shares: Vec<PathBuf> = traced.last().map_or_else(Vec::new, |t| t.shares.clone());
    let (mut replay_ms, mut journal_bytes) = (0.0, 0);
    for share in &shares {
        let (ms, bytes) = micro::journal_replay(share);
        replay_ms += ms;
        journal_bytes += bytes;
    }
    metrics.set("campaign.journal.replay_ms", replay_ms);
    metrics.set("campaign.journal.bytes_per_exp", journal_bytes as f64 / per_rep_exps);

    // Direct timings of single calls.
    let micro_n = if args.quick { 200 } else { 2000 };
    let spec = guests[0].specs.first().copied().unwrap_or_else(|| {
        crate::workloads::generate_specs(args.seed, 0, guests[0].prepared.stage_events, 1)[0]
    });
    let share_costs = micro::share_costs(&scratch.fresh("micro"), spec, micro_n);
    metrics.set("campaign.journal.append_us", share_costs.append_us);
    metrics.set("campaign.lease.claim_release_us", share_costs.claim_release_us);
    metrics.set("campaign.spool.fault_load_us", share_costs.fault_load_us);
    let (encode_us, parse_us) = micro::wire_costs(spec, micro_n);
    metrics.set("campaign.wire.encode_us", encode_us);
    metrics.set("campaign.wire.parse_us", parse_us);
    let (encode_ms, decode_ms, bytes) = micro::checkpoint_costs(guests);
    metrics.set("sim.checkpoint.encode_ms", encode_ms);
    metrics.set("sim.checkpoint.decode_ms", decode_ms);
    metrics.set("sim.checkpoint.bytes", bytes as f64);
    metrics.set("sim.fork_us", micro::fork_us(&guests[0], &runner, micro_n));
    let sample_secs = if args.quick { 0.05 } else { 1.0 };
    metrics.set(
        "core.engine.overhead_frac.atomic",
        micro::engine_overhead_frac(&guests[0], CpuKind::Atomic, sample_secs),
    );
    metrics.set(
        "core.engine.overhead_frac.o3",
        micro::engine_overhead_frac(&guests[0], CpuKind::O3, sample_secs),
    );

    // Tracing overhead, and how much of the traced wall the layers explain.
    let traced_rates = rates(traced.iter().map(|t| &t.rep));
    metrics.set_samples("trace.exp_per_s.untraced", median(&untraced_rates), &untraced_rates);
    metrics.set_samples("trace.exp_per_s.traced", median(&traced_rates), &traced_rates);
    metrics.set("trace.overhead_frac", 1.0 - median(&traced_rates) / median(&untraced_rates));

    let exec_tracers: Vec<&Tracer> = if def.executor == Executor::Inproc {
        vec![&replica_tr]
    } else {
        std::iter::once(&exec_tr).chain(&workers).collect()
    };
    let layers = merge_self_times(&exec_tracers);
    let is_glue = |name: &str| matches!(name, "rep" | "exp" | "worker");
    let wall_s: f64 = layers
        .iter()
        .filter(|(n, _)| matches!(**n, "rep" | "worker"))
        .map(|(_, l)| l.total_s)
        .sum();
    let layer_s: f64 = layers.iter().filter(|(n, _)| !is_glue(n)).map(|(_, l)| l.self_s).sum();
    metrics.set("trace.accounted_frac", ratio(layer_s, wall_s));

    let mut budget: Vec<Json> = layers
        .iter()
        .map(|(name, layer)| {
            Json::obj([
                ("layer", Json::str(*name)),
                ("spans", Json::from(layer.spans)),
                ("self_s", Json::from(layer.self_s)),
                ("share", Json::from(ratio(layer.self_s, wall_s))),
            ])
        })
        .collect();
    if def.executor == Executor::Spool {
        // No spans inside the spool: two rows, by subtraction.
        let worker_s = FABRIC_WORKERS as f64 * untraced_wall;
        for (layer, secs) in [
            ("execution (same specs in-process)", replica_exec_s),
            ("spool fabric (workers x wall - execution)", worker_s - replica_exec_s),
        ] {
            budget.push(Json::obj([
                ("layer", Json::str(layer)),
                ("spans", Json::from(0u64)),
                ("self_s", Json::from(secs)),
                ("share", Json::from(ratio(secs, worker_s))),
            ]));
        }
    }

    let all: Vec<&Tracer> = [&replica_tr, &exec_tr].into_iter().chain(&workers).collect();
    Measured {
        metrics,
        attempted,
        failed,
        repetitions: untraced.len() + traced.len(),
        budget,
        spans: Some(dump(def.name, &all)),
    }
}
