//! `gemfi_serve` — the campaign server daemon: the paper's NoW spool share
//! lifted onto a socket (Sec. III-E, networked execution).
//!
//! Seeds one campaign queue per selected workload (fixed-n, adaptive, or
//! both), listens for remote `gemfi_worker` processes, streams leased
//! experiment windows to them, and folds results into the durable journal
//! as they arrive. Killing the daemon loses nothing: restart it with
//! `--resume` and it replays the journal, re-offering only the remainder.
//!
//! ```text
//! cargo run --release -p gemfi-bench --bin gemfi_serve -- \
//!     --share /tmp/campaign [--bind 127.0.0.1:0] \
//!     --workload pi[,dct,...] [--scale small|default|paper] \
//!     [--campaign N] [--adaptive] [--seed N] \
//!     [--lease-secs N] [--max-retries N] [--quota N] [--resume] \
//!     [--wait-secs N]
//! ```
//!
//! `--campaign N` adds a fixed-n queue (priority 10) per workload;
//! `--adaptive` adds a sequential-sampling queue (priority 5) named
//! `<workload>-adaptive`. Both may be given at once: the fixed queues then
//! drain first under the server's priority scheduler. The bound address is
//! printed as `listening on <addr>` for scripts to scrape (`--bind` with
//! port 0 picks an ephemeral port). Live metrics are one `STATUS` request
//! away — see DESIGN.md §15 for the wire protocol.

use gemfi_bench::Args;
use gemfi_campaign::{
    prepare_workload, AdaptiveConfig, CampaignServer, CellKind, FaultSampler, QueueKind,
    QueueReport, QueueSpec, ServerConfig,
};
use std::time::Duration;

const USAGE: &str = "\
usage: gemfi_serve --share <dir> [--bind addr:port] --workload <names> \
[--campaign N] [--adaptive] [--seed N] [--scale small|default|paper] \
[--lease-secs N] [--max-retries N] [--quota N] [--resume] [--wait-secs N] [--linger-ms N]
       adaptive queues: [--ci-halfwidth H] [--min-n N] [--budget N] [--batch N] \
[--cells a,b,...] [--adaptive-priority N]; fixed-n queues: [--priority N]";

fn queue_specs(args: &Args, seed: u64) -> Vec<QueueSpec> {
    let scale_label = args.value_of("scale").unwrap_or("small").to_string();
    let names = args.value_of("workload").unwrap_or("pi");
    let workloads = gemfi_bench::select_workloads(args.scale(), Some(names));
    if workloads.is_empty() {
        eprintln!("no workload matches `{names}` (known: dct jacobi pi knapsack deblock canneal)");
        std::process::exit(2);
    }
    let fixed_n: Option<usize> = args.value_of("campaign").map(|n| {
        n.parse().unwrap_or_else(|_| {
            eprintln!("--campaign expects an experiment count, got `{n}`");
            std::process::exit(2);
        })
    });
    let adaptive = args.has("adaptive").then(|| {
        let mut config = AdaptiveConfig {
            ci_halfwidth: args.number("ci-halfwidth", 0.05f64),
            min_n: args.number("min-n", 25u64),
            budget: args.number("budget", 0u64),
            batch: args.number("batch", 16u64),
            ..AdaptiveConfig::default()
        };
        if let Some(list) = args.value_of("cells") {
            config.cells = list
                .split(',')
                .map(|label| {
                    CellKind::parse(label.trim()).unwrap_or_else(|| {
                        eprintln!("unknown cell `{label}`");
                        std::process::exit(2);
                    })
                })
                .collect();
        }
        config
    });
    if fixed_n.is_none() && adaptive.is_none() {
        eprintln!("nothing to serve: give --campaign <n>, --adaptive, or both");
        std::process::exit(2);
    }

    let quota = args.number("quota", 0usize);
    let mut queues = Vec::new();
    for workload in &workloads {
        let prepared = prepare_workload(workload.as_ref()).unwrap_or_else(|e| {
            eprintln!("prepare {} failed: {e}", workload.name());
            std::process::exit(1);
        });
        if let Some(n) = fixed_n {
            let mut sampler = FaultSampler::new(seed, prepared.stage_events, 0, 0);
            let specs = (0..n).map(|_| sampler.sample_any()).collect();
            queues.push(QueueSpec {
                name: workload.name().to_string(),
                priority: args.number("priority", 10u32),
                quota,
                workload: workload.name().to_string(),
                scale: scale_label.clone(),
                prepared: prepared.clone(),
                kind: QueueKind::FixedN { specs },
            });
        }
        if let Some(config) = &adaptive {
            queues.push(QueueSpec {
                name: format!("{}-adaptive", workload.name()),
                priority: args.number("adaptive-priority", 5u32),
                quota,
                workload: workload.name().to_string(),
                scale: scale_label.clone(),
                prepared: prepared.clone(),
                kind: QueueKind::Adaptive { config: config.clone(), seed },
            });
        }
    }
    queues
}

fn print_queue(q: &QueueReport) {
    println!("\nqueue {}:", q.name);
    println!("{}", q.table);
    if let Some(adaptive) = &q.adaptive {
        println!("{adaptive}");
    }
    println!(
        "  resumed {} | retries {} | reclaimed leases {} | workers: {}",
        q.resumed,
        q.retries,
        q.reclaimed,
        q.per_worker.iter().map(|(w, n)| format!("{w}={n}")).collect::<Vec<_>>().join(" ")
    );
}

fn main() {
    let args = Args::from_env_checked(USAGE);
    let Some(share) = args.value_of("share") else {
        eprintln!("{USAGE}");
        std::process::exit(2);
    };
    let seed = args.number("seed", 1u64);
    let queues = queue_specs(&args, seed);

    let config = ServerConfig {
        bind_addr: args.value_of("bind").unwrap_or("127.0.0.1:0").to_string(),
        lease: Duration::from_secs(args.number("lease-secs", 30u64)),
        max_retries: args.number("max-retries", 2u64),
        resume: args.has("resume"),
        ..ServerConfig::new(share)
    };

    let names: Vec<_> = queues.iter().map(|q| q.name.clone()).collect();
    let server = CampaignServer::start(config, queues).unwrap_or_else(|e| {
        eprintln!("server start failed: {e}");
        std::process::exit(1);
    });
    // Scripts scrape this line for the (possibly ephemeral) port.
    println!("listening on {}", server.addr());
    println!("queues: {} | seed {seed} | resume: {}", names.join(" "), args.has("resume"));

    let wait = Duration::from_secs(args.number("wait-secs", 3_600u64));
    let complete = server.wait_complete(wait);
    if complete {
        // Keep answering for a moment so polling workers read `Complete`
        // and exit cleanly instead of hitting connection-refused.
        std::thread::sleep(Duration::from_millis(args.number("linger-ms", 1_000u64)));
    }
    let report = server.shutdown().unwrap_or_else(|e| {
        eprintln!("server shutdown failed: {e}");
        std::process::exit(1);
    });
    for q in &report.queues {
        print_queue(q);
    }
    println!("\nwall {:.2?} | complete: {complete}", report.wall);
    if !complete {
        eprintln!("timed out after {wait:.0?}; journals kept — restart with --resume to finish");
        std::process::exit(4);
    }
}
