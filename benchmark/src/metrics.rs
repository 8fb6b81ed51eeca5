//! The metric names the benchmark prints — the same lists `BENCHMARK.json`
//! carries (the package's test checks the two against each other).

use crate::json::Json;

/// End-to-end metrics, printed by an untraced (`--trace 0`) run.
pub const END_TO_END: [(&str, &str); 3] =
    [("exp_per_s", "1/s"), ("cpu_s_per_kexp", "s"), ("setup_s", "s")];

/// Per-layer metrics, printed by a traced (`--trace 1`) run. A layer that
/// is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("sim.restore_us", "us"),
    ("sim.switch_cpu_us", "us"),
    ("sim.fork_us", "us"),
    ("sim.checkpoint.encode_ms", "ms"),
    ("sim.checkpoint.decode_ms", "ms"),
    ("sim.checkpoint.bytes", "bytes"),
    ("sim.ticks_simulated", "count"),
    ("sim.elided_frac", "ratio"),
    ("cpu.o3.prefix_ms_per_exp", "ms"),
    ("cpu.o3.grace_us", "us"),
    ("cpu.o3.ns_per_tick", "ns"),
    ("cpu.o3.wall_share", "ratio"),
    ("cpu.atomic.suffix_ms_per_exp", "ms"),
    ("cpu.atomic.ns_per_tick", "ns"),
    ("isa.superblock.uop_frac", "ratio"),
    ("isa.predecode.hit_frac", "ratio"),
    ("mem.cow.pages_owned_per_exp", "count"),
    ("core.engine.overhead_frac.atomic", "ratio"),
    ("core.engine.overhead_frac.o3", "ratio"),
    ("campaign.runner.prepare_ms", "ms"),
    ("campaign.classify_us", "us"),
    ("campaign.runner.exp_ms.p50", "ms"),
    ("campaign.runner.exp_ms.p99", "ms"),
    ("campaign.runner.watchdog_frac", "ratio"),
    ("campaign.fork.plan_ms", "ms"),
    ("campaign.fork.drive_ms", "ms"),
    ("campaign.fork.forked_frac", "ratio"),
    ("campaign.fork.suffix_tick_frac", "ratio"),
    ("campaign.journal.append_us", "us"),
    ("campaign.journal.replay_ms", "ms"),
    ("campaign.journal.bytes_per_exp", "bytes"),
    ("campaign.lease.claim_release_us", "us"),
    ("campaign.spool.fault_load_us", "us"),
    ("campaign.wire.encode_us", "us"),
    ("campaign.wire.parse_us", "us"),
    ("campaign.socket.claim_rtt_us.p50", "us"),
    ("campaign.socket.claim_rtt_us.p99", "us"),
    ("campaign.socket.report_rtt_us.p50", "us"),
    ("campaign.socket.report_rtt_us.p99", "us"),
    ("campaign.spool.overhead_us_per_exp", "us"),
    ("campaign.socket.overhead_us_per_exp", "us"),
    ("campaign.worker.idle_frac", "ratio"),
    ("campaign.retry_frac", "ratio"),
    ("campaign.adaptive.rounds", "count"),
    ("campaign.adaptive.experiments", "count"),
    ("campaign.adaptive.replan_us", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.accounted_frac", "ratio"),
    ("trace.exp_per_s.untraced", "1/s"),
    ("trace.exp_per_s.traced", "1/s"),
    ("failed_frac", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// One reported metric: the value (a median where repetitions exist), its
/// unit, and the spread over the `n` samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    /// The samples themselves, when there are few enough to be worth
    /// keeping (timed repetitions, not per-experiment spans).
    pub samples: Vec<f64>,
}

impl Metric {
    fn new(name: &str, value: f64, samples: &[f64]) -> Metric {
        Metric {
            name: name.to_string(),
            // An empty float sum is -0.0; print it as 0.
            value: value + 0.0,
            unit: Metrics::unit_of(name),
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: samples.len(),
            samples: if samples.len() <= 64 { samples.to_vec() } else { Vec::new() },
        }
    }
}

/// The metrics of one run, in the order of the list they come from.
#[derive(Debug, Default)]
pub struct Metrics {
    pub list: Vec<Metric>,
}

impl Metrics {
    fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .find(|(n, _)| *n == name)
            .map(|(_, unit)| *unit)
            .unwrap_or_else(|| panic!("metric `{name}` is not in the benchmark's lists"))
    }

    /// A single measured value.
    pub fn set(&mut self, name: &str, value: f64) {
        self.set_samples(name, value, &[value]);
    }

    /// A value summarising `samples` (their median, unless stated).
    pub fn set_samples(&mut self, name: &str, value: f64, samples: &[f64]) {
        self.list.push(Metric::new(name, value, samples));
    }

    /// Every name of `expected` not yet set reads 0: the layer is not on
    /// this workload's path. Returns the list in `expected`'s order.
    pub fn completed(mut self, expected: &[(&str, &str)]) -> Metrics {
        let mut list = Vec::with_capacity(expected.len());
        for (name, _) in expected {
            match self.list.iter().position(|m| m.name == *name) {
                Some(i) => list.push(self.list.swap_remove(i)),
                None => list.push(Metric::new(name, 0.0, &[0.0])),
            }
        }
        assert!(self.list.is_empty(), "metrics outside the expected list: {:?}", self.list);
        Metrics { list }
    }

    /// `{"name": {"value": v, "unit": u}}` — the driver's shape.
    pub fn driver_json(&self) -> Json {
        Json::Obj(
            self.list
                .iter()
                .map(|m| {
                    let body =
                        Json::obj([("value", Json::from(m.value)), ("unit", Json::str(m.unit))]);
                    (m.name.clone(), body)
                })
                .collect(),
        )
    }

    /// The result-file shape: value, unit and the spread behind it.
    pub fn file_json(&self) -> Json {
        Json::Obj(
            self.list
                .iter()
                .map(|m| {
                    let body = Json::obj([
                        ("value", Json::from(m.value)),
                        ("unit", Json::str(m.unit)),
                        ("min", Json::from(m.min)),
                        ("max", Json::from(m.max)),
                        ("n", Json::from(m.n)),
                        ("samples", Json::Arr(m.samples.iter().map(|v| Json::from(*v)).collect())),
                    ]);
                    (m.name.clone(), body)
                })
                .collect(),
        )
    }

    /// One line per metric: name, value, unit, and the spread where there
    /// is more than one sample.
    pub fn print(&self) {
        for m in &self.list {
            if m.n > 1 {
                println!(
                    "{:<40} {:>14.6} {:<6} (min {:.6}, max {:.6}, n={})",
                    m.name, m.value, m.unit, m.min, m.max, m.n
                );
            } else {
                println!("{:<40} {:>14.6} {}", m.name, m.value, m.unit);
            }
        }
    }
}
