//! The benchmark's own gate (the root tier-1 command does not build this
//! package): every workload in `--quick` mode, untraced and traced, through
//! the real binary, checked against `BENCHMARK.json`.
//!
//! A traced run fails (`correct: false`, exit code 1) if any replica's
//! (outcome, exit, ticks) differs from the real entry point's on any
//! experiment, so a passing run is the replica-equality assertion holding.

use campaign_e2e::compare::{benchmark_json, compare};
use campaign_e2e::exec::out_dir;
use campaign_e2e::json::Json;
use campaign_e2e::metrics::{END_TO_END, PER_LAYER};
use std::process::Command;

fn names_and_units(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .iter()
        .map(|m| {
            let field =
                |k: &str| m.get(k).and_then(Json::as_str).expect("string field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn is_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_runs_quick_and_prints_the_contracted_metrics() {
    let contract = benchmark_json().expect("BENCHMARK.json parses");
    let end_to_end = names_and_units(contract.get("end_to_end").expect("end_to_end"));
    let per_layer = names_and_units(contract.get("per_layer").expect("per_layer"));
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(end_to_end, own(&END_TO_END), "BENCHMARK.json end_to_end != metrics::END_TO_END");
    assert_eq!(per_layer, own(&PER_LAYER), "BENCHMARK.json per_layer != metrics::PER_LAYER");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));

    let out = out_dir().join(format!("test-{}", std::process::id()));
    let workloads = contract.get("workloads").expect("workloads").as_arr();
    assert_eq!(workloads.len(), 6);
    for workload in workloads {
        let name = workload.get("name").and_then(Json::as_str).expect("workload name");
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let run = Command::new(env!("CARGO_BIN_EXE_campaign_e2e"))
                .args(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", trace])
                .arg("--quick")
                .arg("--out")
                .arg(&out)
                .output()
                .expect("benchmark binary runs");
            let stdout = String::from_utf8(run.stdout).expect("utf-8 output");
            assert!(
                run.status.success(),
                "{name} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&run.stderr)
            );
            let line = Json::parse(stdout.lines().last().expect("a last line")).expect("JSON line");
            let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{name} trace {trace}");
            assert!(line.get("attempted").and_then(Json::as_f64).expect("attempted") >= 1.0);
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));

            let metrics = line.get("metrics").expect("metrics").members();
            let printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(n, m)| {
                    (n.clone(), m.get("unit").and_then(Json::as_str).unwrap().to_string())
                })
                .collect();
            assert_eq!(&printed, expected, "{name} --trace {trace} prints the contracted metrics");
            for (metric, body) in metrics {
                assert!(is_metric_name(metric), "bad metric name `{metric}`");
                let value = body.get("value").and_then(Json::as_f64).expect("numeric value");
                assert!(value.is_finite(), "{name}: {metric} = {value}");
                // Each is also printed by name, with its unit, for a reader.
                assert!(stdout.lines().any(|l| l.starts_with(metric.as_str())), "{metric} printed");
            }
            if trace == "0" {
                for (metric, body) in metrics {
                    let value = body.get("value").and_then(Json::as_f64).unwrap();
                    assert!(value > 0.0, "{name}: end-to-end {metric} must never be 0");
                }
            }
        }
    }

    // The result files form a set `compare` can read: against itself, every
    // (metric, workload) pair is there and none is worse.
    let (table, _) = compare(&out, &out).expect("compare reads the set");
    assert_eq!(table.lines().count(), 2 + 6 * end_to_end.len(), "{table}");
    assert!(!table.contains("worse"), "{table}");
    std::fs::remove_dir_all(&out).expect("remove the test's result set");
}
