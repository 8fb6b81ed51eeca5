//! `compare` and `budget`: reading result sets back.
//!
//! A result set is a directory of `result.*.json` files — any number of
//! runs (seeds, repeats) per workload.

use crate::host::{median, quartiles};
use crate::json::Json;
use crate::workloads::WORKLOADS;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Per-layer counts that repeat bit-for-bit for a given seed.
const EXACT: [&str; 8] = [
    "sim.ticks_simulated",
    "sim.elided_frac",
    "isa.superblock.uop_frac",
    "isa.predecode.hit_frac",
    "campaign.runner.watchdog_frac",
    "campaign.fork.forked_frac",
    "campaign.fork.suffix_tick_frac",
    "campaign.adaptive.experiments",
];

/// `../BENCHMARK.json`, next to the benchmark's directory.
pub fn benchmark_json() -> Result<Json, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn load_set(dir: &Path) -> Result<Vec<Json>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("result.") && name.ends_with(".json")
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
        })
        .collect()
}

fn runs_of<'a>(set: &'a [Json], workload: &str, traced: bool) -> Vec<&'a Json> {
    set.iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter(|r| r.get("trace") == Some(&Json::Bool(traced)))
        .collect()
}

fn metric<'a>(run: &'a Json, name: &str) -> Option<&'a Json> {
    run.get("metrics").and_then(|m| m.get(name))
}

/// Median over the set's runs, and the run-to-run spread as a share of it:
/// the inter-quartile distance with two or more runs, else the min–max
/// spread of the single run's own repetitions.
fn summarise(runs: &[&Json], name: &str) -> Option<(f64, f64)> {
    let values: Vec<f64> =
        runs.iter().filter_map(|r| metric(r, name)?.get("value")?.as_f64()).collect();
    if values.is_empty() {
        return None;
    }
    let mid = median(&values);
    let spread = if values.len() >= 2 {
        let (q1, q3) = quartiles(&values);
        q3 - q1
    } else {
        let m = metric(runs[0], name)?;
        m.get("max")?.as_f64()? - m.get("min")?.as_f64()?
    };
    Some((mid, if mid == 0.0 { 0.0 } else { spread / mid.abs() }))
}

/// One row per (end-to-end metric, workload): both medians, both spreads,
/// the relative change and the bound. Returns the table and whether every
/// pair is `within`.
///
/// # Errors
///
/// Unreadable sets or `BENCHMARK.json`.
pub fn compare(a: &Path, b: &Path) -> Result<(String, bool), String> {
    let (set_a, set_b) = (load_set(a)?, load_set(b)?);
    let contract = benchmark_json()?;
    let mut out = String::new();
    let mut all_within = true;
    writeln!(
        out,
        "| workload | metric | A median | A spread | B median | B spread | B vs A | bound | verdict |\n\
         |---|---|---|---|---|---|---|---|---|"
    )
    .expect("string write");
    for def in &WORKLOADS {
        let (runs_a, runs_b) = (runs_of(&set_a, def.name, false), runs_of(&set_b, def.name, false));
        for m in contract.get("end_to_end").map_or(&[][..], Json::as_arr) {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let higher_better = m.get("better").and_then(Json::as_str) == Some("higher");
            let (Some((mid_a, spread_a)), Some((mid_b, spread_b))) =
                (summarise(&runs_a, name), summarise(&runs_b, name))
            else {
                continue;
            };
            let change = (mid_b - mid_a) / mid_a;
            let worsening = if higher_better { -change } else { change };
            // A spread wider than the bound cannot resolve a change of the
            // bound's size: say so instead of calling it unchanged.
            let verdict = if spread_a.max(spread_b) > bound {
                "unresolved"
            } else if worsening > bound {
                "worse"
            } else {
                "within"
            };
            all_within &= verdict == "within";
            writeln!(
                out,
                "| {} | {name} | {mid_a:.6} | {:.2} % | {mid_b:.6} | {:.2} % | {:+.2} % | {:.0} % | {verdict} |",
                def.name,
                spread_a * 100.0,
                spread_b * 100.0,
                change * 100.0,
                bound * 100.0,
            )
            .expect("string write");
        }
        // Exact counts must repeat bit-for-bit between traced runs of one seed.
        for run_a in runs_of(&set_a, def.name, true) {
            let twin = runs_of(&set_b, def.name, true)
                .into_iter()
                .find(|run_b| run_b.get("seed") == run_a.get("seed"));
            let Some(run_b) = twin else { continue };
            for name in EXACT {
                let value = |run: &Json| metric(run, name)?.get("value")?.as_f64();
                if value(run_a) != value(run_b) {
                    all_within = false;
                    writeln!(
                        out,
                        "| {} | {name} | {:?} | exact | {:?} | exact | differs | 0 % | worse |",
                        def.name,
                        value(run_a),
                        value(run_b)
                    )
                    .expect("string write");
                }
            }
        }
    }
    Ok((out, all_within))
}

/// The time-budget tables of a result set's traced runs, as markdown: one
/// table per workload, one row per layer (self time and its share of the
/// traced wall), generated from the result files.
///
/// # Errors
///
/// An unreadable set.
pub fn budget(dir: &Path) -> Result<String, String> {
    let set = load_set(dir)?;
    let mut out = String::new();
    for def in &WORKLOADS {
        let Some(run) = runs_of(&set, def.name, true).into_iter().next() else { continue };
        let value = |name: &str| {
            metric(run, name).and_then(|m| m.get("value")).and_then(Json::as_f64).unwrap_or(0.0)
        };
        writeln!(
            out,
            "**{}** — {:.1} exp/s untraced, {:.1} traced (`trace.overhead_frac` {:+.3}); layers \
             account for {:.1} % of the traced wall; seed {}.\n",
            def.name,
            value("trace.exp_per_s.untraced"),
            value("trace.exp_per_s.traced"),
            value("trace.overhead_frac"),
            value("trace.accounted_frac") * 100.0,
            run.get("seed").and_then(Json::as_f64).unwrap_or(0.0),
        )
        .expect("string write");
        writeln!(out, "| layer | spans | self time (s) | share |\n|---|---|---|---|")
            .expect("string write");
        let mut rows: Vec<&Json> = run.get("budget").map_or(&[][..], Json::as_arr).iter().collect();
        let secs = |row: &Json| row.get("self_s").and_then(Json::as_f64).unwrap_or(0.0);
        rows.sort_by(|x, y| secs(y).total_cmp(&secs(x)));
        for row in rows {
            writeln!(
                out,
                "| `{}` | {} | {:.4} | {:.1} % |",
                row.get("layer").and_then(Json::as_str).unwrap_or("?"),
                row.get("spans").and_then(Json::as_f64).unwrap_or(0.0),
                secs(row),
                row.get("share").and_then(Json::as_f64).unwrap_or(0.0) * 100.0,
            )
            .expect("string write");
        }
        let fabric_us = value("campaign.spool.overhead_us_per_exp")
            + value("campaign.socket.overhead_us_per_exp");
        if fabric_us != 0.0 {
            writeln!(
                out,
                "\nFabric overhead per experiment: {fabric_us:.1} us (workers x wall - in-process \
                 execution of the same specs, / n)."
            )
            .expect("string write");
        }
        if def.name.starts_with("paper") {
            writeln!(
                out,
                "\nO3 prefix + grace share of the in-process wall (`cpu.o3.wall_share`): {:.1} %.",
                value("cpu.o3.wall_share") * 100.0
            )
            .expect("string write");
        }
        out.push('\n');
    }
    Ok(out)
}

const BEGIN: &str = "<!-- budget:begin (generated by `campaign_e2e budget`; do not edit) -->";
const END: &str = "<!-- budget:end -->";

/// Replaces the generated section of `readme` with `tables`.
///
/// # Errors
///
/// I/O errors, or a README without the two markers.
pub fn write_readme_section(readme: &Path, tables: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(readme).map_err(|e| format!("{}: {e}", readme.display()))?;
    let (Some(begin), Some(end)) = (text.find(BEGIN), text.find(END)) else {
        return Err(format!("{}: budget markers not found", readme.display()));
    };
    let updated = format!("{}{BEGIN}\n\n{tables}{}", &text[..begin], &text[end..]);
    std::fs::write(readme, updated).map_err(|e| format!("{}: {e}", readme.display()))
}
