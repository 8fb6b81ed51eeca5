//! Command line of the `campaign_e2e` benchmark.
//!
//! ```text
//! campaign_e2e --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out DIR]
//! campaign_e2e compare <set A dir> <set B dir>
//! campaign_e2e budget <set dir> [--readme PATH]
//! ```
//!
//! A run prints every metric by name with its unit and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. Exit code 0 on a
//! correct run, 1 when any operation failed, 2 on a usage error.

use campaign_e2e::compare::{budget, compare, write_readme_section};
use campaign_e2e::run::{run, RunArgs};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: campaign_e2e --workload <name> [--seed N] [--seconds S] \
                     [--trace 0|1] [--quick] [--out DIR]\n       \
                     campaign_e2e compare <set A dir> <set B dir>\n       \
                     campaign_e2e budget <set dir> [--readme PATH]";

fn parse_run(raw: &[String]) -> Result<RunArgs, String> {
    let mut args = RunArgs::new("");
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                };
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be a non-negative number".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match raw.first().map(String::as_str) {
        Some("compare") if raw.len() == 3 => {
            compare(Path::new(&raw[1]), Path::new(&raw[2])).map(|(table, all_within)| {
                print!("{table}");
                all_within
            })
        }
        Some("budget") if raw.len() == 2 || (raw.len() == 4 && raw[2] == "--readme") => {
            budget(Path::new(&raw[1])).and_then(|tables| {
                print!("{tables}");
                raw.get(3)
                    .map_or(Ok(()), |readme| write_readme_section(Path::new(readme), &tables))?;
                Ok(true)
            })
        }
        Some("compare" | "budget") | None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
        Some(_) => match parse_run(&raw) {
            Ok(args) => run(&args).map(|report| {
                // The driver reads the last line of stdout.
                println!("{}", report.line.compact());
                report.correct
            }),
            Err(message) => {
                eprintln!("{message}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("campaign_e2e: {message}");
            ExitCode::from(1)
        }
    }
}
