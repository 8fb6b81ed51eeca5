//! Shared infrastructure for the figure/table regeneration binaries.
//!
//! Each binary regenerates one artifact of the paper's evaluation:
//!
//! | binary   | paper artifact |
//! |----------|----------------|
//! | `table1` | Table I — Alpha instruction formats |
//! | `fig4`   | Fig. 4 — result-category examples for DCT |
//! | `fig5`   | Fig. 5 — outcome distribution vs. fault location |
//! | `fig6`   | Fig. 6 — outcome vs. normalized injection time |
//! | `fig7`   | Fig. 7 — GemFI overhead vs. unmodified simulator |
//! | `fig8`   | Fig. 8 — campaign time: baseline / checkpoint / NoW |
//!
//! Binaries accept `--scale small|default|paper` to trade fidelity for
//! runtime, plus per-figure options; run with `--help` for details.

use gemfi_workloads::{canneal, dct, deblock, jacobi, knapsack, pi, Workload};

/// Workload size tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-per-figure sizes for CI and smoke runs.
    Small,
    /// The workspace defaults (minutes per figure).
    Default,
    /// The paper's original sizes (hours; intended for NoW-style parallel
    /// hosts).
    Paper,
}

impl Scale {
    /// Parses `small|default|paper`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "small" => Some(Scale::Small),
            "default" => Some(Scale::Default),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

/// The paper's six benchmarks at the given scale, figure order.
pub fn workloads(scale: Scale) -> Vec<Box<dyn Workload>> {
    match scale {
        Scale::Small => vec![
            Box::new(dct::Dct { width: 16, height: 16 }),
            Box::new(jacobi::Jacobi { n: 8, max_iters: 120 }),
            Box::new(pi::MonteCarloPi { points: 400, init_spins: 2_000, ..Default::default() }),
            Box::new(knapsack::Knapsack { generations: 8, ..Default::default() }),
            Box::new(deblock::Deblock { width: 48, height: 16 }),
            Box::new(canneal::Canneal { steps: 128, ..Default::default() }),
        ],
        Scale::Default => vec![
            Box::new(dct::Dct::default()),
            Box::new(jacobi::Jacobi::default()),
            Box::new(pi::MonteCarloPi::default()),
            Box::new(knapsack::Knapsack::default()),
            Box::new(deblock::Deblock::default()),
            Box::new(canneal::Canneal::default()),
        ],
        Scale::Paper => vec![
            Box::new(dct::Dct::paper()),
            Box::new(jacobi::Jacobi::paper()),
            Box::new(pi::MonteCarloPi::paper()),
            Box::new(knapsack::Knapsack::paper()),
            Box::new(deblock::Deblock::paper()),
            Box::new(canneal::Canneal::paper()),
        ],
    }
}

/// Selects workloads by comma-separated names (all when `names` is `None`).
pub fn select_workloads(scale: Scale, names: Option<&str>) -> Vec<Box<dyn Workload>> {
    let all = workloads(scale);
    match names {
        None => all,
        Some(list) => {
            let wanted: Vec<&str> = list.split(',').map(str::trim).collect();
            all.into_iter().filter(|w| wanted.contains(&w.name())).collect()
        }
    }
}

/// A minimal `--flag value` argument scanner.
#[derive(Debug, Clone)]
pub struct Args {
    raw: Vec<String>,
    usage: &'static str,
}

impl Args {
    /// Captures the process arguments unchecked: the figure binaries and
    /// the benches (which `cargo bench` also hands `--bench`).
    pub fn from_env() -> Args {
        Args { raw: std::env::args().skip(1).collect(), usage: "" }
    }

    /// Captures the process arguments of a binary whose `usage` text names
    /// every flag it accepts — the usage *is* the list, so the two cannot
    /// drift: `--name` followed by a placeholder word takes a value,
    /// `[--name]` or `--name --other` takes none. An unknown flag, a stray
    /// word or a valued flag without its value prints the complaint and
    /// `usage` and exits 2.
    pub fn from_env_checked(usage: &'static str) -> Args {
        let args = Args { raw: std::env::args().skip(1).collect(), usage };
        if let Err(complaint) = args.check() {
            args.usage_exit(&complaint);
        }
        args
    }

    /// `Some(takes a value)` when the usage text names `--name`.
    fn usage_flag(&self, name: &str) -> Option<bool> {
        let mut words = self.usage.split_whitespace().map(|w| w.trim_start_matches(['[', '(']));
        let flag = words.find(|w| {
            w.strip_prefix("--").is_some_and(|w| w.trim_end_matches([']', ')', ';']) == name)
        })?;
        let closed = flag.ends_with([']', ')', ';']);
        Some(!closed && words.next().is_some_and(|w| !w.starts_with("--") && w != "|"))
    }

    fn check(&self) -> Result<(), String> {
        let mut words = self.raw.iter();
        while let Some(word) = words.next() {
            match word.strip_prefix("--").map(|name| self.usage_flag(name)) {
                Some(Some(true)) => {
                    words.next().ok_or_else(|| format!("{word} needs a value"))?;
                }
                Some(Some(false)) => {}
                Some(None) => return Err(format!("unknown flag {word}")),
                None => return Err(format!("unexpected argument `{word}`")),
            }
        }
        Ok(())
    }

    fn usage_exit(&self, complaint: &str) -> ! {
        eprintln!("{complaint}");
        if !self.usage.is_empty() {
            eprintln!("{}", self.usage);
        }
        std::process::exit(2);
    }

    /// The value following `--name`, if present.
    pub fn value_of(&self, name: &str) -> Option<&str> {
        let flag = format!("--{name}");
        self.raw
            .iter()
            .position(|a| a == &flag)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    /// Whether the bare flag `--name` is present.
    pub fn has(&self, name: &str) -> bool {
        let flag = format!("--{name}");
        self.raw.iter().any(|a| a == &flag)
    }

    /// A parsed numeric option with a default for when the flag is absent.
    /// A value that does not parse exits 2 — silently running the default
    /// instead (`--seed 1O`) would report results for the wrong input.
    pub fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.try_number(name, default).unwrap_or_else(|complaint| self.usage_exit(&complaint))
    }

    fn try_number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value_of(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} expects a number, got `{v}`")),
        }
    }

    /// The scale option (default [`Scale::Small`] — figures should run out
    /// of the box).
    pub fn scale(&self) -> Scale {
        self.value_of("scale").and_then(Scale::parse).unwrap_or(Scale::Small)
    }
}

/// Prints a horizontal rule sized to the paper-style tables.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

/// A minimal timing harness for the `harness = false` benchmark binaries:
/// one warmup call, `samples` timed calls, median/min report. The workspace
/// builds fully offline, so the benches cannot depend on an external
/// benchmarking framework.
pub fn time_it(name: &str, samples: usize, f: impl FnMut()) {
    time_it_secs(name, samples, f);
}

/// Like [`time_it`], but also returns `(median, min)` in seconds so callers
/// can derive throughput numbers and machine-readable reports.
pub fn time_it_secs(name: &str, samples: usize, mut f: impl FnMut()) -> (f64, f64) {
    f(); // warmup
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let (median, min) = (times[times.len() / 2], times[0]);
    println!(
        "{name:<32} median {:>9.3} ms   min {:>9.3} ms   (n={})",
        median * 1e3,
        min * 1e3,
        times.len()
    );
    (median, min)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scales_provide_six_workloads() {
        for scale in [Scale::Small, Scale::Default, Scale::Paper] {
            let w = workloads(scale);
            assert_eq!(w.len(), 6);
            let names: Vec<_> = w.iter().map(|w| w.name()).collect();
            assert_eq!(names, ["dct", "jacobi", "pi", "knapsack", "deblock", "canneal"]);
        }
    }

    #[test]
    fn selection_filters_by_name() {
        let w = select_workloads(Scale::Small, Some("pi,dct"));
        let names: Vec<_> = w.iter().map(|w| w.name()).collect();
        assert_eq!(names, ["dct", "pi"]);
    }

    fn args(raw: &[&str]) -> Args {
        Args {
            raw: raw.iter().map(|s| s.to_string()).collect(),
            usage: "usage: tool (--share <dir> | --connect <host:port>) [--seed N] \
                    [--cpu o3|atomic] [--adaptive] --quiet --cells a,b,... [--resume]",
        }
    }

    #[test]
    fn unparsable_number_is_an_error_not_the_default() {
        let a = args(&["--seed", "1O", "--slots", "4"]);
        assert!(a.try_number("seed", 1u64).unwrap_err().contains("--seed"));
        assert_eq!(a.try_number("slots", 2usize), Ok(4));
        assert_eq!(a.try_number("lease-secs", 30u64), Ok(30), "absent flag takes the default");
    }

    #[test]
    fn unlisted_flags_and_stray_words_are_rejected() {
        let check = |raw: &[&str]| args(raw).check();
        assert_eq!(check(&["--seed", "7", "--resume", "--share", "/tmp/x", "--cpu", "o3"]), Ok(()));
        assert_eq!(check(&["--connect", "h:1", "--adaptive", "--quiet", "--cells", "pc"]), Ok(()));
        assert_eq!(check(&["--share", "--resume"]), Ok(()), "a value may look like a flag");
        assert!(check(&["--seed", "7", "--sede", "8"]).unwrap_err().contains("--sede"));
        assert!(check(&["--resume", "true"]).unwrap_err().contains("true"));
        assert!(check(&["--seed"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn scale_parses() {
        assert_eq!(Scale::parse("paper"), Some(Scale::Paper));
        assert_eq!(Scale::parse("bogus"), None);
    }
}
