//! What the benchmark reads off the host: process CPU time and peak RSS
//! from `/proc/self`, and the provenance recorded in every result file.

use crate::json::Json;
use std::path::Path;
use std::process::Command;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times. `USER_HZ`
/// is 100 on every Linux ABI; there is no `sysconf` without a libc crate.
const USER_HZ: f64 = 100.0;

/// Process user+system CPU seconds so far, all threads including exited
/// ones (`utime` + `stime`, fields 14 and 15 of `/proc/self/stat`).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields resume after
    // its closing parenthesis, so utime/stime are the 12th/13th from there.
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok()).unwrap_or(0.0);
    (tick() + tick()) / USER_HZ
}

/// Peak resident set size so far (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(command: &str, args: &[&str], dir: &Path) -> String {
    Command::new(command)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type holding `path`: the longest mount-point prefix in
/// `/proc/mounts`. Journal, lease and spool costs depend on it.
fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| path.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs.to_string())
}

/// Host fingerprint, toolchain and commit, for the result file.
pub fn provenance(scratch: &Path) -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu_model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or("unknown", |(_, model)| model.trim());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let manifest_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    Json::obj([
        ("nproc", Json::from(std::thread::available_parallelism().map_or(0, usize::from))),
        ("cpu_model", Json::str(cpu_model)),
        ("kernel", Json::str(kernel.trim())),
        ("scratch_fs", Json::str(fs_type(scratch))),
        ("rustc", Json::str(first_line_of("rustc", &["-V"], manifest_dir))),
        // A driver checkout is not a git repository: "unknown" there.
        ("git_commit", Json::str(first_line_of("git", &["rev-parse", "HEAD"], manifest_dir))),
    ])
}

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile (0..=1) by nearest rank.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method) gives them — the spread rule of the driver.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - lo as f64;
        sorted[lo - 1] + (sorted[lo] - sorted[lo - 1]) * frac
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let spin = std::time::Instant::now();
        while spin.elapsed().as_millis() < 30 {
            std::hint::black_box(0u64);
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mib() > 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(quantile(&v, 0.99), 10.0);
        assert_eq!(quantile(&v, 0.5), 5.0);
    }
}
