//! Expiring experiment leases as files on a network share.
//!
//! Kept for `benchmark/`, which times a claim and a release; nothing in the
//! campaign calls it. A campaign's leases live in its slot table
//! ([`crate::now`]) and its journal, and one mutex makes a claim exclusive.
//!
//! The file protocol: a worker claims experiment *i* by creating
//! `exp{i:05}.lease` with `O_CREAT|O_EXCL` semantics
//! ([`std::fs::OpenOptions::create_new`]) — the filesystem arbitrates
//! races, so two workers (even on different machines mounting the same
//! share) can never both own an experiment. The file carries the owner, the
//! attempt number, and a wall-clock deadline; once the deadline passes any
//! other worker's reaper may break the lease.

use std::fs::OpenOptions;
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};

use crate::clock::{Clock, SystemClock};

/// Milliseconds since the Unix epoch — the clock leases are stamped in.
/// Served by [`SystemClock`], so it never runs backwards even if
/// `SystemTime` does; code that needs a *test-controllable* clock takes an
/// `Arc<dyn Clock>` instead of calling this.
pub fn now_ms() -> u64 {
    SystemClock.now_ms()
}

/// A decoded lease file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    /// Experiment index.
    pub exp: usize,
    /// Owning worker id.
    pub worker: String,
    /// 1-based attempt number this lease covers.
    pub attempt: u64,
    /// Expiry, milliseconds since the Unix epoch.
    pub deadline_ms: u64,
}

impl Lease {
    /// Whether the lease has expired at time `now_ms`.
    pub fn expired(&self, now_ms: u64) -> bool {
        now_ms > self.deadline_ms
    }

    fn render(&self) -> String {
        format!(
            "worker={}\nattempt={}\ndeadline_ms={}\n",
            self.worker, self.attempt, self.deadline_ms
        )
    }

    fn parse(exp: usize, text: &str) -> Result<Lease, String> {
        let mut worker = None;
        let mut attempt = None;
        let mut deadline_ms = None;
        for line in text.lines() {
            let Some((k, v)) = line.split_once('=') else { continue };
            match k {
                "worker" => worker = Some(v.to_string()),
                "attempt" => attempt = v.parse::<u64>().ok(),
                "deadline_ms" => deadline_ms = v.parse::<u64>().ok(),
                _ => {}
            }
        }
        Ok(Lease {
            exp,
            worker: worker.ok_or("lease missing worker")?,
            attempt: attempt.ok_or("lease missing attempt")?,
            deadline_ms: deadline_ms.ok_or("lease missing deadline_ms")?,
        })
    }
}

/// The lease directory protocol over one share.
#[derive(Debug, Clone)]
pub struct LeaseDir {
    share: PathBuf,
}

impl LeaseDir {
    /// Wraps a share directory (must already exist).
    pub fn new(share: &Path) -> LeaseDir {
        LeaseDir { share: share.to_path_buf() }
    }

    /// The lease file path for experiment `exp`.
    pub fn lease_path(&self, exp: usize) -> PathBuf {
        self.share.join(format!("exp{exp:05}.lease"))
    }

    /// Atomically claims experiment `exp`: creates the lease file if and
    /// only if no lease exists. Returns `Ok(None)` when another worker
    /// holds it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than the already-exists race loss.
    pub fn claim(
        &self,
        exp: usize,
        worker: &str,
        attempt: u64,
        deadline_ms: u64,
    ) -> std::io::Result<Option<Lease>> {
        let lease = Lease { exp, worker: worker.to_string(), attempt, deadline_ms };
        match OpenOptions::new().write(true).create_new(true).open(self.lease_path(exp)) {
            Ok(mut f) => {
                f.write_all(lease.render().as_bytes())?;
                f.flush()?;
                Ok(Some(lease))
            }
            Err(e) if e.kind() == ErrorKind::AlreadyExists => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Reads the lease on `exp`, if one exists. A vanished-under-us file
    /// (owner released it mid-read) reads as `None`.
    ///
    /// # Errors
    ///
    /// I/O errors other than `NotFound`, or `InvalidData` for a malformed
    /// lease file.
    pub fn read(&self, exp: usize) -> std::io::Result<Option<Lease>> {
        match std::fs::read_to_string(self.lease_path(exp)) {
            Ok(text) => Lease::parse(exp, &text)
                .map(Some)
                .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e)),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Releases a lease (attempt finished, in success or failure). Missing
    /// files are fine — a reaper may have broken the lease already.
    ///
    /// # Errors
    ///
    /// I/O errors other than `NotFound`.
    pub fn release(&self, exp: usize) -> std::io::Result<()> {
        match std::fs::remove_file(self.lease_path(exp)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    /// Renews the lease on `exp` to a new deadline — the heartbeat path.
    /// The rewrite only happens when the caller still owns the lease
    /// (worker and attempt match); returns whether it did. A missing lease
    /// means a reaper already broke it: the caller has lost the window.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn renew(
        &self,
        exp: usize,
        worker: &str,
        attempt: u64,
        new_deadline_ms: u64,
    ) -> std::io::Result<bool> {
        let Some(current) = self.read(exp)? else { return Ok(false) };
        if current.worker != worker || current.attempt != attempt {
            return Ok(false);
        }
        let renewed = Lease { deadline_ms: new_deadline_ms, ..current };
        std::fs::write(self.lease_path(exp), renewed.render())?;
        Ok(true)
    }

    /// Breaks an *expired* lease so the experiment can be reclaimed.
    /// Returns the broken lease, or `None` when the lease is gone or still
    /// live (someone else got here first, or the owner finished in time).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn reap(&self, exp: usize, now_ms: u64) -> std::io::Result<Option<Lease>> {
        let Some(lease) = self.read(exp)? else { return Ok(None) };
        if !lease.expired(now_ms) {
            return Ok(None);
        }
        self.release(exp)?;
        Ok(Some(lease))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("gemfi-lease-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn claim_is_exclusive_until_released() {
        let d = dir("excl");
        let leases = LeaseDir::new(&d);
        let lease = leases.claim(3, "ws0.slot0", 1, 10_000).unwrap().expect("first claim wins");
        assert_eq!(lease.worker, "ws0.slot0");
        assert!(leases.claim(3, "ws1.slot0", 1, 10_000).unwrap().is_none(), "second claim loses");
        assert_eq!(leases.read(3).unwrap().unwrap(), lease);
        leases.release(3).unwrap();
        assert!(leases.read(3).unwrap().is_none());
        assert!(leases.claim(3, "ws1.slot0", 2, 20_000).unwrap().is_some(), "reclaimable");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn reap_breaks_only_expired_leases() {
        let d = dir("reap");
        let leases = LeaseDir::new(&d);
        leases.claim(0, "w", 1, 1_000).unwrap().unwrap();
        assert!(leases.reap(0, 500).unwrap().is_none(), "live lease survives");
        let broken = leases.reap(0, 1_001).unwrap().expect("expired lease broken");
        assert_eq!(broken.attempt, 1);
        assert!(leases.read(0).unwrap().is_none());
        assert!(leases.reap(0, 2_000).unwrap().is_none(), "idempotent");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn renew_extends_only_the_owners_lease() {
        let d = dir("renew");
        let leases = LeaseDir::new(&d);
        leases.claim(5, "w0", 1, 1_000).unwrap().unwrap();
        assert!(leases.renew(5, "w0", 1, 2_000).unwrap(), "owner renews");
        assert_eq!(leases.read(5).unwrap().unwrap().deadline_ms, 2_000);
        assert!(!leases.renew(5, "w1", 1, 9_000).unwrap(), "stranger cannot renew");
        assert!(!leases.renew(5, "w0", 2, 9_000).unwrap(), "wrong attempt cannot renew");
        assert_eq!(leases.read(5).unwrap().unwrap().deadline_ms, 2_000);
        leases.release(5).unwrap();
        assert!(!leases.renew(5, "w0", 1, 9_000).unwrap(), "reaped lease cannot renew");
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn release_of_absent_lease_is_ok() {
        let d = dir("absent");
        let leases = LeaseDir::new(&d);
        leases.release(42).unwrap();
        assert!(leases.read(42).unwrap().is_none());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn concurrent_claims_admit_exactly_one_winner() {
        let d = dir("race");
        let leases = LeaseDir::new(&d);
        let wins: Vec<bool> = std::thread::scope(|s| {
            (0..8)
                .map(|t| {
                    let leases = leases.clone();
                    s.spawn(move || {
                        leases.claim(7, &format!("t{t}"), 1, u64::MAX).unwrap().is_some()
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect()
        });
        assert_eq!(wins.iter().filter(|&&w| w).count(), 1, "{wins:?}");
        std::fs::remove_dir_all(&d).ok();
    }
}
