//! The campaign transport abstraction: one claim/heartbeat/report protocol,
//! two backends.
//!
//! [`CampaignTransport`] is the worker-facing face of a campaign's slot
//! table (`now::Campaign`), and [`ClaimReply`]/[`WorkAssignment`]
//! are the table's own answer to a claim. The spool backend
//! (`SpoolTransport`) locks the table directly — in-process worker
//! threads sharing one spool directory — and hands each worker the slot's
//! own fault spec; the mutex, not the filesystem, arbitrates claims. The
//! socket backend ([`crate::worker::SocketTransport`]) speaks the same
//! verbs over TCP to a [`crate::server::CampaignServer`], which locks the
//! very same type on the workers' behalf. The generic worker loop
//! ([`crate::worker`]) is written against this trait and cannot tell the
//! difference — which is the point: every recovery path (reap, backoff,
//! zombie suppression, journal fold) is tested once and holds on both.

use crate::now::{Campaign, CompletedExperiment};
use gemfi::{AbortToken, FaultSpec, Outcome};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// A leased experiment handed to a worker.
#[derive(Debug, Clone)]
pub struct WorkAssignment {
    /// Campaign queue the experiment belongs to (`"spool"` for the
    /// directory backend, the queue name for the server).
    pub queue: String,
    /// Global experiment index.
    pub exp: usize,
    /// 1-based attempt this lease covers.
    pub attempt: u64,
    /// Lease expiry, ms since the epoch on the *scheduler's* clock.
    pub deadline_ms: u64,
    /// Lease duration (heartbeat cadence derives from it).
    pub lease_ms: u64,
    /// The fault to inject.
    pub spec: FaultSpec,
    /// Raised when the attempt must stop: by the in-process reaper (spool)
    /// or by the worker's own heartbeat loop on server loss (socket).
    pub abort: AbortToken,
}

/// Reply to a claim request.
#[derive(Debug)]
pub enum ClaimReply {
    /// A leased experiment to execute.
    Work(WorkAssignment),
    /// Nothing claimable right now; retry after the hint.
    Idle {
        /// Suggested retry delay, milliseconds.
        backoff_ms: u64,
    },
    /// The campaign (or every queue) is terminal: the worker may exit.
    Complete,
}

/// Whether a report landed or was dropped as a zombie.
pub use crate::now::ReportAck;

/// Bounds an attempt's liveness machinery to the execution: the socket
/// backend's heartbeat thread (one per transport, shared by its attempts)
/// beats the attempt until its guard drops, then waits for the next one.
#[derive(Debug, Default)]
pub struct AttemptGuard {
    stop: Option<Arc<AtomicBool>>,
}

impl AttemptGuard {
    /// A guard with no machinery behind it (spool backend).
    pub fn inert() -> AttemptGuard {
        AttemptGuard { stop: None }
    }

    /// A guard that raises `stop` when dropped.
    pub fn stopping(stop: Arc<AtomicBool>) -> AttemptGuard {
        AttemptGuard { stop: Some(stop) }
    }
}

impl Drop for AttemptGuard {
    fn drop(&mut self) {
        if let Some(stop) = &self.stop {
            stop.store(true, Ordering::SeqCst);
        }
    }
}

/// The claim/heartbeat/result-fold cycle, backend-neutral.
pub trait CampaignTransport {
    /// Asks for one experiment lease.
    ///
    /// # Errors
    ///
    /// Transport I/O errors (the socket backend retries transient
    /// connection loss internally before surfacing one).
    fn claim(&mut self, worker: &str) -> std::io::Result<ClaimReply>;

    /// Starts attempt-scoped liveness machinery (heartbeats). The default
    /// is inert: a spool lease never expires, so it needs none.
    fn begin_attempt(&mut self, _worker: &str, _assignment: &WorkAssignment) -> AttemptGuard {
        AttemptGuard::inert()
    }

    /// Reports a finished experiment.
    ///
    /// # Errors
    ///
    /// Transport I/O errors.
    fn report_result(
        &mut self,
        worker: &str,
        assignment: &WorkAssignment,
        outcome: Outcome,
        exit: &str,
        ticks: u64,
    ) -> std::io::Result<ReportAck>;

    /// Reports a failed attempt.
    ///
    /// # Errors
    ///
    /// Transport I/O errors.
    fn report_failure(
        &mut self,
        worker: &str,
        assignment: &WorkAssignment,
        reason: &str,
    ) -> std::io::Result<ReportAck>;
}

/// The spool-directory backend: in-process worker threads locking the
/// campaign directly, the NoW executor's shape.
pub(crate) struct SpoolTransport<'a> {
    pub(crate) campaign: &'a Mutex<Campaign>,
    /// Workstation index for load-balance accounting.
    pub(crate) ws: usize,
}

impl CampaignTransport for SpoolTransport<'_> {
    fn claim(&mut self, worker: &str) -> std::io::Result<ClaimReply> {
        self.campaign.lock().expect("campaign mutex").try_claim("spool", worker, 0)
    }

    fn report_result(
        &mut self,
        worker: &str,
        assignment: &WorkAssignment,
        outcome: Outcome,
        exit: &str,
        ticks: u64,
    ) -> std::io::Result<ReportAck> {
        let done = CompletedExperiment {
            exp: assignment.exp,
            outcome,
            attempts: assignment.attempt,
            ticks,
            resumed: false,
        };
        let mut campaign = self.campaign.lock().expect("campaign mutex");
        campaign.report_done(worker, Some(self.ws), done, exit)
    }

    fn report_failure(
        &mut self,
        worker: &str,
        assignment: &WorkAssignment,
        reason: &str,
    ) -> std::io::Result<ReportAck> {
        let mut campaign = self.campaign.lock().expect("campaign mutex");
        campaign.report_failed(assignment.exp, assignment.attempt, worker, reason)
    }
}
