//! The durable campaign journal: an append-only JSONL lifecycle log on the
//! network share.
//!
//! The paper's NoW protocol (Sec. III-E) tolerates workstation failure by
//! construction — experiments live on a shared spool until *somebody*
//! finishes them. The journal is the bookkeeping that makes that durable:
//! every lifecycle transition of every experiment
//! (`pending → leased(worker, deadline) → done(outcome) | failed(attempts)`)
//! is one JSON object on one line of `campaign.journal`, appended and
//! flushed before the transition is acted on. A campaign process that dies
//! mid-flight leaves a journal whose replay reconstructs exactly which
//! experiments are finished, which were in flight (their leases now
//! orphaned), and which were never started — the resume path schedules only
//! the unfinished remainder.
//!
//! The format is deliberately hand-rolled, flat JSON (string and integer
//! fields only): the workspace builds fully offline, and a lifecycle log
//! should be greppable from a shell on the share without tooling. The
//! encoding itself lives in [`crate::wire`], where the campaign server's
//! socket protocol speaks the same dialect.

use crate::now::CompletedExperiment;
use crate::wire::{json_escape, parse_flat_object};
use gemfi::{AbortToken, Outcome};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Error, ErrorKind, Write};
use std::path::{Path, PathBuf};

/// File name of the journal on the share.
pub const JOURNAL_FILE: &str = "campaign.journal";

/// Journal format version (bumped on incompatible event-schema changes).
pub const JOURNAL_VERSION: u64 = 1;

/// One lifecycle event. Serialized as one JSON object per line.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalEvent {
    /// Campaign header: written once at the start, replayed on resume to
    /// verify the journal belongs to the same campaign (same experiment
    /// count, same fault specs, same checkpoint).
    Campaign {
        /// Journal format version.
        version: u64,
        /// Total number of experiments.
        experiments: u64,
        /// Digest of the spooled checkpoint file (see
        /// `gemfi_sim::Checkpoint::digest`); resume rejects a share whose
        /// checkpoint no longer matches.
        checkpoint_digest: u64,
        /// FNV-1a digest over the rendered fault specs; resume rejects a
        /// journal recorded for different faults.
        spec_digest: u64,
    },
    /// Adaptive-campaign header: written once at the start of a sequential
    /// (early-stopping) campaign instead of [`JournalEvent::Campaign`]. The
    /// experiment count is open-ended — the engine draws until the stopping
    /// rule or the budget ends it — so identity is pinned by the sampler
    /// seed, the checkpoint, and the stopping-rule parameters instead.
    /// Fractional parameters are stored in parts-per-million because the
    /// journal's flat format is integers-and-strings only.
    AdaptiveCampaign {
        /// Journal format version.
        version: u64,
        /// Campaign sampler seed (per-cell streams derive from it).
        seed: u64,
        /// Digest of the spooled checkpoint file.
        checkpoint_digest: u64,
        /// Confidence z-value, in parts per million (1.96 → 1_960_000).
        z_ppm: u64,
        /// Target CI half-width, in parts per million (0.05 → 50_000).
        halfwidth_ppm: u64,
        /// Minimum experiments per cell before it may stop.
        min_n: u64,
        /// Global experiment budget.
        budget: u64,
        /// Draws per undecided cell per round.
        batch: u64,
        /// Comma-joined cell labels, in sampling order.
        cells: String,
    },
    /// The sequential engine drew one fault point for a cell and assigned
    /// it the next experiment index. Journaled for the whole round *before*
    /// any of the round's experiments execute, so a resumed campaign can
    /// verify it re-derives the identical draw sequence.
    Drawn {
        /// Experiment index (globally sequential in draw order).
        exp: u64,
        /// Cell label (e.g. `int-reg`, `l1d-cache`, `security`).
        cell: String,
        /// 0-based ordinal of this draw within its cell's stream.
        draw: u64,
    },
    /// A worker claimed the experiment under an expiring lease.
    Leased {
        /// Experiment index.
        exp: u64,
        /// Claiming worker id (`ws<W>.slot<S>` for the simulated NoW).
        worker: String,
        /// 1-based attempt number.
        attempt: u64,
        /// Lease expiry, milliseconds since the Unix epoch.
        deadline_ms: u64,
    },
    /// The experiment finished and its outcome is final.
    Done {
        /// Experiment index.
        exp: u64,
        /// Attempt that completed it.
        attempt: u64,
        /// Classified outcome.
        outcome: Outcome,
        /// Human-readable termination (`RunExit` display; audit only).
        exit: String,
        /// Total simulated ticks of the run.
        ticks: u64,
    },
    /// One attempt failed (worker panic, expired lease, abort); the
    /// experiment goes back to pending unless retries are exhausted.
    AttemptFailed {
        /// Experiment index.
        exp: u64,
        /// The failed attempt number.
        attempt: u64,
        /// Worker that held the lease.
        worker: String,
        /// Failure description (for a worker panic, the panic payload).
        reason: String,
        /// Rendered fault spec of the offending experiment, when known —
        /// the reproduction handle that makes `Infrastructure` rows
        /// triageable. Optional so journals written before this field (or
        /// failures with no spec context) still replay.
        spec: Option<String>,
    },
    /// Terminal infrastructure failure: retries exhausted.
    Failed {
        /// Experiment index.
        exp: u64,
        /// Attempts consumed.
        attempts: u64,
        /// Last failure description.
        reason: String,
        /// Rendered fault spec of the offending experiment, when known.
        spec: Option<String>,
    },
}

/// Renders the optional `"spec"` member (empty when absent, so old-format
/// lines stay byte-identical).
fn spec_suffix(spec: Option<&str>) -> String {
    match spec {
        Some(s) => format!(",\"spec\":\"{}\"", json_escape(s)),
        None => String::new(),
    }
}

impl JournalEvent {
    /// Renders the event as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            JournalEvent::Campaign { version, experiments, checkpoint_digest, spec_digest } => {
                format!(
                    "{{\"event\":\"campaign\",\"version\":{version},\"experiments\":{experiments},\
                     \"checkpoint_digest\":{checkpoint_digest},\"spec_digest\":{spec_digest}}}"
                )
            }
            JournalEvent::AdaptiveCampaign {
                version,
                seed,
                checkpoint_digest,
                z_ppm,
                halfwidth_ppm,
                min_n,
                budget,
                batch,
                cells,
            } => format!(
                "{{\"event\":\"adaptive-campaign\",\"version\":{version},\"seed\":{seed},\
                 \"checkpoint_digest\":{checkpoint_digest},\"z_ppm\":{z_ppm},\
                 \"halfwidth_ppm\":{halfwidth_ppm},\"min_n\":{min_n},\"budget\":{budget},\
                 \"batch\":{batch},\"cells\":\"{}\"}}",
                json_escape(cells)
            ),
            JournalEvent::Drawn { exp, cell, draw } => format!(
                "{{\"event\":\"drawn\",\"exp\":{exp},\"cell\":\"{}\",\"draw\":{draw}}}",
                json_escape(cell)
            ),
            JournalEvent::Leased { exp, worker, attempt, deadline_ms } => format!(
                "{{\"event\":\"leased\",\"exp\":{exp},\"worker\":\"{}\",\"attempt\":{attempt},\
                 \"deadline_ms\":{deadline_ms}}}",
                json_escape(worker)
            ),
            JournalEvent::Done { exp, attempt, outcome, exit, ticks } => format!(
                "{{\"event\":\"done\",\"exp\":{exp},\"attempt\":{attempt},\"outcome\":\"{}\",\
                 \"exit\":\"{}\",\"ticks\":{ticks}}}",
                outcome.name(),
                json_escape(exit)
            ),
            JournalEvent::AttemptFailed { exp, attempt, worker, reason, spec } => format!(
                "{{\"event\":\"attempt-failed\",\"exp\":{exp},\"attempt\":{attempt},\
                 \"worker\":\"{}\",\"reason\":\"{}\"{}}}",
                json_escape(worker),
                json_escape(reason),
                spec_suffix(spec.as_deref())
            ),
            JournalEvent::Failed { exp, attempts, reason, spec } => format!(
                "{{\"event\":\"failed\",\"exp\":{exp},\"attempts\":{attempts},\"reason\":\"{}\"{}}}",
                json_escape(reason),
                spec_suffix(spec.as_deref())
            ),
        }
    }

    /// Parses one JSON line back into an event.
    ///
    /// # Errors
    ///
    /// A message describing the malformed line.
    pub fn parse(line: &str) -> Result<JournalEvent, String> {
        let fields = parse_flat_object(line)?;
        let kind = fields.str_field("event")?;
        match kind.as_str() {
            "campaign" => Ok(JournalEvent::Campaign {
                version: fields.num_field("version")?,
                experiments: fields.num_field("experiments")?,
                checkpoint_digest: fields.num_field("checkpoint_digest")?,
                spec_digest: fields.num_field("spec_digest")?,
            }),
            "adaptive-campaign" => Ok(JournalEvent::AdaptiveCampaign {
                version: fields.num_field("version")?,
                seed: fields.num_field("seed")?,
                checkpoint_digest: fields.num_field("checkpoint_digest")?,
                z_ppm: fields.num_field("z_ppm")?,
                halfwidth_ppm: fields.num_field("halfwidth_ppm")?,
                min_n: fields.num_field("min_n")?,
                budget: fields.num_field("budget")?,
                batch: fields.num_field("batch")?,
                cells: fields.str_field("cells")?,
            }),
            "drawn" => Ok(JournalEvent::Drawn {
                exp: fields.num_field("exp")?,
                cell: fields.str_field("cell")?,
                draw: fields.num_field("draw")?,
            }),
            "leased" => Ok(JournalEvent::Leased {
                exp: fields.num_field("exp")?,
                worker: fields.str_field("worker")?,
                attempt: fields.num_field("attempt")?,
                deadline_ms: fields.num_field("deadline_ms")?,
            }),
            "done" => Ok(JournalEvent::Done {
                exp: fields.num_field("exp")?,
                attempt: fields.num_field("attempt")?,
                outcome: fields.str_field("outcome")?.parse()?,
                exit: fields.str_field("exit")?,
                ticks: fields.num_field("ticks")?,
            }),
            "attempt-failed" => Ok(JournalEvent::AttemptFailed {
                exp: fields.num_field("exp")?,
                attempt: fields.num_field("attempt")?,
                worker: fields.str_field("worker")?,
                reason: fields.str_field("reason")?,
                // Lenient: absent in journals written before this field.
                spec: fields.opt_str_field("spec"),
            }),
            "failed" => Ok(JournalEvent::Failed {
                exp: fields.num_field("exp")?,
                attempts: fields.num_field("attempts")?,
                reason: fields.str_field("reason")?,
                spec: fields.opt_str_field("spec"),
            }),
            other => Err(format!("unknown journal event `{other}`")),
        }
    }
}

/// An open, append-only journal.
#[derive(Debug)]
pub struct Journal {
    writer: BufWriter<File>,
    path: PathBuf,
}

impl Journal {
    /// The journal path under a share directory.
    pub fn path_in(share: &Path) -> PathBuf {
        share.join(JOURNAL_FILE)
    }

    /// Opens the journal for appending, creating it if absent.
    ///
    /// A writer that died mid-append leaves a torn final line. [`replay`]
    /// tolerates and drops it, but appending after the fragment would glue
    /// the next event onto it — turning an expected torn *tail* into fatal
    /// *interior* corruption on every later resume — so the torn tail is
    /// trimmed off here, before the first append.
    ///
    /// [`replay`]: Journal::replay
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn open(share: &Path) -> std::io::Result<Journal> {
        let path = Journal::path_in(share);
        match std::fs::read(&path) {
            Ok(bytes) if !bytes.is_empty() && !bytes.ends_with(b"\n") => {
                let keep = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |p| p + 1);
                let file = OpenOptions::new().write(true).open(&path)?;
                file.set_len(keep as u64)?;
            }
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal { writer: BufWriter::new(file), path })
    }

    /// The journal file's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event and flushes it to the file before returning, so a
    /// crash immediately after a transition never loses the record of it.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append(&mut self, event: &JournalEvent) -> std::io::Result<()> {
        self.writer.write_all(event.to_json().as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()
    }

    /// Replays a journal file into its event sequence. A torn final line
    /// (the writer died mid-append) is tolerated and dropped; corruption
    /// anywhere else is an error.
    ///
    /// # Errors
    ///
    /// I/O errors, or `InvalidData` for corrupt interior lines.
    pub fn replay(path: &Path) -> std::io::Result<Vec<JournalEvent>> {
        let text = std::fs::read_to_string(path)?;
        let lines: Vec<&str> = text.lines().collect();
        let mut events = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            match JournalEvent::parse(line) {
                Ok(e) => events.push(e),
                // A torn tail is expected after a crash; anything earlier
                // means the journal itself is damaged.
                Err(_) if i + 1 == lines.len() && !text.ends_with('\n') => break,
                Err(e) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{}:{}: {e}", path.display(), i + 1),
                    ));
                }
            }
        }
        Ok(events)
    }
}

/// One experiment's lifecycle state, the same enum from journal replay to
/// the final report: replay yields `Pending` and `Terminal`, and the
/// campaign's slot table ([`crate::now::Campaign`]) moves it through
/// `Leased` while the experiment's round is open.
#[derive(Debug, Clone)]
pub(crate) enum ExpState {
    /// Waiting to run: `attempts` already burned (by this process or by
    /// dead workers of an earlier one), claimable at `not_before_ms`.
    Pending {
        /// Attempts already consumed.
        attempts: u64,
        /// Scheduler-clock time the retry backoff ends.
        not_before_ms: u64,
    },
    /// In flight under a lease. Never replayed: liveness is the lease
    /// files' business, the journal's `leased` line is the audit record.
    Leased {
        /// 1-based attempt under lease.
        attempt: u64,
        /// Lease expiry (scheduler clock, ms since the epoch).
        deadline_ms: u64,
        /// The lease owner.
        worker: String,
        /// Raised by the reaper when the lease expires.
        abort: AbortToken,
    },
    /// Finished: a classified outcome, or [`Outcome::Infrastructure`] once
    /// the harness exhausted its retries (no ticks).
    Terminal(CompletedExperiment),
}

impl ExpState {
    /// A never-attempted experiment.
    pub(crate) const FRESH: ExpState = ExpState::Pending { attempts: 0, not_before_ms: 0 };

    /// The terminal record, once there is one.
    pub(crate) fn terminal(&self) -> Option<&CompletedExperiment> {
        match self {
            ExpState::Terminal(done) => Some(done),
            _ => None,
        }
    }
}

/// The reconstruction of a campaign — fixed-n or adaptive — from its
/// journal.
#[derive(Debug, Clone, Default)]
pub(crate) struct CampaignState {
    /// The campaign header, if the journal got far enough to record one.
    pub(crate) header: Option<JournalEvent>,
    /// Per-experiment state, indexed by experiment number.
    pub(crate) experiments: Vec<ExpState>,
    /// `(cell label, draw ordinal)` per journaled adaptive draw, in draw
    /// (= experiment) order. Empty for fixed-n campaigns.
    pub(crate) drawn: Vec<(String, u64)>,
}

impl CampaignState {
    /// Folds an event sequence into per-experiment terminal state.
    /// `experiments` is the size of a fixed-n campaign; [`None`] is an
    /// adaptive campaign, whose experiments exist once drawn. Events
    /// naming an experiment beyond either are rejected.
    ///
    /// # Errors
    ///
    /// A message when the journal references out-of-range experiments,
    /// records draws out of order, or leases a finished experiment.
    pub(crate) fn from_events(
        events: &[JournalEvent],
        experiments: Option<usize>,
    ) -> Result<CampaignState, String> {
        let mut state = CampaignState {
            experiments: vec![ExpState::FRESH; experiments.unwrap_or(0)],
            ..CampaignState::default()
        };
        for event in events {
            match event {
                JournalEvent::Campaign { .. } | JournalEvent::AdaptiveCampaign { .. } => {
                    if state.header.is_none() {
                        state.header = Some(event.clone());
                    }
                }
                JournalEvent::Drawn { exp, cell, draw } => {
                    if *exp != state.drawn.len() as u64 {
                        return Err(format!(
                            "draw record out of order: exp {exp} after {}",
                            state.drawn.len()
                        ));
                    }
                    state.drawn.push((cell.clone(), *draw));
                    if experiments.is_none() {
                        state.experiments.push(ExpState::FRESH);
                    }
                }
                JournalEvent::Leased { exp, .. } => {
                    // Liveness is tracked by the lease files; the journal
                    // entry is the audit record. Claiming a finished
                    // experiment is a protocol violation.
                    if state.slot(*exp)?.terminal().is_some() {
                        return Err(format!("experiment {exp} leased after finishing"));
                    }
                }
                JournalEvent::Done { exp, attempt, outcome, ticks, .. } => {
                    // First terminal event wins: a zombie worker completing
                    // after its lease was reaped and the experiment re-ran
                    // must not double-count.
                    state.finish(*exp, *outcome, *attempt, *ticks)?;
                }
                JournalEvent::AttemptFailed { exp, attempt, .. } => {
                    let s = state.slot(*exp)?;
                    if let ExpState::Pending { attempts, .. } = s {
                        *attempts = (*attempts).max(*attempt);
                    }
                }
                JournalEvent::Failed { exp, attempts, .. } => {
                    state.finish(*exp, Outcome::Infrastructure, *attempts, 0)?;
                }
            }
        }
        Ok(state)
    }

    fn slot(&mut self, exp: u64) -> Result<&mut ExpState, String> {
        self.experiments
            .get_mut(exp as usize)
            .ok_or_else(|| format!("experiment {exp} out of range"))
    }

    /// Records a replayed terminal event unless an earlier one already won.
    fn finish(
        &mut self,
        exp: u64,
        outcome: Outcome,
        attempts: u64,
        ticks: u64,
    ) -> Result<(), String> {
        let slot = self.slot(exp)?;
        if slot.terminal().is_none() {
            let exp = exp as usize;
            *slot = ExpState::Terminal(CompletedExperiment {
                exp,
                outcome,
                attempts,
                ticks,
                resumed: true,
            });
        }
        Ok(())
    }

    /// Replays the journal on `share` and validates it against this
    /// campaign's identity: `expected` is the header a fresh start of the
    /// very same campaign would write (for the checkpoint now on the
    /// share). Identity checks come before state folding so a journal from
    /// a different campaign reports the mismatch, not a confusing
    /// out-of-range experiment.
    ///
    /// # Errors
    ///
    /// [`ErrorKind::InvalidData`] when the journal has no header, belongs
    /// to a different campaign, or is inconsistent; I/O errors from reading
    /// it.
    pub(crate) fn replay(share: &Path, expected: &JournalEvent) -> std::io::Result<CampaignState> {
        let events = Journal::replay(&Journal::path_in(share))?;
        let invalid = |e: String| Error::new(ErrorKind::InvalidData, e);
        let found = events
            .iter()
            .find(|e| {
                matches!(e, JournalEvent::Campaign { .. } | JournalEvent::AdaptiveCampaign { .. })
            })
            .ok_or_else(|| invalid("journal has no campaign header".to_string()))?;
        let experiments = check_identity(found, expected).map_err(invalid)?;
        CampaignState::from_events(&events, experiments).map_err(invalid)
    }
}

/// Compares a journal's header against the one this campaign would write,
/// naming what differs. Returns the fixed-n experiment count ([`None`] for
/// an adaptive campaign).
fn check_identity(found: &JournalEvent, expected: &JournalEvent) -> Result<Option<usize>, String> {
    use JournalEvent::{AdaptiveCampaign, Campaign};
    match (found, expected) {
        (
            Campaign { version, experiments, checkpoint_digest, spec_digest },
            Campaign {
                version: want_version,
                experiments: want_experiments,
                checkpoint_digest: want_checkpoint,
                spec_digest: want_specs,
            },
        ) => {
            if version != want_version {
                return Err(format!("journal version {version}, expected {want_version}"));
            }
            if experiments != want_experiments {
                return Err(format!(
                    "journal covers {experiments} experiments, campaign has {want_experiments}"
                ));
            }
            if spec_digest != want_specs {
                return Err("journal was recorded for a different fault-spec set".to_string());
            }
            if checkpoint_digest != want_checkpoint {
                return Err("spooled checkpoint does not match the journaled campaign \
                            (stale or swapped)"
                    .to_string());
            }
            Ok(Some(*experiments as usize))
        }
        (AdaptiveCampaign { .. }, AdaptiveCampaign { .. }) => {
            if found != expected {
                return Err("journal was recorded for a different adaptive campaign \
                            (seed, checkpoint, stopping rule, or cell set differs)"
                    .to_string());
            }
            Ok(None)
        }
        (Campaign { .. }, _) => {
            Err("journal belongs to a fixed-n campaign, not an adaptive one".to_string())
        }
        _ => Err("journal belongs to an adaptive campaign, not a fixed-n one".to_string()),
    }
}

/// FNV-1a digest of the rendered fault specs — the campaign identity the
/// journal header pins (resume refuses to mix journals across spec sets).
pub fn spec_digest(specs: &[gemfi::FaultSpec]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for spec in specs {
        for b in spec.to_string().bytes().chain([b'\n']) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Campaign {
                version: JOURNAL_VERSION,
                experiments: 3,
                checkpoint_digest: 0xdead_beef,
                spec_digest: 42,
            },
            JournalEvent::Leased {
                exp: 0,
                worker: "ws0.slot1".into(),
                attempt: 1,
                deadline_ms: 1_700_000_000_000,
            },
            JournalEvent::Done {
                exp: 0,
                attempt: 1,
                outcome: Outcome::Sdc,
                exit: "halted (exit code 0)".into(),
                ticks: 12_345,
            },
            JournalEvent::AttemptFailed {
                exp: 1,
                attempt: 1,
                worker: "ws1.slot0".into(),
                reason: "worker panic: \"chaos\"\nbacktrace".into(),
                spec: Some("reg f $1 0x1 1:100:i".into()),
            },
            JournalEvent::Failed {
                exp: 2,
                attempts: 3,
                reason: "lease expired".into(),
                spec: None,
            },
            JournalEvent::AdaptiveCampaign {
                version: JOURNAL_VERSION,
                seed: 7,
                checkpoint_digest: 0xdead_beef,
                z_ppm: 1_960_000,
                halfwidth_ppm: 50_000,
                min_n: 25,
                budget: 5_000,
                batch: 16,
                cells: "int-reg,fp-reg,pc".into(),
            },
            JournalEvent::Drawn { exp: 0, cell: "fp-reg".into(), draw: 0 },
        ]
    }

    #[test]
    fn events_roundtrip_through_json() {
        for event in sample_events() {
            let line = event.to_json();
            assert_eq!(JournalEvent::parse(&line).unwrap(), event, "{line}");
        }
    }

    #[test]
    fn escaping_survives_hostile_reasons() {
        let event = JournalEvent::AttemptFailed {
            exp: 0,
            attempt: 1,
            worker: "w".into(),
            reason: "quote \" backslash \\ newline \n tab \t nul \u{0} end".into(),
            spec: Some("hostile \"spec\" \\ with newline \n".into()),
        };
        let line = event.to_json();
        assert!(!line.contains('\n'), "one event, one line: {line}");
        assert_eq!(JournalEvent::parse(&line).unwrap(), event);
    }

    #[test]
    fn journal_appends_and_replays() {
        let dir = std::env::temp_dir().join(format!("gemfi-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut j = Journal::open(&dir).unwrap();
        let events = sample_events();
        for e in &events {
            j.append(e).unwrap();
        }
        drop(j);
        assert_eq!(Journal::replay(&Journal::path_in(&dir)).unwrap(), events);
        // Re-opening appends rather than truncating.
        let mut j = Journal::open(&dir).unwrap();
        j.append(&events[1]).unwrap();
        drop(j);
        assert_eq!(Journal::replay(&Journal::path_in(&dir)).unwrap().len(), events.len() + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped_but_interior_corruption_is_fatal() {
        let dir = std::env::temp_dir().join(format!("gemfi-journal-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = Journal::path_in(&dir);
        let good = sample_events()[0].to_json();
        std::fs::write(&path, format!("{good}\n{{\"event\":\"leas")).unwrap();
        assert_eq!(Journal::replay(&path).unwrap().len(), 1, "torn tail dropped");
        std::fs::write(&path, format!("{{\"event\":\"leas\n{good}\n")).unwrap();
        assert!(Journal::replay(&path).is_err(), "interior corruption detected");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_trims_a_torn_tail_so_later_appends_stay_parseable() {
        let dir = std::env::temp_dir().join(format!("gemfi-journal-trim-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = Journal::path_in(&dir);
        let events = sample_events();
        std::fs::write(&path, format!("{}\n{{\"event\":\"leas", events[0].to_json())).unwrap();
        // Re-opening after the crash must drop the fragment; the next
        // append then lands on its own line and a full replay parses.
        let mut j = Journal::open(&dir).unwrap();
        j.append(&events[1]).unwrap();
        drop(j);
        let replayed = Journal::replay(&path).unwrap();
        assert_eq!(replayed, vec![events[0].clone(), events[1].clone()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn state_folding_tracks_lifecycles() {
        let state = CampaignState::from_events(&sample_events(), Some(3)).unwrap();
        assert!(state.header.is_some());
        let done = state.experiments[0].terminal().expect("exp 0 finished");
        assert_eq!(
            (done.exp, done.outcome, done.attempts, done.ticks),
            (0, Outcome::Sdc, 1, 12_345)
        );
        assert!(done.resumed, "replayed records are marked as such");
        assert!(matches!(
            state.experiments[1],
            ExpState::Pending { attempts: 1, not_before_ms: 0 }
        ));
        let failed = state.experiments[2].terminal().expect("exp 2 gave up");
        assert_eq!(
            (failed.outcome, failed.attempts, failed.ticks),
            (Outcome::Infrastructure, 3, 0)
        );
        assert_eq!(state.drawn, vec![("fp-reg".to_string(), 0)]);
    }

    #[test]
    fn duplicate_done_keeps_the_first_record() {
        let mut events = sample_events();
        events.push(JournalEvent::Done {
            exp: 0,
            attempt: 2,
            outcome: Outcome::Crashed,
            exit: "zombie".into(),
            ticks: 1,
        });
        let state = CampaignState::from_events(&events, Some(3)).unwrap();
        let done = state.experiments[0].terminal().expect("exp 0 finished");
        assert_eq!((done.outcome, done.attempts, done.ticks), (Outcome::Sdc, 1, 12_345));
    }

    #[test]
    fn pre_spec_journal_lines_still_parse() {
        // Lines written before the `spec` field existed must keep replaying.
        let old = "{\"event\":\"attempt-failed\",\"exp\":1,\"attempt\":2,\
                   \"worker\":\"w\",\"reason\":\"boom\"}";
        assert_eq!(
            JournalEvent::parse(old).unwrap(),
            JournalEvent::AttemptFailed {
                exp: 1,
                attempt: 2,
                worker: "w".into(),
                reason: "boom".into(),
                spec: None,
            }
        );
        let old = "{\"event\":\"failed\",\"exp\":3,\"attempts\":4,\"reason\":\"gone\"}";
        assert_eq!(
            JournalEvent::parse(old).unwrap(),
            JournalEvent::Failed { exp: 3, attempts: 4, reason: "gone".into(), spec: None }
        );
    }

    #[test]
    fn out_of_range_experiments_are_rejected() {
        let events =
            vec![JournalEvent::Failed { exp: 9, attempts: 1, reason: "x".into(), spec: None }];
        assert!(CampaignState::from_events(&events, Some(3)).is_err());
        // An adaptive journal's experiments exist once drawn, not before.
        assert!(CampaignState::from_events(&events, None).is_err());
    }

    #[test]
    fn spec_digest_distinguishes_spec_sets() {
        use gemfi::{FaultBehavior, FaultLocation, FaultSpec, FaultTiming};
        let a = FaultSpec {
            location: FaultLocation::IntReg { core: 0, reg: 1 },
            thread: 0,
            timing: FaultTiming::Instructions(10),
            behavior: FaultBehavior::Flip(3),
            occurrences: 1,
        };
        let mut b = a;
        b.behavior = FaultBehavior::Flip(4);
        assert_ne!(spec_digest(&[a]), spec_digest(&[b]));
        assert_ne!(spec_digest(&[a, b]), spec_digest(&[b, a]));
        assert_eq!(spec_digest(&[a, b]), spec_digest(&[a, b]));
    }
}
