//! The durable campaign journal: an append-only JSONL lifecycle log on the
//! network share.
//!
//! The paper's NoW protocol (Sec. III-E) tolerates workstation failure by
//! construction — experiments live on a shared spool until *somebody*
//! finishes them. The journal is the bookkeeping that makes that durable:
//! every lifecycle transition of every experiment
//! (`pending → leased(worker, deadline) → done(outcome) | failed(attempts)`)
//! is one JSON object on one line of `campaign.journal`, appended and
//! flushed before the transition is applied. It is the campaign's only
//! per-experiment state on the share. A campaign process that dies
//! mid-flight leaves a journal whose replay reconstructs exactly which
//! experiments are finished, which were in flight (a `leased` line nothing
//! resolved: an orphan), and which were never started — the resume path
//! reclaims the orphans and schedules only the unfinished remainder.
//!
//! This module is the durable format only: the events and their codec, the
//! append-only file, and the identity check a resumed journal's header
//! must pass. What an event *means* — the lifecycle rule it applies, and
//! the fold that replays a journal into a slot table — is stated once, in
//! [`crate::now`].
//!
//! Durability: [`Journal::append`] flushes each line to the operating
//! system but never fsyncs. A killed process loses nothing; a power cut may
//! lose the tail of the file, and resume re-runs whatever that tail held.
//!
//! The format is deliberately hand-rolled, flat JSON (string and integer
//! fields only): the workspace builds fully offline, and a lifecycle log
//! should be greppable from a shell on the share without tooling. The
//! encoding itself lives in [`crate::wire`], where the campaign server's
//! socket protocol speaks the same dialect.

use crate::wire::flat_messages;
use gemfi::Outcome;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// File name of the journal on the share.
pub const JOURNAL_FILE: &str = "campaign.journal";

/// Journal format version (bumped on incompatible event-schema changes).
pub const JOURNAL_VERSION: u64 = 1;

flat_messages! {
    /// One lifecycle event. Serialized as one JSON object per line.
    #[derive(Debug, Clone, PartialEq)]
    pub enum JournalEvent: tag "event", unknown "journal event" {
        /// Campaign header: written once at the start, replayed on resume to
        /// verify the journal belongs to the same campaign (same experiment
        /// count, same fault specs, same checkpoint).
        Campaign = "campaign" {
            /// Journal format version.
            version: u64 = num "version",
            /// Total number of experiments.
            experiments: u64 = num "experiments",
            /// Digest of the spooled checkpoint file (see
            /// `gemfi_sim::Checkpoint::digest`); resume rejects a share whose
            /// checkpoint no longer matches.
            checkpoint_digest: u64 = num "checkpoint_digest",
            /// FNV-1a digest over the rendered fault specs; resume rejects a
            /// journal recorded for different faults.
            spec_digest: u64 = num "spec_digest",
        },
        /// Adaptive-campaign header: written once at the start of a sequential
        /// (early-stopping) campaign instead of [`JournalEvent::Campaign`]. The
        /// experiment count is open-ended — the engine draws until the stopping
        /// rule or the budget ends it — so identity is pinned by the sampler
        /// seed, the checkpoint, and the stopping-rule parameters instead.
        /// Fractional parameters are stored in parts-per-million because the
        /// journal's flat format is integers-and-strings only.
        AdaptiveCampaign = "adaptive-campaign" {
            /// Journal format version.
            version: u64 = num "version",
            /// Campaign sampler seed (per-cell streams derive from it).
            seed: u64 = num "seed",
            /// Digest of the spooled checkpoint file.
            checkpoint_digest: u64 = num "checkpoint_digest",
            /// Confidence z-value, in parts per million (1.96 → 1_960_000).
            z_ppm: u64 = num "z_ppm",
            /// Target CI half-width, in parts per million (0.05 → 50_000).
            halfwidth_ppm: u64 = num "halfwidth_ppm",
            /// Minimum experiments per cell before it may stop.
            min_n: u64 = num "min_n",
            /// Global experiment budget.
            budget: u64 = num "budget",
            /// Draws per undecided cell per round.
            batch: u64 = num "batch",
            /// Comma-joined cell labels, in sampling order.
            cells: String = str "cells",
        },
        /// The sequential engine drew one fault point for a cell and assigned
        /// it the next experiment index. Journaled for the whole round *before*
        /// any of the round's experiments execute, so a resumed campaign can
        /// verify it re-derives the identical draw sequence.
        Drawn = "drawn" {
            /// Experiment index (globally sequential in draw order).
            exp: u64 = num "exp",
            /// Cell label (e.g. `int-reg`, `l1d-cache`, `security`).
            cell: String = str "cell",
            /// 0-based ordinal of this draw within its cell's stream.
            draw: u64 = num "draw",
        },
        /// A worker claimed the experiment under a lease.
        Leased = "leased" {
            /// Experiment index.
            exp: u64 = num "exp",
            /// Claiming worker id (`ws<W>.slot<S>` for the simulated NoW).
            worker: String = str "worker",
            /// 1-based attempt number.
            attempt: u64 = num "attempt",
            /// Lease expiry, milliseconds since the Unix epoch (`u64::MAX`
            /// for a spool lease, which never expires).
            deadline_ms: u64 = num "deadline_ms",
        },
        /// The experiment finished and its outcome is final.
        Done = "done" {
            /// Experiment index.
            exp: u64 = num "exp",
            /// Attempt that completed it.
            attempt: u64 = num "attempt",
            /// Classified outcome.
            outcome: Outcome = text "outcome",
            /// Human-readable termination (`RunExit` display; audit only).
            exit: String = str "exit",
            /// Total simulated ticks of the run.
            ticks: u64 = num "ticks",
        },
        /// One attempt failed (worker panic, expired lease, abort); the
        /// experiment goes back to pending unless retries are exhausted.
        AttemptFailed = "attempt-failed" {
            /// Experiment index.
            exp: u64 = num "exp",
            /// The failed attempt number.
            attempt: u64 = num "attempt",
            /// Worker that held the lease.
            worker: String = str "worker",
            /// Failure description (for a worker panic, the panic payload).
            reason: String = str "reason",
            /// Rendered fault spec of the offending experiment, when known —
            /// the reproduction handle that makes `Infrastructure` rows
            /// triageable. Optional so journals written before this field (or
            /// failures with no spec context) still replay.
            spec: Option<String> = opt "spec",
        },
        /// Terminal infrastructure failure: retries exhausted.
        Failed = "failed" {
            /// Experiment index.
            exp: u64 = num "exp",
            /// Attempts consumed.
            attempts: u64 = num "attempts",
            /// Last failure description.
            reason: String = str "reason",
            /// Rendered fault spec of the offending experiment, when known.
            spec: Option<String> = opt "spec",
        },
    }
}

/// An open, append-only journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
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
        Ok(Journal { file, path })
    }

    /// The journal file's location.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one event with a single unbuffered write, so the line has
    /// reached the operating system when this returns: a process killed
    /// right after a transition never loses the record of it, and a refused
    /// append leaves nothing behind for a later one to write. There is no
    /// fsync: a power cut may lose the tail.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn append(&mut self, event: &JournalEvent) -> std::io::Result<()> {
        let mut line = event.to_json();
        line.push('\n');
        self.file.write_all(line.as_bytes())
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

/// Compares the header of a replayed journal's `events` against
/// `expected`, the header a fresh start of the very same campaign would
/// write (for the checkpoint now on the share), naming what differs.
/// Returns the fixed-n experiment count ([`None`] for an adaptive
/// campaign). Resume checks identity before folding any state, so a
/// journal from a different campaign reports the mismatch, not a confusing
/// out-of-range experiment.
///
/// # Errors
///
/// A message when the journal has no header or belongs to a different
/// campaign.
pub(crate) fn check_identity(
    events: &[JournalEvent],
    expected: &JournalEvent,
) -> Result<Option<usize>, String> {
    use JournalEvent::{AdaptiveCampaign, Campaign};
    let found = events
        .iter()
        .find(|e| matches!(e, Campaign { .. } | AdaptiveCampaign { .. }))
        .ok_or_else(|| "journal has no campaign header".to_string())?;
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
pub(crate) mod tests {
    use super::*;

    /// One event of every kind: a fixed-n header, a finished experiment 0,
    /// a failed attempt of experiment 1, a given-up experiment 2, then an
    /// adaptive header and its first draw.
    pub(crate) fn sample_events() -> Vec<JournalEvent> {
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

    /// Every event kind paired with its exact line: [`sample_events`], then
    /// the optional `spec` the other way round (present on `failed`,
    /// absent on `attempt-failed`).
    pub(crate) fn pinned_events() -> Vec<(JournalEvent, &'static str)> {
        let lines = [
            concat!(
                r#"{"event":"campaign","version":1,"experiments":3,"#,
                r#""checkpoint_digest":3735928559,"spec_digest":42}"#
            ),
            r#"{"event":"leased","exp":0,"worker":"ws0.slot1","attempt":1,"deadline_ms":1700000000000}"#,
            concat!(
                r#"{"event":"done","exp":0,"attempt":1,"outcome":"sdc","#,
                r#""exit":"halted (exit code 0)","ticks":12345}"#
            ),
            concat!(
                r#"{"event":"attempt-failed","exp":1,"attempt":1,"worker":"ws1.slot0","#,
                r#""reason":"worker panic: \"chaos\"\nbacktrace","spec":"reg f $1 0x1 1:100:i"}"#
            ),
            r#"{"event":"failed","exp":2,"attempts":3,"reason":"lease expired"}"#,
            concat!(
                r#"{"event":"adaptive-campaign","version":1,"seed":7,"checkpoint_digest":3735928559,"#,
                r#""z_ppm":1960000,"halfwidth_ppm":50000,"min_n":25,"budget":5000,"batch":16,"#,
                r#""cells":"int-reg,fp-reg,pc"}"#
            ),
            r#"{"event":"drawn","exp":0,"cell":"fp-reg","draw":0}"#,
        ];
        let mut pinned: Vec<_> = sample_events().into_iter().zip(lines).collect();
        pinned.push((
            JournalEvent::AttemptFailed {
                exp: 4,
                attempt: 2,
                worker: "ws0.slot0".into(),
                reason: "orphaned lease (campaign restart)".into(),
                spec: None,
            },
            concat!(
                r#"{"event":"attempt-failed","exp":4,"attempt":2,"worker":"ws0.slot0","#,
                r#""reason":"orphaned lease (campaign restart)"}"#
            ),
        ));
        pinned.push((
            JournalEvent::Failed {
                exp: 5,
                attempts: 3,
                reason: "worker panic: \\".into(),
                spec: Some("mem \"x\"".into()),
            },
            r#"{"event":"failed","exp":5,"attempts":3,"reason":"worker panic: \\","spec":"mem \"x\""}"#,
        ));
        pinned
    }

    #[test]
    fn events_roundtrip_through_json() {
        for (event, pinned) in pinned_events() {
            let line = event.to_json();
            assert_eq!(line, pinned, "the encoded bytes are pinned");
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
    fn a_refused_append_is_not_written_by_the_next_one() {
        let dir =
            std::env::temp_dir().join(format!("gemfi-journal-refused-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut j = Journal::open(&dir).unwrap();
        let events = sample_events();
        // A handle the operating system refuses writes on: the `done`
        // append fails, as a full or read-only share would make it.
        let read_only = File::open(j.path()).unwrap();
        let writable = std::mem::replace(&mut j.file, read_only);
        assert!(j.append(&events[2]).is_err());
        j.file = writable;
        j.append(&events[1]).unwrap();
        drop(j);
        let replayed = Journal::replay(&Journal::path_in(&dir)).unwrap();
        assert_eq!(replayed, vec![events[1].clone()], "only the accepted `leased` line");
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
