//! The campaign wire format: flat JSON lines shared by the journal and the
//! socket protocol.
//!
//! One encoding serves two transports. The journal has always been
//! hand-rolled, greppable, flat JSON — strings and unsigned integers only,
//! one object per line — and the campaign server speaks exactly the same
//! dialect over TCP: every request and reply is one `\n`-terminated flat
//! JSON object, so a protocol exchange can be debugged with `nc` and the
//! same parser that replays journals decodes network frames. The single
//! exception is checkpoint shipping, where a JSON header line announcing
//! `{"len":N,"digest":D}` is followed by exactly `N` raw bytes.
//!
//! Nothing here allocates a general JSON tree: no nesting, no arrays, no
//! floats, no booleans. Fractions travel in parts-per-million and flags as
//! `0`/`1`, mirroring the journal's conventions.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};

/// Wire-protocol version, sent in `hello`/`welcome`. Bumped on
/// incompatible message-schema changes; a server refuses mismatched
/// workers rather than guessing.
pub const PROTO_VERSION: u64 = 1;

/// Escapes a string for embedding in a flat JSON object.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A parsed flat JSON object: string and unsigned-integer values only.
#[derive(Debug, Default)]
pub(crate) struct FlatObject {
    strings: BTreeMap<String, String>,
    numbers: BTreeMap<String, u64>,
}

impl FlatObject {
    pub(crate) fn str_field(&self, key: &str) -> Result<String, String> {
        self.strings.get(key).cloned().ok_or_else(|| format!("missing string field `{key}`"))
    }

    /// A worker or queue name: a string that ends up in journal and
    /// `status` lines, plain-text summaries and directory names, so control
    /// characters — which [`parse_string`] happily decodes — are refused.
    fn name_field(&self, key: &str) -> Result<String, String> {
        let name = self.str_field(key)?;
        if name.chars().any(char::is_control) {
            return Err(format!("`{key}` contains a control character"));
        }
        Ok(name)
    }

    pub(crate) fn opt_str_field(&self, key: &str) -> Option<String> {
        self.strings.get(key).cloned()
    }

    pub(crate) fn num_field(&self, key: &str) -> Result<u64, String> {
        self.numbers.get(key).copied().ok_or_else(|| format!("missing numeric field `{key}`"))
    }
}

/// Parses `{"k":"v","n":42,...}` — exactly the shape the journal and the
/// protocol emit. Not a general JSON parser: no nesting, no arrays, no
/// floats.
pub(crate) fn parse_flat_object(line: &str) -> Result<FlatObject, String> {
    let mut chars = line.trim().chars().peekable();
    let mut obj = FlatObject::default();
    if chars.next() != Some('{') {
        return Err("expected `{`".into());
    }
    loop {
        match chars.peek() {
            Some('}') => break,
            Some('"') => {}
            Some(',') => {
                chars.next();
                continue;
            }
            Some(c) if c.is_whitespace() => {
                chars.next();
                continue;
            }
            other => return Err(format!("expected key, found {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("missing `:` after key `{key}`"));
        }
        skip_ws(&mut chars);
        match chars.peek() {
            Some('"') => {
                let value = parse_string(&mut chars)?;
                obj.strings.insert(key, value);
            }
            Some(c) if c.is_ascii_digit() => {
                let mut n: u64 = 0;
                while let Some(c) = chars.peek() {
                    let Some(d) = c.to_digit(10) else { break };
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(d as u64))
                        .ok_or_else(|| format!("numeric overflow in `{key}`"))?;
                    chars.next();
                }
                obj.numbers.insert(key, n);
            }
            other => return Err(format!("unsupported value for `{key}`: {other:?}")),
        }
    }
    Ok(obj)
}

fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
    while chars.peek().is_some_and(|c| c.is_whitespace()) {
        chars.next();
    }
}

fn parse_string(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) -> Result<String, String> {
    if chars.next() != Some('"') {
        return Err("expected `\"`".into());
    }
    let mut out = String::new();
    loop {
        match chars.next() {
            None => return Err("unterminated string".into()),
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('u') => {
                    let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                    let code = u32::from_str_radix(&hex, 16)
                        .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => return Err(format!("bad escape {other:?}")),
            },
            Some(c) => out.push(c),
        }
    }
}

/// A worker → server request. One JSON line on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientMsg {
    /// Registration: announces the worker and its protocol version.
    Hello {
        /// Worker id (unique per connection owner).
        worker: String,
        /// The worker's [`PROTO_VERSION`].
        proto: u64,
    },
    /// Ask for one experiment lease.
    Claim {
        /// Claiming worker id.
        worker: String,
    },
    /// Ask for a queue's campaign metadata (workload identity, golden
    /// reference, timing) — everything a worker needs besides the
    /// checkpoint image to execute experiments locally.
    Meta {
        /// Queue name.
        queue: String,
    },
    /// Ask for a queue's checkpoint image. Answered with
    /// [`ServerMsg::Blob`] followed by the raw bytes.
    Checkpoint {
        /// Queue name.
        queue: String,
    },
    /// Renew the lease on an in-flight attempt.
    Heartbeat {
        /// Owning worker id.
        worker: String,
        /// Queue name.
        queue: String,
        /// Experiment index.
        exp: u64,
        /// 1-based attempt under lease.
        attempt: u64,
    },
    /// Report a finished experiment.
    Result {
        /// Reporting worker id.
        worker: String,
        /// Queue name.
        queue: String,
        /// Experiment index.
        exp: u64,
        /// Attempt that completed it.
        attempt: u64,
        /// Classified outcome name (`Outcome::name`).
        outcome: String,
        /// Human-readable termination (`RunExit` display).
        exit: String,
        /// Simulated ticks of the run.
        ticks: u64,
        /// Rendered fault spec (audit; lets the server re-verify).
        spec: String,
    },
    /// Report a failed attempt (panic, abort, simulated death).
    Failed {
        /// Reporting worker id.
        worker: String,
        /// Queue name.
        queue: String,
        /// Experiment index.
        exp: u64,
        /// The failed attempt number.
        attempt: u64,
        /// Failure description.
        reason: String,
        /// Rendered fault spec, when known.
        spec: String,
    },
    /// Ask for the live metrics snapshot. Answered with a stream of
    /// status lines terminated by `{"status":"end"}`.
    Status,
}

impl ClientMsg {
    /// Renders the request as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            ClientMsg::Hello { worker, proto } => {
                format!(
                    "{{\"req\":\"hello\",\"worker\":\"{}\",\"proto\":{proto}}}",
                    json_escape(worker)
                )
            }
            ClientMsg::Claim { worker } => {
                format!("{{\"req\":\"claim\",\"worker\":\"{}\"}}", json_escape(worker))
            }
            ClientMsg::Meta { queue } => {
                format!("{{\"req\":\"meta\",\"queue\":\"{}\"}}", json_escape(queue))
            }
            ClientMsg::Checkpoint { queue } => {
                format!("{{\"req\":\"checkpoint\",\"queue\":\"{}\"}}", json_escape(queue))
            }
            ClientMsg::Heartbeat { worker, queue, exp, attempt } => format!(
                "{{\"req\":\"heartbeat\",\"worker\":\"{}\",\"queue\":\"{}\",\"exp\":{exp},\
                 \"attempt\":{attempt}}}",
                json_escape(worker),
                json_escape(queue)
            ),
            ClientMsg::Result { worker, queue, exp, attempt, outcome, exit, ticks, spec } => {
                format!(
                    "{{\"req\":\"result\",\"worker\":\"{}\",\"queue\":\"{}\",\"exp\":{exp},\
                     \"attempt\":{attempt},\"outcome\":\"{}\",\"exit\":\"{}\",\"ticks\":{ticks},\
                     \"spec\":\"{}\"}}",
                    json_escape(worker),
                    json_escape(queue),
                    json_escape(outcome),
                    json_escape(exit),
                    json_escape(spec)
                )
            }
            ClientMsg::Failed { worker, queue, exp, attempt, reason, spec } => format!(
                "{{\"req\":\"failed\",\"worker\":\"{}\",\"queue\":\"{}\",\"exp\":{exp},\
                 \"attempt\":{attempt},\"reason\":\"{}\",\"spec\":\"{}\"}}",
                json_escape(worker),
                json_escape(queue),
                json_escape(reason),
                json_escape(spec)
            ),
            ClientMsg::Status => "{\"req\":\"status\"}".to_string(),
        }
    }

    /// Parses one JSON line back into a request.
    ///
    /// # Errors
    ///
    /// A message describing the malformed line.
    pub fn parse(line: &str) -> Result<ClientMsg, String> {
        let fields = parse_flat_object(line)?;
        let kind = fields.str_field("req")?;
        match kind.as_str() {
            "hello" => Ok(ClientMsg::Hello {
                worker: fields.name_field("worker")?,
                proto: fields.num_field("proto")?,
            }),
            "claim" => Ok(ClientMsg::Claim { worker: fields.name_field("worker")? }),
            "meta" => Ok(ClientMsg::Meta { queue: fields.name_field("queue")? }),
            "checkpoint" => Ok(ClientMsg::Checkpoint { queue: fields.name_field("queue")? }),
            "heartbeat" => Ok(ClientMsg::Heartbeat {
                worker: fields.name_field("worker")?,
                queue: fields.name_field("queue")?,
                exp: fields.num_field("exp")?,
                attempt: fields.num_field("attempt")?,
            }),
            "result" => Ok(ClientMsg::Result {
                worker: fields.name_field("worker")?,
                queue: fields.name_field("queue")?,
                exp: fields.num_field("exp")?,
                attempt: fields.num_field("attempt")?,
                outcome: fields.str_field("outcome")?,
                exit: fields.str_field("exit")?,
                ticks: fields.num_field("ticks")?,
                spec: fields.str_field("spec")?,
            }),
            "failed" => Ok(ClientMsg::Failed {
                worker: fields.name_field("worker")?,
                queue: fields.name_field("queue")?,
                exp: fields.num_field("exp")?,
                attempt: fields.num_field("attempt")?,
                reason: fields.str_field("reason")?,
                spec: fields.str_field("spec")?,
            }),
            "status" => Ok(ClientMsg::Status),
            other => Err(format!("unknown request `{other}`")),
        }
    }
}

/// A server → worker reply. One JSON line on the wire (plus raw bytes
/// after a [`ServerMsg::Blob`] header).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerMsg {
    /// Registration accepted.
    Welcome {
        /// The server's [`PROTO_VERSION`].
        proto: u64,
        /// Number of campaign queues currently configured.
        queues: u64,
    },
    /// A leased experiment window entry.
    Work {
        /// Queue the experiment belongs to.
        queue: String,
        /// Experiment index.
        exp: u64,
        /// 1-based attempt this lease covers.
        attempt: u64,
        /// Lease expiry, ms since the Unix epoch (server clock).
        deadline_ms: u64,
        /// Lease duration — the worker derives its heartbeat cadence
        /// (`lease_ms / 3`) from this.
        lease_ms: u64,
        /// Rendered fault spec (Listing-1 line) to execute.
        spec: String,
    },
    /// Nothing claimable right now (all leased or backing off); retry
    /// after the hinted delay.
    Idle {
        /// Suggested retry delay.
        backoff_ms: u64,
    },
    /// Every queue is terminal: the worker may exit.
    Complete,
    /// Campaign metadata for one queue.
    Meta {
        /// Queue name.
        queue: String,
        /// Workload name (resolved by the worker's own registry).
        workload: String,
        /// Workload scale label.
        scale: String,
        /// Digest of the queue's checkpoint image.
        checkpoint_digest: u64,
        /// Ticks consumed by boot (checkpoint capture point).
        boot_ticks: u64,
        /// Fault-free kernel ticks (watchdog sizing).
        kernel_ticks: u64,
        /// Golden per-stage event counts (sampler space), fetch→writeback.
        stage_events: [u64; 5],
        /// Hex-encoded golden output bytes (classification reference).
        golden_hex: String,
    },
    /// Binary transfer header: exactly `len` raw bytes follow this line.
    Blob {
        /// Byte count following the header line.
        len: u64,
        /// Digest of the payload (checkpoint digest).
        digest: u64,
    },
    /// Heartbeat accepted: the lease now expires at `deadline_ms`.
    HeartbeatAck {
        /// Renewed expiry, ms since the Unix epoch.
        deadline_ms: u64,
    },
    /// Heartbeat rejected: the lease was reaped or reassigned. The worker
    /// must abandon the window.
    HeartbeatLost,
    /// Result/failure report acknowledged; `accepted` is `0` when the
    /// report was stale (a newer attempt owns the experiment).
    Ack {
        /// `1` accepted, `0` stale.
        accepted: u64,
    },
    /// Protocol or server-side error.
    Error {
        /// Human-readable reason.
        reason: String,
    },
}

impl ServerMsg {
    /// Renders the reply as one JSON line (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            ServerMsg::Welcome { proto, queues } => {
                format!("{{\"reply\":\"welcome\",\"proto\":{proto},\"queues\":{queues}}}")
            }
            ServerMsg::Work { queue, exp, attempt, deadline_ms, lease_ms, spec } => format!(
                "{{\"reply\":\"work\",\"queue\":\"{}\",\"exp\":{exp},\"attempt\":{attempt},\
                 \"deadline_ms\":{deadline_ms},\"lease_ms\":{lease_ms},\"spec\":\"{}\"}}",
                json_escape(queue),
                json_escape(spec)
            ),
            ServerMsg::Idle { backoff_ms } => {
                format!("{{\"reply\":\"idle\",\"backoff_ms\":{backoff_ms}}}")
            }
            ServerMsg::Complete => "{\"reply\":\"complete\"}".to_string(),
            ServerMsg::Meta {
                queue,
                workload,
                scale,
                checkpoint_digest,
                boot_ticks,
                kernel_ticks,
                stage_events,
                golden_hex,
            } => format!(
                "{{\"reply\":\"meta\",\"queue\":\"{}\",\"workload\":\"{}\",\"scale\":\"{}\",\
                 \"checkpoint_digest\":{checkpoint_digest},\"boot_ticks\":{boot_ticks},\
                 \"kernel_ticks\":{kernel_ticks},\"ev0\":{},\"ev1\":{},\"ev2\":{},\"ev3\":{},\
                 \"ev4\":{},\"golden_hex\":\"{}\"}}",
                json_escape(queue),
                json_escape(workload),
                json_escape(scale),
                stage_events[0],
                stage_events[1],
                stage_events[2],
                stage_events[3],
                stage_events[4],
                json_escape(golden_hex)
            ),
            ServerMsg::Blob { len, digest } => {
                format!("{{\"reply\":\"blob\",\"len\":{len},\"digest\":{digest}}}")
            }
            ServerMsg::HeartbeatAck { deadline_ms } => {
                format!("{{\"reply\":\"heartbeat-ack\",\"deadline_ms\":{deadline_ms}}}")
            }
            ServerMsg::HeartbeatLost => "{\"reply\":\"heartbeat-lost\"}".to_string(),
            ServerMsg::Ack { accepted } => format!("{{\"reply\":\"ack\",\"accepted\":{accepted}}}"),
            ServerMsg::Error { reason } => {
                format!("{{\"reply\":\"error\",\"reason\":\"{}\"}}", json_escape(reason))
            }
        }
    }

    /// Parses one JSON line back into a reply.
    ///
    /// # Errors
    ///
    /// A message describing the malformed line.
    pub fn parse(line: &str) -> Result<ServerMsg, String> {
        let fields = parse_flat_object(line)?;
        let kind = fields.str_field("reply")?;
        match kind.as_str() {
            "welcome" => Ok(ServerMsg::Welcome {
                proto: fields.num_field("proto")?,
                queues: fields.num_field("queues")?,
            }),
            "work" => Ok(ServerMsg::Work {
                queue: fields.str_field("queue")?,
                exp: fields.num_field("exp")?,
                attempt: fields.num_field("attempt")?,
                deadline_ms: fields.num_field("deadline_ms")?,
                lease_ms: fields.num_field("lease_ms")?,
                spec: fields.str_field("spec")?,
            }),
            "idle" => Ok(ServerMsg::Idle { backoff_ms: fields.num_field("backoff_ms")? }),
            "complete" => Ok(ServerMsg::Complete),
            "meta" => Ok(ServerMsg::Meta {
                queue: fields.str_field("queue")?,
                workload: fields.str_field("workload")?,
                scale: fields.str_field("scale")?,
                checkpoint_digest: fields.num_field("checkpoint_digest")?,
                boot_ticks: fields.num_field("boot_ticks")?,
                kernel_ticks: fields.num_field("kernel_ticks")?,
                stage_events: [
                    fields.num_field("ev0")?,
                    fields.num_field("ev1")?,
                    fields.num_field("ev2")?,
                    fields.num_field("ev3")?,
                    fields.num_field("ev4")?,
                ],
                golden_hex: fields.str_field("golden_hex")?,
            }),
            "blob" => Ok(ServerMsg::Blob {
                len: fields.num_field("len")?,
                digest: fields.num_field("digest")?,
            }),
            "heartbeat-ack" => {
                Ok(ServerMsg::HeartbeatAck { deadline_ms: fields.num_field("deadline_ms")? })
            }
            "heartbeat-lost" => Ok(ServerMsg::HeartbeatLost),
            "ack" => Ok(ServerMsg::Ack { accepted: fields.num_field("accepted")? }),
            "error" => Ok(ServerMsg::Error { reason: fields.str_field("reason")? }),
            other => Err(format!("unknown reply `{other}`")),
        }
    }
}

/// Writes one protocol line (appends the terminating `\n`) and flushes.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_line<W: Write>(w: &mut W, line: &str) -> std::io::Result<()> {
    w.write_all(line.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// Reads one `\n`-terminated line; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidData` on non-UTF-8.
pub fn read_line<R: BufRead>(r: &mut R) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    let n = r.read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// Reads the `len` raw bytes following a [`ServerMsg::Blob`] header.
///
/// # Errors
///
/// Propagates I/O errors (including truncation as `UnexpectedEof`).
pub fn read_blob<R: Read>(r: &mut R, len: u64) -> std::io::Result<Vec<u8>> {
    let mut bytes = vec![0u8; len as usize];
    r.read_exact(&mut bytes)?;
    Ok(bytes)
}

/// Hex-encodes bytes (golden outputs inside [`ServerMsg::Meta`]).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        let _ = write!(out, "{b:02x}");
    }
    out
}

/// Decodes a [`hex_encode`] string.
///
/// # Errors
///
/// A message on odd length or non-hex digits.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(s.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit {:?}", pair[0] as char))?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| format!("bad hex digit {:?}", pair[1] as char))?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_messages_roundtrip() {
        let msgs = vec![
            ClientMsg::Hello { worker: "w\"1\"".into(), proto: PROTO_VERSION },
            ClientMsg::Claim { worker: "w1".into() },
            ClientMsg::Meta { queue: "pi".into() },
            ClientMsg::Checkpoint { queue: "pi".into() },
            ClientMsg::Heartbeat { worker: "w1".into(), queue: "pi".into(), exp: 3, attempt: 2 },
            ClientMsg::Result {
                worker: "w1".into(),
                queue: "pi".into(),
                exp: 3,
                attempt: 2,
                outcome: "sdc".into(),
                exit: "halted (exit code 0)".into(),
                ticks: 123_456,
                spec: "reg f $1 0x1 1:100:i".into(),
            },
            ClientMsg::Failed {
                worker: "w1".into(),
                queue: "pi".into(),
                exp: 3,
                attempt: 2,
                reason: "worker panic: \"chaos\"\nline2".into(),
                spec: "reg f $1 0x1 1:100:i".into(),
            },
            ClientMsg::Status,
        ];
        for m in msgs {
            let line = m.to_json();
            assert!(!line.contains('\n'), "one message, one line: {line}");
            assert_eq!(ClientMsg::parse(&line).unwrap(), m, "{line}");
        }
    }

    #[test]
    fn names_with_control_characters_are_refused() {
        // `"w\nattempt=99"` would otherwise split every plain-text line
        // the name is printed in.
        let hostile = "w\nattempt=99";
        let requests = [
            ClientMsg::Hello { worker: hostile.into(), proto: PROTO_VERSION },
            ClientMsg::Claim { worker: hostile.into() },
            ClientMsg::Meta { queue: "pi\r".into() },
            ClientMsg::Checkpoint { queue: "pi\u{0}".into() },
            ClientMsg::Heartbeat { worker: "w1".into(), queue: "\t".into(), exp: 3, attempt: 2 },
            ClientMsg::Failed {
                worker: "w\u{7f}".into(),
                queue: "pi".into(),
                exp: 3,
                attempt: 2,
                reason: "newlines in a reason\nare fine".into(),
                spec: "reg f $1 0x1 1:100:i".into(),
            },
        ];
        for request in requests {
            let line = request.to_json();
            let err = ClientMsg::parse(&line).unwrap_err();
            assert!(err.contains("control character"), "{line}: {err}");
        }
    }

    #[test]
    fn server_messages_roundtrip() {
        let msgs = vec![
            ServerMsg::Welcome { proto: PROTO_VERSION, queues: 2 },
            ServerMsg::Work {
                queue: "pi".into(),
                exp: 7,
                attempt: 3,
                deadline_ms: 1_700_000_000_000,
                lease_ms: 30_000,
                spec: "reg f $1 0x1 1:100:i".into(),
            },
            ServerMsg::Idle { backoff_ms: 50 },
            ServerMsg::Complete,
            ServerMsg::Meta {
                queue: "pi".into(),
                workload: "pi".into(),
                scale: "small".into(),
                checkpoint_digest: 0xdead_beef,
                boot_ticks: 1_000,
                kernel_ticks: 50_000,
                stage_events: [1, 2, 3, 4, 5],
                golden_hex: "00ff10".into(),
            },
            ServerMsg::Blob { len: 4096, digest: 99 },
            ServerMsg::HeartbeatAck { deadline_ms: 42 },
            ServerMsg::HeartbeatLost,
            ServerMsg::Ack { accepted: 1 },
            ServerMsg::Error { reason: "unknown queue \"x\"".into() },
        ];
        for m in msgs {
            let line = m.to_json();
            assert!(!line.contains('\n'), "one message, one line: {line}");
            assert_eq!(ServerMsg::parse(&line).unwrap(), m, "{line}");
        }
    }

    #[test]
    fn framing_roundtrips_lines_and_blobs() {
        let mut buf = Vec::new();
        write_line(&mut buf, "{\"reply\":\"blob\",\"len\":3,\"digest\":7}").unwrap();
        buf.extend_from_slice(&[1, 2, 3]);
        write_line(&mut buf, "{\"reply\":\"complete\"}").unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        let header = read_line(&mut r).unwrap().unwrap();
        let ServerMsg::Blob { len, digest } = ServerMsg::parse(&header).unwrap() else {
            panic!("expected blob header");
        };
        assert_eq!((len, digest), (3, 7));
        assert_eq!(read_blob(&mut r, len).unwrap(), vec![1, 2, 3]);
        assert_eq!(
            ServerMsg::parse(&read_line(&mut r).unwrap().unwrap()).unwrap(),
            ServerMsg::Complete
        );
        assert_eq!(read_line(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn hex_roundtrips_and_rejects_garbage() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert_eq!(hex_encode(&[]), "");
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("abc").is_err(), "odd length");
        assert!(hex_decode("zz").is_err(), "non-hex");
    }
}
