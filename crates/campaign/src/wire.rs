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
//!
//! Each message is declared once. The `flat_messages!` macro takes a
//! message family's tag key and, per variant, its wire tag and its fields
//! as `name: Type = kind "key"`; from that one declaration it generates the
//! enum, `to_json` and `parse`. So the keys of every request and reply are
//! written in exactly one place — [`ClientMsg`] and [`ServerMsg`] below —
//! and those of every journal event in
//! [`JournalEvent`](crate::journal::JournalEvent). Every line, the
//! server's STATUS lines included, is written by one `FlatWriter`, the
//! only place that quotes and escapes.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::io::{BufRead, Read, Write};

/// Wire-protocol version, sent in `hello`/`welcome`. Bumped on
/// incompatible message-schema changes; a server refuses mismatched
/// workers rather than guessing.
pub const PROTO_VERSION: u64 = 1;

/// A fraction in parts per million, the integer-only form fractions take
/// on the wire, in the journal and in STATUS lines.
pub(crate) fn ppm(x: f64) -> u64 {
    (x * 1e6).round() as u64
}

/// Appends `s` to `out`, escaped for a JSON string.
fn json_escape(out: &mut String, s: &str) {
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
}

/// Writes one flat JSON object, members in call order:
/// `FlatWriter::new("req", "claim").str("worker", "w1").finish()` is
/// `{"req":"claim","worker":"w1"}`.
pub(crate) struct FlatWriter {
    out: String,
}

impl FlatWriter {
    /// Opens an object whose first member is its tag.
    pub(crate) fn new(key: &str, tag: &str) -> FlatWriter {
        FlatWriter { out: String::with_capacity(128) }.str(key, tag)
    }

    fn key(&mut self, key: &str) {
        self.out.push(if self.out.is_empty() { '{' } else { ',' });
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    /// A string member.
    pub(crate) fn str(mut self, key: &str, value: &str) -> FlatWriter {
        self.key(key);
        self.out.push('"');
        json_escape(&mut self.out, value);
        self.out.push('"');
        self
    }

    /// A string member holding `value`'s `Display` form.
    pub(crate) fn text(self, key: &str, value: impl Display) -> FlatWriter {
        self.str(key, &value.to_string())
    }

    /// An unsigned-integer member.
    pub(crate) fn num(mut self, key: &str, value: u64) -> FlatWriter {
        self.key(key);
        let _ = write!(self.out, "{value}");
        self
    }

    /// One integer member per element, keyed `{prefix}0`, `{prefix}1`, ….
    pub(crate) fn nums(mut self, prefix: &str, values: &[u64]) -> FlatWriter {
        for (i, &v) in values.iter().enumerate() {
            self = self.num(&format!("{prefix}{i}"), v);
        }
        self
    }

    /// Closes the object and returns the line (no trailing newline).
    pub(crate) fn finish(mut self) -> String {
        self.out.push('}');
        self.out
    }
}

/// Declares a family of flat-JSON messages once and generates the enum,
/// its `to_json` and its `parse`:
///
/// ```text
/// flat_messages! {
///     /// Docs and derives of the enum.
///     #[derive(Debug)]
///     pub enum Request: tag "req", unknown "request" {
///         /// Docs of a variant.
///         Claim = "claim" {
///             /// Docs of a field.
///             worker: String = name "worker",
///         },
///         Status = "status",
///     }
/// }
/// ```
///
/// A line is the tag member (`{"req":"claim"`) followed by the fields in
/// declaration order; `parse` reads the same keys in the same order, so
/// the first missing field names the error. A field's kind says how it is
/// written and read:
///
/// - `str`: a `String`;
/// - `name`: a `String` whose decoder refuses control characters — worker
///   and queue names end up in journal and status lines, plain-text
///   summaries and directory names;
/// - `num`: a `u64`;
/// - `opt`: an `Option<String>`, left out when `None` and `None` when
///   absent (lines written before the field existed still parse);
/// - `text`: a `Display` value written as a string, read with `FromStr`;
/// - `nums`: a `[u64; N]`, one key per element (`"ev"` → `ev0`, `ev1`, …).
macro_rules! flat_messages {
    (@put $w:ident, str, $key:literal, $v:ident) => { $w.str($key, $v) };
    (@put $w:ident, name, $key:literal, $v:ident) => { $w.str($key, $v) };
    (@put $w:ident, num, $key:literal, $v:ident) => { $w.num($key, *$v) };
    (@put $w:ident, opt, $key:literal, $v:ident) => {
        match $v {
            Some(v) => $w.str($key, v),
            None => $w,
        }
    };
    (@put $w:ident, text, $key:literal, $v:ident) => { $w.text($key, $v) };
    (@put $w:ident, nums, $key:literal, $v:ident) => { $w.nums($key, $v) };
    (@get $f:ident, str, $key:literal) => { $f.str_field($key)? };
    (@get $f:ident, name, $key:literal) => { $f.name_field($key)? };
    (@get $f:ident, num, $key:literal) => { $f.num_field($key)? };
    (@get $f:ident, opt, $key:literal) => { $f.opt_str_field($key) };
    (@get $f:ident, text, $key:literal) => { $f.str_field($key)?.parse()? };
    (@get $f:ident, nums, $key:literal) => { $f.nums_field($key)? };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: tag $tag:literal, unknown $noun:literal {
            $(
                $(#[$vmeta:meta])*
                $variant:ident = $wire:literal $({
                    $(
                        $(#[$fmeta:meta])*
                        $field:ident: $ty:ty = $kind:ident $key:literal
                    ),* $(,)?
                })?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $( $(#[$fmeta])* $field: $ty ),* })?,
            )*
        }

        impl $name {
            /// Renders the message as one JSON line (no trailing newline).
            pub fn to_json(&self) -> String {
                match self {
                    $(
                        $name::$variant $({ $($field),* })? => {
                            let w = $crate::wire::FlatWriter::new($tag, $wire);
                            $($(
                                let w = $crate::wire::flat_messages!(@put w, $kind, $key, $field);
                            )*)?
                            w.finish()
                        }
                    )*
                }
            }

            /// Parses one JSON line back into a message.
            ///
            /// # Errors
            ///
            /// A message describing the malformed line.
            pub fn parse(line: &str) -> Result<$name, String> {
                let fields = $crate::wire::parse_flat_object(line)?;
                match fields.str_field($tag)?.as_str() {
                    $(
                        $wire => Ok($name::$variant $({ $(
                            $field: $crate::wire::flat_messages!(@get fields, $kind, $key)
                        ),* })?),
                    )*
                    other => Err(format!(concat!("unknown ", $noun, " `{}`"), other)),
                }
            }
        }
    };
}
pub(crate) use flat_messages;

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
    pub(crate) fn name_field(&self, key: &str) -> Result<String, String> {
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

    /// The members `{prefix}0` … `{prefix}{N-1}`, read in order.
    pub(crate) fn nums_field<const N: usize>(&self, prefix: &str) -> Result<[u64; N], String> {
        let mut values = [0; N];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.num_field(&format!("{prefix}{i}"))?;
        }
        Ok(values)
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

flat_messages! {
    /// A worker → server request. One JSON line on the wire.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ClientMsg: tag "req", unknown "request" {
        /// Registration: announces the worker and its protocol version.
        Hello = "hello" {
            /// Worker id (unique per connection owner).
            worker: String = name "worker",
            /// The worker's [`PROTO_VERSION`].
            proto: u64 = num "proto",
        },
        /// Ask for one experiment lease.
        Claim = "claim" {
            /// Claiming worker id.
            worker: String = name "worker",
        },
        /// Ask for a queue's campaign metadata (workload identity, golden
        /// reference, timing) — everything a worker needs besides the
        /// checkpoint image to execute experiments locally.
        Meta = "meta" {
            /// Queue name.
            queue: String = name "queue",
        },
        /// Ask for a queue's checkpoint image. Answered with
        /// [`ServerMsg::Blob`] followed by the raw bytes.
        Checkpoint = "checkpoint" {
            /// Queue name.
            queue: String = name "queue",
        },
        /// Renew the lease on an in-flight attempt.
        Heartbeat = "heartbeat" {
            /// Owning worker id.
            worker: String = name "worker",
            /// Queue name.
            queue: String = name "queue",
            /// Experiment index.
            exp: u64 = num "exp",
            /// 1-based attempt under lease.
            attempt: u64 = num "attempt",
        },
        /// Report a finished experiment.
        Result = "result" {
            /// Reporting worker id.
            worker: String = name "worker",
            /// Queue name.
            queue: String = name "queue",
            /// Experiment index.
            exp: u64 = num "exp",
            /// Attempt that completed it.
            attempt: u64 = num "attempt",
            /// Classified outcome name (`Outcome::name`).
            outcome: String = str "outcome",
            /// Human-readable termination (`RunExit` display).
            exit: String = str "exit",
            /// Simulated ticks of the run.
            ticks: u64 = num "ticks",
            /// Rendered fault spec (audit; lets the server re-verify).
            spec: String = str "spec",
        },
        /// Report a failed attempt (panic, abort, simulated death).
        Failed = "failed" {
            /// Reporting worker id.
            worker: String = name "worker",
            /// Queue name.
            queue: String = name "queue",
            /// Experiment index.
            exp: u64 = num "exp",
            /// The failed attempt number.
            attempt: u64 = num "attempt",
            /// Failure description.
            reason: String = str "reason",
            /// Rendered fault spec, when known.
            spec: String = str "spec",
        },
        /// Ask for the live metrics snapshot. Answered with a stream of
        /// status lines terminated by `{"status":"end"}`.
        Status = "status",
    }
}

flat_messages! {
    /// A server → worker reply. One JSON line on the wire (plus raw bytes
    /// after a [`ServerMsg::Blob`] header).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum ServerMsg: tag "reply", unknown "reply" {
        /// Registration accepted.
        Welcome = "welcome" {
            /// The server's [`PROTO_VERSION`].
            proto: u64 = num "proto",
            /// Number of campaign queues currently configured.
            queues: u64 = num "queues",
        },
        /// A leased experiment window entry.
        Work = "work" {
            /// Queue the experiment belongs to.
            queue: String = str "queue",
            /// Experiment index.
            exp: u64 = num "exp",
            /// 1-based attempt this lease covers.
            attempt: u64 = num "attempt",
            /// Lease expiry, ms since the Unix epoch (server clock).
            deadline_ms: u64 = num "deadline_ms",
            /// Lease duration — the worker derives its heartbeat cadence
            /// (`lease_ms / 3`) from this.
            lease_ms: u64 = num "lease_ms",
            /// Rendered fault spec (Listing-1 line) to execute.
            spec: String = str "spec",
        },
        /// Nothing claimable right now (all leased or backing off); retry
        /// after the hinted delay.
        Idle = "idle" {
            /// Suggested retry delay.
            backoff_ms: u64 = num "backoff_ms",
        },
        /// Every queue is terminal: the worker may exit.
        Complete = "complete",
        /// Campaign metadata for one queue.
        Meta = "meta" {
            /// Queue name.
            queue: String = str "queue",
            /// Workload name (resolved by the worker's own registry).
            workload: String = str "workload",
            /// Workload scale label.
            scale: String = str "scale",
            /// Digest of the queue's checkpoint image.
            checkpoint_digest: u64 = num "checkpoint_digest",
            /// Ticks consumed by boot (checkpoint capture point).
            boot_ticks: u64 = num "boot_ticks",
            /// Fault-free kernel ticks (watchdog sizing).
            kernel_ticks: u64 = num "kernel_ticks",
            /// Golden per-stage event counts (sampler space), fetch→writeback.
            stage_events: [u64; 5] = nums "ev",
            /// Hex-encoded golden output bytes (classification reference).
            golden_hex: String = str "golden_hex",
        },
        /// Binary transfer header: exactly `len` raw bytes follow this line.
        Blob = "blob" {
            /// Byte count following the header line.
            len: u64 = num "len",
            /// Digest of the payload (checkpoint digest).
            digest: u64 = num "digest",
        },
        /// Heartbeat accepted: the lease now expires at `deadline_ms`.
        HeartbeatAck = "heartbeat-ack" {
            /// Renewed expiry, ms since the Unix epoch.
            deadline_ms: u64 = num "deadline_ms",
        },
        /// Heartbeat rejected: the lease was reaped or reassigned. The worker
        /// must abandon the window.
        HeartbeatLost = "heartbeat-lost",
        /// Result/failure report acknowledged; `accepted` is `0` when the
        /// report was stale (a newer attempt owns the experiment).
        Ack = "ack" {
            /// `1` accepted, `0` stale.
            accepted: u64 = num "accepted",
        },
        /// Protocol or server-side error.
        Error = "error" {
            /// Human-readable reason.
            reason: String = str "reason",
        },
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

/// The longest failure reason a socket worker reports, in bytes. A panic
/// message can be any size; a longer reason is cut at a character
/// boundary, so every legitimate request fits in [`MAX_REQUEST_LINE`].
pub(crate) const MAX_REASON_BYTES: usize = 4096;

/// The longest request line the server reads, `\n` excluded. The longest
/// legitimate request is a `failed` report: about a hundred bytes of keys
/// and numbers, a worker name, a queue name and a rendered fault spec (tens
/// of bytes each), and a reason of at most [`MAX_REASON_BYTES`], which
/// escaping grows at most sixfold (`\u0001` for a control byte) — under
/// 25 KiB. 64 KiB leaves room for long names; a longer line is refused, so
/// a client that never sends `\n` cannot grow the server's buffer.
pub(crate) const MAX_REQUEST_LINE: usize = 64 * 1024;

/// Reads one `\n`-terminated line; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidData` on non-UTF-8.
pub fn read_line<R: BufRead>(r: &mut R) -> std::io::Result<Option<String>> {
    read_line_within(r, usize::MAX)
}

/// [`read_line`] for a line of at most `max` bytes before its `\n`. A
/// longer line is refused after `max + 1` of its bytes have been read.
///
/// # Errors
///
/// Propagates I/O errors; `InvalidData` on non-UTF-8 or a longer line.
pub(crate) fn read_line_within<R: BufRead>(
    r: &mut R,
    max: usize,
) -> std::io::Result<Option<String>> {
    let mut buf = Vec::new();
    let n = r.by_ref().take((max as u64).saturating_add(1)).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
    } else if buf.len() > max {
        let e = format!("line longer than {max} bytes");
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e));
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

/// `s` cut to at most `max` bytes at a character boundary.
pub(crate) fn clip(s: &str, max: usize) -> &str {
    let mut end = s.len().min(max);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

/// Reads the `len` raw bytes following a [`ServerMsg::Blob`] header.
///
/// `len` comes from the peer, so nothing is allocated for it up front: the
/// buffer grows with the bytes that actually arrive.
///
/// # Errors
///
/// Propagates I/O errors; a stream that ends before `len` bytes is
/// `UnexpectedEof`.
pub fn read_blob<R: Read>(r: &mut R, len: u64) -> std::io::Result<Vec<u8>> {
    let mut bytes = Vec::new();
    r.take(len).read_to_end(&mut bytes)?;
    if (bytes.len() as u64) < len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("blob ended after {} of {len} bytes", bytes.len()),
        ));
    }
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
pub(crate) mod tests {
    use super::*;
    use crate::journal::{Journal, JournalEvent};
    use crate::rng::SplitMix64;

    /// Every request kind paired with its exact line: the bytes a worker
    /// sends are pinned, not just their roundtrip.
    pub(crate) fn pinned_client_messages() -> Vec<(ClientMsg, &'static str)> {
        vec![
            (
                ClientMsg::Hello { worker: "w\"1\"".into(), proto: PROTO_VERSION },
                r#"{"req":"hello","worker":"w\"1\"","proto":1}"#,
            ),
            (ClientMsg::Claim { worker: "w1".into() }, r#"{"req":"claim","worker":"w1"}"#),
            (ClientMsg::Meta { queue: "pi".into() }, r#"{"req":"meta","queue":"pi"}"#),
            (ClientMsg::Checkpoint { queue: "pi".into() }, r#"{"req":"checkpoint","queue":"pi"}"#),
            (
                ClientMsg::Heartbeat {
                    worker: "w1".into(),
                    queue: "pi".into(),
                    exp: 3,
                    attempt: 2,
                },
                r#"{"req":"heartbeat","worker":"w1","queue":"pi","exp":3,"attempt":2}"#,
            ),
            (
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
                concat!(
                    r#"{"req":"result","worker":"w1","queue":"pi","exp":3,"attempt":2,"#,
                    r#""outcome":"sdc","exit":"halted (exit code 0)","ticks":123456,"#,
                    r#""spec":"reg f $1 0x1 1:100:i"}"#
                ),
            ),
            (
                ClientMsg::Failed {
                    worker: "w1".into(),
                    queue: "pi".into(),
                    exp: 3,
                    attempt: 2,
                    reason: "worker panic: \"chaos\"\nline2\t\u{1}".into(),
                    spec: "reg f $1 0x1 1:100:i".into(),
                },
                concat!(
                    r#"{"req":"failed","worker":"w1","queue":"pi","exp":3,"attempt":2,"#,
                    r#""reason":"worker panic: \"chaos\"\nline2\t\u0001","#,
                    r#""spec":"reg f $1 0x1 1:100:i"}"#
                ),
            ),
            (ClientMsg::Status, r#"{"req":"status"}"#),
        ]
    }

    /// Every reply kind paired with its exact line.
    pub(crate) fn pinned_server_messages() -> Vec<(ServerMsg, &'static str)> {
        vec![
            (
                ServerMsg::Welcome { proto: PROTO_VERSION, queues: 2 },
                r#"{"reply":"welcome","proto":1,"queues":2}"#,
            ),
            (
                ServerMsg::Work {
                    queue: "pi".into(),
                    exp: 7,
                    attempt: 3,
                    deadline_ms: 1_700_000_000_000,
                    lease_ms: 30_000,
                    spec: "reg f $1 0x1 1:100:i".into(),
                },
                concat!(
                    r#"{"reply":"work","queue":"pi","exp":7,"attempt":3,"#,
                    r#""deadline_ms":1700000000000,"lease_ms":30000,"spec":"reg f $1 0x1 1:100:i"}"#
                ),
            ),
            (ServerMsg::Idle { backoff_ms: 50 }, r#"{"reply":"idle","backoff_ms":50}"#),
            (ServerMsg::Complete, r#"{"reply":"complete"}"#),
            (
                ServerMsg::Meta {
                    queue: "pi".into(),
                    workload: "pi".into(),
                    scale: "small".into(),
                    checkpoint_digest: 0xdead_beef,
                    boot_ticks: 1_000,
                    kernel_ticks: 50_000,
                    stage_events: [1, 2, 3, 4, u64::MAX],
                    golden_hex: "00ff10".into(),
                },
                concat!(
                    r#"{"reply":"meta","queue":"pi","workload":"pi","scale":"small","#,
                    r#""checkpoint_digest":3735928559,"boot_ticks":1000,"kernel_ticks":50000,"#,
                    r#""ev0":1,"ev1":2,"ev2":3,"ev3":4,"ev4":18446744073709551615,"#,
                    r#""golden_hex":"00ff10"}"#
                ),
            ),
            (
                ServerMsg::Blob { len: 4096, digest: 99 },
                r#"{"reply":"blob","len":4096,"digest":99}"#,
            ),
            (
                ServerMsg::HeartbeatAck { deadline_ms: 42 },
                r#"{"reply":"heartbeat-ack","deadline_ms":42}"#,
            ),
            (ServerMsg::HeartbeatLost, r#"{"reply":"heartbeat-lost"}"#),
            (ServerMsg::Ack { accepted: 1 }, r#"{"reply":"ack","accepted":1}"#),
            (
                ServerMsg::Error { reason: "unknown queue \"x\" \\ \r".into() },
                r#"{"reply":"error","reason":"unknown queue \"x\" \\ \r"}"#,
            ),
        ]
    }

    #[test]
    fn client_messages_roundtrip() {
        for (m, pinned) in pinned_client_messages() {
            let line = m.to_json();
            assert_eq!(line, pinned, "the encoded bytes are pinned");
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
        for (m, pinned) in pinned_server_messages() {
            let line = m.to_json();
            assert_eq!(line, pinned, "the encoded bytes are pinned");
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
    fn a_blob_header_longer_than_the_stream_is_an_eof_not_an_allocation() {
        let err = read_blob(&mut &b"abc"[..], u64::MAX).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let err = read_blob(&mut &b"abc"[..], 4).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
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

    #[test]
    fn a_request_line_is_read_up_to_its_cap_and_refused_past_it() {
        let read = |bytes: &[u8], max| read_line_within(&mut &bytes[..], max);
        assert_eq!(read(b"abcd\nrest", 4).unwrap().as_deref(), Some("abcd"));
        assert_eq!(read(b"abcd", 4).unwrap().as_deref(), Some("abcd"), "EOF ends a line");
        assert_eq!(read(b"abcde\n", 4).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(read(b"abcde", 4).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(read(b"", 4).unwrap(), None);
    }

    #[test]
    fn the_longest_failure_report_fits_the_request_cap() {
        // Control characters escape to six bytes each, the worst case.
        let reason = "\u{1}".repeat(2 * MAX_REASON_BYTES);
        assert_eq!(clip("aé", 2), "a", "cut at a character boundary");
        let failed = ClientMsg::Failed {
            worker: "w".repeat(256),
            queue: "q".repeat(256),
            exp: u64::MAX,
            attempt: u64::MAX,
            reason: clip(&reason, MAX_REASON_BYTES).to_string(),
            spec: "s".repeat(256),
        };
        assert!(failed.to_json().len() <= MAX_REQUEST_LINE);
    }

    /// The fuzzer's seed; a seed that ever finds a defect stays here as a
    /// regression case.
    const FUZZ_SEEDS: [u64; 1] = [0x36_5EED];

    /// Every pinned line of the three message families and every line of
    /// the committed journal fixtures.
    fn corpus() -> Vec<String> {
        let client = pinned_client_messages().into_iter().map(|(_, line)| line);
        let server = pinned_server_messages().into_iter().map(|(_, line)| line);
        let journal = crate::journal::tests::pinned_events().into_iter().map(|(_, line)| line);
        let mut lines: Vec<String> =
            client.chain(server).chain(journal).map(String::from).collect();
        lines.extend(fixture_journal().lines().map(String::from));
        lines
    }

    fn fixture_journal() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/fixed_pi_cut.journal");
        std::fs::read_to_string(path).unwrap()
    }

    /// One mutation of `line`: truncated, a bit flipped, spliced with
    /// `other`, a member repeated (from `line` or `other`), or a control
    /// character inserted.
    fn mutate(rng: &mut SplitMix64, line: &str, other: &str) -> Vec<u8> {
        let mut bytes = line.as_bytes().to_vec();
        let at = |rng: &mut SplitMix64, bytes: &[u8]| rng.below(bytes.len() as u64 + 1) as usize;
        match rng.below(5) {
            0 => bytes.truncate(at(rng, &bytes)),
            1 if !bytes.is_empty() => {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
            2 => {
                let (i, j) = (at(rng, &bytes), at(rng, other.as_bytes()));
                bytes.truncate(i);
                bytes.extend_from_slice(&other.as_bytes()[j..]);
            }
            3 => {
                // A `,"key":value` member of either line, inserted again.
                let source = if rng.coin() { line } else { other };
                let starts: Vec<usize> = source.match_indices(",\"").map(|(i, _)| i).collect();
                if let Some(&start) = starts.get(rng.below(starts.len() as u64 + 1) as usize) {
                    let len = source[start + 1..].find([',', '}']).map_or(0, |n| n + 1);
                    let member = &source.as_bytes()[start..start + len];
                    let i = bytes.iter().rposition(|&b| b == b'}').unwrap_or(bytes.len());
                    bytes.splice(i..i, member.iter().copied());
                }
            }
            _ => {
                let i = at(rng, &bytes);
                let c = [0x00, 0x01, b'\t', b'\n', b'\r', 0x1b, 0x1f, 0x7f][rng.below(8) as usize];
                bytes.insert(i, c);
            }
        }
        bytes
    }

    /// No decoder panics, and whatever one accepts re-encodes to a line it
    /// decodes to the same value.
    fn check_decoders(line: &str) {
        if let Ok(m) = ClientMsg::parse(line) {
            assert_eq!(ClientMsg::parse(&m.to_json()), Ok(m), "{line:?}");
        }
        if let Ok(m) = ServerMsg::parse(line) {
            assert_eq!(ServerMsg::parse(&m.to_json()), Ok(m), "{line:?}");
        }
        if let Ok(e) = JournalEvent::parse(line) {
            assert_eq!(JournalEvent::parse(&e.to_json()), Ok(e), "{line:?}");
        }
    }

    #[test]
    fn decoders_survive_byte_fuzzing() {
        let lines = corpus();
        let dir = std::env::temp_dir().join(format!("gemfi-wire-fuzz-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = Journal::path_in(&dir);
        for seed in FUZZ_SEEDS {
            let mut rng = SplitMix64::new(seed);
            for _ in 0..100 {
                for line in &lines {
                    let other = &lines[rng.below(lines.len() as u64) as usize];
                    let mut bytes = mutate(&mut rng, line, other);
                    if rng.coin() {
                        bytes = mutate(&mut rng, &String::from_utf8_lossy(&bytes), other);
                    }
                    check_decoders(&String::from_utf8_lossy(&bytes));
                }
            }
            // Whole journals: a few lines of the fixture mutated in place,
            // raw bytes on disk (so not always UTF-8).
            let fixture = fixture_journal();
            let fixture: Vec<&str> = fixture.lines().collect();
            for _ in 0..50 {
                let mut file = Vec::new();
                for line in &fixture {
                    match rng.below(8) {
                        0 => file.extend(mutate(&mut rng, line, fixture[0])),
                        _ => file.extend_from_slice(line.as_bytes()),
                    }
                    file.push(b'\n');
                }
                file.truncate(file.len() - rng.below(3) as usize);
                std::fs::write(&journal, &file).unwrap();
                if let Ok(events) = Journal::replay(&journal) {
                    for e in events {
                        assert_eq!(JournalEvent::parse(&e.to_json()), Ok(e));
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
