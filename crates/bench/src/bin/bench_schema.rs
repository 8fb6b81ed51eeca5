//! `bench_schema` — validates the committed `BENCH_*.json` performance
//! reports.
//!
//! Every ablation bench in `crates/bench/benches` writes its numbers as a
//! small JSON report (`BENCH_hook_elision.json`, `BENCH_superblock.json`,
//! `BENCH_adaptive.json`). CI regenerates them and archives the artifacts;
//! this binary is the schema gate that keeps both the committed and the
//! freshly generated reports honest:
//!
//! * the file must parse as JSON (a hand-rolled parser — the workspace has
//!   no serde and takes no registry dependencies);
//! * the top level must be an object with a non-empty string `"bench"`;
//! * a `"results"` key must exist, be an array, and be non-empty;
//! * every entry of `"results"` must be an object.
//!
//! ```text
//! bench_schema [--dir PATH] [--thresholds FLOORS.json]
//! ```
//!
//! Scans `PATH` (non-recursively, default: current directory) for
//! `BENCH_*.json`, validates each, and exits non-zero if any file is
//! malformed — or if no report is found at all, so a misconfigured CI step
//! cannot pass by scanning an empty directory.
//!
//! With `--thresholds` the binary is also the **bench-regression gate**:
//! the floors file maps a `bench` name to a minimum `speedup` — either a
//! single positive number (gating a scalar `"speedup"` field) or an object
//! of named floors (gating the matching keys of an object-valued
//! `"speedup"`, e.g. `hook_elision`'s per-mode ratios). Every floor must
//! find its report among the scanned files and every gated ratio must meet
//! its floor, or the run fails. A malformed floors file fails too: the gate
//! refuses to pass vacuously.
//!
//! The gate is deliberately asymmetric about *missing baselines*: a report
//! (or a keyed speedup entry) with no recorded floor is **skipped with a
//! note**, never failed — new benchmarks and new model configurations land
//! before anyone has measured a trustworthy floor for them, and the gate
//! must not block that. The reverse direction stays strict: a floor whose
//! report (or keyed entry) is missing is a hard failure, because that means
//! a previously gated result silently disappeared.

use gemfi_bench::Args;
use std::path::Path;

/// A minimal JSON value tree: just enough structure for schema checks.
#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Recursive-descent JSON parser over the full grammar (objects, arrays,
/// strings with escapes, numbers, literals). Errors carry a byte offset.
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type ParseResult<T> = Result<T, String>;

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        Parser { bytes: text.as_bytes(), pos: 0 }
    }

    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> ParseResult<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn parse_document(&mut self) -> ParseResult<Json> {
        self.skip_ws();
        let v = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.err("trailing garbage after JSON document"));
        }
        Ok(v)
    }

    fn parse_value(&mut self) -> ParseResult<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::String(self.parse_string()?)),
            Some(b't') => self.parse_literal("true", Json::Bool(true)),
            Some(b'f') => self.parse_literal("false", Json::Bool(false)),
            Some(b'n') => self.parse_literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected `{}`", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_literal(&mut self, lit: &str, value: Json) -> ParseResult<Json> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_object(&mut self) -> ParseResult<Json> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Object(fields));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_array(&mut self) -> ParseResult<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_string(&mut self) -> ParseResult<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            // Surrogates are rejected rather than paired:
                            // bench reports are ASCII, anything else is noise.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("non-scalar \\u escape"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                Some(_) => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c == b'"' || c == b'\\' {
                            break;
                        }
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8 in string"))?,
                    );
                }
            }
        }
    }

    fn parse_number(&mut self) -> ParseResult<Json> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || c == b'.' || c == b'e' || c == b'E' || c == b'+' || c == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>().map(Json::Number).map_err(|_| self.err("malformed number"))
    }
}

fn parse(text: &str) -> ParseResult<Json> {
    Parser::new(text).parse_document()
}

/// The schema every `BENCH_*.json` report must satisfy.
fn validate(doc: &Json) -> Result<usize, String> {
    let Json::Object(_) = doc else {
        return Err("top level is not an object".into());
    };
    match doc.get("bench") {
        Some(Json::String(name)) if !name.is_empty() => {}
        Some(_) => return Err("`bench` is not a string".into()),
        None => return Err("missing `bench` name".into()),
    }
    let results = doc.get("results").ok_or("missing `results` array")?;
    let Json::Array(entries) = results else {
        return Err("`results` is not an array".into());
    };
    if entries.is_empty() {
        return Err("`results` is empty".into());
    }
    for (i, entry) in entries.iter().enumerate() {
        if !matches!(entry, Json::Object(_)) {
            return Err(format!("results[{i}] is not an object"));
        }
    }
    Ok(entries.len())
}

/// The shape a `--thresholds` floors file must satisfy: an object mapping
/// bench names to either a positive number or a non-empty object of
/// positive numbers.
fn validate_thresholds(doc: &Json) -> Result<&Vec<(String, Json)>, String> {
    let Json::Object(floors) = doc else {
        return Err("top level is not an object".into());
    };
    if floors.is_empty() {
        return Err("no floors defined — the gate would pass vacuously".into());
    }
    for (bench, floor) in floors {
        match floor {
            Json::Number(n) if *n > 0.0 => {}
            Json::Number(_) => return Err(format!("`{bench}` floor is not positive")),
            Json::Object(keys) if !keys.is_empty() => {
                for (key, value) in keys {
                    match value {
                        Json::Number(n) if *n > 0.0 => {}
                        _ => return Err(format!("`{bench}.{key}` floor is not a positive number")),
                    }
                }
            }
            _ => return Err(format!("`{bench}` floor is neither a number nor a non-empty object")),
        }
    }
    Ok(floors)
}

/// Gates one report's `speedup` against its floor. Returns a human-readable
/// pass summary, or the first violated ratio.
fn check_floor(doc: &Json, floor: &Json) -> Result<String, String> {
    let speedup = doc.get("speedup").ok_or("report has no `speedup` field to gate")?;
    match (floor, speedup) {
        (Json::Number(f), Json::Number(s)) => {
            if s >= f {
                Ok(format!("speedup {s:.3} >= floor {f}"))
            } else {
                Err(format!("speedup {s:.3} below floor {f}"))
            }
        }
        (Json::Number(_), _) => Err("`speedup` is not a number".into()),
        (Json::Object(floors), Json::Object(measured)) => {
            let mut passed = Vec::new();
            for (key, value) in floors {
                let Json::Number(f) = value else {
                    return Err(format!("`{key}` floor is not a number"));
                };
                match measured.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
                    Some(Json::Number(s)) if s >= f => passed.push(format!("{key} {s:.3}")),
                    Some(Json::Number(s)) => {
                        return Err(format!("`{key}` speedup {s:.3} below floor {f}"))
                    }
                    Some(_) => return Err(format!("`{key}` speedup is not a number")),
                    None => return Err(format!("report's `speedup` has no `{key}` entry")),
                }
            }
            // Keyed speedups without a recorded floor (a freshly added
            // model/config) are noted, not failed.
            let skipped: Vec<&str> = measured
                .iter()
                .filter(|(k, _)| !floors.iter().any(|(fk, _)| fk == k))
                .map(|(k, _)| k.as_str())
                .collect();
            let mut msg = format!("speedups {} meet their floors", passed.join(", "));
            if !skipped.is_empty() {
                msg.push_str(&format!(" (skipped {}: no recorded baseline)", skipped.join(", ")));
            }
            Ok(msg)
        }
        (Json::Object(_), _) => Err("`speedup` is not an object, but the floor is".into()),
        _ => Err("unsupported floor shape".into()),
    }
}

/// Runs every floor against the scanned reports and reports which scanned
/// reports were *not* gated. Returns `(notes, failures)`: notes are
/// printed, failures fail the run. A floor without a matching report is a
/// failure; a report without a recorded floor is a skip note — models
/// without a baseline must not fail the gate.
fn gate_reports(floors: &[(String, Json)], docs: &[(String, Json)]) -> (Vec<String>, Vec<String>) {
    let mut notes = Vec::new();
    let mut failures = Vec::new();
    for (bench, floor) in floors {
        match docs.iter().find(|(name, _)| name == bench) {
            Some((_, report)) => match check_floor(report, floor) {
                Ok(msg) => notes.push(format!("gate {bench}: {msg}")),
                Err(e) => failures.push(format!("{bench}: {e}")),
            },
            None => failures.push(format!("{bench}: floor defined but no report found")),
        }
    }
    for (name, _) in docs {
        if !floors.iter().any(|(bench, _)| bench == name) {
            notes.push(format!("gate skip {name}: no recorded baseline"));
        }
    }
    (notes, failures)
}

fn check_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("unreadable: {e}"))?;
    if text.trim().is_empty() {
        return Err("file is empty".into());
    }
    let doc = parse(&text)?;
    validate(&doc)?;
    Ok(doc)
}

fn main() {
    let args = Args::from_env();
    let dir = args.value_of("dir").unwrap_or(".").to_string();

    let mut reports: Vec<_> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("bench_schema: cannot read {dir}: {e}");
            std::process::exit(2);
        }
    };
    reports.sort();

    if reports.is_empty() {
        eprintln!("bench_schema: no BENCH_*.json found in {dir}");
        std::process::exit(1);
    }

    let mut failed = false;
    let mut docs: Vec<(String, Json)> = Vec::new();
    for path in &reports {
        match check_file(path) {
            Ok(doc) => {
                let n = match doc.get("results") {
                    Some(Json::Array(entries)) => entries.len(),
                    _ => 0,
                };
                println!("ok   {} ({n} results)", path.display());
                if let Some(Json::String(name)) = doc.get("bench") {
                    docs.push((name.clone(), doc));
                }
            }
            Err(e) => {
                eprintln!("FAIL {}: {e}", path.display());
                failed = true;
            }
        }
    }

    if let Some(floors_path) = args.value_of("thresholds") {
        match std::fs::read_to_string(floors_path)
            .map_err(|e| format!("unreadable: {e}"))
            .and_then(|text| parse(&text))
        {
            Ok(doc) => match validate_thresholds(&doc) {
                Ok(floors) => {
                    let (notes, failures) = gate_reports(floors, &docs);
                    for note in notes {
                        println!("{note}");
                    }
                    for failure in failures {
                        eprintln!("GATE FAIL {failure}");
                        failed = true;
                    }
                }
                Err(e) => {
                    eprintln!("GATE FAIL {floors_path}: {e}");
                    failed = true;
                }
            },
            Err(e) => {
                eprintln!("GATE FAIL {floors_path}: {e}");
                failed = true;
            }
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("{} report(s) valid", reports.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = parse(
            r#"{"bench": "x", "speedup": {"a": 1.5}, "results": [{"n": -2e3, "ok": true}, {"s": "a\"bA"}]}"#,
        )
        .unwrap();
        assert_eq!(validate(&doc).unwrap(), 2);
        let Some(Json::Array(items)) = doc.get("results") else { panic!() };
        assert_eq!(items[0].get("n"), Some(&Json::Number(-2000.0)));
        assert_eq!(items[1].get("s"), Some(&Json::String("a\"bA".into())));
    }

    #[test]
    fn rejects_malformed_documents() {
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse(r#"{"a": 01e}"#).is_err());
        assert!(parse(r#"{"a": "unterminated}"#).is_err());
    }

    #[test]
    fn thresholds_shape_is_enforced() {
        let ok = parse(r#"{"a": 2.0, "b": {"x": 1.2, "y": 1.5}}"#).unwrap();
        assert_eq!(validate_thresholds(&ok).unwrap().len(), 2);
        for bad in [
            "[]",
            "{}",
            r#"{"a": 0}"#,
            r#"{"a": -1.5}"#,
            r#"{"a": "2.0"}"#,
            r#"{"a": {}}"#,
            r#"{"a": {"x": "fast"}}"#,
        ] {
            assert!(validate_thresholds(&parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn floors_gate_scalar_and_keyed_speedups() {
        let scalar = parse(r#"{"bench": "x", "results": [{}], "speedup": 4.1}"#).unwrap();
        assert!(check_floor(&scalar, &Json::Number(4.0)).is_ok());
        assert!(check_floor(&scalar, &Json::Number(4.2)).is_err());

        let keyed =
            parse(r#"{"bench": "x", "results": [{}], "speedup": {"atomic": 1.4, "o3": 0.9}}"#)
                .unwrap();
        let floor = |text: &str| parse(text).unwrap();
        assert!(check_floor(&keyed, &floor(r#"{"atomic": 1.2}"#)).is_ok());
        assert!(check_floor(&keyed, &floor(r#"{"atomic": 1.5}"#)).is_err());
        assert!(check_floor(&keyed, &floor(r#"{"missing": 1.0}"#)).is_err());
        assert!(check_floor(&keyed, &Json::Number(1.0)).is_err(), "shape mismatch must fail");

        let none = parse(r#"{"bench": "x", "results": [{}]}"#).unwrap();
        assert!(check_floor(&none, &Json::Number(1.0)).is_err(), "no speedup field must fail");
    }

    #[test]
    fn keyed_speedups_without_floors_are_noted_not_failed() {
        // A report that grew a new per-model entry (`o3`) before anyone
        // recorded a floor for it: the gated key still passes and the new
        // key is listed as skipped.
        let keyed =
            parse(r#"{"bench": "x", "results": [{}], "speedup": {"atomic": 1.4, "o3": 0.9}}"#)
                .unwrap();
        let floor = parse(r#"{"atomic": 1.2}"#).unwrap();
        let msg = check_floor(&keyed, &floor).unwrap();
        assert!(msg.contains("atomic 1.400"), "{msg}");
        assert!(msg.contains("skipped o3: no recorded baseline"), "{msg}");
    }

    #[test]
    fn reports_without_a_recorded_baseline_are_skipped_not_failed() {
        let gated = parse(r#"{"bench": "old", "results": [{}], "speedup": 3.0}"#).unwrap();
        // A brand-new fault-model bench with no floor yet — and no
        // `speedup` field at all, which would fail `check_floor` if it
        // were (wrongly) gated.
        let fresh = parse(r#"{"bench": "cache_models", "results": [{}]}"#).unwrap();
        let floors = vec![("old".to_string(), Json::Number(2.0))];
        let docs = vec![("old".to_string(), gated), ("cache_models".to_string(), fresh)];
        let (notes, failures) = gate_reports(&floors, &docs);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(
            notes.iter().any(|n| n == "gate skip cache_models: no recorded baseline"),
            "{notes:?}"
        );
        assert!(notes.iter().any(|n| n.starts_with("gate old: speedup 3.000")), "{notes:?}");
    }

    #[test]
    fn floor_without_a_report_still_fails() {
        // The strict direction is preserved: a gated result that vanished
        // from the scan is a failure, not a skip.
        let floors = vec![("gone".to_string(), Json::Number(2.0))];
        let (notes, failures) = gate_reports(&floors, &[]);
        assert!(notes.is_empty(), "{notes:?}");
        assert_eq!(failures, vec!["gone: floor defined but no report found".to_string()]);
    }

    #[test]
    fn regressed_report_still_fails_through_the_gate() {
        let slow = parse(r#"{"bench": "old", "results": [{}], "speedup": 1.5}"#).unwrap();
        let floors = vec![("old".to_string(), Json::Number(2.0))];
        let docs = vec![("old".to_string(), slow)];
        let (_, failures) = gate_reports(&floors, &docs);
        assert_eq!(failures.len(), 1, "{failures:?}");
        assert!(failures[0].contains("below floor"), "{failures:?}");
    }

    #[test]
    fn rejects_schema_violations() {
        assert!(validate(&parse("[]").unwrap()).is_err());
        assert!(validate(&parse(r#"{"results": []}"#).unwrap()).is_err());
        assert!(validate(&parse(r#"{"bench": "x"}"#).unwrap()).is_err());
        assert!(validate(&parse(r#"{"bench": "x", "results": []}"#).unwrap()).is_err());
        assert!(validate(&parse(r#"{"bench": "x", "results": [1]}"#).unwrap()).is_err());
        assert!(validate(&parse(r#"{"bench": "", "results": [{}]}"#).unwrap()).is_err());
        assert!(validate(&parse(r#"{"bench": "x", "results": [{}]}"#).unwrap()).is_ok());
    }
}
