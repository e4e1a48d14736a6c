//! The workspace's one flat-JSON codec, and the JSONL trace sink.
//!
//! Every JSON line the workspace writes or reads is one flat object of
//! string, number, boolean and `null` scalars: trace records, fp-serve's
//! request and response lines, and its cache snapshot. [`format_line`] is
//! the one writer. It alone escapes a string, renders a float (`null` when
//! not finite) or a 64-bit key (16 lowercase hex digits, quoted).
//! [`parse_line`] is the one reader: it copies each run of bytes between
//! quotes and backslashes at once, so it reads a line in one pass, and
//! [`ParsedRecord::key_field`] reads a key back. [`validate_line`] checks a
//! trace line against the event schema. Nested objects and arrays are not
//! part of the dialect, so no external JSON dependency is needed.

use crate::event::{Field, Phase, Record, SCHEMA};
use crate::sink::Sink;
use std::fmt::Write as _;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

/// Writes one JSON object per record to a buffered writer.
///
/// Lines are written atomically under a mutex, so fp-serve's workers and
/// a portfolio race's legs produce interleaved but individually
/// well-formed lines. Buffered
/// output is flushed by [`Sink::flush`] and on drop.
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// Creates (truncates) `path` and writes records to it.
    ///
    /// # Errors
    ///
    /// Propagates the underlying file-creation error.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::to_writer(Box::new(file)))
    }

    /// Wraps an arbitrary writer (used by tests).
    #[must_use]
    pub fn to_writer(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(BufWriter::new(writer)),
        }
    }
}

impl Sink for JsonlSink {
    fn record(&self, record: &Record) {
        let line = record.to_json();
        let mut out = self.out.lock().expect("jsonl lock");
        // A full disk mid-trace must not abort the solve; the final
        // flush will surface persistent failures to whoever checks.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl lock").flush();
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

/// One field value of a line [`format_line`] writes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar<'a> {
    /// A count or an id, in decimal.
    Int(u64),
    /// An `f64` in its shortest round-trip decimal form, or `null` when it
    /// is not finite, which JSON cannot represent.
    Float(f64),
    /// `true` or `false`.
    Bool(bool),
    /// A string, quoted, with `"`, `\`, newline, tab and carriage return
    /// escaped; every other character is written as it is.
    Str(&'a str),
    /// A 64-bit key as 16 lowercase hex digits, quoted: a JSON number is
    /// read back as an `f64` and would lose the low bits.
    Key(u64),
}

/// Writes `fields` as one flat JSON object, in order, without a trailing
/// newline. [`parse_line`] reads it back.
#[must_use]
pub fn format_line<'a>(fields: impl IntoIterator<Item = (&'static str, Scalar<'a>)>) -> String {
    let mut line = String::from("{");
    for (i, (key, value)) in fields.into_iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_str(&mut line, key);
        line.push(':');
        // Writing to a `String` cannot fail.
        let _ = match value {
            Scalar::Int(n) => write!(line, "{n}"),
            Scalar::Float(v) if v.is_finite() => write!(line, "{v}"),
            Scalar::Float(_) => line.write_str("null"),
            Scalar::Bool(b) => write!(line, "{b}"),
            Scalar::Str(s) => {
                push_str(&mut line, s);
                Ok(())
            }
            Scalar::Key(k) => write!(line, "\"{k:016x}\""),
        };
    }
    line.push('}');
    line
}

/// Appends `s` quoted and escaped, copying each run between two escaped
/// characters at once.
fn push_str(line: &mut String, s: &str) {
    line.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let escaped = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\t' => "\\t",
            b'\r' => "\\r",
            _ => continue,
        };
        // The escaped bytes are ASCII, so `i` is a char boundary.
        line.push_str(&s[run..i]);
        line.push_str(escaped);
        run = i + 1;
    }
    line.push_str(&s[run..]);
    line.push('"');
}

/// A parsed JSON scalar.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
}

/// One parsed trace line: flat key → scalar pairs in source order.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRecord {
    /// The object's fields, in source order.
    pub fields: Vec<(String, JsonValue)>,
}

impl ParsedRecord {
    /// The value of `key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The numeric value of `key`, if present and a number.
    #[must_use]
    pub fn num(&self, key: &str) -> Option<f64> {
        match self.get(key) {
            Some(JsonValue::Num(n)) => Some(*n),
            _ => None,
        }
    }

    /// The string value of `key`, if present and a string.
    #[must_use]
    pub fn str_field(&self, key: &str) -> Option<&str> {
        match self.get(key) {
            Some(JsonValue::Str(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The boolean value of `key`, if present and a boolean.
    #[must_use]
    pub fn bool_field(&self, key: &str) -> Option<bool> {
        match self.get(key) {
            Some(JsonValue::Bool(b)) => Some(*b),
            _ => None,
        }
    }

    /// The 64-bit key in `key`, if present as a string of exactly 16 hex
    /// digits, the form [`Scalar::Key`] writes.
    #[must_use]
    pub fn key_field(&self, key: &str) -> Option<u64> {
        let hex = self.str_field(key)?;
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(hex, 16).ok()
    }
}

struct Cursor<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // `"` and `\` are ASCII, so the run before the next one ends on
            // a char boundary: copying it whole reads the line in one pass.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            s.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(s);
            }
            let esc = self.peek().ok_or("dangling escape")?;
            self.pos += 1;
            s.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b't' => '\t',
                b'r' => '\r',
                other => return Err(format!("unsupported escape '\\{}'", other as char)),
            });
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                while self.peek().is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = &self.text[start..self.pos];
                text.parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| format!("bad number '{text}'"))
            }
            other => Err(format!(
                "unsupported value start {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}' at byte {}", self.pos))
        }
    }
}

/// Parses one flat JSON object line into key/scalar pairs.
///
/// # Errors
///
/// Returns a description of the first syntax problem; nested objects and
/// arrays are rejected (the trace format is flat by construction).
pub fn parse_line(line: &str) -> Result<ParsedRecord, String> {
    let mut c = Cursor {
        text: line,
        bytes: line.as_bytes(),
        pos: 0,
    };
    c.skip_ws();
    c.expect(b'{')?;
    let mut fields = Vec::new();
    c.skip_ws();
    if c.peek() == Some(b'}') {
        c.pos += 1;
    } else {
        loop {
            c.skip_ws();
            let key = c.string()?;
            c.skip_ws();
            c.expect(b':')?;
            let value = c.value()?;
            fields.push((key, value));
            c.skip_ws();
            match c.peek() {
                Some(b',') => c.pos += 1,
                Some(b'}') => {
                    c.pos += 1;
                    break;
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' at byte {}, found {:?}",
                        c.pos,
                        other.map(|b| b as char)
                    ))
                }
            }
        }
    }
    c.skip_ws();
    if c.pos != c.bytes.len() {
        return Err(format!("trailing bytes after object at {}", c.pos));
    }
    Ok(ParsedRecord { fields })
}

/// Parses `line` and checks the trace schema. A line carries a numeric
/// `seq`, a `phase` naming a [`Phase`] and an `event` naming an
/// [`Event`](crate::Event) variant, then every field of that event with its JSON type:
/// counts and ids are numbers, `f64` values are numbers or `null`, flags
/// are booleans, names are strings and fingerprints are 16-digit hex
/// strings. Extra keys are allowed.
///
/// # Errors
///
/// Returns what is malformed or missing.
pub fn validate_line(line: &str) -> Result<ParsedRecord, String> {
    let parsed = parse_line(line)?;
    if parsed.num("seq").is_none() {
        return Err("missing numeric 'seq' field".to_string());
    }
    let phase = parsed
        .str_field("phase")
        .ok_or("missing string 'phase' field")?;
    if !Phase::ALL.iter().any(|p| p.as_str() == phase) {
        return Err(format!("unknown phase '{phase}'"));
    }
    let event = parsed
        .str_field("event")
        .ok_or("missing string 'event' field")?;
    let (_, fields) = SCHEMA
        .iter()
        .find(|(name, _)| *name == event)
        .ok_or_else(|| format!("unknown event '{event}'"))?;
    for &(key, field) in *fields {
        let value = parsed.get(key);
        let (fits, expected) = match field {
            Field::Int => (matches!(value, Some(JsonValue::Num(_))), "a number"),
            Field::Float => (
                matches!(value, Some(JsonValue::Num(_) | JsonValue::Null)),
                "a number or null",
            ),
            Field::Bool => (matches!(value, Some(JsonValue::Bool(_))), "a boolean"),
            Field::Name => (matches!(value, Some(JsonValue::Str(_))), "a string"),
            Field::Key => (parsed.key_field(key).is_some(), "a 16-digit hex string"),
        };
        if !fits {
            return Err(format!("{event}: '{key}' must be {expected}"));
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, StepTermination};
    use crate::Tracer;
    use std::sync::{Arc, Mutex};

    /// A Write target backed by shared memory, to capture sink output.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// One sample of every event variant, in schema order, with the exact
    /// line the encoder writes for it as the tracer's event number `i`. A
    /// byte that changes here changes in every trace that carries the
    /// event.
    fn samples() -> Vec<(Phase, Event, &'static str)> {
        vec![
            (
                Phase::Solver,
                Event::SolveStart {
                    binaries: 12,
                    constraints: 30,
                },
                r#"{"seq":0,"phase":"solver","event":"SolveStart","binaries":12,"constraints":30}"#,
            ),
            (
                Phase::Solver,
                Event::RootLp { objective: -3.25 },
                r#"{"seq":1,"phase":"solver","event":"RootLp","objective":-3.25}"#,
            ),
            (
                Phase::Solver,
                Event::BnbNode {
                    depth: 2,
                    warm: true,
                    pivots: 7,
                    refactors: 1,
                    etas: 5,
                    propagated: false,
                },
                r#"{"seq":2,"phase":"solver","event":"BnbNode","depth":2,"warm":true,"pivots":7,"refactors":1,"etas":5,"propagated":false}"#,
            ),
            (
                Phase::Solver,
                Event::Incumbent { objective: 7.0 },
                r#"{"seq":3,"phase":"solver","event":"Incumbent","objective":7}"#,
            ),
            (
                Phase::Solver,
                Event::Presolve {
                    passes: 3,
                    rows_tightened: 11,
                    binaries_fixed: 2,
                    implications: 5,
                },
                r#"{"seq":4,"phase":"solver","event":"Presolve","passes":3,"rows_tightened":11,"binaries_fixed":2,"implications":5}"#,
            ),
            (
                Phase::Solver,
                Event::CutRound { round: 1, cuts: 6 },
                r#"{"seq":5,"phase":"solver","event":"CutRound","round":1,"cuts":6}"#,
            ),
            (
                Phase::Solver,
                Event::SolveEnd {
                    nodes: 3,
                    simplex_iterations: 40,
                    proven: true,
                },
                r#"{"seq":6,"phase":"solver","event":"SolveEnd","nodes":3,"simplex_iterations":40,"proven":true}"#,
            ),
            (
                Phase::Augment,
                Event::AugmentStep {
                    step: 0,
                    group: 3,
                    obstacles: 2,
                    binaries: 22,
                    nodes: 3,
                    outcome: StepTermination::Incumbent,
                },
                r#"{"seq":7,"phase":"augment","event":"AugmentStep","step":0,"group":3,"obstacles":2,"binaries":22,"nodes":3,"outcome":"incumbent"}"#,
            ),
            (
                Phase::Augment,
                Event::GreedyFallback { step: 1 },
                r#"{"seq":8,"phase":"augment","event":"GreedyFallback","step":1}"#,
            ),
            (
                Phase::Improve,
                Event::ImproveRound {
                    round: 0,
                    accepted: true,
                    height: 12.5,
                },
                r#"{"seq":9,"phase":"improve","event":"ImproveRound","round":0,"accepted":true,"height":12.5}"#,
            ),
            (
                Phase::Route,
                Event::RouteStart {
                    nets: 5,
                    cells: 9,
                    edges: 12,
                },
                r#"{"seq":10,"phase":"route","event":"RouteStart","nets":5,"cells":9,"edges":12}"#,
            ),
            (
                Phase::Route,
                Event::RouteNet {
                    net: 4,
                    length: 8.75,
                    segments: 2,
                },
                r#"{"seq":11,"phase":"route","event":"RouteNet","net":4,"length":8.75,"segments":2}"#,
            ),
            (
                Phase::Route,
                Event::ChannelAdjust {
                    extra_width: 0.5,
                    extra_height: 0.0,
                    overflowed_edges: 1,
                },
                r#"{"seq":12,"phase":"route","event":"ChannelAdjust","extra_width":0.5,"extra_height":0,"overflowed_edges":1}"#,
            ),
            (
                Phase::Route,
                Event::Span {
                    name: "route_all",
                    micros: 1234,
                },
                r#"{"seq":13,"phase":"route","event":"Span","name":"route_all","micros":1234}"#,
            ),
            (
                Phase::Serve,
                Event::CacheHit {
                    key: 0xdead_beef_0000_0001,
                },
                r#"{"seq":14,"phase":"serve","event":"CacheHit","key":"deadbeef00000001"}"#,
            ),
            (
                Phase::Serve,
                Event::CacheMiss { key: 42 },
                r#"{"seq":15,"phase":"serve","event":"CacheMiss","key":"000000000000002a"}"#,
            ),
            (
                Phase::Serve,
                Event::JobDone {
                    id: 9,
                    micros: 88,
                    degraded: false,
                    cached: true,
                },
                r#"{"seq":16,"phase":"serve","event":"JobDone","id":9,"micros":88,"degraded":false,"cached":true}"#,
            ),
            (
                Phase::Serve,
                Event::Coalesced { key: u64::MAX },
                r#"{"seq":17,"phase":"serve","event":"Coalesced","key":"ffffffffffffffff"}"#,
            ),
            (
                Phase::Serve,
                Event::Shed {
                    queued: 64,
                    retry_after_ms: 25,
                },
                r#"{"seq":18,"phase":"serve","event":"Shed","queued":64,"retry_after_ms":25}"#,
            ),
            (
                Phase::Serve,
                Event::ShardStats {
                    shard: 1,
                    conns: 9,
                    accepted: 40,
                    completed: 38,
                    shed: 2,
                    malformed: 3,
                },
                r#"{"seq":19,"phase":"serve","event":"ShardStats","shard":1,"conns":9,"accepted":40,"completed":38,"shed":2,"malformed":3}"#,
            ),
            (
                Phase::Serve,
                // A leg that produced nothing has no cost: NaN renders as null.
                Event::BackendDone {
                    backend: "milp",
                    micros: 700,
                    cost: f64::NAN,
                    won: false,
                },
                r#"{"seq":20,"phase":"serve","event":"BackendDone","backend":"milp","micros":700,"cost":null,"won":false}"#,
            ),
            (
                Phase::Serve,
                Event::Portfolio {
                    backends: 3,
                    winner: "analytic",
                    micros: 1500,
                },
                r#"{"seq":21,"phase":"serve","event":"Portfolio","backends":3,"winner":"analytic","micros":1500}"#,
            ),
            (
                Phase::Serve,
                Event::DeltaApply {
                    base_key: 0x0123_4567_89ab_cdef,
                    ops: 2,
                    touched: 3,
                    total: 33,
                },
                r#"{"seq":22,"phase":"serve","event":"DeltaApply","base_key":"0123456789abcdef","ops":2,"touched":3,"total":33}"#,
            ),
            (
                Phase::Serve,
                Event::EcoJob {
                    id: 12,
                    base_key: 0x0123_4567_89ab_cdef,
                    base_hit: true,
                    replaced: 4,
                    total: 33,
                },
                r#"{"seq":23,"phase":"serve","event":"EcoJob","id":12,"base_key":"0123456789abcdef","base_hit":true,"replaced":4,"total":33}"#,
            ),
        ]
    }

    /// The schema row of a validated line's event.
    fn row_of(parsed: &ParsedRecord) -> &'static [(&'static str, Field)] {
        let event = parsed.str_field("event").expect("validated");
        SCHEMA
            .iter()
            .find(|(name, _)| *name == event)
            .map(|(_, row)| *row)
            .expect("validated")
    }

    #[test]
    fn every_variant_writes_its_golden_line() {
        let buf = SharedBuf::default();
        let t = Tracer::new(JsonlSink::to_writer(Box::new(buf.clone())));
        let samples = samples();
        for (phase, event, _) in &samples {
            t.emit(*phase, event.clone());
        }
        t.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let goldens: Vec<&str> = samples.iter().map(|(.., line)| *line).collect();
        assert_eq!(text.lines().collect::<Vec<_>>(), goldens);
    }

    #[test]
    fn schema_rows_match_the_golden_lines() {
        let mut names = Vec::new();
        for (.., line) in samples() {
            let parsed = validate_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            let keys: Vec<&str> = parsed.fields[3..].iter().map(|(k, _)| k.as_str()).collect();
            let row: Vec<&str> = row_of(&parsed).iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, row, "{line}");
            names.push(parsed.str_field("event").unwrap().to_string());
        }
        let table: Vec<&str> = SCHEMA.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, table, "one sample per schema row, in order");
    }

    #[test]
    fn dropping_or_mistyping_any_field_is_refused() {
        // A value of each JSON form, and the field types that admit it.
        let forms: [(&str, &[Field]); 5] = [
            ("7", &[Field::Int, Field::Float]),
            ("null", &[Field::Float]),
            ("true", &[Field::Bool]),
            ("\"x\"", &[Field::Name]),
            ("\"00000000000000ff\"", &[Field::Name, Field::Key]),
        ];
        for (.., line) in samples() {
            let row = row_of(&validate_line(line).unwrap());
            // No sample's string holds a comma, so its pairs split on commas.
            let pairs: Vec<&str> = line[1..line.len() - 1].split(',').collect();
            for (i, &(key, field)) in row.iter().enumerate() {
                // The row's fields follow `seq`, `phase` and `event`.
                let at = 3 + i;
                let mut dropped = pairs.clone();
                dropped.remove(at);
                let dropped = format!("{{{}}}", dropped.join(","));
                assert!(validate_line(&dropped).is_err(), "accepted: {dropped}");
                for (form, admits) in forms {
                    let pair = format!("\"{key}\":{form}");
                    let mut typed = pairs.clone();
                    typed[at] = &pair;
                    let typed = format!("{{{}}}", typed.join(","));
                    assert_eq!(
                        validate_line(&typed).is_ok(),
                        admits.contains(&field),
                        "{typed}"
                    );
                }
            }
        }
    }

    #[test]
    fn envelope_names_a_known_phase_and_event() {
        let ok = r#"{"seq":8,"phase":"augment","event":"GreedyFallback","step":1}"#;
        validate_line(ok).unwrap();
        // Keys beyond the schema row are allowed.
        validate_line(
            r#"{"seq":8,"phase":"augment","event":"GreedyFallback","step":1,"note":"x"}"#,
        )
        .unwrap();
        for bad in [
            r#"{"seq":"8","phase":"augment","event":"GreedyFallback","step":1}"#,
            r#"{"seq":8,"event":"GreedyFallback","step":1}"#,
            r#"{"seq":8,"phase":"planner","event":"GreedyFallback","step":1}"#,
            r#"{"seq":8,"phase":"augment","step":1}"#,
            r#"{"seq":8,"phase":"augment","event":"Fallback","step":1}"#,
        ] {
            assert!(validate_line(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_line("").is_err());
        assert!(parse_line("{").is_err());
        assert!(parse_line("{\"a\":1,}").is_err());
        assert!(parse_line("{\"a\":1} extra").is_err());
        assert!(parse_line("{\"a\":[1]}").is_err()); // arrays unsupported
        assert!(validate_line("{\"seq\":1}").is_err()); // missing phase/event
        assert!(validate_line("{\"seq\":\"x\",\"phase\":\"p\",\"event\":\"e\"}").is_err());
    }

    #[test]
    fn parser_accepts_scalars() {
        let p =
            parse_line("{\"a\": null, \"b\": false, \"c\": -1.5e2, \"d\": \"x\\\"y\"}").unwrap();
        assert_eq!(p.get("a"), Some(&JsonValue::Null));
        assert_eq!(p.get("b"), Some(&JsonValue::Bool(false)));
        assert_eq!(p.num("c"), Some(-150.0));
        assert_eq!(p.str_field("d"), Some("x\"y"));
        assert_eq!(p.get("missing"), None);
        let empty = parse_line("{}").unwrap();
        assert!(empty.fields.is_empty());
    }

    #[test]
    fn each_scalar_renders_in_the_dialect() {
        let line = format_line([
            ("int", Scalar::Int(u64::MAX)),
            ("whole", Scalar::Float(1.0)),
            ("neg", Scalar::Float(-2.5)),
            ("nan", Scalar::Float(f64::NAN)),
            ("inf", Scalar::Float(f64::NEG_INFINITY)),
            ("yes", Scalar::Bool(true)),
            ("no", Scalar::Bool(false)),
            ("str", Scalar::Str("a\"b\\c\nd\te\rf/é")),
            ("key", Scalar::Key(0xab)),
        ]);
        assert_eq!(
            line,
            r#"{"int":18446744073709551615,"whole":1,"neg":-2.5,"nan":null,"inf":null,"yes":true,"no":false,"str":"a\"b\\c\nd\te\rf/é","key":"00000000000000ab"}"#
        );
        // Other control characters pass through unescaped.
        let control = format_line([("c", Scalar::Str("\u{1}\u{7f}"))]);
        assert_eq!(control, "{\"c\":\"\u{1}\u{7f}\"}");
        assert_eq!(format_line([]), "{}");
    }

    #[test]
    fn keys_are_exactly_sixteen_hex_digits() {
        let key = |text: &str| {
            parse_line(&format!(r#"{{"k":{text}}}"#))
                .unwrap()
                .key_field("k")
        };
        assert_eq!(key(r#""0123456789abcdef""#), Some(0x0123_4567_89ab_cdef));
        assert_eq!(key(r#""FFFFFFFFFFFFFFFF""#), Some(u64::MAX));
        for bad in [
            r#""123456789abcdef""#,
            r#""00123456789abcdef""#,
            r#""+123456789abcdef""#,
            r#""-123456789abcdef""#,
            r#""0123456789abcdeg""#,
            r#""""#,
            "81985529216486895",
            "null",
        ] {
            assert_eq!(key(bad), None, "{bad}");
        }
        let written = format_line([("k", Scalar::Key(7))]);
        assert_eq!(parse_line(&written).unwrap().key_field("k"), Some(7));
    }

    #[test]
    fn string_errors_name_the_problem() {
        for (line, error) in [
            (r#"{"a":"x\u0041"}"#, "unsupported escape '\\u'"),
            (r#"{"a":"x"#, "unterminated string"),
            (r#"{"a":"x\"#, "dangling escape"),
            (r#"{"a":"x\"}"#, "unterminated string"),
            (r#"{"a":"x"} {"#, "trailing bytes after object at 10"),
        ] {
            assert_eq!(parse_line(line), Err(error.to_string()), "{line}");
        }
    }

    /// A string of n bytes costs O(n): a line with a 1 MiB string field,
    /// plain or made of escapes, reads in well under a second even in a
    /// debug build. fp-serve reads request lines this long on a shard's
    /// poll thread.
    #[test]
    fn a_mebibyte_string_reads_in_one_pass() {
        let plain = "é".repeat(1 << 19);
        let escaped = "\"\\\n".repeat(1 << 18);
        for text in [plain, escaped] {
            let line = format_line([("id", Scalar::Int(1)), ("netlist", Scalar::Str(&text))]);
            assert!(line.len() >= 1 << 20);
            let started = std::time::Instant::now();
            let parsed = parse_line(&line).unwrap();
            let elapsed = started.elapsed();
            assert_eq!(parsed.str_field("netlist"), Some(text.as_str()));
            assert!(elapsed.as_secs_f64() < 1.0, "{elapsed:?}");
        }
    }

    /// Characters the writer escapes, characters it passes through
    /// (control characters, `/`, JSON punctuation) and multi-byte UTF-8.
    const AWKWARD: [char; 14] = [
        '"', '\\', '\n', '\t', '\r', '\u{0}', '\u{1f}', '\u{7f}', '/', '{', ':', 'é', '≤', '😀',
    ];

    /// Any string: code points drawn from every plane, with the awkward
    /// ones drawn often.
    fn any_string() -> impl proptest::strategy::Strategy<Value = String> {
        use proptest::prelude::*;
        let char_code = prop_oneof![
            0u32..0x80,
            0x80u32..0x11_0000,
            (0..AWKWARD.len()).prop_map(|k| AWKWARD[k] as u32),
        ];
        proptest::collection::vec(char_code, 0..40)
            .prop_map(|codes| codes.into_iter().filter_map(char::from_u32).collect())
    }

    proptest::proptest! {
        #[test]
        fn written_strings_read_back_unchanged(a in any_string(), b in any_string()) {
            let line = format_line([("a", Scalar::Str(&a)), ("b", Scalar::Str(&b))]);
            proptest::prop_assert!(!line.contains('\n'), "{line}");
            let parsed = parse_line(&line).map_err(proptest::prelude::TestCaseError::fail)?;
            proptest::prop_assert_eq!(parsed.str_field("a"), Some(a.as_str()));
            proptest::prop_assert_eq!(parsed.str_field("b"), Some(b.as_str()));
        }
    }

    #[test]
    fn file_sink_round_trips() {
        let dir = std::env::temp_dir().join("fp_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace_{}.jsonl", std::process::id()));
        {
            let t = Tracer::new(JsonlSink::create(&path).unwrap());
            t.emit(
                Phase::Solver,
                Event::BnbNode {
                    depth: 0,
                    warm: false,
                    pivots: 0,
                    refactors: 1,
                    etas: 0,
                    propagated: false,
                },
            );
            t.flush();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 1);
        validate_line(text.lines().next().unwrap()).unwrap();
        let _ = std::fs::remove_file(&path);
    }
}
