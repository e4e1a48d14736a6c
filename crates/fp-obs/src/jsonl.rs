//! JSONL file sink and a minimal parser/validator for its output.
//!
//! The trace format is one flat JSON object per line; every line carries
//! `seq` (number), `phase` (string) and `event` (string), then the
//! event's own fields. The parser here is intentionally small — it understands exactly the flat
//! string/number/bool/null objects [`Record::to_json`] emits — and
//! exists so tests and `scripts/check.sh` can round-trip traces without
//! an external JSON dependency.

use crate::event::{Field, Phase, Record, SCHEMA};
use crate::sink::Sink;
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
}

struct Cursor<'a> {
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
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("dangling escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        other => {
                            return Err(format!("unsupported escape '\\{}'", other as char));
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = &self.bytes[self.pos..];
                    let ch = std::str::from_utf8(rest)
                        .map_err(|_| "invalid UTF-8 in string")?
                        .chars()
                        .next()
                        .ok_or("empty string tail")?;
                    s.push(ch);
                    self.pos += ch.len_utf8();
                }
            }
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
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid number bytes")?;
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
            Field::Key => (
                matches!(value, Some(JsonValue::Str(s))
                    if s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit())),
                "a 16-digit hex string",
            ),
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
