//! JSONL file sink and a minimal parser/validator for its output.
//!
//! The trace format is one flat JSON object per line; every line carries
//! at least `seq` (number), `phase` (string) and `event` (string). The
//! parser here is intentionally small — it understands exactly the flat
//! string/number/bool/null objects [`Record::to_json`] emits — and
//! exists so tests and `scripts/check.sh` can round-trip traces without
//! an external JSON dependency.

use crate::event::Record;
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

/// Parses `line` and checks the trace schema: a numeric `seq`, a string
/// `phase` and a string `event` field must be present. `BnbNode` lines
/// additionally carry a numeric `depth`, a boolean `warm` and numeric
/// `pivots`, `refactors` and `etas` (the warm-start and factorization
/// coverage fields downstream tooling keys on);
/// `Presolve` lines carry the four numeric strengthening counters and
/// `CutRound` lines a numeric `round` and `cuts`. Service lines have
/// schemas of their own: `Coalesced` carries a string `key`, `Shed` a
/// numeric `queued` and `retry_after_ms`, `ShardStats` the six numeric
/// per-shard accounting counters, `BackendDone` a string `backend`, a
/// numeric `micros` and a boolean `won` (its `cost` may be `null` for
/// failed legs), `Portfolio` a string `winner` and numeric
/// `backends` and `micros`, `DeltaApply` a string `base_key` and numeric
/// `ops`, `touched` and `total`, and `EcoJob` string `base_key` and
/// `basis`, a boolean `base_hit` and numeric `id`, `replaced` and
/// `total`.
///
/// # Errors
///
/// Returns what is malformed or missing.
pub fn validate_line(line: &str) -> Result<ParsedRecord, String> {
    let parsed = parse_line(line)?;
    if parsed.num("seq").is_none() {
        return Err("missing numeric 'seq' field".to_string());
    }
    for key in ["phase", "event"] {
        if parsed.str_field(key).is_none() {
            return Err(format!("missing string '{key}' field"));
        }
    }
    if parsed.str_field("event") == Some("BnbNode") {
        for key in ["depth", "pivots", "refactors", "etas"] {
            if parsed.num(key).is_none() {
                return Err(format!("BnbNode: missing numeric '{key}' field"));
            }
        }
        if parsed.bool_field("warm").is_none() {
            return Err("BnbNode: missing boolean 'warm' field".to_string());
        }
    }
    if parsed.str_field("event") == Some("Presolve") {
        for key in ["passes", "rows_tightened", "binaries_fixed", "implications"] {
            if parsed.num(key).is_none() {
                return Err(format!("Presolve: missing numeric '{key}' field"));
            }
        }
    }
    if parsed.str_field("event") == Some("CutRound") {
        for key in ["round", "cuts"] {
            if parsed.num(key).is_none() {
                return Err(format!("CutRound: missing numeric '{key}' field"));
            }
        }
    }
    if parsed.str_field("event") == Some("Coalesced") && parsed.str_field("key").is_none() {
        return Err("Coalesced: missing string 'key' field".to_string());
    }
    if parsed.str_field("event") == Some("Shed") {
        for key in ["queued", "retry_after_ms"] {
            if parsed.num(key).is_none() {
                return Err(format!("Shed: missing numeric '{key}' field"));
            }
        }
    }
    if parsed.str_field("event") == Some("ShardStats") {
        for key in [
            "shard",
            "conns",
            "accepted",
            "completed",
            "shed",
            "malformed",
        ] {
            if parsed.num(key).is_none() {
                return Err(format!("ShardStats: missing numeric '{key}' field"));
            }
        }
    }
    if parsed.str_field("event") == Some("BackendDone") {
        if parsed.str_field("backend").is_none() {
            return Err("BackendDone: missing string 'backend' field".to_string());
        }
        if parsed.num("micros").is_none() {
            return Err("BackendDone: missing numeric 'micros' field".to_string());
        }
        if parsed.bool_field("won").is_none() {
            return Err("BackendDone: missing boolean 'won' field".to_string());
        }
        // `cost` is null for failed legs; any other type is malformed.
        match parsed.get("cost") {
            Some(JsonValue::Num(_) | JsonValue::Null) => {}
            _ => return Err("BackendDone: 'cost' must be a number or null".to_string()),
        }
    }
    if parsed.str_field("event") == Some("Portfolio") {
        if parsed.str_field("winner").is_none() {
            return Err("Portfolio: missing string 'winner' field".to_string());
        }
        for key in ["backends", "micros"] {
            if parsed.num(key).is_none() {
                return Err(format!("Portfolio: missing numeric '{key}' field"));
            }
        }
    }
    if parsed.str_field("event") == Some("DeltaApply") {
        if parsed.str_field("base_key").is_none() {
            return Err("DeltaApply: missing string 'base_key' field".to_string());
        }
        for key in ["ops", "touched", "total"] {
            if parsed.num(key).is_none() {
                return Err(format!("DeltaApply: missing numeric '{key}' field"));
            }
        }
    }
    if parsed.str_field("event") == Some("EcoJob") {
        for key in ["base_key", "basis"] {
            if parsed.str_field(key).is_none() {
                return Err(format!("EcoJob: missing string '{key}' field"));
            }
        }
        if parsed.bool_field("base_hit").is_none() {
            return Err("EcoJob: missing boolean 'base_hit' field".to_string());
        }
        for key in ["id", "replaced", "total"] {
            if parsed.num(key).is_none() {
                return Err(format!("EcoJob: missing numeric '{key}' field"));
            }
        }
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Phase, StepTermination};
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

    #[test]
    fn every_emitted_line_validates() {
        let buf = SharedBuf::default();
        let t = Tracer::new(JsonlSink::to_writer(Box::new(buf.clone())));
        t.emit(
            Phase::Solver,
            Event::SolveStart {
                binaries: 12,
                constraints: 30,
            },
        );
        t.emit(Phase::Solver, Event::RootLp { objective: -3.25 });
        t.emit(
            Phase::Solver,
            Event::BnbNode {
                depth: 2,
                warm: true,
                pivots: 7,
                refactors: 1,
                etas: 5,
            },
        );
        t.emit(Phase::Solver, Event::Incumbent { objective: 7.0 });
        t.emit(
            Phase::Solver,
            Event::SolveEnd {
                nodes: 3,
                simplex_iterations: 40,
                proven: true,
            },
        );
        t.emit(
            Phase::Augment,
            Event::AugmentStep {
                step: 0,
                group: 3,
                obstacles: 2,
                binaries: 22,
                nodes: 3,
                outcome: StepTermination::Incumbent,
            },
        );
        t.emit(Phase::Augment, Event::GreedyFallback { step: 1 });
        t.emit(
            Phase::Improve,
            Event::ImproveRound {
                round: 0,
                accepted: true,
                height: 12.5,
            },
        );
        t.emit(
            Phase::Route,
            Event::RouteStart {
                nets: 5,
                cells: 9,
                edges: 12,
            },
        );
        t.emit(
            Phase::Route,
            Event::RouteNet {
                net: 4,
                length: 8.75,
                segments: 2,
            },
        );
        t.emit(
            Phase::Route,
            Event::ChannelAdjust {
                extra_width: 0.5,
                extra_height: 0.0,
                overflowed_edges: 1,
            },
        );
        t.emit(
            Phase::Solver,
            Event::Span {
                name: "step",
                micros: 1234,
            },
        );
        t.emit(Phase::Serve, Event::CacheMiss { key: u64::MAX });
        t.emit(Phase::Serve, Event::CacheHit { key: u64::MAX });
        t.emit(
            Phase::Serve,
            Event::JobDone {
                id: 9,
                micros: 88,
                degraded: false,
                cached: true,
            },
        );
        t.emit(
            Phase::Solver,
            Event::Presolve {
                passes: 3,
                rows_tightened: 11,
                binaries_fixed: 2,
                implications: 5,
            },
        );
        t.emit(Phase::Solver, Event::CutRound { round: 1, cuts: 6 });
        t.emit(Phase::Serve, Event::Coalesced { key: u64::MAX });
        t.emit(
            Phase::Serve,
            Event::Shed {
                queued: 64,
                retry_after_ms: 25,
            },
        );
        t.emit(
            Phase::Serve,
            Event::ShardStats {
                shard: 1,
                conns: 9,
                accepted: 40,
                completed: 38,
                shed: 2,
                malformed: 3,
            },
        );
        t.emit(
            Phase::Serve,
            Event::BackendDone {
                backend: "analytic",
                micros: 700,
                cost: 42.25,
                won: false,
            },
        );
        t.emit(
            Phase::Serve,
            Event::Portfolio {
                backends: 3,
                winner: "milp",
                micros: 1500,
            },
        );
        t.emit(
            Phase::Serve,
            Event::DeltaApply {
                base_key: u64::MAX,
                ops: 2,
                touched: 3,
                total: 33,
            },
        );
        t.emit(
            Phase::Serve,
            Event::EcoJob {
                id: 12,
                base_key: u64::MAX,
                base_hit: true,
                replaced: 4,
                total: 33,
                basis: "hot",
            },
        );
        t.flush();

        let bytes = buf.0.lock().unwrap().clone();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 24);
        for (i, line) in lines.iter().enumerate() {
            let parsed = validate_line(line).unwrap_or_else(|e| panic!("line {i}: {e}\n{line}"));
            assert_eq!(parsed.num("seq"), Some(i as f64));
        }
        // Spot-check payload round-trips.
        let inc = parse_line(lines[3]).unwrap();
        assert_eq!(inc.str_field("event"), Some("Incumbent"));
        assert_eq!(inc.num("objective"), Some(7.0));
        let adj = parse_line(lines[10]).unwrap();
        assert_eq!(adj.num("extra_width"), Some(0.5));
        assert_eq!(adj.num("overflowed_edges"), Some(1.0));
        // Cache keys survive as full-width hex strings, not lossy numbers.
        let hit = parse_line(lines[13]).unwrap();
        assert_eq!(hit.str_field("event"), Some("CacheHit"));
        assert_eq!(hit.str_field("key"), Some("ffffffffffffffff"));
        let done = parse_line(lines[14]).unwrap();
        assert_eq!(done.num("id"), Some(9.0));
        assert_eq!(done.get("cached"), Some(&JsonValue::Bool(true)));
        let pre = parse_line(lines[15]).unwrap();
        assert_eq!(pre.str_field("event"), Some("Presolve"));
        assert_eq!(pre.num("rows_tightened"), Some(11.0));
        assert_eq!(pre.num("implications"), Some(5.0));
        let cut = parse_line(lines[16]).unwrap();
        assert_eq!(cut.str_field("event"), Some("CutRound"));
        assert_eq!(cut.num("cuts"), Some(6.0));
        let coalesced = parse_line(lines[17]).unwrap();
        assert_eq!(coalesced.str_field("event"), Some("Coalesced"));
        assert_eq!(coalesced.str_field("key"), Some("ffffffffffffffff"));
        let shed = parse_line(lines[18]).unwrap();
        assert_eq!(shed.num("queued"), Some(64.0));
        assert_eq!(shed.num("retry_after_ms"), Some(25.0));
        let shard = parse_line(lines[19]).unwrap();
        assert_eq!(shard.num("shard"), Some(1.0));
        assert_eq!(shard.num("accepted"), Some(40.0));
        assert_eq!(shard.num("malformed"), Some(3.0));
        let leg = parse_line(lines[20]).unwrap();
        assert_eq!(leg.str_field("event"), Some("BackendDone"));
        assert_eq!(leg.str_field("backend"), Some("analytic"));
        assert_eq!(leg.num("cost"), Some(42.25));
        assert_eq!(leg.bool_field("won"), Some(false));
        let race = parse_line(lines[21]).unwrap();
        assert_eq!(race.str_field("event"), Some("Portfolio"));
        assert_eq!(race.str_field("winner"), Some("milp"));
        assert_eq!(race.num("backends"), Some(3.0));
        assert_eq!(race.num("micros"), Some(1500.0));
        let delta = parse_line(lines[22]).unwrap();
        assert_eq!(delta.str_field("event"), Some("DeltaApply"));
        assert_eq!(delta.str_field("base_key"), Some("ffffffffffffffff"));
        assert_eq!(delta.num("ops"), Some(2.0));
        assert_eq!(delta.num("touched"), Some(3.0));
        let eco = parse_line(lines[23]).unwrap();
        assert_eq!(eco.str_field("event"), Some("EcoJob"));
        assert_eq!(eco.str_field("base_key"), Some("ffffffffffffffff"));
        assert_eq!(eco.bool_field("base_hit"), Some(true));
        assert_eq!(eco.num("replaced"), Some(4.0));
        assert_eq!(eco.str_field("basis"), Some("hot"));
    }

    #[test]
    fn eco_lines_require_their_fields() {
        validate_line(
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"DeltaApply\",\
             \"base_key\":\"ab\",\"ops\":1,\"touched\":1,\"total\":9}",
        )
        .unwrap();
        validate_line(
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"EcoJob\",\"id\":3,\
             \"base_key\":\"ab\",\"base_hit\":false,\"replaced\":9,\
             \"total\":9,\"basis\":\"cold\"}",
        )
        .unwrap();
        for bad in [
            // DeltaApply with a numeric base_key (must be a hex string).
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"DeltaApply\",\
             \"base_key\":12,\"ops\":1,\"touched\":1,\"total\":9}",
            // DeltaApply missing the op count.
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"DeltaApply\",\
             \"base_key\":\"ab\",\"touched\":1,\"total\":9}",
            // EcoJob missing the basis tier.
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"EcoJob\",\"id\":3,\
             \"base_key\":\"ab\",\"base_hit\":false,\"replaced\":9,\"total\":9}",
            // EcoJob with a non-boolean base_hit.
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"EcoJob\",\"id\":3,\
             \"base_key\":\"ab\",\"base_hit\":1,\"replaced\":9,\
             \"total\":9,\"basis\":\"cold\"}",
        ] {
            assert!(validate_line(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn portfolio_lines_require_their_fields() {
        validate_line(
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"BackendDone\",\
             \"backend\":\"milp\",\"micros\":5,\"cost\":1.5,\"won\":true}",
        )
        .unwrap();
        // A failed leg carries cost:null — still valid.
        validate_line(
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"BackendDone\",\
             \"backend\":\"annealer\",\"micros\":5,\"cost\":null,\"won\":false}",
        )
        .unwrap();
        validate_line(
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"Portfolio\",\
             \"backends\":2,\"winner\":\"analytic\",\"micros\":90}",
        )
        .unwrap();
        for bad in [
            // BackendDone missing the backend name.
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"BackendDone\",\
             \"micros\":5,\"cost\":1.5,\"won\":true}",
            // Non-boolean won.
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"BackendDone\",\
             \"backend\":\"milp\",\"micros\":5,\"cost\":1.5,\"won\":1}",
            // Cost as a string.
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"BackendDone\",\
             \"backend\":\"milp\",\"micros\":5,\"cost\":\"x\",\"won\":true}",
            // Portfolio missing the winner.
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"Portfolio\",\
             \"backends\":2,\"micros\":90}",
            // Portfolio missing the race wall-clock.
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"Portfolio\",\
             \"backends\":2,\"winner\":\"milp\"}",
        ] {
            assert!(validate_line(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn service_admission_lines_require_their_fields() {
        validate_line("{\"seq\":0,\"phase\":\"serve\",\"event\":\"Coalesced\",\"key\":\"ab\"}")
            .unwrap();
        validate_line(
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"Shed\",\"queued\":3,\"retry_after_ms\":9}",
        )
        .unwrap();
        validate_line(
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"ShardStats\",\"shard\":0,\"conns\":1,\
             \"accepted\":5,\"completed\":5,\"shed\":0,\"malformed\":0}",
        )
        .unwrap();
        for bad in [
            // Coalesced with a numeric key (must be full-width hex string).
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"Coalesced\",\"key\":12}",
            // Shed missing the back-off hint.
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"Shed\",\"queued\":3}",
            // ShardStats missing a counter.
            "{\"seq\":0,\"phase\":\"serve\",\"event\":\"ShardStats\",\"shard\":0,\"conns\":1,\
             \"accepted\":5,\"completed\":5,\"shed\":0}",
        ] {
            assert!(validate_line(bad).is_err(), "should reject: {bad}");
        }
    }

    #[test]
    fn presolve_and_cut_round_lines_require_counters() {
        let ok = "{\"seq\":0,\"phase\":\"solver\",\"event\":\"Presolve\",\"passes\":2,\
                  \"rows_tightened\":3,\"binaries_fixed\":0,\"implications\":1}";
        validate_line(ok).unwrap();
        let ok = "{\"seq\":1,\"phase\":\"solver\",\"event\":\"CutRound\",\"round\":0,\"cuts\":4}";
        validate_line(ok).unwrap();
        for bad in [
            // Presolve missing a counter.
            "{\"seq\":0,\"phase\":\"s\",\"event\":\"Presolve\",\"passes\":2,\
             \"rows_tightened\":3,\"binaries_fixed\":0}",
            // Non-numeric counter.
            "{\"seq\":0,\"phase\":\"s\",\"event\":\"Presolve\",\"passes\":2,\
             \"rows_tightened\":\"x\",\"binaries_fixed\":0,\"implications\":1}",
            // CutRound missing cuts.
            "{\"seq\":0,\"phase\":\"s\",\"event\":\"CutRound\",\"round\":0}",
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
    fn bnb_node_lines_require_warm_start_fields() {
        let ok = "{\"seq\":0,\"phase\":\"solver\",\"event\":\"BnbNode\",\
                  \"depth\":1,\"warm\":true,\"pivots\":4,\
                  \"refactors\":1,\"etas\":3}";
        let parsed = validate_line(ok).unwrap();
        assert_eq!(parsed.bool_field("warm"), Some(true));
        assert_eq!(parsed.num("pivots"), Some(4.0));
        assert_eq!(parsed.num("refactors"), Some(1.0));
        assert_eq!(parsed.num("etas"), Some(3.0));
        // Missing warm, non-boolean warm, missing pivots, missing
        // factorization counters: all rejected.
        for bad in [
            "{\"seq\":0,\"phase\":\"s\",\"event\":\"BnbNode\",\"depth\":1,\
             \"pivots\":4,\"refactors\":0,\"etas\":0}",
            "{\"seq\":0,\"phase\":\"s\",\"event\":\"BnbNode\",\"depth\":1,\
             \"warm\":1,\"pivots\":4,\"refactors\":0,\"etas\":0}",
            "{\"seq\":0,\"phase\":\"s\",\"event\":\"BnbNode\",\"depth\":1,\
             \"warm\":false,\"refactors\":0,\"etas\":0}",
            "{\"seq\":0,\"phase\":\"s\",\"event\":\"BnbNode\",\"depth\":1,\
             \"warm\":false,\"pivots\":4,\"etas\":0}",
            "{\"seq\":0,\"phase\":\"s\",\"event\":\"BnbNode\",\"depth\":1,\
             \"warm\":false,\"pivots\":4,\"refactors\":0}",
        ] {
            assert!(validate_line(bad).is_err(), "should reject: {bad}");
        }
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
