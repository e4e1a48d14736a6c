//! The wire protocol: one flat JSON object per line, both directions.
//!
//! Lines are written by [`fp_obs::format_line`] and read by
//! [`fp_obs::parse_line`], the flat-JSON codec trace lines use, so the
//! service needs no JSON dependency and shares one dialect with traces:
//! string escapes, `null` for a non-finite float, and 64-bit keys as 16
//! hex digits. The netlist itself travels as a string field holding the
//! [`fp_netlist::format`] text (newlines escaped).

use fp_netlist::Netlist;
use fp_obs::Scalar::{Bool, Float, Int, Key, Str};

/// One floorplanning job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRequest {
    /// Caller-chosen correlation id, echoed in the response. It travels
    /// as a JSON number, so a decoded id is below 2^53, where every
    /// integer survives the trip through f64.
    pub id: u64,
    /// The instance in [`fp_netlist::format`] text.
    pub netlist: String,
    /// Fixed chip width; `None` derives one from module area.
    pub width: Option<f64>,
    /// Wirelength weight λ; 0 selects the pure-area objective.
    pub lambda: f64,
    /// Allow 90° rotation of rigid modules.
    pub rotation: bool,
    /// Run global routing after placement.
    pub route: bool,
    /// Wall-clock budget in milliseconds, measured from *submission*
    /// (time spent queued counts). 0 = no deadline.
    pub deadline_ms: u64,
    /// Whether the solution cache may answer (and store) this job.
    pub use_cache: bool,
    /// Whether this job may share an in-flight solve of the identical
    /// instance (single-flight coalescing). Coalesced followers inherit
    /// the leader's deadline budget.
    pub coalesce: bool,
    /// ECO delta script ([`crate::delta`] grammar). Non-empty makes this
    /// an *incremental* job: `netlist` then carries the **base** instance,
    /// the server applies the script and re-solves only the touched
    /// neighborhood, seeded from the base job's cached placement.
    pub eco_ops: String,
    /// Optional expected base-instance fingerprint for an ECO job. When
    /// set and the server's computed base fingerprint differs, the base
    /// placement is not trusted and the job solves from scratch.
    pub eco_base: Option<u64>,
}

impl JobRequest {
    /// A request for `netlist` with default parameters (area objective,
    /// rotation on, no routing, no deadline, cache enabled).
    #[must_use]
    pub fn new(id: u64, netlist: &Netlist) -> Self {
        JobRequest {
            id,
            netlist: fp_netlist::format::write(netlist),
            width: None,
            lambda: 0.0,
            rotation: true,
            route: false,
            deadline_ms: 0,
            use_cache: true,
            coalesce: true,
            eco_ops: String::new(),
            eco_base: None,
        }
    }

    /// Makes this an ECO job: `ops` is a [`crate::delta`] script applied
    /// to the request's (base) netlist.
    #[must_use]
    pub fn with_eco(mut self, ops: impl Into<String>) -> Self {
        self.eco_ops = ops.into();
        self
    }

    /// Pins the expected base-instance fingerprint for an ECO job.
    #[must_use]
    pub fn with_eco_base(mut self, key: u64) -> Self {
        self.eco_base = Some(key);
        self
    }

    /// Sets the deadline in milliseconds (0 disables).
    #[must_use]
    pub fn with_deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = ms;
        self
    }

    /// Enables or disables the solution cache for this job.
    #[must_use]
    pub fn with_cache(mut self, on: bool) -> Self {
        self.use_cache = on;
        self
    }

    /// Enables or disables single-flight coalescing for this job.
    #[must_use]
    pub fn with_coalesce(mut self, on: bool) -> Self {
        self.coalesce = on;
        self
    }

    /// Parses the embedded netlist text.
    ///
    /// # Errors
    ///
    /// Returns the format error as a string.
    pub fn parse_netlist(&self) -> Result<Netlist, String> {
        fp_netlist::format::parse(&self.netlist).map_err(|e| e.to_string())
    }

    /// Serializes to one JSON line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut fields = vec![("id", Int(self.id)), ("netlist", Str(&self.netlist))];
        if let Some(w) = self.width {
            fields.push(("width", Float(w)));
        }
        fields.extend([
            ("lambda", Float(self.lambda)),
            ("rotation", Bool(self.rotation)),
            ("route", Bool(self.route)),
            ("deadline_ms", Int(self.deadline_ms)),
            ("use_cache", Bool(self.use_cache)),
            ("coalesce", Bool(self.coalesce)),
        ]);
        if !self.eco_ops.is_empty() {
            fields.push(("eco_ops", Str(&self.eco_ops)));
        }
        if let Some(base) = self.eco_base {
            fields.push(("eco_base", Key(base)));
        }
        fp_obs::format_line(fields)
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Describes the first syntax or schema problem.
    pub fn decode(line: &str) -> Result<Self, String> {
        let p = fp_obs::parse_line(line)?;
        let id = num_u64(&p, "id")?;
        let netlist = p
            .str_field("netlist")
            .ok_or("missing string 'netlist' field")?
            .to_string();
        // Negative or non-finite deadlines are rejected rather than
        // silently saturated; values beyond u64 range clamp to u64::MAX,
        // which the server treats as unrepresentable-far = no deadline.
        let deadline_ms = match p.num("deadline_ms") {
            None => 0,
            Some(v) if v.is_finite() && v >= 0.0 => v as u64,
            Some(_) => return Err("'deadline_ms' must be a non-negative number".to_string()),
        };
        // The solve takes `width` and `lambda` as given: a non-finite one
        // would come back as an `ok` answer with null geometry.
        let width = p.num("width");
        let lambda = p.num("lambda").unwrap_or(0.0);
        if !width.is_none_or(f64::is_finite) {
            return Err("'width' must be a finite number".to_string());
        }
        if !lambda.is_finite() {
            return Err("'lambda' must be a finite number".to_string());
        }
        // Present in any other form than the key string, the field is
        // refused, not read as absent: an ECO job that asked for a base
        // check must not run without it.
        let eco_base = match p.get("eco_base") {
            None => None,
            Some(_) => Some(
                p.key_field("eco_base")
                    .ok_or("'eco_base' must be a 16-digit hex fingerprint string")?,
            ),
        };
        Ok(JobRequest {
            id,
            netlist,
            width,
            lambda,
            rotation: p.bool_field("rotation").unwrap_or(true),
            route: p.bool_field("route").unwrap_or(false),
            deadline_ms,
            use_cache: p.bool_field("use_cache").unwrap_or(true),
            coalesce: p.bool_field("coalesce").unwrap_or(true),
            eco_ops: p.str_field("eco_ops").unwrap_or_default().to_string(),
            eco_base,
        })
    }
}

/// One placed rectangle of a response placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacedRect {
    /// Module name.
    pub name: String,
    /// Lower-left x.
    pub x: f64,
    /// Lower-left y.
    pub y: f64,
    /// Realized width.
    pub w: f64,
    /// Realized height.
    pub h: f64,
    /// Whether the module was rotated 90°.
    pub rotated: bool,
}

/// The answer to one [`JobRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobResponse {
    /// Echoed request id.
    pub id: u64,
    /// Whether a placement was produced at all. `false` means `error`
    /// explains why (malformed request, infeasible greedy fallback, ...).
    pub ok: bool,
    /// Failure description when `ok` is false.
    pub error: String,
    /// Chip width of the placement.
    pub chip_width: f64,
    /// Chip height of the placement.
    pub chip_height: f64,
    /// Chip area (`width × height`).
    pub area: f64,
    /// Module-area / chip-area utilization in `[0, 1]`.
    pub utilization: f64,
    /// Routed wirelength when the job routed, center-to-center estimate
    /// otherwise.
    pub wirelength: f64,
    /// `true` when the deadline (or an internal failure) forced a fallback
    /// below the full MILP pipeline.
    pub degraded: bool,
    /// `true` when the solution cache answered.
    pub cached: bool,
    /// `true` when this response was fanned out from a solve led by a
    /// concurrent identical request (single-flight follower).
    pub coalesced: bool,
    /// Nonzero when the job was load-shed: the server's estimate of how
    /// long to wait before retrying, in milliseconds. `ok` is false and
    /// `error` says "overloaded" in that case.
    pub retry_after_ms: u64,
    /// Wall-clock from submission to completion, microseconds.
    pub micros: u64,
    /// Which solver backend produced the placement: `"milp"`,
    /// `"annealer"`, `"analytic"`, `"eco"` for an incremental
    /// re-placement, or `"greedy"` for the degraded skyline fallback.
    /// Empty when `ok` is false.
    pub backend: String,
    /// `true` when more than one backend raced for the placement
    /// (`backend` then names the winning leg).
    pub portfolio: bool,
    /// The placement as `name x y w h 0|1` entries joined with `;`.
    /// Empty when `ok` is false.
    pub placement: String,
    /// FNV-1a fingerprint of the solved instance (the *edited* instance
    /// for ECO jobs), or 0 when no placement was produced. Clients use it
    /// as `eco_base` for follow-up deltas.
    pub fingerprint: u64,
    /// ECO jobs only: whether the base placement was found (cache hit)
    /// and the incremental driver ran. `false` means the job fell back to
    /// a scratch solve.
    pub eco_base_hit: bool,
    /// ECO jobs only: modules actually re-placed by the incremental
    /// driver (0 on scratch fallback).
    pub eco_replaced: usize,
    /// ECO jobs only: total modules of the edited instance. 0 marks a
    /// non-ECO response.
    pub eco_total: usize,
}

/// The most bytes of an error message an answer carries. A parse error
/// may quote the offending token whole, so without a cap the client
/// would set the size of what the server writes back.
const MAX_ERROR_BYTES: usize = 256;

/// `error` cut to at most [`MAX_ERROR_BYTES`] at a char boundary, with a
/// marker saying how long it was.
fn capped(mut error: String) -> String {
    if error.len() > MAX_ERROR_BYTES {
        let total = error.len();
        let mut end = MAX_ERROR_BYTES;
        while !error.is_char_boundary(end) {
            end -= 1;
        }
        error.truncate(end);
        error.push_str(&format!("... ({total} bytes in all)"));
    }
    error
}

impl JobResponse {
    /// An error response for `id`. Every error answer is built here, and
    /// its message is cut to its first 256 bytes plus a marker.
    #[must_use]
    pub fn failure(id: u64, error: impl Into<String>) -> Self {
        JobResponse {
            id,
            ok: false,
            error: capped(error.into()),
            chip_width: 0.0,
            chip_height: 0.0,
            area: 0.0,
            utilization: 0.0,
            wirelength: 0.0,
            degraded: false,
            cached: false,
            coalesced: false,
            retry_after_ms: 0,
            micros: 0,
            backend: String::new(),
            portfolio: false,
            placement: String::new(),
            fingerprint: 0,
            eco_base_hit: false,
            eco_replaced: 0,
            eco_total: 0,
        }
    }

    /// A typed load-shed response for `id`: `ok` is false and
    /// `retry_after_ms` carries the server's backoff estimate.
    #[must_use]
    pub fn shed(id: u64, retry_after_ms: u64) -> Self {
        let mut resp = JobResponse::failure(id, "overloaded: retry later");
        resp.retry_after_ms = retry_after_ms.max(1);
        resp
    }

    /// Whether this response is a load-shed rejection.
    #[must_use]
    pub fn is_shed(&self) -> bool {
        !self.ok && self.retry_after_ms > 0
    }

    /// Parses the `placement` field back into typed entries.
    ///
    /// # Errors
    ///
    /// Describes the first malformed entry.
    pub fn placement_entries(&self) -> Result<Vec<PlacedRect>, String> {
        if self.placement.is_empty() {
            return Ok(Vec::new());
        }
        self.placement
            .split(';')
            .map(|entry| {
                let parts: Vec<&str> = entry.split_whitespace().collect();
                if parts.len() != 6 {
                    return Err(format!("bad placement entry '{entry}'"));
                }
                let f = |s: &str| s.parse::<f64>().map_err(|_| format!("bad number '{s}'"));
                Ok(PlacedRect {
                    name: parts[0].to_string(),
                    x: f(parts[1])?,
                    y: f(parts[2])?,
                    w: f(parts[3])?,
                    h: f(parts[4])?,
                    rotated: parts[5] == "1",
                })
            })
            .collect()
    }

    /// Serializes to one JSON line (no trailing newline).
    #[must_use]
    pub fn encode(&self) -> String {
        let mut fields = vec![("id", Int(self.id)), ("ok", Bool(self.ok))];
        if !self.ok {
            fields.push(("error", Str(&self.error)));
        }
        fields.extend([
            ("chip_width", Float(self.chip_width)),
            ("chip_height", Float(self.chip_height)),
            ("area", Float(self.area)),
            ("utilization", Float(self.utilization)),
            ("wirelength", Float(self.wirelength)),
            ("degraded", Bool(self.degraded)),
            ("cached", Bool(self.cached)),
            ("coalesced", Bool(self.coalesced)),
        ]);
        if self.retry_after_ms > 0 {
            fields.push(("retry_after_ms", Int(self.retry_after_ms)));
        }
        fields.push(("micros", Int(self.micros)));
        if !self.backend.is_empty() {
            fields.push(("backend", Str(&self.backend)));
        }
        fields.push(("portfolio", Bool(self.portfolio)));
        fields.push(("placement", Str(&self.placement)));
        if self.fingerprint != 0 {
            fields.push(("fingerprint", Key(self.fingerprint)));
        }
        if self.eco_total > 0 {
            fields.extend([
                ("eco_base_hit", Bool(self.eco_base_hit)),
                ("eco_replaced", Int(self.eco_replaced as u64)),
                ("eco_total", Int(self.eco_total as u64)),
            ]);
        }
        fp_obs::format_line(fields)
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// Describes the first syntax or schema problem.
    pub fn decode(line: &str) -> Result<Self, String> {
        let p = fp_obs::parse_line(line)?;
        let id = num_u64(&p, "id")?;
        let ok = p.bool_field("ok").unwrap_or(false);
        Ok(JobResponse {
            id,
            ok,
            error: p.str_field("error").unwrap_or_default().to_string(),
            chip_width: p.num("chip_width").unwrap_or(0.0),
            chip_height: p.num("chip_height").unwrap_or(0.0),
            area: p.num("area").unwrap_or(0.0),
            utilization: p.num("utilization").unwrap_or(0.0),
            wirelength: p.num("wirelength").unwrap_or(0.0),
            degraded: p.bool_field("degraded").unwrap_or(false),
            cached: p.bool_field("cached").unwrap_or(false),
            coalesced: p.bool_field("coalesced").unwrap_or(false),
            retry_after_ms: p.num("retry_after_ms").unwrap_or(0.0).max(0.0) as u64,
            micros: p.num("micros").unwrap_or(0.0) as u64,
            backend: p.str_field("backend").unwrap_or_default().to_string(),
            portfolio: p.bool_field("portfolio").unwrap_or(false),
            placement: p.str_field("placement").unwrap_or_default().to_string(),
            fingerprint: p.key_field("fingerprint").unwrap_or(0),
            eco_base_hit: p.bool_field("eco_base_hit").unwrap_or(false),
            eco_replaced: p.num("eco_replaced").unwrap_or(0.0).max(0.0) as usize,
            eco_total: p.num("eco_total").unwrap_or(0.0).max(0.0) as usize,
        })
    }
}

/// 2^53: integers on the wire are parsed as f64, which holds every
/// integer below this exactly. At or above it a number may already have
/// been rounded (`9007199254740993` parses as 2^53) or saturated (`1e300`).
const EXACT_INTEGERS: f64 = 9_007_199_254_740_992.0;

/// The integer field `key`, refused unless it is a whole number in
/// `[0, 2^53)`, so the value decoded is the value the sender wrote.
fn num_u64(p: &fp_obs::ParsedRecord, key: &str) -> Result<u64, String> {
    let n = p
        .num(key)
        .ok_or_else(|| format!("missing numeric '{key}' field"))?;
    if !(0.0..EXACT_INTEGERS).contains(&n) || n.fract() != 0.0 {
        return Err(format!("'{key}' must be a non-negative integer below 2^53"));
    }
    Ok(n as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fp_netlist::generator::ProblemGenerator;

    #[test]
    fn request_round_trips_with_netlist_text() {
        let nl = ProblemGenerator::new(5, 11).generate();
        let req = JobRequest {
            id: 42,
            netlist: fp_netlist::format::write(&nl),
            width: Some(30.5),
            lambda: 0.5,
            rotation: false,
            route: true,
            deadline_ms: 250,
            use_cache: false,
            coalesce: false,
            eco_ops: String::new(),
            eco_base: None,
        };
        let line = req.encode();
        assert!(!line.contains('\n'), "wire lines must be single-line");
        let back = JobRequest::decode(&line).unwrap();
        assert_eq!(back, req);
        let parsed = back.parse_netlist().unwrap();
        assert_eq!(parsed.num_modules(), 5);
    }

    /// A request with every field set, `width` and `eco_base` included.
    fn full_request() -> JobRequest {
        JobRequest {
            id: 42,
            netlist: "problem p\nmodule a rigid 2 3 rot # \"quoted\" \\ tab\there\r\n\
                      module é rigid 1.5 1 fixed\n"
                .to_string(),
            width: Some(30.5),
            lambda: 0.25,
            rotation: false,
            route: true,
            deadline_ms: 250,
            use_cache: false,
            coalesce: false,
            eco_ops: "mod! a rigid 2 2 rot; net- n0".to_string(),
            eco_base: Some(0x0012_3456_789a_bcde),
        }
    }

    /// A failed response with every field set: an error, a retry hint, a
    /// fingerprint, the ECO counts and two non-finite floats.
    fn full_response() -> JobResponse {
        JobResponse {
            id: 9,
            ok: false,
            error: "bad netlist: \"x\"\nline 2\\".to_string(),
            chip_width: 12.0,
            chip_height: 8.5,
            area: f64::INFINITY,
            utilization: 0.91,
            wirelength: f64::NAN,
            degraded: true,
            cached: true,
            coalesced: true,
            retry_after_ms: 250,
            micros: 12345,
            backend: "milp".to_string(),
            portfolio: true,
            placement: "a 0 0 4 2 0;b 4 0 3 3 1".to_string(),
            fingerprint: 0xdead_beef_0123_4567,
            eco_base_hit: true,
            eco_replaced: 2,
            eco_total: 33,
        }
    }

    /// Clients and saved cache snapshots depend on every byte of these
    /// lines, so an encoder change must keep them.
    #[test]
    fn encoders_write_their_golden_lines() {
        assert_eq!(
            full_request().encode(),
            r#"{"id":42,"netlist":"problem p\nmodule a rigid 2 3 rot # \"quoted\" \\ tab\there\r\nmodule é rigid 1.5 1 fixed\n","width":30.5,"lambda":0.25,"rotation":false,"route":true,"deadline_ms":250,"use_cache":false,"coalesce":false,"eco_ops":"mod! a rigid 2 2 rot; net- n0","eco_base":"00123456789abcde"}"#
        );
        assert_eq!(
            full_response().encode(),
            r#"{"id":9,"ok":false,"error":"bad netlist: \"x\"\nline 2\\","chip_width":12,"chip_height":8.5,"area":null,"utilization":0.91,"wirelength":null,"degraded":true,"cached":true,"coalesced":true,"retry_after_ms":250,"micros":12345,"backend":"milp","portfolio":true,"placement":"a 0 0 4 2 0;b 4 0 3 3 1","fingerprint":"deadbeef01234567","eco_base_hit":true,"eco_replaced":2,"eco_total":33}"#
        );
        let back = JobRequest::decode(&full_request().encode()).unwrap();
        assert_eq!(back, full_request());
    }

    #[test]
    fn failure_messages_are_capped_at_a_char_boundary() {
        let short = JobResponse::failure(1, "bad netlist: line 2");
        assert_eq!(short.error, "bad netlist: line 2");
        let exact = "x".repeat(MAX_ERROR_BYTES);
        assert_eq!(JobResponse::failure(1, exact.clone()).error, exact);
        // 255 ASCII bytes, then a two-byte char straddling the cap.
        let long = format!(
            "{}é{}",
            "x".repeat(MAX_ERROR_BYTES - 1),
            "y".repeat(1_000_000)
        );
        let error = JobResponse::failure(1, long.clone()).error;
        assert!(error.starts_with(&"x".repeat(MAX_ERROR_BYTES - 1)));
        assert!(!error.contains('é'), "{error}");
        assert!(
            error.ends_with(&format!("... ({} bytes in all)", long.len())),
            "{error}"
        );
        assert!(error.len() < MAX_ERROR_BYTES + 40);
    }

    #[test]
    fn eco_base_must_be_sixteen_hex_digits() {
        let line = |base: &str| format!(r#"{{"id":1,"netlist":"x","eco_base":"{base}"}}"#);
        let decoded = JobRequest::decode(&line("00123456789abcde")).unwrap();
        assert_eq!(decoded.eco_base, Some(0x0012_3456_789a_bcde));
        for bad in ["123456789abcde", "0123456789abcde", "+123456789abcde", "zz"] {
            let error = JobRequest::decode(&line(bad)).unwrap_err();
            assert!(error.contains("16-digit hex"), "{bad}: {error}");
        }
        // A fingerprint sent as any other JSON value is refused too.
        for bad in ["81985529216486895", "0", "true", "null", "1.5e3"] {
            let line = format!(r#"{{"id":1,"netlist":"x","eco_base":{bad}}}"#);
            let error = JobRequest::decode(&line).unwrap_err();
            assert!(error.contains("16-digit hex"), "{bad}: {error}");
        }
    }

    #[test]
    fn request_defaults_fill_in() {
        let line = "{\"id\":7,\"netlist\":\"problem p\\n\"}";
        let req = JobRequest::decode(line).unwrap();
        assert_eq!(req.id, 7);
        assert!(req.rotation && req.use_cache && req.coalesce && !req.route);
        assert_eq!(req.deadline_ms, 0);
        assert_eq!(req.width, None);
    }

    #[test]
    fn bad_requests_are_rejected() {
        assert!(JobRequest::decode("not json").is_err());
        assert!(JobRequest::decode("{\"netlist\":\"x\"}").is_err()); // no id
        assert!(JobRequest::decode("{\"id\":1}").is_err()); // no netlist
        assert!(JobRequest::decode("{\"id\":-3,\"netlist\":\"x\"}").is_err());
        assert!(JobRequest::decode("{\"id\":1,\"netlist\":\"x\",\"deadline_ms\":-5}").is_err());
        // Non-finite numbers (1e999 parses as infinity).
        assert!(JobRequest::decode("{\"id\":1,\"netlist\":\"x\",\"width\":1e999}").is_err());
        assert!(JobRequest::decode("{\"id\":1,\"netlist\":\"x\",\"width\":-1e999}").is_err());
        assert!(JobRequest::decode("{\"id\":1,\"netlist\":\"x\",\"lambda\":1e999}").is_err());
    }

    #[test]
    fn absurd_deadline_saturates_instead_of_wrapping() {
        // `1e30` is parseable JSON; the decode must keep it representable
        // (saturating to u64::MAX) so the server's checked deadline
        // arithmetic can treat it as "no deadline" instead of panicking.
        let req = JobRequest::decode("{\"id\":1,\"netlist\":\"x\",\"deadline_ms\":1e30}").unwrap();
        assert_eq!(req.deadline_ms, u64::MAX);
    }

    #[test]
    fn response_round_trips() {
        let resp = JobResponse {
            id: 9,
            ok: true,
            error: String::new(),
            chip_width: 12.0,
            chip_height: 8.5,
            area: 102.0,
            utilization: 0.91,
            wirelength: 44.25,
            degraded: true,
            cached: false,
            coalesced: true,
            retry_after_ms: 0,
            micros: 12345,
            backend: "milp".to_string(),
            portfolio: true,
            placement: "a 0 0 4 2 0;b 4 0 3 3 1".to_string(),
            fingerprint: 0xdead_beef_0123_4567,
            eco_base_hit: true,
            eco_replaced: 2,
            eco_total: 33,
        };
        let back = JobResponse::decode(&resp.encode()).unwrap();
        assert_eq!(back, resp);
        let rects = back.placement_entries().unwrap();
        assert_eq!(rects.len(), 2);
        assert_eq!(rects[1].name, "b");
        assert!(rects[1].rotated);
    }

    #[test]
    fn backend_fields_default_when_absent() {
        // Responses from older servers carry neither field: decode fills
        // in an empty backend and portfolio=false.
        let back = JobResponse::decode("{\"id\":1,\"ok\":true}").unwrap();
        assert_eq!(back.backend, "");
        assert!(!back.portfolio);
    }

    #[test]
    fn failure_response_carries_error() {
        let resp = JobResponse::failure(3, "bad netlist: line 2");
        let back = JobResponse::decode(&resp.encode()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error, "bad netlist: line 2");
        assert!(back.placement_entries().unwrap().is_empty());
    }

    #[test]
    fn shed_response_round_trips_typed_backoff() {
        let resp = JobResponse::shed(11, 250);
        assert!(resp.is_shed());
        let back = JobResponse::decode(&resp.encode()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.retry_after_ms, 250);
        assert!(back.is_shed());
        assert!(back.error.contains("overloaded"));
        // Non-shed failures carry no retry hint.
        let plain = JobResponse::decode(&JobResponse::failure(3, "nope").encode()).unwrap();
        assert!(!plain.is_shed());
        assert_eq!(plain.retry_after_ms, 0);
    }

    #[test]
    fn eco_request_round_trips_hex_base() {
        let nl = ProblemGenerator::new(4, 3).generate();
        let req = JobRequest::new(5, &nl)
            .with_eco("mod! a rigid 2 2 rot; net- n0")
            .with_eco_base(u64::MAX - 7);
        let back = JobRequest::decode(&req.encode()).unwrap();
        assert_eq!(back, req);
        // u64::MAX-scale keys survive exactly (a JSON number would not).
        assert_eq!(back.eco_base, Some(u64::MAX - 7));
        // Non-ECO requests omit both fields.
        let plain = JobRequest::new(1, &nl).encode();
        assert!(!plain.contains("eco_ops") && !plain.contains("eco_base"));
        assert!(JobRequest::decode("{\"id\":1,\"netlist\":\"x\",\"eco_base\":\"zz\"}").is_err());
    }

    #[test]
    fn eco_report_encoded_only_for_eco_jobs() {
        let mut resp = JobResponse::failure(2, "");
        resp.ok = true;
        resp.fingerprint = 0x0123_4567_89ab_cdef;
        let line = resp.encode();
        assert!(!line.contains("eco_total"), "non-ECO response: {line}");
        let back = JobResponse::decode(&line).unwrap();
        assert_eq!(back.fingerprint, resp.fingerprint);
        assert_eq!(back.eco_total, 0);
        resp.eco_total = 10;
        resp.eco_replaced = 3;
        resp.eco_base_hit = true;
        let back = JobResponse::decode(&resp.encode()).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn placement_parser_rejects_garbage() {
        let mut resp = JobResponse::failure(1, "");
        resp.placement = "a 1 2 3".to_string();
        assert!(resp.placement_entries().is_err());
        resp.placement = "a 1 2 3 x 0".to_string();
        assert!(resp.placement_entries().is_err());
    }
}
