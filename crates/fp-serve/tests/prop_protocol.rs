//! Property suite for the JSON line protocol.
//!
//! Generated [`JobRequest`]s and [`JobResponse`]s survive `encode` →
//! `decode` unchanged, and encoded lines mutated by deleting, duplicating
//! or inserting quotes, backslashes, braces, `\u` escapes and numbers
//! such as `1e309` decode to `Ok` or an `Err` that names the problem,
//! never a panic. An `eco_base` that is not a key string is refused.

use fp_netlist::format;
use fp_netlist::generator::ProblemGenerator;
use fp_serve::{parse_delta_ops, JobRequest, JobResponse};
use proptest::collection::vec;
use proptest::prelude::*;

/// Integers on the wire travel as JSON numbers, which are f64: every
/// count and id below stays under 2^53 so it round-trips exactly, and a
/// decoder refuses an id at or above it.
const EXACT: u64 = 1 << 53;

/// An id anywhere below 2^53, with the largest one drawn often.
fn wire_id() -> impl Strategy<Value = u64> {
    prop_oneof![0..EXACT, Just(EXACT - 1)]
}

/// String pieces that exercise the escaper: the escaped characters,
/// multi-byte UTF-8, and JSON punctuation inside a string.
const PIECES: [&str; 16] = [
    "a", "m12", " ", "\"", "\\", "\n", "\t", "\r", "é", "≤", "😀", "{", "}", ":", ",", "\\u0041",
];

/// Finite numbers whose shortest decimal form is long or extreme.
const AWKWARD_NUMBERS: [f64; 9] = [
    0.0,
    -0.0,
    0.1,
    2.5,
    5e-324,
    1e-300,
    123_456_789.123_456_78,
    1e300,
    f64::MAX,
];

/// Tokens a mutation inserts into an encoded line.
const TOKENS: [&str; 20] = [
    "\"",
    "\\",
    "{",
    "}",
    "\\u",
    "\\u00",
    "\\ud800",
    "\\u12G4",
    "1e309",
    "-1e309",
    "1e400",
    "9007199254740993",
    "-0",
    "NaN",
    "null",
    ":",
    ",",
    "[",
    "true",
    "\\n",
];

/// Free text built from [`PIECES`].
fn text() -> impl Strategy<Value = String> {
    vec(0..PIECES.len(), 0..12).prop_map(|ks| ks.into_iter().map(|k| PIECES[k]).collect())
}

/// A finite number: usually a plain one in `range`, sometimes awkward.
fn finite(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop_oneof![
        range,
        (0..AWKWARD_NUMBERS.len()).prop_map(|k| AWKWARD_NUMBERS[k]),
    ]
}

/// An optional value of `strategy`.
fn optional<S: Strategy + 'static>(strategy: S) -> impl Strategy<Value = Option<S::Value>>
where
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), strategy.prop_map(Some)]
}

/// The netlist field: a generated deck in the format text, or free text
/// (the codec carries any string).
fn netlist_text() -> impl Strategy<Value = String> {
    prop_oneof![
        (1usize..6, 0u64..1000)
            .prop_map(|(n, seed)| format::write(&ProblemGenerator::new(n, seed).generate())),
        text(),
    ]
}

/// One op of the delta grammar over modules `m0..m4` and nets `n0..n4`.
fn delta_op() -> impl Strategy<Value = String> {
    prop_oneof![
        (0usize..5, 1u32..40, 1u32..40, any::<bool>()).prop_map(|(m, w, h, rot)| {
            let turn = if rot { "rot" } else { "fixed" };
            format!("mod! m{m} rigid {w} {h} {turn}")
        }),
        (0usize..5, 1u32..400).prop_map(|(m, area)| format!("mod! m{m} flexible {area} 0.5 2")),
        (0usize..5).prop_map(|m| format!("mod- m{m}")),
        (0usize..5, 1u32..9, 0usize..5, 0usize..5)
            .prop_map(|(n, w, a, b)| format!("net! n{n} weight {w} : m{a} m{b}")),
        (0usize..5).prop_map(|n| format!("net- n{n}")),
    ]
}

/// A delta script: ops split by `;` or newlines, with an optional
/// trailing comment.
fn delta_script() -> impl Strategy<Value = String> {
    (vec(delta_op(), 1..5), any::<bool>(), any::<bool>()).prop_map(|(ops, newlines, comment)| {
        let mut script = ops.join(if newlines { "\n" } else { "; " });
        if comment {
            script.push_str(" # edited");
        }
        script
    })
}

fn request() -> impl Strategy<Value = JobRequest> {
    let numbers = (
        wire_id(),
        optional(finite(0.0..1e6)),
        finite(0.0..10.0),
        0..EXACT,
    );
    let flags = (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>());
    let eco = (
        optional(delta_script()),
        optional(0u64..=u64::MAX),
        netlist_text(),
    );
    (numbers, flags, eco).prop_map(
        |(
            (id, width, lambda, deadline_ms),
            (rotation, route, use_cache, coalesce),
            (eco_ops, eco_base, netlist),
        )| JobRequest {
            id,
            netlist,
            width,
            lambda,
            rotation,
            route,
            deadline_ms,
            use_cache,
            coalesce,
            eco_ops: eco_ops.unwrap_or_default(),
            eco_base,
        },
    )
}

fn response() -> impl Strategy<Value = JobResponse> {
    let head = (wire_id(), any::<bool>(), text());
    let geometry = (
        finite(0.0..1e6),
        finite(0.0..1e6),
        finite(0.0..1e12),
        finite(0.0..1.0),
        finite(0.0..1e9),
    );
    let flags = (any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>());
    let counts = (0..EXACT, 0..EXACT, 0u64..=u64::MAX);
    let strings = (text(), text());
    let eco = (any::<bool>(), 0..EXACT, 0..EXACT);
    (head, geometry, flags, counts, strings, eco).prop_map(
        |(
            (id, ok, error),
            (chip_width, chip_height, area, utilization, wirelength),
            (degraded, cached, coalesced, portfolio),
            (retry_after_ms, micros, fingerprint),
            (backend, placement),
            (eco_base_hit, eco_replaced, eco_total),
        )| {
            // An ECO report travels only with a nonzero total, and an
            // error only on a failure.
            let eco_total = eco_total as usize;
            JobResponse {
                id,
                ok,
                error: if ok { String::new() } else { error },
                chip_width,
                chip_height,
                area,
                utilization,
                wirelength,
                degraded,
                cached,
                coalesced,
                retry_after_ms,
                micros,
                backend,
                portfolio,
                placement,
                fingerprint,
                eco_base_hit: eco_base_hit && eco_total > 0,
                eco_replaced: if eco_total > 0 {
                    eco_replaced as usize
                } else {
                    0
                },
                eco_total,
            }
        },
    )
}

/// One edit of an encoded line, at a position given as a fraction of its
/// length in characters.
#[derive(Debug, Clone)]
enum Mutation {
    Delete { at: f64, len: usize },
    Duplicate { at: f64, len: usize },
    Insert { at: f64, token: &'static str },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0.0f64..1.0, 1usize..5).prop_map(|(at, len)| Mutation::Delete { at, len }),
        (0.0f64..1.0, 1usize..9).prop_map(|(at, len)| Mutation::Duplicate { at, len }),
        (0.0f64..1.0, 0..TOKENS.len()).prop_map(|(at, k)| Mutation::Insert {
            at,
            token: TOKENS[k],
        }),
    ]
}

/// Applies `mutation` to `line`, on character boundaries.
fn mutate(line: &str, mutation: &Mutation) -> String {
    let chars: Vec<char> = line.chars().collect();
    let pos = |at: f64| ((at * chars.len() as f64) as usize).min(chars.len());
    let (head, tail): (String, String) = match *mutation {
        Mutation::Delete { at, len } => {
            let start = pos(at);
            let end = (start + len).min(chars.len());
            (
                chars[..start].iter().collect(),
                chars[end..].iter().collect(),
            )
        }
        Mutation::Duplicate { at, len } => {
            let start = pos(at);
            let end = (start + len).min(chars.len());
            let span: String = chars[start..end].iter().collect();
            (
                chars[..end].iter().collect::<String>() + &span,
                chars[end..].iter().collect(),
            )
        }
        Mutation::Insert { at, token } => {
            let at = pos(at);
            (
                chars[..at].iter().collect::<String>() + token,
                chars[at..].iter().collect(),
            )
        }
    };
    head + &tail
}

/// An id of 2^53 or more cannot come back as sent: `9007199254740993`
/// parses as 2^53 and `1e300` saturates. Both decoders refuse it, and
/// keep 2^53 − 1.
#[test]
fn ids_past_two_to_the_53_are_refused() {
    for id in ["9007199254740993", "9007199254740992", "1e300", "1e400"] {
        let request = format!("{{\"id\":{id},\"netlist\":\"\"}}");
        let response = format!("{{\"id\":{id},\"ok\":true}}");
        for decoded in [
            JobRequest::decode(&request).map(|r| r.id),
            JobResponse::decode(&response).map(|r| r.id),
        ] {
            let error = decoded.expect_err(id);
            assert!(error.contains("below 2^53"), "{id}: {error}");
        }
    }
    let largest = EXACT - 1;
    let request = format!("{{\"id\":{largest},\"netlist\":\"\"}}");
    let response = format!("{{\"id\":{largest},\"ok\":true}}");
    assert_eq!(JobRequest::decode(&request).map(|r| r.id), Ok(largest));
    assert_eq!(JobResponse::decode(&response).map(|r| r.id), Ok(largest));
}

proptest! {
    #[test]
    fn requests_round_trip(req in request()) {
        if !req.eco_ops.is_empty() {
            prop_assert!(parse_delta_ops(&req.eco_ops).is_ok(), "{}", req.eco_ops);
        }
        let line = req.encode();
        prop_assert!(!line.contains('\n'), "an encoded request spans lines: {line}");
        let decoded = JobRequest::decode(&line);
        prop_assert_eq!(decoded, Ok(req), "line: {}", line);
    }

    #[test]
    fn responses_round_trip(resp in response()) {
        let line = resp.encode();
        prop_assert!(!line.contains('\n'), "an encoded response spans lines: {line}");
        let decoded = JobResponse::decode(&line);
        prop_assert_eq!(decoded, Ok(resp), "line: {}", line);
    }

    /// An `eco_base` sent as anything but its 16-digit key string, a
    /// JSON number above all, is refused: read as absent, the ECO job
    /// would run without the base check it asked for.
    #[test]
    fn an_eco_base_that_is_not_a_key_string_is_refused(
        req in request(),
        base in 0u64..=u64::MAX,
        k in 0usize..4,
    ) {
        let value = [base.to_string(), "true".to_string(), "null".to_string(), "-1".to_string()];
        let line = req.with_eco_base(base).encode().replace(
            &format!("\"eco_base\":\"{base:016x}\""),
            &format!("\"eco_base\":{}", value[k]),
        );
        let error = JobRequest::decode(&line);
        prop_assert!(
            matches!(&error, Err(e) if e.contains("16-digit hex")),
            "{line} gave {error:?}"
        );
    }

    #[test]
    fn mutated_lines_decode_or_fail_cleanly(
        req in request(),
        resp in response(),
        mutations in vec(mutation(), 1..5),
    ) {
        for line in [req.encode(), resp.encode()] {
            let mutated = mutations.iter().fold(line, |line, m| mutate(&line, m));
            // Either decoder may see either kind of line; neither may
            // panic, and a refusal says why.
            if let Err(e) = JobRequest::decode(&mutated) {
                prop_assert!(!e.is_empty(), "an empty request error for {mutated}");
            }
            if let Err(e) = JobResponse::decode(&mutated) {
                prop_assert!(!e.is_empty(), "an empty response error for {mutated}");
            }
        }
    }
}
