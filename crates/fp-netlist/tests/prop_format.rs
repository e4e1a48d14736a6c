//! Property suite for the plain-text netlist format.
//!
//! Every request fp-serve answers carries its instance in this format, so
//! `format::parse` reads text from outside the process. Generated decks,
//! rigid and flexible modules with rotation, pins, net weights,
//! criticality and max lengths, survive `write` → `parse` → `write` byte
//! for byte, and so do their nets listed with repeated members. Texts
//! mutated by truncation, dropped or repeated tokens, numbers replaced by
//! non-finite or negative ones, and flipped bytes parse or fail with a
//! `NetlistError` that says why, never a panic; a number made non-finite
//! is always a parse error.

use fp_netlist::format::{parse, write};
use fp_netlist::{Module, ModuleId, Net, Netlist, NetlistError, Shape, SidePins};
use proptest::collection::vec;
use proptest::prelude::*;

/// Module name prefixes: plain, with punctuation, and multi-byte UTF-8.
const PREFIXES: [&str; 6] = ["m", "bk", "ctl_", "blk.", "sb-", "é"];

/// Problem names.
const PROBLEMS: [&str; 4] = ["ami33", "p", "deck-7", "ü"];

/// Positive numbers whose shortest decimal form is long or tiny.
const AWKWARD: [f64; 6] = [0.1, 3.0e-3, 1.0, 12.25, 123.456_789_012_345, 1.0e6];

/// Non-finite stand-ins for a number; each makes a deck a parse error.
const NON_FINITE: [&str; 6] = ["inf", "-inf", "nan", "NaN", "1e400", "-1e400"];

/// Stand-ins a mutation puts in for a number: non-finite, negative or zero.
const REPLACEMENTS: [&str; 8] = ["inf", "-inf", "nan", "NaN", "1e400", "-1", "-0", "0"];

/// A positive number: usually plain in `range`, sometimes awkward.
fn positive(range: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop_oneof![range, (0..AWKWARD.len()).prop_map(|k| AWKWARD[k])]
}

fn shape() -> impl Strategy<Value = Shape> {
    prop_oneof![
        (positive(0.5..500.0), positive(0.5..500.0)).prop_map(|(w, h)| Shape::Rigid { w, h }),
        (positive(1.0..1e5), 0.1f64..10.0, 0.1f64..10.0).prop_map(|(area, a, b)| {
            Shape::Flexible {
                area,
                min_aspect: a.min(b),
                max_aspect: a.max(b),
            }
        }),
    ]
}

fn pins() -> impl Strategy<Value = SidePins> {
    let count = || prop_oneof![0u32..20, Just(u32::MAX)];
    (count(), count(), count(), count()).prop_map(|(left, right, bottom, top)| SidePins {
        left,
        right,
        bottom,
        top,
    })
}

/// A deck of 1–8 modules and up to 8 nets, with each net's members as
/// drawn: up to 6 module picks, repeats included, in drawn order. A net
/// joins the distinct modules it drew, and is left out when fewer than
/// two are.
fn deck_with_members() -> impl Strategy<Value = (Netlist, Vec<Vec<ModuleId>>)> {
    let modules = vec((shape(), any::<bool>(), pins(), 0..PREFIXES.len()), 1..9);
    let nets = vec(
        (
            vec(0usize..8, 0..7),
            positive(0.1..10.0),
            prop_oneof![Just(0.0), 0.01f64..1.0, Just(1.0)],
            prop_oneof![Just(None), positive(1.0..1000.0).prop_map(Some)],
        ),
        0..9,
    );
    (0..PROBLEMS.len(), modules, nets).prop_map(|(problem, modules, nets)| {
        let mut netlist = Netlist::new(PROBLEMS[problem]);
        let ids: Vec<ModuleId> = modules
            .into_iter()
            .enumerate()
            .map(|(i, (shape, rotatable, pins, prefix))| {
                let name = format!("{}{i}", PREFIXES[prefix]);
                let module = match shape {
                    Shape::Rigid { w, h } => Module::rigid(name, w, h, rotatable),
                    Shape::Flexible {
                        area,
                        min_aspect,
                        max_aspect,
                    } => Module::flexible(name, area, min_aspect, max_aspect),
                };
                netlist.add_module(module.with_pins(pins)).expect("unique")
            })
            .collect();
        let mut drawn = Vec::new();
        for (j, (picks, weight, crit, max_length)) in nets.into_iter().enumerate() {
            let members: Vec<ModuleId> = picks.iter().map(|&k| ids[k % ids.len()]).collect();
            let mut net = Net::new(format!("n{j}"), members.iter().copied())
                .with_weight(weight)
                .with_criticality(crit);
            if net.degree() < 2 {
                continue;
            }
            if let Some(len) = max_length {
                net = net.with_max_length(len);
            }
            netlist.add_net(net).expect("known members");
            drawn.push(members);
        }
        (netlist, drawn)
    })
}

fn deck() -> impl Strategy<Value = Netlist> {
    deck_with_members().prop_map(|(netlist, _)| netlist)
}

/// `write(netlist)` with each net line listing its members as drawn.
fn write_as_drawn(netlist: &Netlist, drawn: &[Vec<ModuleId>]) -> String {
    let mut nets = drawn.iter();
    let mut text = String::new();
    for line in write(netlist).lines() {
        match line.strip_prefix("net ").and(line.split_once(" :")) {
            Some((head, _)) => {
                text.push_str(head);
                text.push_str(" :");
                for &m in nets.next().expect("one drawn list per net") {
                    text.push(' ');
                    text.push_str(netlist.module(m).name());
                }
            }
            None => text.push_str(line),
        }
        text.push('\n');
    }
    text
}

/// One edit of a written deck. Positions are fractions of the text's
/// length or of its token count.
#[derive(Debug, Clone)]
enum Mutation {
    Truncate(f64),
    DropToken(f64),
    RepeatToken(f64),
    ReplaceNumber(f64, &'static str),
    FlipByte(f64, u8),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (0.0f64..1.0).prop_map(Mutation::Truncate),
        (0.0f64..1.0).prop_map(Mutation::DropToken),
        (0.0f64..1.0).prop_map(Mutation::RepeatToken),
        (0.0f64..1.0, 0..REPLACEMENTS.len())
            .prop_map(|(at, k)| Mutation::ReplaceNumber(at, REPLACEMENTS[k])),
        (0.0f64..1.0, 1u8..=255).prop_map(|(at, mask)| Mutation::FlipByte(at, mask)),
    ]
}

/// The byte spans of `text`'s whitespace-separated tokens.
fn tokens(text: &str) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices().chain([(text.len(), ' ')]) {
        match (start, c.is_whitespace()) {
            (None, false) => start = Some(i),
            (Some(s), true) => {
                spans.push((s, i));
                start = None;
            }
            _ => {}
        }
    }
    spans
}

/// The span picked by `at` among `spans`, if there is one.
fn pick(spans: &[(usize, usize)], at: f64) -> Option<(usize, usize)> {
    let k = (at * spans.len() as f64) as usize;
    spans.get(k.min(spans.len().saturating_sub(1))).copied()
}

/// Replaces the number token picked by `at` with `with`.
fn replace_number(text: &str, at: f64, with: &str) -> String {
    let numbers: Vec<(usize, usize)> = tokens(text)
        .into_iter()
        .filter(|&(s, e)| text[s..e].parse::<f64>().is_ok())
        .collect();
    match pick(&numbers, at) {
        Some((s, e)) => format!("{}{with}{}", &text[..s], &text[e..]),
        None => text.to_string(),
    }
}

fn mutate(text: &str, mutation: &Mutation) -> String {
    match *mutation {
        Mutation::Truncate(at) => {
            let mut end = (at * text.len() as f64) as usize;
            while !text.is_char_boundary(end) {
                end -= 1;
            }
            text[..end].to_string()
        }
        Mutation::DropToken(at) => match pick(&tokens(text), at) {
            Some((s, e)) => format!("{}{}", &text[..s], &text[e..]),
            None => text.to_string(),
        },
        Mutation::RepeatToken(at) => match pick(&tokens(text), at) {
            Some((s, e)) => format!("{} {}", &text[..e], &text[s..]),
            None => text.to_string(),
        },
        Mutation::ReplaceNumber(at, with) => replace_number(text, at, with),
        Mutation::FlipByte(at, mask) => {
            let mut bytes = text.as_bytes().to_vec();
            if !bytes.is_empty() {
                let k = ((at * bytes.len() as f64) as usize).min(bytes.len() - 1);
                bytes[k] ^= mask;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
    }
}

proptest! {
    #[test]
    fn decks_round_trip_byte_for_byte(netlist in deck()) {
        let text = write(&netlist);
        let parsed = parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        prop_assert_eq!(&parsed, &netlist);
        prop_assert_eq!(write(&parsed), text);
    }

    /// A net line that repeats members parses to the net of its
    /// distinct members, which `write` emits without the repeats; a net
    /// line whose members are one module, however often listed, is
    /// refused.
    #[test]
    fn repeated_members_parse_to_the_distinct_net(
        deck in deck_with_members(),
        repeats in 2usize..4,
    ) {
        let (netlist, drawn) = deck;
        let text = write_as_drawn(&netlist, &drawn);
        let parsed = parse(&text)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{text}")))?;
        prop_assert_eq!(&parsed, &netlist);
        prop_assert_eq!(write(&parsed), write(&netlist));

        let solo = netlist.module(ModuleId(0)).name();
        let line = text.lines().count() + 1;
        let lone = format!("{text}net lone :{}\n", format!(" {solo}").repeat(repeats));
        let refused = parse(&lone);
        prop_assert!(
            matches!(refused, Err(NetlistError::Parse { line: at, .. }) if at == line),
            "{lone:?} gave {refused:?}"
        );
    }

    #[test]
    fn mutated_decks_parse_or_fail_with_a_netlist_error(
        netlist in deck(),
        mutations in vec(mutation(), 1..4),
    ) {
        let text = mutations.iter().fold(write(&netlist), |text, m| mutate(&text, m));
        if let Err(e) = parse(&text) {
            prop_assert!(!e.to_string().is_empty(), "an empty error for {text:?}");
        }
    }

    #[test]
    fn a_number_made_non_finite_is_a_parse_error(
        netlist in deck(),
        at in 0.0f64..1.0,
        k in 0..NON_FINITE.len(),
    ) {
        let text = replace_number(&write(&netlist), at, NON_FINITE[k]);
        let parsed = parse(&text);
        prop_assert!(
            matches!(parsed, Err(NetlistError::Parse { .. })),
            "{text:?} gave {parsed:?}"
        );
    }
}
