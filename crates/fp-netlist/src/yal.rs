//! Parser for a subset of **YAL**, the MCNC benchmark exchange format the
//! original `ami33`/`apte`/`xerox` decks ship in.
//!
//! The original files are not redistributable with this repository, but
//! users who have them can load them directly:
//!
//! ```
//! let deck = "\
//! MODULE cpu; TYPE GENERAL;
//! DIMENSIONS 0 0 0 10 20 10 20 0;
//! IOLIST; p1 B 0 5 M2; p2 B 20 5 M2; ENDIOLIST;
//! ENDMODULE;
//! MODULE chip; TYPE PARENT;
//! NETWORK; u1 cpu siga VDD; ENDNETWORK;
//! ENDMODULE;";
//! let netlist = fp_netlist::format::parse_yal(deck).unwrap();
//! assert_eq!(netlist.num_modules(), 1);
//! ```
//!
//! Supported subset:
//!
//! * `MODULE <name>; … ENDMODULE;` blocks;
//! * `TYPE GENERAL|STANDARD|PAD|PARENT;` — GENERAL/STANDARD become rigid
//!   rotatable modules, PAD blocks are ignored, the PARENT block provides
//!   the netlist;
//! * `DIMENSIONS x1 y1 x2 y2 …;` — the bounding box of the vertex list
//!   defines the module's rectangle (MCNC macros are rectangles);
//! * `IOLIST; <pin> <class> <x> <y> …; ENDIOLIST;` — pins are counted per
//!   nearest side, feeding the §3.2 envelope model;
//! * `NETWORK; <instance> <module> <signal>…; ENDNETWORK;` — signals shared
//!   by several instances become nets; power/ground (`VDD`, `VSS`, `GND`)
//!   and unconnected signals are dropped.
//!
//! Anything else (CURRENT, VOLTAGE, PLACEMENT, …) is skipped statement-wise.

use crate::error::NetlistError;
use crate::module::{Module, SidePins};
use crate::net::Net;
use crate::netlist::Netlist;
use std::collections::HashMap;

/// Parses a YAL deck: `MODULE` blocks with their `TYPE`, `DIMENSIONS` and
/// `IOLIST`, and the `NETWORK` of the `TYPE PARENT` block. Other
/// statements are skipped.
///
/// # Errors
///
/// [`NetlistError::Parse`] with an approximate line number for malformed
/// statements and for instances whose area, or summed area, overflows
/// `f64`; semantic errors (duplicate modules, unknown instance types)
/// use their specific variants.
pub fn parse_yal(text: &str) -> Result<Netlist, NetlistError> {
    // Strip (non-nested) /* ... */ comments, preserving newlines so line
    // numbers in diagnostics stay meaningful.
    let text = strip_comments(text);
    let text = text.as_str();

    // Statement-split on ';', tracking line numbers for diagnostics.
    let mut statements: Vec<(usize, Vec<String>)> = Vec::new();
    {
        let mut current: Vec<String> = Vec::new();
        let mut start_line = 1usize;
        let mut line = 1usize;
        for raw in text.split_inclusive(';') {
            if current.is_empty() {
                // A statement starts on the line of its first token.
                let lead = raw.len() - raw.trim_start().len();
                start_line = line + raw[..lead].matches('\n').count();
            }
            let newlines = raw.matches('\n').count();
            let stmt = raw.trim_end_matches(';');
            let mut tokens: Vec<String> = stmt.split_whitespace().map(|t| t.to_string()).collect();
            current.append(&mut tokens);
            if raw.ends_with(';') && !current.is_empty() {
                statements.push((start_line, std::mem::take(&mut current)));
            }
            line += newlines;
        }
        if !current.is_empty() {
            statements.push((start_line, current));
        }
    }

    #[derive(Default)]
    struct ModuleDef {
        w: f64,
        h: f64,
        pins: SidePins,
        is_parent: bool,
        is_pad: bool,
    }

    let err = |line: usize, message: String| NetlistError::Parse { line, message };

    let mut defs: HashMap<String, ModuleDef> = HashMap::new();
    // (line, instance, module type, signals)
    let mut instances: Vec<(usize, String, String, Vec<String>)> = Vec::new();

    let mut current: Option<(String, ModuleDef)> = None;
    let mut in_iolist = false;
    let mut in_network = false;

    for (line, tokens) in &statements {
        let line = *line;
        let head = tokens[0].to_ascii_uppercase();
        match head.as_str() {
            "MODULE" => {
                let name = tokens
                    .get(1)
                    .ok_or_else(|| err(line, "MODULE needs a name".into()))?;
                current = Some((name.clone(), ModuleDef::default()));
            }
            "ENDMODULE" => {
                let (name, def) = current
                    .take()
                    .ok_or_else(|| err(line, "ENDMODULE without MODULE".into()))?;
                if !def.is_parent {
                    defs.insert(name, def);
                }
                in_iolist = false;
                in_network = false;
            }
            "TYPE" => {
                let kind = tokens
                    .get(1)
                    .map(|t| t.to_ascii_uppercase())
                    .ok_or_else(|| err(line, "TYPE needs a value".into()))?;
                if let Some((_, def)) = current.as_mut() {
                    def.is_parent = kind == "PARENT";
                    def.is_pad = kind == "PAD";
                }
            }
            "DIMENSIONS" => {
                let coords: Option<Vec<f64>> = tokens[1..]
                    .iter()
                    .map(|t| crate::format::finite(t))
                    .collect();
                let coords =
                    coords.ok_or_else(|| err(line, "DIMENSIONS wants finite numbers".into()))?;
                if coords.len() < 6 || coords.len() % 2 != 0 {
                    return Err(err(line, "DIMENSIONS wants >= 3 x/y pairs".into()));
                }
                let xs: Vec<f64> = coords.iter().step_by(2).copied().collect();
                let ys: Vec<f64> = coords.iter().skip(1).step_by(2).copied().collect();
                let (x0, x1) = (
                    xs.iter().copied().fold(f64::INFINITY, f64::min),
                    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                );
                let (y0, y1) = (
                    ys.iter().copied().fold(f64::INFINITY, f64::min),
                    ys.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                );
                // Finite corners can still span more than f64 holds.
                if !(x1 - x0).is_finite() || !(y1 - y0).is_finite() {
                    return Err(err(line, "DIMENSIONS span overflows".into()));
                }
                if let Some((_, def)) = current.as_mut() {
                    def.w = x1 - x0;
                    def.h = y1 - y0;
                }
            }
            "IOLIST" => in_iolist = true,
            "ENDIOLIST" => in_iolist = false,
            "NETWORK" => in_network = true,
            "ENDNETWORK" => in_network = false,
            // <instance> <module> <signal...>
            _ if in_network && tokens.len() >= 2 => {
                instances.push((
                    line,
                    tokens[0].clone(),
                    tokens[1].clone(),
                    tokens[2..].to_vec(),
                ));
            }
            _ if in_iolist => {
                // <pin> <class> <x> <y> [...]; count toward the nearest side.
                if let Some((_, def)) = current.as_mut() {
                    if let (Some(x), Some(y)) = (
                        tokens.get(2).and_then(|t| t.parse::<f64>().ok()),
                        tokens.get(3).and_then(|t| t.parse::<f64>().ok()),
                    ) {
                        // Distances to the four sides of the (0,0)-(w,h) box.
                        let d = [x, def.w - x, y, def.h - y]; // L R B T
                        let side = (0..4)
                            .min_by(|&a, &b| d[a].total_cmp(&d[b]))
                            .expect("four sides");
                        match side {
                            0 => def.pins.left += 1,
                            1 => def.pins.right += 1,
                            2 => def.pins.bottom += 1,
                            _ => def.pins.top += 1,
                        }
                    }
                }
            }
            _ => {} // skip CURRENT, VOLTAGE, PLACEMENT, PROFILE, ...
        }
    }

    // Build the netlist: one module per *instance* of a non-PAD type.
    let mut netlist = Netlist::new("yal");
    let mut total_area = 0.0;
    let mut signal_members: HashMap<String, Vec<crate::ModuleId>> = HashMap::new();
    for (line, inst, mod_type, signals) in &instances {
        let Some(def) = defs.get(mod_type) else {
            return Err(NetlistError::UnknownModuleName {
                net: "NETWORK".to_string(),
                name: mod_type.clone(),
            });
        };
        if def.is_pad {
            continue;
        }
        if def.w <= 0.0 || def.h <= 0.0 {
            return Err(NetlistError::Parse {
                line: 0,
                message: format!("module type '{mod_type}' has no DIMENSIONS"),
            });
        }
        let module = Module::rigid(inst.clone(), def.w, def.h, true).with_pins(def.pins);
        let id = crate::format::add_module(&mut netlist, &mut total_area, module, *line)?;
        for signal in signals {
            let upper = signal.to_ascii_uppercase();
            if upper == "VDD" || upper == "VSS" || upper == "GND" {
                continue;
            }
            signal_members.entry(signal.clone()).or_default().push(id);
        }
    }

    let mut signals: Vec<(String, Vec<crate::ModuleId>)> = signal_members.into_iter().collect();
    signals.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic net order
    for (signal, members) in signals {
        let mut members = members;
        members.sort_unstable();
        members.dedup();
        if members.len() >= 2 {
            netlist.add_net(Net::new(signal, members))?;
        }
    }
    Ok(netlist)
}

/// Removes `/* ... */` comments, keeping newlines for line accounting.
fn strip_comments(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(start) = rest.find("/*") {
        out.push_str(&rest[..start]);
        match rest[start..].find("*/") {
            Some(end_rel) => {
                let comment = &rest[start..start + end_rel + 2];
                out.extend(comment.chars().filter(|&c| c == '\n'));
                rest = &rest[start + end_rel + 2..];
            }
            None => {
                // Unterminated comment: drop the rest (keep newlines).
                out.extend(rest[start..].chars().filter(|&c| c == '\n'));
                rest = "";
            }
        }
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "
/* a tiny YAL deck in the MCNC style */
MODULE cpu;
TYPE GENERAL;
DIMENSIONS 0 0 0 10 20 10 20 0;
IOLIST;
  p1 B 0 5 1 METAL2;
  p2 B 20 5 1 METAL2;
  p3 B 10 10 1 METAL1;
ENDIOLIST;
ENDMODULE;
MODULE ram;
TYPE GENERAL;
DIMENSIONS 0 0 0 8 8 8 8 0;
ENDMODULE;
MODULE pad_in;
TYPE PAD;
DIMENSIONS 0 0 0 1 1 1 1 0;
ENDMODULE;
MODULE chip;
TYPE PARENT;
NETWORK;
  u1 cpu data addr VDD;
  u2 ram data GND;
  u3 ram addr;
  io1 pad_in data;
ENDNETWORK;
ENDMODULE;
";

    #[test]
    fn parses_modules_and_nets() {
        let nl = parse_yal(SAMPLE).unwrap();
        // Three non-pad instances: u1 (cpu), u2, u3 (ram).
        assert_eq!(nl.num_modules(), 3);
        let u1 = nl.module_by_name("u1").unwrap();
        let m = nl.module(u1);
        assert_eq!((m.area(), m.rotatable()), (200.0, true));
        // Pins: p1 on left, p2 on right, p3 on top (closest side).
        assert_eq!(m.pins().left, 1);
        assert_eq!(m.pins().right, 1);
        assert_eq!(m.pins().top, 1);
        // Nets: data (u1, u2 — pad dropped), addr (u1, u3); power dropped.
        assert_eq!(nl.num_nets(), 2);
        let u2 = nl.module_by_name("u2").unwrap();
        let u3 = nl.module_by_name("u3").unwrap();
        assert_eq!(nl.connectivity(u1, u2), 1.0);
        assert_eq!(nl.connectivity(u1, u3), 1.0);
        assert_eq!(nl.connectivity(u2, u3), 0.0);
    }

    #[test]
    fn deterministic() {
        assert_eq!(parse_yal(SAMPLE).unwrap(), parse_yal(SAMPLE).unwrap());
    }

    #[test]
    fn rejects_unknown_instance_type() {
        let deck = "MODULE chip; TYPE PARENT; NETWORK; u1 ghost a b; ENDNETWORK; ENDMODULE;";
        assert!(matches!(
            parse_yal(deck),
            Err(NetlistError::UnknownModuleName { .. })
        ));
    }

    #[test]
    fn rejects_bad_dimensions() {
        let deck = "MODULE m; TYPE GENERAL; DIMENSIONS 0 0 1; ENDMODULE;";
        assert!(matches!(parse_yal(deck), Err(NetlistError::Parse { .. })));
        let deck = "MODULE m; TYPE GENERAL; ENDMODULE;\
                    MODULE c; TYPE PARENT; NETWORK; u m s1 s2; ENDNETWORK; ENDMODULE;";
        assert!(parse_yal(deck).is_err(), "missing DIMENSIONS must error");
        for dims in [
            "0 0 0 inf 20 inf 20 0",
            "0 0 0 10 NaN 10 NaN 0",
            "-1e308 0 -1e308 10 1e308 10 1e308 0",
        ] {
            let deck = format!("MODULE m; TYPE GENERAL; DIMENSIONS {dims}; ENDMODULE;");
            assert!(
                matches!(parse_yal(&deck), Err(NetlistError::Parse { .. })),
                "DIMENSIONS {dims} must be a parse error"
            );
        }
    }

    #[test]
    fn rejects_areas_that_overflow() {
        // Finite sides whose product, or whose running total over the
        // instances, is not: the error names the instance's line.
        for (side, instances, line) in [
            ("1e200", "u1 big a;", 8),
            ("1e154", "u1 big a;\nu2 big a;", 9),
        ] {
            let deck = format!(
                "MODULE big;\nTYPE GENERAL;\nDIMENSIONS 0 0 0 {side} 1.5e154 {side} 1.5e154 0;\n\
                 ENDMODULE;\nMODULE chip;\nTYPE PARENT;\nNETWORK;\n{instances}\nENDNETWORK;\nENDMODULE;\n"
            );
            match parse_yal(&deck) {
                Err(NetlistError::Parse { line: at, message }) => {
                    assert_eq!(at, line, "{deck}");
                    assert!(message.contains("overflows"), "{message}");
                }
                other => panic!("{deck} parsed as {other:?}"),
            }
        }
    }

    #[test]
    fn floorplans_end_to_end() {
        // The parsed deck must be consumable by the rest of the stack
        // (structure check only here; fp-core integration lives in tests/).
        let nl = parse_yal(SAMPLE).unwrap();
        assert!(nl.total_module_area() > 0.0);
        let order = crate::ordering::linear_order(&nl);
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn unterminated_statement_is_tolerated() {
        // A trailing statement without ';' is still consumed.
        let deck = "MODULE m; TYPE GENERAL; DIMENSIONS 0 0 0 2 2 2 2 0; ENDMODULE";
        // No PARENT => empty netlist, but no panic/error about the tail.
        let nl = parse_yal(deck).unwrap();
        assert_eq!(nl.num_modules(), 0);
    }
}
