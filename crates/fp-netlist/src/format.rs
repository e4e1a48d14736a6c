//! Plain-text problem format: parse and write [`Netlist`]s.
//!
//! A minimal line-oriented format in the spirit of the MCNC benchmark
//! decks, so problems can be stored in files and fed to the CLI:
//!
//! ```text
//! # comment
//! problem ami33
//! module bk00 rigid 32 32 rot pins 8 8 8 8
//! module ctl  flexible 400 0.5 2.0 pins 2 2 4 4
//! net net000 weight 1 crit 0.9 maxlen 180 : bk00 ctl
//! ```
//!
//! Keywords `weight`, `crit`, `maxlen` are optional; module references in
//! nets are by name.

pub use crate::yal::parse_yal;

use crate::error::NetlistError;
use crate::module::{Module, SidePins};
use crate::net::Net;
use crate::netlist::Netlist;
use crate::ModuleId;
use std::fmt::Write as _;

/// Serializes a netlist to the text format. [`parse`] round-trips it.
#[must_use]
pub fn write(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "problem {}", netlist.name());
    for (_, m) in netlist.modules() {
        let p = m.pins();
        match *m.shape() {
            crate::Shape::Rigid { w, h } => {
                let rot = if m.rotatable() { "rot" } else { "fixed" };
                let _ = writeln!(
                    out,
                    "module {} rigid {} {} {} pins {} {} {} {}",
                    m.name(),
                    w,
                    h,
                    rot,
                    p.left,
                    p.right,
                    p.bottom,
                    p.top
                );
            }
            crate::Shape::Flexible {
                area,
                min_aspect,
                max_aspect,
            } => {
                let _ = writeln!(
                    out,
                    "module {} flexible {} {} {} pins {} {} {} {}",
                    m.name(),
                    area,
                    min_aspect,
                    max_aspect,
                    p.left,
                    p.right,
                    p.bottom,
                    p.top
                );
            }
        }
    }
    for (_, n) in netlist.nets() {
        let _ = write!(out, "net {} weight {}", n.name(), n.weight());
        if n.criticality() > 0.0 {
            let _ = write!(out, " crit {}", n.criticality());
        }
        if let Some(len) = n.max_length() {
            let _ = write!(out, " maxlen {len}");
        }
        let _ = write!(out, " :");
        for &m in n.modules() {
            let _ = write!(out, " {}", netlist.module(m).name());
        }
        out.push('\n');
    }
    out
}

/// Parses the text format.
///
/// # Errors
///
/// [`NetlistError::Parse`] with a line number for malformed lines,
/// non-finite numbers (`inf`, `NaN`) and module areas that overflow `f64`
/// included;
/// [`NetlistError::DuplicateModule`] / [`NetlistError::UnknownModuleName`]
/// for semantic defects.
pub fn parse(text: &str) -> Result<Netlist, NetlistError> {
    let mut netlist = Netlist::new("unnamed");
    let mut total_area = 0.0;
    let err = |line: usize, message: &str| NetlistError::Parse {
        line,
        message: message.to_string(),
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match tokens[0] {
            "problem" => {
                let name = tokens
                    .get(1)
                    .ok_or_else(|| err(lineno, "problem needs a name"))?;
                netlist.set_name(name);
            }
            "module" => {
                let name = *tokens
                    .get(1)
                    .ok_or_else(|| err(lineno, "module needs a name"))?;
                let kind = *tokens
                    .get(2)
                    .ok_or_else(|| err(lineno, "module needs a kind"))?;
                let num = |k: usize, what: &str| -> Result<f64, NetlistError> {
                    tokens
                        .get(k)
                        .and_then(|t| finite(t))
                        .ok_or_else(|| err(lineno, &format!("expected finite number for {what}")))
                };
                let (module, rest) = match kind {
                    "rigid" => {
                        let w = num(3, "width")?;
                        let h = num(4, "height")?;
                        let rot = match tokens.get(5) {
                            Some(&"rot") => true,
                            Some(&"fixed") => false,
                            _ => return Err(err(lineno, "expected 'rot' or 'fixed'")),
                        };
                        if w <= 0.0 || h <= 0.0 {
                            return Err(err(lineno, "dimensions must be positive"));
                        }
                        (Module::rigid(name, w, h, rot), 6)
                    }
                    "flexible" => {
                        let area = num(3, "area")?;
                        let lo = num(4, "min aspect")?;
                        let hi = num(5, "max aspect")?;
                        if area <= 0.0 || lo <= 0.0 || lo > hi {
                            return Err(err(lineno, "bad flexible parameters"));
                        }
                        (Module::flexible(name, area, lo, hi), 6)
                    }
                    other => return Err(err(lineno, &format!("unknown module kind '{other}'"))),
                };
                let module = if tokens.get(rest) == Some(&"pins") {
                    let p = |k: usize| -> Result<u32, NetlistError> {
                        tokens
                            .get(rest + 1 + k)
                            .and_then(|t| t.parse::<u32>().ok())
                            .ok_or_else(|| err(lineno, "pins needs 4 integers"))
                    };
                    module.with_pins(SidePins {
                        left: p(0)?,
                        right: p(1)?,
                        bottom: p(2)?,
                        top: p(3)?,
                    })
                } else {
                    module
                };
                add_module(&mut netlist, &mut total_area, module, lineno)?;
            }
            "net" => {
                let name = *tokens
                    .get(1)
                    .ok_or_else(|| err(lineno, "net needs a name"))?;
                let colon = tokens
                    .iter()
                    .position(|&t| t == ":")
                    .ok_or_else(|| err(lineno, "net needs ':' before members"))?;
                let mut weight = 1.0;
                let mut crit = 0.0;
                let mut maxlen = None;
                let mut k = 2;
                while k < colon {
                    let key = tokens[k];
                    let val = tokens
                        .get(k + 1)
                        .and_then(|t| finite(t))
                        .ok_or_else(|| err(lineno, &format!("'{key}' needs a finite number")))?;
                    match key {
                        "weight" => weight = val,
                        "crit" => crit = val,
                        "maxlen" => maxlen = Some(val),
                        other => {
                            return Err(err(lineno, &format!("unknown net attribute '{other}'")))
                        }
                    }
                    k += 2;
                }
                let mut members = Vec::new();
                for &t in &tokens[colon + 1..] {
                    let id = netlist.module_by_name(t).ok_or_else(|| {
                        NetlistError::UnknownModuleName {
                            net: name.to_string(),
                            name: t.to_string(),
                        }
                    })?;
                    members.push(id);
                }
                if members.len() < 2 {
                    return Err(err(lineno, "net needs at least 2 members"));
                }
                let mut net = Net::new(name, members).with_weight(weight);
                if crit > 0.0 {
                    net = net.with_criticality(crit);
                }
                if let Some(l) = maxlen {
                    net = net.with_max_length(l);
                }
                netlist.add_net(net)?;
            }
            other => return Err(err(lineno, &format!("unknown directive '{other}'"))),
        }
    }
    Ok(netlist)
}

/// Adds `module`, declared on line `line`, to `netlist`, whose modules
/// cover `total_area` so far. A module whose area, or the summed area with
/// it, is not finite is a parse error: every later sum over the chip would
/// overflow with it.
pub(crate) fn add_module(
    netlist: &mut Netlist,
    total_area: &mut f64,
    module: Module,
    line: usize,
) -> Result<ModuleId, NetlistError> {
    let area = module.area();
    if !area.is_finite() || !(*total_area + area).is_finite() {
        let what = if area.is_finite() {
            "summed module area"
        } else {
            "area"
        };
        return Err(NetlistError::Parse {
            line,
            message: format!("{what} of module '{}' overflows f64", module.name()),
        });
    }
    let id = netlist.add_module(module)?;
    *total_area += area;
    Ok(id)
}

/// Parses a finite `f64`. Rust's float syntax also admits `inf` and
/// `NaN`, which would slip past every `<= 0.0` check downstream.
pub(crate) fn finite(token: &str) -> Option<f64> {
    token.parse::<f64>().ok().filter(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ami33;
    use crate::generator::ProblemGenerator;

    #[test]
    fn round_trip_ami33() {
        let original = ami33();
        let text = write(&original);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn round_trip_generated_with_flexible() {
        let original = ProblemGenerator::new(12, 5)
            .with_flexible_fraction(0.5)
            .generate();
        let parsed = parse(&write(&original)).unwrap();
        assert_eq!(parsed, original);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header\nproblem p # trailing\nmodule a rigid 2 3 rot\n";
        let nl = parse(text).unwrap();
        assert_eq!(nl.name(), "p");
        assert_eq!(nl.num_modules(), 1);
        assert!(!nl.module(crate::ModuleId(0)).is_flexible());
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let bad = "problem p\nmodule a rigid 2 3 rot\nbogus line here\n";
        match parse(bad).unwrap_err() {
            NetlistError::Parse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn unknown_module_in_net() {
        let bad = "module a rigid 2 3 rot\nnet n1 : a ghost\n";
        assert!(matches!(
            parse(bad).unwrap_err(),
            NetlistError::UnknownModuleName { .. }
        ));
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(parse("module a rigid -2 3 rot\n").is_err());
        assert!(parse("module a flexible 10 2.0 1.0\n").is_err());
        for bad in [
            "module a rigid inf 3 rot\n",
            "module a rigid 3 NaN rot\n",
            "module a flexible inf 0.5 2\n",
            "module a flexible 10 NaN 2\n",
            "module a flexible 10 1 inf\n",
        ] {
            assert!(
                matches!(parse(bad), Err(NetlistError::Parse { line: 1, .. })),
                "{bad:?} must be a parse error"
            );
        }
        let two = "module a rigid 1 1 fixed\nmodule b rigid 1 1 fixed\n";
        for attr in ["weight NaN", "weight inf", "crit NaN", "maxlen inf"] {
            let text = format!("{two}net n {attr} : a b\n");
            assert!(
                matches!(parse(&text), Err(NetlistError::Parse { line: 3, .. })),
                "{attr:?} must be a parse error"
            );
        }
        assert!(parse("module a blobby 1 2\n").is_err());
        assert!(parse("net n :\n").is_err());
    }

    #[test]
    fn rejects_areas_that_overflow() {
        // Finite sides whose product, or whose running total, is not.
        for (text, line) in [
            ("module a rigid 1e308 1e308 rot\n", 1),
            ("problem p\nmodule a rigid 1e200 1e200 fixed\n", 2),
            (
                "module a rigid 1e154 1e154 rot\nmodule b rigid 1e154 1e154 rot\n",
                2,
            ),
            (
                "module a flexible 1.7e308 1 2\nmodule b flexible 1.7e308 1 2\n",
                2,
            ),
        ] {
            match parse(text) {
                Err(NetlistError::Parse { line: at, message }) => {
                    assert_eq!(at, line, "{text:?}");
                    assert!(message.contains("overflows"), "{message}");
                }
                other => panic!("{text:?} parsed as {other:?}"),
            }
        }
        // The largest areas that still sum to a finite total pass.
        let nl = parse("module a rigid 1e154 1e154 rot\nmodule b rigid 1e153 1e154 rot\n");
        assert_eq!(nl.unwrap().num_modules(), 2);
    }

    #[test]
    fn net_attributes_parse() {
        let text = "module a rigid 1 1 fixed\nmodule b rigid 1 1 fixed\n\
                    net n1 weight 2.5 crit 0.8 maxlen 30 : a b\n";
        let nl = parse(text).unwrap();
        let (_, n) = nl.nets().next().unwrap();
        assert_eq!(n.weight(), 2.5);
        assert_eq!(n.criticality(), 0.8);
        assert_eq!(n.max_length(), Some(30.0));
    }
}
