//! ECO delta scripts: typed edits applied to a base netlist.
//!
//! An ECO (engineering change order) job ships a *delta* instead of a
//! whole instance: a `;`-separated script of ops over the base netlist,
//! each op reusing the token grammar of [`fp_netlist::format`] lines so
//! nothing new has to be learned to write one:
//!
//! ```text
//! mod! clk rigid 4 3 rot pins 2 2 2 2   # upsert (add or replace) a module
//! mod- ctl                              # remove a module
//! net! n9 weight 2 : clk alu            # upsert a net (members by name)
//! net- n3                               # remove a net
//! ```
//!
//! [`apply`] replays the script over a base [`Netlist`] and reports which
//! module names were *touched* — the set the incremental driver
//! ([`fp_core::eco_replace`]) re-places. Module edits touch the module
//! itself; net edits and module removals touch the affected nets' members
//! (only relevant when the objective weighs wirelength, so the caller
//! folds them in conditionally).

use fp_netlist::{format, Module, Net, Netlist};

/// One edit of a delta script.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Add a new module or replace the one with the same name
    /// (`mod! <module-line-tail>`).
    UpsertModule(Module),
    /// Remove a module; nets lose the member and nets left with fewer
    /// than two members are dropped (`mod- <name>`).
    RemoveModule(String),
    /// Add a new net or replace the one with the same name
    /// (`net! <name> [weight W] [crit C] [maxlen L] : members...`).
    UpsertNet {
        /// Net name.
        name: String,
        /// Net weight (default 1).
        weight: f64,
        /// Timing criticality in `[0, 1]` (default 0).
        crit: f64,
        /// Optional max-length bound.
        maxlen: Option<f64>,
        /// Member module names (at least two).
        members: Vec<String>,
    },
    /// Remove a net (`net- <name>`).
    RemoveNet(String),
}

/// The result of [`apply`]: the edited netlist plus the touched sets.
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    /// The base netlist with the script applied. Surviving modules keep
    /// their base insertion order (and therefore their ids); new modules
    /// append.
    pub netlist: Netlist,
    /// Names of modules directly edited (upserted) by the script that
    /// exist in the edited netlist. Always re-placed by the ECO driver.
    pub touched_modules: Vec<String>,
    /// Names of surviving modules whose connectivity changed (members of
    /// upserted/removed nets, co-members of removed modules). Folded into
    /// the re-place set only when the objective weighs wirelength.
    pub touched_net_members: Vec<String>,
}

/// Parses a delta script: ops separated by `;` or newlines, `#` comments
/// stripped, blank ops skipped.
///
/// # Errors
///
/// Describes the first malformed op.
pub fn parse_ops(text: &str) -> Result<Vec<DeltaOp>, String> {
    let mut ops = Vec::new();
    for raw in text.split([';', '\n']) {
        let op = raw.split('#').next().unwrap_or("").trim();
        if op.is_empty() {
            continue;
        }
        let (head, tail) = op.split_once(char::is_whitespace).unwrap_or((op, ""));
        let tail = tail.trim();
        match head {
            "mod!" => {
                if tail.is_empty() {
                    return Err("mod! needs a module definition".to_string());
                }
                // The tail is exactly a `module` line of the text format;
                // parse it through the real parser so the grammars can
                // never drift apart.
                let nl = format::parse(&format!("module {tail}"))
                    .map_err(|e| format!("bad mod! op '{tail}': {e}"))?;
                let module = nl
                    .modules()
                    .next()
                    .map(|(_, m)| m.clone())
                    .ok_or_else(|| format!("bad mod! op '{tail}'"))?;
                ops.push(DeltaOp::UpsertModule(module));
            }
            "mod-" => {
                if tail.is_empty() || tail.split_whitespace().count() != 1 {
                    return Err(format!("mod- needs exactly one module name, got '{tail}'"));
                }
                ops.push(DeltaOp::RemoveModule(tail.to_string()));
            }
            "net!" => ops.push(parse_upsert_net(tail)?),
            "net-" => {
                if tail.is_empty() || tail.split_whitespace().count() != 1 {
                    return Err(format!("net- needs exactly one net name, got '{tail}'"));
                }
                ops.push(DeltaOp::RemoveNet(tail.to_string()));
            }
            other => return Err(format!("unknown delta op '{other}'")),
        }
    }
    if ops.is_empty() {
        return Err("empty delta script".to_string());
    }
    Ok(ops)
}

/// Parses the tail of a `net!` op: the `net` line grammar minus the
/// keyword (members stay names — resolution happens at [`apply`]).
fn parse_upsert_net(tail: &str) -> Result<DeltaOp, String> {
    let tokens: Vec<&str> = tail.split_whitespace().collect();
    let name = *tokens.first().ok_or("net! needs a name")?;
    let colon = tokens
        .iter()
        .position(|&t| t == ":")
        .ok_or_else(|| format!("net! '{name}' needs ':' before members"))?;
    let mut weight = 1.0;
    let mut crit = 0.0;
    let mut maxlen = None;
    let mut k = 1;
    while k < colon {
        let key = tokens[k];
        let val = tokens
            .get(k + 1)
            .and_then(|t| t.parse::<f64>().ok())
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("net! '{name}': '{key}' needs a finite number"))?;
        match key {
            "weight" => weight = val,
            "crit" => crit = val,
            "maxlen" => maxlen = Some(val),
            other => return Err(format!("net! '{name}': unknown attribute '{other}'")),
        }
        k += 2;
    }
    let members: Vec<String> = tokens[colon + 1..]
        .iter()
        .map(ToString::to_string)
        .collect();
    if members.len() < 2 {
        return Err(format!("net! '{name}' needs at least 2 members"));
    }
    Ok(DeltaOp::UpsertNet {
        name: name.to_string(),
        weight,
        crit,
        maxlen,
        members,
    })
}

/// Name-keyed working copy of one net while the script replays.
#[derive(Clone)]
struct NetData {
    name: String,
    weight: f64,
    crit: f64,
    maxlen: Option<f64>,
    members: Vec<String>,
}

/// Replays `ops` over `base`, producing the edited netlist and the
/// touched-name sets. Order-preserving: surviving base modules keep their
/// ids, new modules and nets append, so the edited netlist is
/// byte-identical (in [`fp_netlist::format`] and canonical text) to one
/// built from scratch with the same content.
///
/// # Errors
///
/// Removing an unknown module/net, upserting a net whose member does not
/// exist (after earlier ops), or an edit that leaves a net with fewer
/// than two members is an error — deltas are strict so a typo cannot
/// silently solve a different instance.
pub fn apply(base: &Netlist, ops: &[DeltaOp]) -> Result<DeltaOutcome, String> {
    let mut modules: Vec<Module> = base.modules().map(|(_, m)| m.clone()).collect();
    let mut nets: Vec<NetData> = base
        .nets()
        .map(|(_, n)| NetData {
            name: n.name().to_string(),
            weight: n.weight(),
            crit: n.criticality(),
            maxlen: n.max_length(),
            members: n
                .modules()
                .iter()
                .map(|&m| base.module(m).name().to_string())
                .collect(),
        })
        .collect();
    let mut touched_modules: Vec<String> = Vec::new();
    let mut touched_net_members: Vec<String> = Vec::new();
    let touch = |set: &mut Vec<String>, name: &str| {
        if !set.iter().any(|n| n == name) {
            set.push(name.to_string());
        }
    };

    for op in ops {
        match op {
            DeltaOp::UpsertModule(module) => {
                match modules.iter_mut().find(|m| m.name() == module.name()) {
                    Some(slot) => *slot = module.clone(),
                    None => modules.push(module.clone()),
                }
                touch(&mut touched_modules, module.name());
            }
            DeltaOp::RemoveModule(name) => {
                let at = modules
                    .iter()
                    .position(|m| m.name() == name)
                    .ok_or_else(|| format!("mod- '{name}': no such module"))?;
                modules.remove(at);
                // Its neighbors lose a connection: touched for
                // wirelength-aware re-placement.
                for net in &mut nets {
                    if net.members.iter().any(|m| m == name) {
                        for member in &net.members {
                            if member != name {
                                touch(&mut touched_net_members, member);
                            }
                        }
                        net.members.retain(|m| m != name);
                    }
                }
                nets.retain(|n| n.members.len() >= 2);
            }
            DeltaOp::UpsertNet {
                name,
                weight,
                crit,
                maxlen,
                members,
            } => {
                for member in members {
                    if !modules.iter().any(|m| m.name() == member) {
                        return Err(format!("net! '{name}': no such module '{member}'"));
                    }
                    touch(&mut touched_net_members, member);
                }
                let data = NetData {
                    name: name.clone(),
                    weight: *weight,
                    crit: *crit,
                    maxlen: *maxlen,
                    members: members.clone(),
                };
                match nets.iter_mut().find(|n| n.name == *name) {
                    Some(slot) => {
                        // Old members are also touched: their pull changed.
                        for member in &slot.members {
                            touch(&mut touched_net_members, member);
                        }
                        *slot = data;
                    }
                    None => nets.push(data),
                }
            }
            DeltaOp::RemoveNet(name) => {
                let at = nets
                    .iter()
                    .position(|n| n.name == *name)
                    .ok_or_else(|| format!("net- '{name}': no such net"))?;
                for member in &nets[at].members {
                    touch(&mut touched_net_members, member);
                }
                nets.remove(at);
            }
        }
    }

    // Rebuild the typed netlist; member-name resolution doubles as the
    // final consistency check.
    let mut edited = Netlist::new(base.name());
    for module in modules {
        edited
            .add_module(module)
            .map_err(|e| format!("delta produced invalid netlist: {e}"))?;
    }
    for data in nets {
        let members: Vec<_> = data
            .members
            .iter()
            .map(|m| {
                edited
                    .module_by_name(m)
                    .ok_or_else(|| format!("net '{}' references removed module '{m}'", data.name))
            })
            .collect::<Result<_, _>>()?;
        let mut net = Net::new(&data.name, members).with_weight(data.weight);
        if data.crit > 0.0 {
            net = net.with_criticality(data.crit);
        }
        if let Some(l) = data.maxlen {
            net = net.with_max_length(l);
        }
        edited
            .add_net(net)
            .map_err(|e| format!("delta produced invalid netlist: {e}"))?;
    }
    // A touched name that no longer exists (edited then removed, or a
    // removed module's) must not leak into the re-place set.
    touched_modules.retain(|n| edited.module_by_name(n).is_some());
    touched_net_members.retain(|n| edited.module_by_name(n).is_some());
    Ok(DeltaOutcome {
        netlist: edited,
        touched_modules,
        touched_net_members,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Netlist {
        format::parse(
            "problem base\n\
             module a rigid 2 3 rot pins 1 1 1 1\n\
             module b rigid 3 3 fixed\n\
             module c flexible 9 0.5 2.0\n\
             net n1 weight 2 : a b\n\
             net n2 : b c\n",
        )
        .unwrap()
    }

    #[test]
    fn parse_all_op_kinds() {
        let ops = parse_ops(
            "mod! d rigid 4 2 rot pins 2 0 1 0; mod- c ; \
             net! n9 weight 1.5 crit 0.5 maxlen 30 : a d\nnet- n2 # trailing comment",
        )
        .unwrap();
        assert_eq!(ops.len(), 4);
        assert!(matches!(&ops[0], DeltaOp::UpsertModule(m) if m.name() == "d"));
        assert_eq!(ops[1], DeltaOp::RemoveModule("c".to_string()));
        match &ops[2] {
            DeltaOp::UpsertNet {
                name,
                weight,
                crit,
                maxlen,
                members,
            } => {
                assert_eq!(name, "n9");
                assert_eq!((*weight, *crit, *maxlen), (1.5, 0.5, Some(30.0)));
                assert_eq!(members, &["a", "d"]);
            }
            other => panic!("unexpected op {other:?}"),
        }
        assert_eq!(ops[3], DeltaOp::RemoveNet("n2".to_string()));
    }

    #[test]
    fn parse_rejects_malformed_ops() {
        assert!(parse_ops("").is_err());
        assert!(parse_ops("  ; ; ").is_err());
        assert!(parse_ops("frobnicate a").is_err());
        assert!(parse_ops("mod!").is_err());
        assert!(parse_ops("mod! d blobby 1 2").is_err());
        assert!(parse_ops("mod- a b").is_err());
        assert!(parse_ops("net! n : a").is_err()); // one member
        assert!(parse_ops("net! n a b").is_err()); // no colon
        assert!(parse_ops("net! n weight x : a b").is_err());
        assert!(parse_ops("net-").is_err());
        // Non-finite numbers: `mod!` through the format parser, `net!`
        // through its own attribute check.
        assert!(parse_ops("mod! d rigid inf 3 rot").is_err());
        assert!(parse_ops("mod! d flexible 10 1 inf").is_err());
        assert!(parse_ops("mod! d flexible NaN 1 2").is_err());
        assert!(parse_ops("net! n weight NaN : a b").is_err());
        assert!(parse_ops("net! n crit inf : a b").is_err());
        assert!(parse_ops("net! n maxlen -inf : a b").is_err());
    }

    #[test]
    fn upsert_module_replaces_in_place_and_touches_it() {
        let ops = parse_ops("mod! b rigid 5 1 rot").unwrap();
        let out = apply(&base(), &ops).unwrap();
        assert_eq!(out.netlist.num_modules(), 3);
        let b = out.netlist.module_by_name("b").unwrap();
        // Replaced in place: id order unchanged.
        assert_eq!(b, base().module_by_name("b").unwrap());
        assert!(out.netlist.module(b).rotatable());
        assert_eq!(out.touched_modules, ["b"]);
        assert!(out.touched_net_members.is_empty());
    }

    #[test]
    fn remove_module_scrubs_nets_and_touches_neighbors() {
        let ops = parse_ops("mod- b").unwrap();
        let out = apply(&base(), &ops).unwrap();
        assert_eq!(out.netlist.num_modules(), 2);
        // Both nets contained b and fall under 2 members: dropped.
        assert_eq!(out.netlist.num_nets(), 0);
        assert!(out.touched_modules.is_empty());
        let mut neighbors = out.touched_net_members.clone();
        neighbors.sort();
        assert_eq!(neighbors, ["a", "c"]);
    }

    #[test]
    fn net_ops_touch_old_and_new_members() {
        let ops = parse_ops("net! n1 : a c").unwrap();
        let out = apply(&base(), &ops).unwrap();
        assert_eq!(out.netlist.num_nets(), 2);
        let mut touched = out.touched_net_members.clone();
        touched.sort();
        // New members a,c plus displaced old member b.
        assert_eq!(touched, ["a", "b", "c"]);
    }

    #[test]
    fn strict_errors_on_unknown_names() {
        assert!(apply(&base(), &parse_ops("mod- ghost").unwrap()).is_err());
        assert!(apply(&base(), &parse_ops("net- ghost").unwrap()).is_err());
        assert!(apply(&base(), &parse_ops("net! n9 : a ghost").unwrap()).is_err());
    }

    #[test]
    fn edited_netlist_matches_scratch_built_text() {
        // The order-preservation contract: applying a delta yields the
        // same format text as writing the edited instance from scratch.
        let ops =
            parse_ops("mod! c flexible 12 0.5 2.0; mod! d rigid 1 1 fixed; net! n3 : a d").unwrap();
        let out = apply(&base(), &ops).unwrap();
        let scratch = format::parse(
            "problem base\n\
             module a rigid 2 3 rot pins 1 1 1 1\n\
             module b rigid 3 3 fixed\n\
             module c flexible 12 0.5 2.0\n\
             module d rigid 1 1 fixed\n\
             net n1 weight 2 : a b\n\
             net n2 : b c\n\
             net n3 : a d\n",
        )
        .unwrap();
        assert_eq!(format::write(&out.netlist), format::write(&scratch));
        assert_eq!(out.netlist, scratch);
    }

    #[test]
    fn touched_names_never_reference_missing_modules() {
        // Upsert then remove: the touch on 'd' must not survive.
        let ops = parse_ops("mod! d rigid 1 1 fixed; mod- d").unwrap();
        let out = apply(&base(), &ops).unwrap();
        assert!(out.touched_modules.is_empty());
        assert_eq!(out.netlist, base());
    }
}
