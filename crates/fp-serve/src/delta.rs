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

use crate::engine::caps;
use fp_netlist::{format, Module, Net, Netlist};
use std::collections::{HashMap, HashSet, VecDeque};

/// One edit of a delta script.
#[derive(Debug, Clone, PartialEq)]
pub enum DeltaOp {
    /// Add a new module or replace the one with the same name
    /// (`mod! <module-line-tail>`).
    UpsertModule(Module),
    /// Remove a module; nets lose the member and nets left with fewer
    /// than two members are dropped (`mod- <name>`).
    RemoveModule(String),
    /// Add a new net or replace the first one with the same name
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
    /// Remove the first net with the name (`net- <name>`).
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

/// Why [`replay`] refused a script.
#[derive(Debug)]
pub(crate) enum Refusal {
    /// The script does not fit the base: it names a module or net that
    /// does not exist when its op runs.
    Script(String),
    /// The instance passed [`MAX_MODULES`](crate::MAX_MODULES) or
    /// [`MAX_NET_MEMBERS`](crate::MAX_NET_MEMBERS) after some op; the
    /// message is the engine's cap error.
    Cap(String),
}

/// Names in the order they were first touched, with a hash index so a
/// touch costs the same however many names came before.
#[derive(Default)]
struct Touched {
    order: Vec<String>,
    seen: HashSet<String>,
}

impl Touched {
    fn touch(&mut self, name: &str) {
        if !self.seen.contains(name) {
            self.seen.insert(name.to_string());
            self.order.push(name.to_string());
        }
    }

    /// The touched names whose module survived, in touch order.
    fn surviving(self, module_slot: &HashMap<String, usize>) -> Vec<String> {
        let mut names = self.order;
        names.retain(|n| module_slot.contains_key(n));
        names
    }
}

/// One version of a net while the script replays: the base's or one
/// `net!` op's. A later `net!` of the same name makes a new version.
struct NetVersion {
    name: String,
    weight: f64,
    crit: f64,
    maxlen: Option<f64>,
    /// Module slots of the members, in the op's order. A slot whose module
    /// was removed no longer counts as a member.
    members: Vec<usize>,
    /// Members whose module is still present, repeats counted.
    live: usize,
    /// Every present member is in the touched set already, so touching
    /// them again would add nothing.
    all_touched: bool,
    /// The net position this version holds, or held until replaced.
    position: usize,
}

/// The running instance of [`replay`]. Removals leave holes (`None`)
/// instead of shifting, so an op costs time in what it names and touches,
/// not in the size of the instance.
struct Replay {
    /// Module slots: the base's modules in id order, then each new module.
    modules: Vec<Option<Module>>,
    module_slot: HashMap<String, usize>,
    /// Every net version ever made; `positions` and `listed_in` index it.
    versions: Vec<NetVersion>,
    /// Net positions in order, each holding its current version.
    positions: Vec<Option<usize>>,
    /// For each net name, the positions that held a net of that name, in
    /// order. Names may repeat, as in the base; a `net!` or `net-` acts on
    /// the first one still held. A position, once dropped, is never held
    /// again, so dropped ones are discarded when they reach the front.
    net_positions: HashMap<String, VecDeque<usize>>,
    /// For each module slot, the versions that list it, once per listing.
    listed_in: Vec<Vec<usize>>,
    live_modules: usize,
    /// Member listings of present modules over the current nets.
    live_members: usize,
    /// Whether a `mod-` has run; the first one drops every net with fewer
    /// than two members, base nets included.
    swept: bool,
    touched_modules: Touched,
    touched_net_members: Touched,
}

impl Replay {
    fn new(base: &Netlist) -> Self {
        let mut replay = Replay {
            modules: base.modules().map(|(_, m)| Some(m.clone())).collect(),
            module_slot: base
                .modules()
                .map(|(id, m)| (m.name().to_string(), id.index()))
                .collect(),
            versions: Vec::new(),
            positions: Vec::new(),
            net_positions: HashMap::new(),
            listed_in: vec![Vec::new(); base.num_modules()],
            live_modules: base.num_modules(),
            live_members: 0,
            swept: false,
            touched_modules: Touched::default(),
            touched_net_members: Touched::default(),
        };
        for (_, net) in base.nets() {
            let members = net.modules().iter().map(|m| m.index()).collect();
            replay.put_net(
                None,
                net.name(),
                net.weight(),
                net.criticality(),
                net.max_length(),
                members,
            );
        }
        replay
    }

    /// The first position still holding a net named `name`.
    fn first_net(&mut self, name: &str) -> Option<usize> {
        let held = self.net_positions.get_mut(name)?;
        while let Some(&p) = held.front() {
            if self.positions[p].is_some() {
                return Some(p);
            }
            held.pop_front();
        }
        None
    }

    /// Makes a new net version at `position`, replacing the version held
    /// there, or at a new last position when `position` is `None`.
    fn put_net(
        &mut self,
        position: Option<usize>,
        name: &str,
        weight: f64,
        crit: f64,
        maxlen: Option<f64>,
        members: Vec<usize>,
    ) {
        let v = self.versions.len();
        for &slot in &members {
            self.listed_in[slot].push(v);
        }
        let position = match position {
            Some(p) => {
                if let Some(old) = self.positions[p].replace(v) {
                    self.live_members -= self.versions[old].live;
                }
                p
            }
            None => {
                let p = self.positions.len();
                self.positions.push(Some(v));
                self.net_positions
                    .entry(name.to_string())
                    .or_default()
                    .push_back(p);
                p
            }
        };
        self.live_members += members.len();
        self.versions.push(NetVersion {
            name: name.to_string(),
            weight,
            crit,
            maxlen,
            live: members.len(),
            members,
            all_touched: false,
            position,
        });
    }

    /// Drops the net at `position`; its members no longer count.
    fn drop_net(&mut self, position: usize) {
        if let Some(v) = self.positions[position].take() {
            self.live_members -= self.versions[v].live;
        }
    }

    /// Touches the present members of version `v`, in order, except
    /// `skip`.
    fn touch_members(&mut self, v: usize, skip: Option<usize>) {
        let version = &mut self.versions[v];
        if version.all_touched {
            return;
        }
        for &slot in &version.members {
            if Some(slot) == skip {
                continue;
            }
            if let Some(module) = &self.modules[slot] {
                self.touched_net_members.touch(module.name());
            }
        }
        // After a removal the skipped member is gone, so every present
        // member has been touched.
        version.all_touched = true;
    }

    fn upsert_module(&mut self, module: &Module) {
        match self.module_slot.get(module.name()) {
            Some(&slot) => self.modules[slot] = Some(module.clone()),
            None => {
                self.module_slot
                    .insert(module.name().to_string(), self.modules.len());
                self.modules.push(Some(module.clone()));
                self.listed_in.push(Vec::new());
                self.live_modules += 1;
            }
        }
        self.touched_modules.touch(module.name());
    }

    fn remove_module(&mut self, name: &str) -> Result<(), String> {
        let slot = self
            .module_slot
            .remove(name)
            .ok_or_else(|| format!("mod- '{name}': no such module"))?;
        // Its neighbors lose a connection: touched for wirelength-aware
        // re-placement, net by net in position order.
        let mut nets: Vec<(usize, usize)> = std::mem::take(&mut self.listed_in[slot])
            .into_iter()
            .map(|v| (self.versions[v].position, v))
            .filter(|&(position, v)| self.positions[position] == Some(v))
            .collect();
        nets.sort_unstable();
        for run in nets.chunk_by(|a, b| a == b) {
            let (_, v) = run[0];
            self.touch_members(v, Some(slot));
            self.versions[v].live -= run.len();
            self.live_members -= run.len();
        }
        self.modules[slot] = None;
        self.live_modules -= 1;
        if !self.swept {
            self.swept = true;
            for position in 0..self.positions.len() {
                if self.positions[position].is_some_and(|v| self.versions[v].live < 2) {
                    self.drop_net(position);
                }
            }
        } else {
            for &(position, v) in &nets {
                if self.versions[v].live < 2 {
                    self.drop_net(position);
                }
            }
        }
        Ok(())
    }

    fn upsert_net(
        &mut self,
        name: &str,
        weight: f64,
        crit: f64,
        maxlen: Option<f64>,
        members: &[String],
    ) -> Result<(), String> {
        let mut slots = Vec::with_capacity(members.len());
        for member in members {
            let &slot = self
                .module_slot
                .get(member)
                .ok_or_else(|| format!("net! '{name}': no such module '{member}'"))?;
            self.touched_net_members.touch(member);
            slots.push(slot);
        }
        // Old members are also touched: their pull changed.
        let position = self.first_net(name);
        if let Some(old) = position.and_then(|p| self.positions[p]) {
            self.touch_members(old, None);
        }
        self.put_net(position, name, weight, crit, maxlen, slots);
        Ok(())
    }

    fn remove_net(&mut self, name: &str) -> Result<(), String> {
        let position = self
            .first_net(name)
            .ok_or_else(|| format!("net- '{name}': no such net"))?;
        if let Some(v) = self.positions[position] {
            self.touch_members(v, None);
        }
        self.drop_net(position);
        Ok(())
    }

    /// The edited netlist plus the touched sets. Surviving modules keep
    /// their order, so a module's new id is its rank among the survivors.
    fn finish(self, name: &str) -> Result<DeltaOutcome, String> {
        let invalid = |e| format!("delta produced invalid netlist: {e}");
        let mut netlist = Netlist::new(name);
        let mut id = vec![None; self.modules.len()];
        for (slot, module) in self.modules.into_iter().enumerate() {
            if let Some(module) = module {
                id[slot] = Some(netlist.add_module(module).map_err(invalid)?);
            }
        }
        for &v in self.positions.iter().flatten() {
            let data = &self.versions[v];
            let members = data.members.iter().filter_map(|&slot| id[slot]);
            let mut net = Net::new(&data.name, members).with_weight(data.weight);
            if data.crit > 0.0 {
                net = net.with_criticality(data.crit);
            }
            if let Some(l) = data.maxlen {
                net = net.with_max_length(l);
            }
            netlist.add_net(net).map_err(invalid)?;
        }
        // A touched name that no longer exists (edited then removed, or a
        // removed module's) must not leak into the re-place set.
        Ok(DeltaOutcome {
            netlist,
            touched_modules: self.touched_modules.surviving(&self.module_slot),
            touched_net_members: self.touched_net_members.surviving(&self.module_slot),
        })
    }
}

/// Replays `ops` over `base`, producing the edited netlist and the
/// touched-name sets. Order-preserving: surviving base modules keep their
/// ids, new modules and nets append, so the edited netlist is
/// byte-identical (in [`fp_netlist::format`] and canonical text) to one
/// built from scratch with the same content. The cost is linear in the
/// base plus the script.
///
/// # Errors
///
/// Removing an unknown module/net, upserting a net whose member does not
/// exist (after earlier ops), or an op after which the instance has more
/// than [`MAX_MODULES`](crate::MAX_MODULES) modules or
/// [`MAX_NET_MEMBERS`](crate::MAX_NET_MEMBERS) net members is an error —
/// deltas are strict so a typo cannot silently solve a different instance.
pub fn apply(base: &Netlist, ops: &[DeltaOp]) -> Result<DeltaOutcome, String> {
    replay(base, ops).map_err(|refusal| match refusal {
        Refusal::Script(e) | Refusal::Cap(e) => e,
    })
}

/// [`apply`], telling a script that does not fit the base from one that
/// grows the instance past a cap. The caps bind after every op, so a
/// script that would pass one stops there, before it costs more.
pub(crate) fn replay(base: &Netlist, ops: &[DeltaOp]) -> Result<DeltaOutcome, Refusal> {
    let mut replay = Replay::new(base);
    for op in ops {
        match op {
            DeltaOp::UpsertModule(module) => replay.upsert_module(module),
            DeltaOp::RemoveModule(name) => replay.remove_module(name).map_err(Refusal::Script)?,
            DeltaOp::UpsertNet {
                name,
                weight,
                crit,
                maxlen,
                members,
            } => replay
                .upsert_net(name, *weight, *crit, *maxlen, members)
                .map_err(Refusal::Script)?,
            DeltaOp::RemoveNet(name) => replay.remove_net(name).map_err(Refusal::Script)?,
        }
        caps(replay.live_modules, replay.live_members).map_err(Refusal::Cap)?;
    }
    replay.finish(base.name()).map_err(Refusal::Script)
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
    fn same_named_nets_are_kept_and_edited_first_to_last() {
        let abc = "module a rigid 1 1 rot\n\
                   module b rigid 1 1 rot\n\
                   module c rigid 1 1 rot\n";
        let base = format::parse(&format!("{abc}net n : a b\nnet n : b c\n")).unwrap();
        let edited = |script: &str, scratch: &str| {
            let out = apply(&base, &parse_ops(script).unwrap()).unwrap();
            assert_eq!(out.netlist, format::parse(scratch).unwrap(), "{script}");
            out.touched_net_members
        };
        // An unrelated edit keeps both nets.
        edited(
            "mod! a rigid 1 1 rot",
            &format!("{abc}net n : a b\nnet n : b c\n"),
        );
        // net! replaces the first in place and touches its old members.
        let touched = edited("net! n : a c", &format!("{abc}net n : a c\nnet n : b c\n"));
        assert_eq!(touched, ["a", "c", "b"]);
        // net- drops them one at a time, first to last.
        let touched = edited("net- n", &format!("{abc}net n : b c\n"));
        assert_eq!(touched, ["a", "b"]);
        edited("net- n; net- n", abc);
        assert!(apply(&base, &parse_ops("net- n; net- n; net- n").unwrap()).is_err());
        // Once mod- drops the first, the second is the one edited.
        edited(
            "mod- a; net! n weight 2 : b c",
            "module b rigid 1 1 rot\n\
             module c rigid 1 1 rot\n\
             net n weight 2 : b c\n",
        );
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
