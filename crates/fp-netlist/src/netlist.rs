//! The netlist container: modules + nets + derived connectivity.

use crate::error::NetlistError;
use crate::module::{Module, ModuleId};
use crate::net::{Net, NetId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// A complete floorplanning problem instance: modules, nets, and the
/// derived pairwise connectivity `c_ij` (number of common nets, weighted).
///
/// ```
/// use fp_netlist::{Module, Net, Netlist, ModuleId};
/// # fn main() -> Result<(), fp_netlist::NetlistError> {
/// let mut nl = Netlist::new("demo");
/// let a = nl.add_module(Module::rigid("a", 2.0, 2.0, true))?;
/// let b = nl.add_module(Module::rigid("b", 3.0, 1.0, true))?;
/// nl.add_net(Net::new("ab", [a, b]))?;
/// assert_eq!(nl.connectivity_matrix()[a.index()][b.index()], 1.0);
/// assert_eq!(nl.total_module_area(), 7.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Netlist {
    name: String,
    modules: Vec<Module>,
    nets: Vec<Net>,
    /// Module name → id, so adding a module and looking one up by name
    /// cost the same however many modules came before.
    ids: HashMap<String, ModuleId>,
}

impl Netlist {
    /// Creates an empty netlist.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            modules: Vec::new(),
            nets: Vec::new(),
            ids: HashMap::new(),
        }
    }

    /// The instance name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the instance.
    pub(crate) fn set_name(&mut self, name: &str) {
        name.clone_into(&mut self.name);
    }

    /// Adds a module, returning its id.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DuplicateModule`] if the name is already taken.
    pub fn add_module(&mut self, module: Module) -> Result<ModuleId, NetlistError> {
        let id = ModuleId(self.modules.len());
        match self.ids.entry(module.name().to_string()) {
            Entry::Occupied(e) => Err(NetlistError::DuplicateModule(e.key().clone())),
            Entry::Vacant(e) => {
                e.insert(id);
                self.modules.push(module);
                Ok(id)
            }
        }
    }

    /// Adds a net, returning its id.
    ///
    /// # Errors
    ///
    /// [`NetlistError::UnknownModule`] if the net references a module index
    /// outside this netlist.
    pub fn add_net(&mut self, net: Net) -> Result<NetId, NetlistError> {
        for &m in net.modules() {
            if m.index() >= self.modules.len() {
                return Err(NetlistError::UnknownModule {
                    net: net.name().to_string(),
                    index: m.index(),
                });
            }
        }
        self.nets.push(net);
        Ok(NetId(self.nets.len() - 1))
    }

    /// Number of modules `K`.
    #[must_use]
    pub fn num_modules(&self) -> usize {
        self.modules.len()
    }

    /// Number of nets.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// The module with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn module(&self, id: ModuleId) -> &Module {
        &self.modules[id.index()]
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Looks up a module id by name.
    #[must_use]
    pub fn module_by_name(&self, name: &str) -> Option<ModuleId> {
        self.ids.get(name).copied()
    }

    /// Iterates over `(id, module)` pairs.
    pub fn modules(&self) -> impl Iterator<Item = (ModuleId, &Module)> {
        self.modules
            .iter()
            .enumerate()
            .map(|(i, m)| (ModuleId(i), m))
    }

    /// Iterates over `(id, net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter().enumerate().map(|(i, n)| (NetId(i), n))
    }

    /// All module ids in index order.
    #[must_use]
    pub fn module_ids(&self) -> Vec<ModuleId> {
        (0..self.modules.len()).map(ModuleId).collect()
    }

    /// The paper's `c_ij` for every module pair: entry `[i][j]` is the
    /// weighted number of nets shared by modules `i` and `j` (0 on the
    /// diagonal). One pass over the nets; each entry sums its nets' weights
    /// in net order.
    #[must_use]
    pub fn connectivity_matrix(&self) -> Vec<Vec<f64>> {
        let k = self.num_modules();
        let mut c = vec![vec![0.0; k]; k];
        for net in &self.nets {
            let ms = net.modules();
            for (a, &mi) in ms.iter().enumerate() {
                for &mj in &ms[a + 1..] {
                    c[mi.index()][mj.index()] += net.weight();
                    c[mj.index()][mi.index()] += net.weight();
                }
            }
        }
        c
    }

    /// Sum of all module areas (the paper quotes 11520 for ami33).
    #[must_use]
    pub fn total_module_area(&self) -> f64 {
        self.modules.iter().map(Module::area).sum()
    }

    /// Nets touching a module, in index order.
    #[must_use]
    pub fn nets_of(&self, id: ModuleId) -> Vec<NetId> {
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| n.connects(id))
            .map(|(i, _)| NetId(i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three_module_netlist() -> (Netlist, ModuleId, ModuleId, ModuleId) {
        let mut nl = Netlist::new("t");
        let a = nl.add_module(Module::rigid("a", 1.0, 1.0, true)).unwrap();
        let b = nl.add_module(Module::rigid("b", 2.0, 1.0, true)).unwrap();
        let c = nl.add_module(Module::flexible("c", 4.0, 0.5, 2.0)).unwrap();
        nl.add_net(Net::new("n0", [a, b])).unwrap();
        nl.add_net(Net::new("n1", [a, b, c]).with_weight(2.0))
            .unwrap();
        nl.add_net(Net::new("n2", [b, c])).unwrap();
        (nl, a, b, c)
    }

    #[test]
    fn connectivity_counts_common_nets() {
        let (nl, a, b, c) = three_module_netlist();
        let m = nl.connectivity_matrix();
        let conn = |i: ModuleId, j: ModuleId| m[i.index()][j.index()];
        assert_eq!(conn(a, b), 3.0); // n0 (1) + n1 (2)
        assert_eq!(conn(a, c), 2.0); // n1 (2)
        assert_eq!(conn(b, c), 3.0); // n1 (2) + n2 (1)
        for &i in &[a, b, c] {
            assert_eq!(conn(i, i), 0.0);
            for &j in &[a, b, c] {
                assert_eq!(conn(i, j), conn(j, i));
            }
        }
    }

    #[test]
    fn duplicate_module_rejected() {
        let mut nl = Netlist::new("t");
        nl.add_module(Module::rigid("x", 1.0, 1.0, false)).unwrap();
        assert!(matches!(
            nl.add_module(Module::rigid("x", 2.0, 2.0, false)),
            Err(NetlistError::DuplicateModule(_))
        ));
    }

    #[test]
    fn dangling_net_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_module(Module::rigid("a", 1.0, 1.0, false)).unwrap();
        let err = nl.add_net(Net::new("bad", [a, ModuleId(7)])).unwrap_err();
        assert!(matches!(err, NetlistError::UnknownModule { index: 7, .. }));
    }

    #[test]
    fn lookups_and_areas() {
        let (nl, a, _, c) = three_module_netlist();
        assert_eq!(nl.module_by_name("a"), Some(a));
        assert_eq!(nl.module_by_name("zz"), None);
        assert_eq!(nl.total_module_area(), 1.0 + 2.0 + 4.0);
        assert_eq!(nl.nets_of(c).len(), 2);
    }
}
