//! The transducer registry: binds `@name(…)` terms in Transducer Datalog
//! programs to concrete generalized transducers (Section 7.1's "special
//! interpreted function symbols, one for each generalized sequence
//! transducer").

use seqlog_sequence::{FxHashMap, Sym};
use seqlog_transducer::{Fst, Network, Transducer};

/// A name → machine mapping used to interpret transducer terms.
///
/// Besides runtime [`Transducer`]s the registry can hold:
///
/// * nondeterministic [`Fst`] *relations* ([`TransducerRegistry::register_fst`])
///   — analyzed by the lint engine (`SL007` fires when a head term calls a
///   non-functional one) and callable only when deterministically
///   representable;
/// * [`Network`]s ([`TransducerRegistry::register_network`]) — unary chains
///   are fused by the transducer algebra at registration time and the fused
///   machine is cached under the network's name.
#[derive(Clone, Default, Debug)]
pub struct TransducerRegistry {
    map: FxHashMap<String, Transducer>,
    fsts: FxHashMap<String, Fst>,
    networks: FxHashMap<String, Network>,
}

impl TransducerRegistry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `machine` under `name` (replacing any previous binding).
    pub fn register(&mut self, name: impl Into<String>, machine: Transducer) {
        self.map.insert(name.into(), machine);
    }

    /// Drop the machine bound to `name`, if any.
    pub(crate) fn unregister(&mut self, name: &str) {
        self.map.remove(name);
    }

    /// Register a finite-state transducer *relation* under `name`. The
    /// machine is kept for analysis (functionality, dead states); when it
    /// is deterministic and representable in the runtime model it is also
    /// lowered to a callable [`Transducer`] under the same name.
    pub fn register_fst(&mut self, name: impl Into<String>, fst: Fst, end_marker: Sym) {
        let name = name.into();
        if let Ok(t) = fst.to_transducer(&name, end_marker) {
            self.map.insert(name.clone(), t);
        }
        self.fsts.insert(name, fst);
    }

    /// Register an acyclic network under its name. When the network is a
    /// unary chain of 1-input order-1 machines, the chain is composed,
    /// trimmed and minimized by the transducer algebra and the fused
    /// machine is cached as a callable [`Transducer`] under the network's
    /// name; other topologies are stored for analysis only.
    pub fn register_network(&mut self, network: Network) {
        let name = network.name().to_string();
        if let Some(machines) = network.chain_machines() {
            let caps = seqlog_transducer::DeterminizeCaps::default();
            if let Ok(fused) = crate::analysis::fuse::fuse_chain(&name, &machines, &caps) {
                self.map.insert(name.clone(), fused);
            }
        }
        self.networks.insert(name, network);
    }

    /// Look up a machine.
    pub fn get(&self, name: &str) -> Option<&Transducer> {
        self.map.get(name)
    }

    /// Look up a registered [`Fst`] relation.
    pub fn fst(&self, name: &str) -> Option<&Fst> {
        self.fsts.get(name)
    }

    /// Look up a registered [`Network`].
    pub fn network(&self, name: &str) -> Option<&Network> {
        self.networks.get(name)
    }

    /// Registered network names (arbitrary order).
    pub fn network_names(&self) -> impl Iterator<Item = &str> {
        self.networks.keys().map(String::as_str)
    }

    /// Registered [`Fst`] relation names (arbitrary order). Disjoint from
    /// [`names`](TransducerRegistry::names) only for relations that do not
    /// lower to a callable machine.
    pub fn fst_names(&self) -> impl Iterator<Item = &str> {
        self.fsts.keys().map(String::as_str)
    }

    /// Registered names (arbitrary order).
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }

    /// Number of registered machines.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no machine is registered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The maximum order among the registered machines used by `names`,
    /// or 0 when none is used (a Sequence Datalog program "has order 0",
    /// Section 7.1).
    pub fn program_order<'a>(&self, names: impl Iterator<Item = &'a str>) -> usize {
        names
            .filter_map(|n| self.map.get(n))
            .map(Transducer::order)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seqlog_sequence::Alphabet;
    use seqlog_transducer::library;

    #[test]
    fn register_and_lookup() {
        let mut a = Alphabet::new();
        let mut reg = TransducerRegistry::new();
        assert!(reg.is_empty());
        reg.register("transcribe", library::transcribe(&mut a));
        assert_eq!(reg.len(), 1);
        assert!(reg.get("transcribe").is_some());
        assert!(reg.get("nope").is_none());
    }

    #[test]
    fn program_order_is_max_machine_order() {
        let mut a = Alphabet::new();
        let syms: Vec<_> = "ab".chars().map(|c| a.intern_char(c)).collect();
        let mut reg = TransducerRegistry::new();
        reg.register("copy", library::copy(&mut a, &syms));
        reg.register("square", library::square(&mut a, &syms));
        assert_eq!(reg.program_order(["copy"].into_iter()), 1);
        assert_eq!(reg.program_order(["copy", "square"].into_iter()), 2);
        assert_eq!(reg.program_order([].into_iter()), 0);
    }
}
