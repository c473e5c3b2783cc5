//! The predicate dependency graph over dense node ids (Definition 9).
//!
//! This is the **one** graph implementation in the crate: the
//! compile-time [`super::Schedule`] and [`super::ProgramReport`] build a
//! [`PredGraph`] over [`crate::compile::PredId`] nodes and share its
//! condensation, so strongly connected components, topological stratum
//! levels, and constructive-cycle detection run without hashing a
//! predicate-name `String`. [`super::ProgramReport::pred_name`] names a
//! node for printing.

use seqlog_sequence::FxHashMap;

/// One edge of the dependency graph: `from` (a head predicate) depends on
/// `to` (a body predicate of some clause with that head). Parallel edges
/// are merged; `constructive` records whether *some* merged clause is
/// constructive (Definition 8).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DepEdge {
    /// Head-predicate node id.
    pub from: u32,
    /// Body-predicate node id.
    pub to: u32,
    /// True when some clause inducing this edge is constructive.
    pub constructive: bool,
}

/// Accumulates clause dependencies into a deduplicated [`PredGraph`].
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    nodes: usize,
    edges: FxHashMap<(u32, u32), bool>,
}

impl GraphBuilder {
    /// A builder over `nodes` dense node ids (`0..nodes`).
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            edges: FxHashMap::default(),
        }
    }

    /// Record that `from` depends on `to` through a (possibly constructive)
    /// clause. Parallel edges merge with `constructive = true` winning.
    pub fn edge(&mut self, from: u32, to: u32, constructive: bool) {
        *self.edges.entry((from, to)).or_insert(false) |= constructive;
    }

    /// Finish into a [`PredGraph`] with edges sorted by `(from, to)`.
    pub fn finish(self) -> PredGraph {
        let mut edges: Vec<DepEdge> = self
            .edges
            .into_iter()
            .map(|((from, to), constructive)| DepEdge {
                from,
                to,
                constructive,
            })
            .collect();
        edges.sort_by_key(|e| (e.from, e.to));
        PredGraph {
            nodes: self.nodes,
            edges,
        }
    }
}

/// The predicate dependency graph (Definition 9) over dense node ids.
#[derive(Clone, Debug, Default)]
pub struct PredGraph {
    nodes: usize,
    /// Deduplicated edges, sorted by `(from, to)`.
    edges: Vec<DepEdge>,
}

impl PredGraph {
    /// Number of nodes (`0..n` are valid ids whether or not they occur in
    /// an edge — database-only predicates participate as isolated source
    /// nodes).
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// The deduplicated edges, sorted by `(from, to)`.
    pub fn edges(&self) -> &[DepEdge] {
        &self.edges
    }

    /// Condense the graph into strongly connected components (iterative
    /// Tarjan). Component ids come out in **reverse topological order**:
    /// callees (dependencies) receive smaller ids than their callers, so
    /// iterating components in increasing id order visits every
    /// component's successors before the component itself.
    pub fn condense(&self) -> Condensation {
        let n = self.nodes;
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for e in &self.edges {
            adj[e.from as usize].push(e.to);
        }

        let mut comp = vec![u32::MAX; n];
        let mut low = vec![0u32; n];
        let mut disc = vec![u32::MAX; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut counter = 0u32;
        let mut next_comp = 0u32;

        for root in 0..n {
            if disc[root] != u32::MAX {
                continue;
            }
            // Explicit call stack: (node, next child index).
            let mut call: Vec<(u32, usize)> = vec![(root as u32, 0)];
            while let Some(&mut (v, ref mut ci)) = call.last_mut() {
                let vi = v as usize;
                if *ci == 0 {
                    disc[vi] = counter;
                    low[vi] = counter;
                    counter += 1;
                    stack.push(v);
                    on_stack[vi] = true;
                }
                if *ci < adj[vi].len() {
                    let w = adj[vi][*ci];
                    *ci += 1;
                    let wi = w as usize;
                    if disc[wi] == u32::MAX {
                        call.push((w, 0));
                    } else if on_stack[wi] {
                        low[vi] = low[vi].min(disc[wi]);
                    }
                } else {
                    if low[vi] == disc[vi] {
                        while let Some(w) = stack.pop() {
                            on_stack[w as usize] = false;
                            comp[w as usize] = next_comp;
                            if w == v {
                                break;
                            }
                        }
                        next_comp += 1;
                    }
                    call.pop();
                    if let Some(&mut (parent, _)) = call.last_mut() {
                        let pi = parent as usize;
                        low[pi] = low[pi].min(low[vi]);
                    }
                }
            }
        }

        // Stratum levels: a component's level is 1 + the maximum level of
        // its (cross-component) successors; components without successors
        // — sources, including database-only predicates — sit at level 0.
        // Increasing component id sees successors first (reverse topology).
        let ncomp = next_comp as usize;
        let mut level = vec![0u32; ncomp];
        for e in &self.edges {
            let (a, b) = (comp[e.from as usize], comp[e.to as usize]);
            if a != b {
                level[a as usize] = level[a as usize].max(level[b as usize] + 1);
            }
        }
        // The max-over-successors recurrence above is order-sensitive only
        // through already-final successor levels; a second sweep is not
        // needed because `b < a` for every cross-component edge.
        Condensation {
            comp,
            n_comps: ncomp,
            levels: level,
        }
    }

    /// The constructive edges lying inside a strongly connected component —
    /// each witnesses a constructive cycle (Definition 10), so the list is
    /// empty iff the program is strongly safe.
    pub fn constructive_cycle_edges(&self, cond: &Condensation) -> Vec<DepEdge> {
        self.edges
            .iter()
            .filter(|e| e.constructive && cond.comp[e.from as usize] == cond.comp[e.to as usize])
            .copied()
            .collect()
    }
}

/// The SCC condensation of a [`PredGraph`], with topological stratum
/// levels.
#[derive(Clone, Debug, Default)]
pub struct Condensation {
    /// Component id per node. Ids are in reverse topological order:
    /// `comp[to] <= comp[from]` for every edge, with equality exactly
    /// inside an SCC.
    pub comp: Vec<u32>,
    /// Number of components.
    pub n_comps: usize,
    /// Stratum level per component id: sources (no outgoing
    /// cross-component edges) at 0, every other component one above its
    /// highest successor.
    pub levels: Vec<u32>,
}

impl Condensation {
    /// The stratum level of a node.
    pub fn level_of(&self, node: u32) -> u32 {
        self.levels[self.comp[node as usize] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(u32, u32, bool)]) -> PredGraph {
        let mut b = GraphBuilder::new(n);
        for &(f, t, c) in edges {
            b.edge(f, t, c);
        }
        b.finish()
    }

    #[test]
    fn parallel_edges_merge_constructively() {
        let g = graph(2, &[(0, 1, false), (0, 1, true)]);
        assert_eq!(g.edges().len(), 1);
        assert!(g.edges()[0].constructive);
    }

    #[test]
    fn condensation_orders_callees_first() {
        // 2 -> 1 -> 0: component ids must increase along the caller chain.
        let g = graph(3, &[(2, 1, false), (1, 0, false)]);
        let c = g.condense();
        assert_eq!(c.n_comps, 3);
        assert!(c.comp[0] < c.comp[1]);
        assert!(c.comp[1] < c.comp[2]);
        assert_eq!(c.level_of(0), 0);
        assert_eq!(c.level_of(1), 1);
        assert_eq!(c.level_of(2), 2);
    }

    #[test]
    fn cycles_collapse_and_isolated_nodes_are_sources() {
        // 0 <-> 1 feeding from 2; node 3 is isolated (database-only).
        let g = graph(4, &[(0, 1, false), (1, 0, false), (0, 2, false)]);
        let c = g.condense();
        assert_eq!(c.comp[0], c.comp[1]);
        assert_ne!(c.comp[0], c.comp[2]);
        assert_eq!(c.level_of(2), 0);
        assert_eq!(c.level_of(3), 0);
        assert_eq!(c.level_of(0), 1);
    }

    #[test]
    fn constructive_cycle_edges_detect_self_loops() {
        let g = graph(2, &[(0, 0, true), (0, 1, true)]);
        let c = g.condense();
        let bad = g.constructive_cycle_edges(&c);
        assert_eq!(bad.len(), 1);
        assert_eq!((bad[0].from, bad[0].to), (0, 0));
    }
}
