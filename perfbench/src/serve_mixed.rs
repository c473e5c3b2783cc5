//! `serve-mixed`: a durable session serving an ancestor closure over chain
//! graphs.
//!
//! Every chain `n0 → n1 → … → nL` comes with a detached stub edge `u → v`.
//! An update attaches the stub (`nL → u`, plus `u → v` again) and runs; a
//! retraction later in the same cycle removes `nL → u`, so the session
//! returns to its settled size every cycle. Point queries bind the first
//! argument of `anc`; their answer is the rest of the chain, plus the stub
//! while it is attached. One query follows the update (from the chain's
//! head), one the retraction (from a random node: the retracted edge's
//! tuples must be gone). Every eighth cycle adds one batch evaluation of
//! the base graph.

use crate::util::{Extent, Rng};
use crate::workload::{Op, Spec};
use crate::Size;
use std::collections::HashSet;

const PROGRAM: &str = "anc(X, Y) :- edge(X, Y).\n\
                       anc(X, Z) :- edge(X, Y), anc(Y, Z).\n";
const NAME: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const EVAL_EVERY: usize = 8;

/// Cycles per second of `--seconds`, measured at the commit that defined
/// the benchmark (2-CPU container).
pub const CYCLES_PER_SECOND: f64 = 12.5;

struct Chain {
    nodes: Vec<String>,
    u: String,
    v: String,
}

impl Chain {
    /// `anc(nodes[from], _)`, with or without the stub attached.
    fn reach(&self, from: usize, attached: bool) -> Extent {
        let x = &self.nodes[from];
        let mut e = Extent::default();
        for y in &self.nodes[from + 1..] {
            e.add(&[x, y]);
        }
        if attached {
            e.add(&[x, &self.u]);
            e.add(&[x, &self.v]);
        }
        e
    }
}

pub fn spec(seed: u64, size: Size, cycles: usize) -> Spec {
    let (count, len) = match size {
        Size::Full => (500, 12),
        Size::Tiny => (6, 3),
    };
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::new();
    let mut name = |rng: &mut Rng| loop {
        let n = rng.word(NAME, 8);
        if seen.insert(n.clone()) {
            return n;
        }
    };
    let chains: Vec<Chain> = (0..count)
        .map(|_| Chain {
            nodes: (0..=len).map(|_| name(&mut rng)).collect(),
            u: name(&mut rng),
            v: name(&mut rng),
        })
        .collect();

    let mut base = Vec::new();
    let mut edge = Extent::default();
    let mut anc = Extent::default();
    for ch in &chains {
        for w in ch.nodes.windows(2) {
            base.push(("edge", vec![w[0].clone(), w[1].clone()]));
            edge.add(w);
        }
        base.push(("edge", vec![ch.u.clone(), ch.v.clone()]));
        edge.add(&[&ch.u, &ch.v]);
        anc.add(&[&ch.u, &ch.v]);
        for i in 0..len {
            let r = ch.reach(i, false);
            anc.rows += r.rows;
            anc.digest = anc.digest.wrapping_add(r.digest);
        }
    }
    let settled_facts = edge.rows + anc.rows;
    // Attaching adds the edge nL → u and anc(ni, u), anc(ni, v) for every
    // chain node.
    let attached_facts = settled_facts + 1 + 2 * (len + 1);

    let mut script = Vec::with_capacity(cycles);
    let last_eval = (cycles.max(1) - 1) / EVAL_EVERY * EVAL_EVERY;
    for c in 0..cycles {
        let a = &chains[rng.below(count)];
        let at = rng.below(len);
        let hook = vec![a.nodes[len].clone(), a.u.clone()];
        let query = |from: usize, attached: bool| Op::Query {
            pred: "anc",
            key: a.nodes[from].clone(),
            expect: a.reach(from, attached),
        };
        let mut ops = vec![
            Op::Update {
                facts: vec![
                    ("edge", hook.clone()),
                    ("edge", vec![a.u.clone(), a.v.clone()]),
                ],
                expect_facts: attached_facts,
            },
            query(0, true),
            Op::Retract {
                fact: ("edge", hook),
                expect_facts: settled_facts,
            },
            query(at, false),
        ];
        if c % EVAL_EVERY == 0 {
            ops.push(Op::Eval {
                full: c == 0 || c == last_eval,
            });
        }
        script.push(ops);
    }

    Spec {
        program: PROGRAM,
        transducers: false,
        warm_query: Op::Query {
            pred: "anc",
            key: chains[0].nodes[0].clone(),
            expect: chains[0].reach(0, false),
        },
        base,
        settled: vec![("edge", edge), ("anc", anc)],
        settled_facts,
        cycles: script,
        reads: Vec::new(),
        proteins: Vec::new(),
    }
}
