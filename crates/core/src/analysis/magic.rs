//! The magic-set transformation: demand-driven (goal-directed) rewriting
//! of a compiled program, IR-to-IR.
//!
//! Given a goal `p` adorned by a query pattern ([`crate::analysis::adorn`]),
//! the transformation emits an ordinary [`CompiledProgram`] whose least
//! fixpoint agrees with the original program's on every tuple of `p`
//! matching the pattern, while deriving (ideally) far fewer facts:
//!
//! * one fresh **magic predicate** `magic[q:a]` per reached pair
//!   `(q, a)`, holding the bound-argument demands on `q`;
//! * a **guarded variant** of each clause of a reached pair — the original
//!   clause with the magic guard atom prepended, so it only fires for
//!   demanded bindings;
//! * a **magic rule** per demanded body atom, deriving its demand from
//!   the head's demand plus the SIP prefix of the body.
//!
//! # Soundness gate (the fallback rule)
//!
//! Sequence Datalog evaluates over the *extended active domain*
//! (Definition 2): indexed terms may range over windows of the domain,
//! and constructive clauses grow it mid-evaluation. A demand restriction
//! that shrinks the derived fact set can therefore shrink the domain and
//! lose answers — under-approximation is the bug class here. Two
//! conservative rules keep the rewrite an over-approximation of the
//! goal's true extent:
//!
//! * **Full fallback**: if any stratum in the goal's dependency cone is
//!   `domain_sensitive` (a clause reads the global domain directly), the
//!   whole program is kept unguarded — demand evaluation degenerates to
//!   the batch fixpoint, which is always correct. Domain-sensitive
//!   clauses observe the *global* domain, including growth contributed by
//!   clauses outside the goal's cone, so no per-stratum restriction is
//!   sound for them.
//! * **Constructive closure**: otherwise, every cone stratum flagged
//!   `constructive` — plus everything it reads, transitively — is kept
//!   unguarded (evaluated in full); only the remaining cone strata are
//!   magic-guarded. A constructive clause's outputs feed the domain that
//!   *other* clauses' indexed terms window over, so its inputs must not
//!   be demand-restricted.
//!
//! Clauses outside the goal's cone are dropped entirely (unless the full
//! fallback triggers): non-constructive, non-domain-sensitive clauses
//! only ever derive windows of sequences already interned by the base
//! facts and the surviving clauses, so dropping them cannot starve the
//! cone.

use crate::analysis::adorn::{adorn, bound_args, AdornedProgram, Adornment};
use crate::analysis::Schedule;
use crate::compile::{CAtom, CBase, CBody, CIdx, CSeq, CompiledClause, CompiledProgram, PredId};
use seqlog_sequence::SeqId;
use std::collections::HashMap;

/// The matcher's body-literal limit (a 128-bit solve mask); prepending a
/// guard to a body already at the limit would overflow it, so such
/// clauses fall back to full evaluation instead.
const BODY_LIMIT: usize = 128;

/// A magic-transformed program, ready for the ordinary stratified
/// evaluator, plus the metadata needed to seed and read it.
#[derive(Clone, Debug)]
pub struct MagicProgram {
    /// The transformed program. Its predicate table is a prefix-compatible
    /// extension of the source program's: original `PredId`s stay valid.
    pub program: CompiledProgram,
    /// The query goal predicate (original id).
    pub goal: PredId,
    /// The goal's adornment.
    pub pattern: Adornment,
    /// The goal's magic predicate: seed it with one fact holding the
    /// query's bound values (in bound-position order) before running.
    pub seed: PredId,
    /// Per original predicate: kept unguarded (evaluated in full) by the
    /// fallback gate.
    pub full: Vec<bool>,
    /// The whole program fell back (a domain-sensitive stratum in the
    /// goal's cone): the transformed program is the original program plus
    /// an inert seed predicate.
    pub full_fallback: bool,
    /// The adornment pass's output, for rendering and inspection.
    pub adorned: AdornedProgram,
}

/// Record every variable occurrence of `t` into the slot-occurrence maps.
fn mark(t: &CSeq, occurs_seq: &mut [bool], occurs_idx: &mut [bool]) {
    let mut sv = Vec::new();
    let mut iv = Vec::new();
    t.seq_vars(&mut sv);
    t.idx_vars(&mut iv);
    for &v in &sv {
        occurs_seq[v as usize] = true;
    }
    for &v in &iv {
        occurs_idx[v as usize] = true;
    }
}

/// Build a synthesized clause over its actual head and body. Variable
/// slots inherited from the source clause that no longer occur anywhere
/// in it are dropped, and the safety flags are derived over what remains
/// by [`CompiledClause::new`], the constructor the compiler uses.
fn synth_clause(mut head: CAtom, mut body: Vec<CBody>, src: &CompiledClause) -> CompiledClause {
    let mut occurs_seq = vec![false; src.n_seq];
    let mut occurs_idx = vec![false; src.n_idx];
    for t in &head.args {
        mark(t, &mut occurs_seq, &mut occurs_idx);
    }
    for lit in &body {
        match lit {
            CBody::Atom(a) => {
                for t in &a.args {
                    mark(t, &mut occurs_seq, &mut occurs_idx);
                }
            }
            CBody::Eq(l, r) | CBody::Neq(l, r) => {
                mark(l, &mut occurs_seq, &mut occurs_idx);
                mark(r, &mut occurs_seq, &mut occurs_idx);
            }
        }
    }
    // Compact the variable slots: a magic rule typically uses only a
    // subset of the source clause's variables (e.g. the head variable
    // `X` of `anc(X, Z) :- anc(X, Y), edge(Y, Z).` never appears in the
    // rule demanding `anc`'s second argument).  The matcher plans
    // bindings for every declared slot, so unused slots must not
    // survive — renumber head and body to the occurring subset.
    let mut seq_map = vec![0u16; src.n_seq];
    let mut idx_map = vec![0u16; src.n_idx];
    let mut seq_names = Vec::new();
    let mut idx_names = Vec::new();
    for v in 0..src.n_seq {
        if occurs_seq[v] {
            seq_map[v] = seq_names.len() as u16;
            seq_names.push(src.seq_names[v].clone());
        }
    }
    for v in 0..src.n_idx {
        if occurs_idx[v] {
            idx_map[v] = idx_names.len() as u16;
            idx_names.push(src.idx_names[v].clone());
        }
    }
    for t in &mut head.args {
        remap_seq(t, &seq_map, &idx_map);
    }
    for lit in &mut body {
        match lit {
            CBody::Atom(a) => {
                for t in &mut a.args {
                    remap_seq(t, &seq_map, &idx_map);
                }
            }
            CBody::Eq(l, r) | CBody::Neq(l, r) => {
                remap_seq(l, &seq_map, &idx_map);
                remap_seq(r, &seq_map, &idx_map);
            }
        }
    }
    CompiledClause::new(head, body, seq_names, idx_names)
}

/// Renumber every variable slot in `t` through the compaction maps.
fn remap_seq(t: &mut CSeq, seq_map: &[u16], idx_map: &[u16]) {
    match t {
        CSeq::Const(_) => {}
        CSeq::Var(v) => *v = seq_map[*v as usize],
        CSeq::Indexed { base, lo, hi } => {
            if let CBase::Var(v) = base {
                *v = seq_map[*v as usize];
            }
            remap_idx(lo, idx_map);
            remap_idx(hi, idx_map);
        }
        CSeq::Concat(l, r) => {
            remap_seq(l, seq_map, idx_map);
            remap_seq(r, seq_map, idx_map);
        }
        CSeq::Transducer { args, .. } => {
            for a in args {
                remap_seq(a, seq_map, idx_map);
            }
        }
    }
}

fn remap_idx(t: &mut CIdx, idx_map: &[u16]) {
    match t {
        CIdx::Int(_) | CIdx::End => {}
        CIdx::Var(v) => *v = idx_map[*v as usize],
        CIdx::Add(l, r) | CIdx::Sub(l, r) => {
            remap_idx(l, idx_map);
            remap_idx(r, idx_map);
        }
    }
}

/// The goal's dependency cone: predicates reachable from `goal` through
/// clause bodies (including the goal itself).
fn cone_of(program: &CompiledProgram, goal: PredId) -> Vec<bool> {
    let n = program.preds.len();
    let mut cone = vec![false; n];
    let mut stack = vec![goal];
    cone[goal.index()] = true;
    while let Some(p) = stack.pop() {
        for clause in &program.clauses {
            if clause.head.pred != p {
                continue;
            }
            for lit in &clause.body {
                if let CBody::Atom(a) = lit {
                    if !cone[a.pred.index()] {
                        cone[a.pred.index()] = true;
                        stack.push(a.pred);
                    }
                }
            }
        }
    }
    cone
}

/// Apply the magic-set transformation for `goal` queried with `pattern`.
pub fn magic_transform(
    program: &CompiledProgram,
    goal: PredId,
    pattern: &Adornment,
) -> MagicProgram {
    let n = program.preds.len();
    let mut has_clause = vec![false; n];
    for clause in &program.clauses {
        has_clause[clause.head.pred.index()] = true;
    }
    let cone = cone_of(program, goal);
    let schedule = &program.schedule;

    let full_fallback = (0..n).any(|p| {
        cone[p] && schedule.strata[schedule.stratum_of(PredId(p as u32))].domain_sensitive
    });

    // F: predicates evaluated in full. Seeded by constructive cone strata
    // and by clauses too long to guard, then closed downward (stratum
    // mates, then body predicates of F-headed clauses).
    let mut full = vec![false; n];
    if full_fallback {
        full.copy_from_slice(&has_clause[..n]);
    } else {
        let mut stack = Vec::new();
        for p in 0..n {
            if cone[p]
                && has_clause[p]
                && schedule.strata[schedule.stratum_of(PredId(p as u32))].constructive
            {
                full[p] = true;
                stack.push(PredId(p as u32));
            }
        }
        for clause in &program.clauses {
            let h = clause.head.pred;
            if cone[h.index()] && clause.body.len() >= BODY_LIMIT && !full[h.index()] {
                full[h.index()] = true;
                stack.push(h);
            }
        }
        while let Some(p) = stack.pop() {
            for &q in &schedule.strata[schedule.stratum_of(p)].preds {
                if has_clause[q.index()] && !full[q.index()] {
                    full[q.index()] = true;
                    stack.push(q);
                }
            }
            for clause in &program.clauses {
                if clause.head.pred != p {
                    continue;
                }
                for lit in &clause.body {
                    if let CBody::Atom(a) = lit {
                        if has_clause[a.pred.index()] && !full[a.pred.index()] {
                            full[a.pred.index()] = true;
                            stack.push(a.pred);
                        }
                    }
                }
            }
        }
    }

    let transformable: Vec<bool> = (0..n)
        .map(|p| has_clause[p] && !full[p] && !full_fallback)
        .collect();
    let adorned = adorn(program, goal, pattern, &transformable);

    let mut preds = program.preds.clone();
    let mut magic_ids: HashMap<(PredId, Adornment), PredId> = HashMap::new();
    for (p, a) in &adorned.reached {
        let id = preds.intern(&format!("magic[{}:{a}]", program.preds.name(*p)));
        magic_ids.insert((*p, a.clone()), id);
    }
    let seed = magic_ids
        .get(&(goal, pattern.clone()))
        .copied()
        .unwrap_or_else(|| preds.intern(&format!("magic[{}:{pattern}]", program.preds.name(goal))));

    let mut clauses = Vec::new();
    // Unguarded originals first (source order), then guarded variants and
    // magic rules in adornment discovery order.
    for clause in &program.clauses {
        if full[clause.head.pred.index()] {
            clauses.push(clause.clone());
        }
    }
    for ac in &adorned.clauses {
        let src = &program.clauses[ac.clause as usize];
        let guard = CAtom {
            pred: magic_ids[&(src.head.pred, ac.adornment.clone())],
            args: bound_args(&src.head, &ac.adornment),
        };
        let mut body = Vec::with_capacity(src.body.len() + 1);
        body.push(CBody::Atom(guard.clone()));
        body.extend(src.body.iter().cloned());
        clauses.push(synth_clause(src.head.clone(), body, src));
        // Magic rules: one per demanded body atom, deriving its demand
        // from the head's demand plus the SIP prefix before the atom.
        let mut prefix: Vec<CBody> = vec![CBody::Atom(guard)];
        for &li in &ac.sip {
            let lit = &src.body[li as usize];
            if let (CBody::Atom(a), Some(ba)) = (lit, &ac.body_adornments[li as usize]) {
                if let Some(&mid) = magic_ids.get(&(a.pred, ba.clone())) {
                    let rule_head = CAtom {
                        pred: mid,
                        args: bound_args(a, ba),
                    };
                    clauses.push(synth_clause(rule_head, prefix.clone(), src));
                }
            }
            prefix.push(lit.clone());
        }
    }

    let schedule = Schedule::build(&clauses, preds.len());
    MagicProgram {
        program: CompiledProgram {
            clauses,
            preds,
            schedule,
        },
        goal,
        pattern: pattern.clone(),
        seed,
        full,
        full_fallback,
        adorned,
    }
}

impl MagicProgram {
    /// Names of the predicates kept in full (fallback) evaluation, in id
    /// order — what `analyze --check` pins with `% expect-fallback:`.
    pub fn fallback_names(&self) -> Vec<&str> {
        let src_preds = &self.program.preds;
        self.full
            .iter()
            .enumerate()
            .filter(|(_, &f)| f)
            .map(|(p, _)| src_preds.name(PredId(p as u32)))
            .collect()
    }

    /// Render the transformed program, one clause per line, using `seq`
    /// to print interned sequence constants.
    pub fn render(&self, seq: &dyn Fn(SeqId) -> String) -> String {
        let mut out = String::new();
        for clause in &self.program.clauses {
            out.push_str(&render_clause(&self.program, clause, seq));
            out.push('\n');
        }
        out
    }
}

/// Render one compiled clause back to concrete syntax, resolving
/// predicate names against `program.preds` and sequence constants through
/// `seq`. Used by the golden transformation tests and `analyze --adorn`.
pub fn render_clause(
    program: &CompiledProgram,
    clause: &CompiledClause,
    seq: &dyn Fn(SeqId) -> String,
) -> String {
    fn idx(t: &CIdx, names: &[String]) -> String {
        match t {
            CIdx::Int(i) => i.to_string(),
            CIdx::Var(v) => names[*v as usize].clone(),
            CIdx::End => "end".to_string(),
            CIdx::Add(a, b) => format!("{} + {}", idx(a, names), idx(b, names)),
            CIdx::Sub(a, b) => format!("{} - {}", idx(a, names), idx(b, names)),
        }
    }
    fn term(t: &CSeq, c: &CompiledClause, seq: &dyn Fn(SeqId) -> String) -> String {
        match t {
            CSeq::Const(id) => format!("{:?}", seq(*id)),
            CSeq::Var(v) => c.seq_names[*v as usize].clone(),
            CSeq::Indexed { base, lo, hi } => {
                let b = match base {
                    CBase::Var(v) => c.seq_names[*v as usize].clone(),
                    CBase::Const(id) => format!("{:?}", seq(*id)),
                };
                format!("{b}[{}:{}]", idx(lo, &c.idx_names), idx(hi, &c.idx_names))
            }
            CSeq::Concat(a, b) => format!("{} ++ {}", term(a, c, seq), term(b, c, seq)),
            CSeq::Transducer { name, args } => {
                let args: Vec<_> = args.iter().map(|a| term(a, c, seq)).collect();
                format!("@{name}({})", args.join(", "))
            }
        }
    }
    fn atom(
        a: &CAtom,
        p: &CompiledProgram,
        c: &CompiledClause,
        seq: &dyn Fn(SeqId) -> String,
    ) -> String {
        let args: Vec<_> = a.args.iter().map(|t| term(t, c, seq)).collect();
        format!("{}({})", p.preds.name(a.pred), args.join(", "))
    }
    let head = atom(&clause.head, program, clause, seq);
    if clause.body.is_empty() {
        return format!("{head}.");
    }
    let body: Vec<_> = clause
        .body
        .iter()
        .map(|lit| match lit {
            CBody::Atom(a) => atom(a, program, clause, seq),
            CBody::Eq(l, r) => format!("{} = {}", term(l, clause, seq), term(r, clause, seq)),
            CBody::Neq(l, r) => format!("{} != {}", term(l, clause, seq), term(r, clause, seq)),
        })
        .collect();
    format!("{head} :- {}.", body.join(", "))
}
