//! Validation and compilation of programs for the evaluator.
//!
//! Compilation performs the static checks of Section 3.1 and Section 7.1:
//!
//! * constructive (`++`) and transducer terms may appear **only in heads**;
//! * every variable is used consistently as either a sequence variable or an
//!   index variable (the paper's V_Σ / V_I are disjoint; we infer the kind
//!   from positions instead of requiring an annotation);
//!
//! and resolves variable names to dense slots, computes guardedness
//! (Appendix B: a sequence variable is *guarded* when it occurs in the body
//! as a direct argument of some predicate) and records which clauses are
//! constructive. The result is the [`CompiledProgram`] consumed by
//! [`crate::eval`].

use crate::ast::{Atom, BodyLit, Clause, IndexTerm, IndexedBase, Program, SeqTerm};
use seqlog_sequence::{FxHashMap, SeqId};
use std::fmt;

/// Dense handle of an interned predicate name (see [`PredTable`]).
///
/// All hot-path data structures — [`crate::eval::interp::FactStore`]
/// relations, semi-naive size snapshots, the evaluator's `new_facts`
/// buffer — are addressed by `PredId`, so the steady-state evaluation loop
/// never hashes or allocates a predicate-name `String`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PredId(pub u32);

impl PredId {
    /// The raw table index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PredId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PredId({})", self.0)
    }
}

/// An append-only interner of predicate names.
///
/// Compilation interns every head/body predicate; evaluation seeds its
/// [`crate::eval::interp::FactStore`] from the program's table so compiled
/// `PredId`s index the store's relation vector directly, and extends the
/// same table with database-only predicates.
#[derive(Clone, Debug, Default)]
pub struct PredTable {
    names: Vec<String>,
    ids: FxHashMap<String, u32>,
}

impl PredTable {
    /// Create an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its dense id. Idempotent.
    pub fn intern(&mut self, name: &str) -> PredId {
        if let Some(&id) = self.ids.get(name) {
            return PredId(id);
        }
        let id = u32::try_from(self.names.len()).expect("predicate table overflow");
        self.ids.insert(name.to_string(), id);
        self.names.push(name.to_string());
        PredId(id)
    }

    /// Look up a name without interning it.
    pub fn lookup(&self, name: &str) -> Option<PredId> {
        self.ids.get(name).copied().map(PredId)
    }

    /// The name of an interned predicate.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this table.
    pub fn name(&self, id: PredId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned predicates.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no predicate has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (PredId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (PredId(i as u32), n.as_str()))
    }

    /// True when `other`'s ids are a prefix-compatible extension of this
    /// table (same names at the same ids for all of `self`).
    pub fn is_prefix_of(&self, other: &PredTable) -> bool {
        self.names.len() <= other.names.len()
            && self.names.iter().zip(&other.names).all(|(a, b)| a == b)
    }
}

/// A compiled index term: variables are slots into the index bindings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CIdx {
    /// Integer literal.
    Int(i64),
    /// Index-variable slot.
    Var(u16),
    /// `end` (resolved against the enclosing base's length).
    End,
    /// Addition.
    Add(Box<CIdx>, Box<CIdx>),
    /// Subtraction.
    Sub(Box<CIdx>, Box<CIdx>),
}

/// The base of a compiled indexed term.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CBase {
    /// Sequence-variable slot.
    Var(u16),
    /// Interned constant.
    Const(SeqId),
}

/// A compiled sequence term.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CSeq {
    /// Interned constant.
    Const(SeqId),
    /// Sequence-variable slot.
    Var(u16),
    /// `base[lo:hi]`.
    Indexed {
        /// Base (variable slot or constant).
        base: CBase,
        /// Lower index.
        lo: CIdx,
        /// Upper index.
        hi: CIdx,
    },
    /// Concatenation (heads only).
    Concat(Box<CSeq>, Box<CSeq>),
    /// Transducer call (heads only); resolved by name against the engine's
    /// registry at evaluation time.
    Transducer {
        /// Registered machine name.
        name: String,
        /// Input terms.
        args: Vec<CSeq>,
    },
}

impl CSeq {
    /// Interned sequence constants occurring in the term (including indexed
    /// bases).
    pub fn constants(&self, out: &mut Vec<SeqId>) {
        match self {
            CSeq::Const(id) => out.push(*id),
            CSeq::Var(_) => {}
            CSeq::Indexed { base, .. } => {
                if let CBase::Const(id) = base {
                    out.push(*id);
                }
            }
            CSeq::Concat(a, b) => {
                a.constants(out);
                b.constants(out);
            }
            CSeq::Transducer { args, .. } => {
                for a in args {
                    a.constants(out);
                }
            }
        }
    }

    /// Sequence-variable slots occurring in the term.
    pub fn seq_vars(&self, out: &mut Vec<u16>) {
        match self {
            CSeq::Const(_) => {}
            CSeq::Var(v) => out.push(*v),
            CSeq::Indexed { base, .. } => {
                if let CBase::Var(v) = base {
                    out.push(*v);
                }
            }
            CSeq::Concat(a, b) => {
                a.seq_vars(out);
                b.seq_vars(out);
            }
            CSeq::Transducer { args, .. } => {
                for a in args {
                    a.seq_vars(out);
                }
            }
        }
    }

    /// Index-variable slots occurring in the term.
    pub fn idx_vars(&self, out: &mut Vec<u16>) {
        fn idx(t: &CIdx, out: &mut Vec<u16>) {
            match t {
                CIdx::Int(_) | CIdx::End => {}
                CIdx::Var(v) => out.push(*v),
                CIdx::Add(a, b) | CIdx::Sub(a, b) => {
                    idx(a, out);
                    idx(b, out);
                }
            }
        }
        match self {
            CSeq::Const(_) | CSeq::Var(_) => {}
            CSeq::Indexed { lo, hi, .. } => {
                idx(lo, out);
                idx(hi, out);
            }
            CSeq::Concat(a, b) => {
                a.idx_vars(out);
                b.idx_vars(out);
            }
            CSeq::Transducer { args, .. } => {
                for a in args {
                    a.idx_vars(out);
                }
            }
        }
    }
}

/// A compiled atom.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CAtom {
    /// Interned predicate id (resolve names via [`CompiledProgram::preds`]).
    pub pred: PredId,
    /// Compiled argument terms.
    pub args: Vec<CSeq>,
}

/// A compiled body literal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CBody {
    /// Positive atom.
    Atom(CAtom),
    /// Equality.
    Eq(CSeq, CSeq),
    /// Inequality.
    Neq(CSeq, CSeq),
}

/// A compiled clause with variable-slot metadata.
#[derive(Clone, Debug)]
pub struct CompiledClause {
    /// Compiled head.
    pub head: CAtom,
    /// Compiled body.
    pub body: Vec<CBody>,
    /// Number of sequence-variable slots.
    pub n_seq: usize,
    /// Number of index-variable slots.
    pub n_idx: usize,
    /// Sequence-variable names by slot.
    pub seq_names: Vec<String>,
    /// Index-variable names by slot.
    pub idx_names: Vec<String>,
    /// Guardedness per sequence-variable slot (Appendix B).
    pub guarded_seq: Vec<bool>,
    /// Whether the head contains a constructive or transducer term.
    pub constructive: bool,
    /// Whether evaluating this clause may consult the extended active
    /// domain beyond the matched facts (free variables or unguarded bases) —
    /// such clauses must be re-evaluated when the domain grows.
    pub domain_sensitive: bool,
}

impl CompiledClause {
    /// Assemble a clause whose variable slots are exactly `seq_names` and
    /// `idx_names` (every slot occurs in `head` or `body`), deriving its
    /// flags by the Appendix B rules. A sequence variable is guarded when
    /// it occurs as a *whole argument* of some body atom. The clause is
    /// domain-sensitive — evaluation consults the extended active domain —
    /// when some sequence variable is unguarded, or when some index
    /// variable never occurs inside a body atom (it is then enumerated
    /// over the integer range). It is constructive when a head argument is
    /// a concatenation or a transducer call.
    pub(crate) fn new(
        head: CAtom,
        body: Vec<CBody>,
        seq_names: Vec<String>,
        idx_names: Vec<String>,
    ) -> Self {
        let mut guarded_seq = vec![false; seq_names.len()];
        let mut idx_in_body_atom = vec![false; idx_names.len()];
        let mut vs = Vec::new();
        for lit in &body {
            if let CBody::Atom(a) = lit {
                for t in &a.args {
                    if let CSeq::Var(v) = t {
                        guarded_seq[*v as usize] = true;
                    }
                    t.idx_vars(&mut vs);
                }
            }
        }
        for v in vs {
            idx_in_body_atom[v as usize] = true;
        }
        let domain_sensitive =
            guarded_seq.iter().any(|&g| !g) || idx_in_body_atom.iter().any(|&g| !g);
        let constructive = head
            .args
            .iter()
            .any(|t| matches!(t, CSeq::Concat(..) | CSeq::Transducer { .. }));
        Self {
            head,
            body,
            n_seq: seq_names.len(),
            n_idx: idx_names.len(),
            seq_names,
            idx_names,
            guarded_seq,
            constructive,
            domain_sensitive,
        }
    }

    /// True when every sequence variable is guarded (Appendix B).
    pub fn is_guarded(&self) -> bool {
        self.guarded_seq.iter().all(|&g| g)
    }
}

/// A compiled program.
#[derive(Clone, Debug, Default)]
pub struct CompiledProgram {
    /// Compiled clauses in source order.
    pub clauses: Vec<CompiledClause>,
    /// Predicate-name interner; every `PredId` in `clauses` indexes it.
    pub preds: PredTable,
    /// The SCC-stratified evaluation schedule (see [`crate::analysis`]);
    /// semi-naive evaluation (the default strategy) walks it in
    /// topological order instead of rescanning every clause each round.
    pub schedule: crate::analysis::Schedule,
}

impl CompiledProgram {
    /// Predicate names interned by compilation, in `PredId` order (heads
    /// and bodies alike) — the program-declared subset of a session's
    /// [`crate::session::EngineSession::predicates`], which additionally
    /// lists asserted-only predicates.
    pub fn pred_names(&self) -> impl Iterator<Item = &str> {
        self.preds.iter().map(|(_, n)| n)
    }

    /// Every sequence constant occurring in a clause **body** (with
    /// duplicates). The evaluator window-closes these in the store before
    /// matching, so the read-only matcher can resolve any window of a
    /// constant by lookup — a body constant can become a variable binding
    /// through unification and then serve as an indexed base. Head-only
    /// constants never reach the matcher: heads are evaluated in the commit
    /// phase, and their values are closed when they enter the domain.
    pub fn constants(&self) -> Vec<SeqId> {
        let mut out = Vec::new();
        for clause in &self.clauses {
            for lit in &clause.body {
                match lit {
                    CBody::Atom(a) => {
                        for t in &a.args {
                            t.constants(&mut out);
                        }
                    }
                    CBody::Eq(l, r) | CBody::Neq(l, r) => {
                        l.constants(&mut out);
                        r.constants(&mut out);
                    }
                }
            }
        }
        out
    }
}

/// Static validation errors (Section 3.1 / 7.1 restrictions).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CompileError {
    /// A constructive (`++`) or transducer term occurs in a body literal.
    ConstructiveInBody {
        /// 0-based clause index.
        clause: usize,
    },
    /// The same name is used both as a sequence and as an index variable.
    VarKindConflict {
        /// 0-based clause index.
        clause: usize,
        /// Offending variable name.
        var: String,
    },
    /// A clause body exceeds the evaluator's literal limit (the matcher
    /// tracks the unsolved-literal set in a 128-bit mask).
    BodyTooLarge {
        /// 0-based clause index.
        clause: usize,
        /// Number of body literals.
        len: usize,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ConstructiveInBody { clause } => write!(
                f,
                "clause {clause}: constructive terms may appear only in rule heads (Section 3.1)"
            ),
            Self::VarKindConflict { clause, var } => write!(
                f,
                "clause {clause}: variable {var} is used both as a sequence and as an index variable"
            ),
            Self::BodyTooLarge { clause, len } => write!(
                f,
                "clause {clause}: body has {len} literals, exceeding the evaluator limit of 128"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Compile and validate a program.
pub fn compile(program: &Program) -> Result<CompiledProgram, CompileError> {
    let mut preds = PredTable::new();
    let clauses = program
        .clauses
        .iter()
        .enumerate()
        .map(|(i, c)| compile_clause(i, c, &mut preds))
        .collect::<Result<Vec<_>, _>>()?;
    let schedule = crate::analysis::Schedule::build(&clauses, preds.len());
    Ok(CompiledProgram {
        clauses,
        preds,
        schedule,
    })
}

struct VarTable {
    clause: usize,
    seq: FxHashMap<String, u16>,
    idx: FxHashMap<String, u16>,
    seq_names: Vec<String>,
    idx_names: Vec<String>,
}

impl VarTable {
    fn seq_slot(&mut self, name: &str) -> Result<u16, CompileError> {
        if self.idx.contains_key(name) {
            return Err(CompileError::VarKindConflict {
                clause: self.clause,
                var: name.to_string(),
            });
        }
        if let Some(&s) = self.seq.get(name) {
            return Ok(s);
        }
        let s = self.seq_names.len() as u16;
        self.seq.insert(name.to_string(), s);
        self.seq_names.push(name.to_string());
        Ok(s)
    }

    fn idx_slot(&mut self, name: &str) -> Result<u16, CompileError> {
        if self.seq.contains_key(name) {
            return Err(CompileError::VarKindConflict {
                clause: self.clause,
                var: name.to_string(),
            });
        }
        if let Some(&s) = self.idx.get(name) {
            return Ok(s);
        }
        let s = self.idx_names.len() as u16;
        self.idx.insert(name.to_string(), s);
        self.idx_names.push(name.to_string());
        Ok(s)
    }
}

fn compile_clause(
    ci: usize,
    clause: &Clause,
    preds: &mut PredTable,
) -> Result<CompiledClause, CompileError> {
    if clause.body.len() > 128 {
        return Err(CompileError::BodyTooLarge {
            clause: ci,
            len: clause.body.len(),
        });
    }
    let mut vt = VarTable {
        clause: ci,
        seq: FxHashMap::default(),
        idx: FxHashMap::default(),
        seq_names: Vec::new(),
        idx_names: Vec::new(),
    };

    // Compile body first so body-variable slots come first (harmless but
    // keeps free head variables at the tail).
    let mut body = Vec::with_capacity(clause.body.len());
    for lit in &clause.body {
        match lit {
            BodyLit::Atom(a) => {
                for t in &a.args {
                    if t.is_constructive() {
                        return Err(CompileError::ConstructiveInBody { clause: ci });
                    }
                }
                body.push(CBody::Atom(compile_atom(a, &mut vt, preds)?));
            }
            BodyLit::Eq(l, r) | BodyLit::Neq(l, r) => {
                if l.is_constructive() || r.is_constructive() {
                    return Err(CompileError::ConstructiveInBody { clause: ci });
                }
                let cl = compile_seq(l, &mut vt)?;
                let cr = compile_seq(r, &mut vt)?;
                body.push(match lit {
                    BodyLit::Eq(..) => CBody::Eq(cl, cr),
                    _ => CBody::Neq(cl, cr),
                });
            }
        }
    }
    let head = compile_atom(&clause.head, &mut vt, preds)?;
    Ok(CompiledClause::new(head, body, vt.seq_names, vt.idx_names))
}

fn compile_atom(a: &Atom, vt: &mut VarTable, preds: &mut PredTable) -> Result<CAtom, CompileError> {
    Ok(CAtom {
        pred: preds.intern(&a.pred),
        args: a
            .args
            .iter()
            .map(|t| compile_seq(t, vt))
            .collect::<Result<Vec<_>, _>>()?,
    })
}

fn compile_seq(t: &SeqTerm, vt: &mut VarTable) -> Result<CSeq, CompileError> {
    Ok(match t {
        SeqTerm::Const(id) => CSeq::Const(*id),
        SeqTerm::Var(v) => CSeq::Var(vt.seq_slot(v)?),
        SeqTerm::Indexed { base, lo, hi } => CSeq::Indexed {
            base: match base {
                IndexedBase::Var(v) => CBase::Var(vt.seq_slot(v)?),
                IndexedBase::Const(id) => CBase::Const(*id),
            },
            lo: compile_idx(lo, vt)?,
            hi: compile_idx(hi, vt)?,
        },
        SeqTerm::Concat(a, b) => {
            CSeq::Concat(Box::new(compile_seq(a, vt)?), Box::new(compile_seq(b, vt)?))
        }
        SeqTerm::Transducer { name, args } => CSeq::Transducer {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| compile_seq(a, vt))
                .collect::<Result<Vec<_>, _>>()?,
        },
    })
}

fn compile_idx(t: &IndexTerm, vt: &mut VarTable) -> Result<CIdx, CompileError> {
    Ok(match t {
        IndexTerm::Int(i) => CIdx::Int(*i),
        IndexTerm::Var(v) => CIdx::Var(vt.idx_slot(v)?),
        IndexTerm::End => CIdx::End,
        IndexTerm::Add(a, b) => {
            CIdx::Add(Box::new(compile_idx(a, vt)?), Box::new(compile_idx(b, vt)?))
        }
        IndexTerm::Sub(a, b) => {
            CIdx::Sub(Box::new(compile_idx(a, vt)?), Box::new(compile_idx(b, vt)?))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use seqlog_sequence::{Alphabet, SeqStore};

    fn compiled(src: &str) -> Result<CompiledProgram, CompileError> {
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let p = parse_program(src, &mut a, &mut st).unwrap();
        compile(&p)
    }

    #[test]
    fn rejects_constructive_terms_in_bodies() {
        let e = compiled("p(X) :- q(X ++ X).").unwrap_err();
        assert!(matches!(e, CompileError::ConstructiveInBody { clause: 0 }));
        let e = compiled("p(X) :- q(X), X = Y ++ Z.").unwrap_err();
        assert!(matches!(e, CompileError::ConstructiveInBody { clause: 0 }));
        let e = compiled("p(X) :- q(@t(X)).").unwrap_err();
        assert!(matches!(e, CompileError::ConstructiveInBody { clause: 0 }));
    }

    #[test]
    fn rejects_variable_kind_conflicts() {
        // X used as a sequence variable in q(X) and as an index variable in
        // the head.
        let e = compiled("p(Y[X:end]) :- q(X, Y).").unwrap_err();
        assert!(matches!(e, CompileError::VarKindConflict { var, .. } if var == "X"));
    }

    #[test]
    fn guardedness_follows_appendix_b() {
        // p(X[1]) :- q(X): X guarded.
        let cp = compiled("p(X[1]) :- q(X).").unwrap();
        assert!(cp.clauses[0].is_guarded());
        // p(X) :- q(X[1]): X unguarded.
        let cp = compiled("p(X) :- q(X[1]).").unwrap();
        assert!(!cp.clauses[0].is_guarded());
        assert!(cp.clauses[0].domain_sensitive);
    }

    #[test]
    fn domain_sensitivity_of_suffix_rule() {
        // N occurs only in the head, so the rule enumerates the integer
        // range — domain sensitive.
        let cp = compiled("suffix(X[N:end]) :- r(X).").unwrap();
        assert!(cp.clauses[0].domain_sensitive);
        assert!(cp.clauses[0].is_guarded());
        // X appears only inside an indexed term in the body — unguarded
        // (Appendix B), hence domain sensitive.
        let cp = compiled("p(X[1:N]) :- q(X[1:N]).").unwrap();
        assert!(!cp.clauses[0].is_guarded());
        assert!(cp.clauses[0].domain_sensitive);
        // Guarded base, index var bound inside a body atom — insensitive.
        let cp = compiled("p(X[1:N]) :- q(X, X[1:N]).").unwrap();
        assert!(cp.clauses[0].is_guarded());
        assert!(!cp.clauses[0].domain_sensitive);
    }

    #[test]
    fn slots_are_shared_across_occurrences() {
        let cp = compiled("p(X, X) :- q(X, N, N).").unwrap_err_or_ok();
        // q(X, N, N) uses N as a *sequence* variable (whole argument), so
        // this is fine and N is a sequence var.
        let cp = cp.expect("N used consistently as sequence variable");
        let c = &cp.clauses[0];
        assert_eq!(c.n_seq, 2);
        assert_eq!(c.n_idx, 0);
    }

    trait UnwrapErrOrOk<T, E> {
        fn unwrap_err_or_ok(self) -> Result<T, E>;
    }
    impl<T, E> UnwrapErrOrOk<T, E> for Result<T, E> {
        fn unwrap_err_or_ok(self) -> Result<T, E> {
            self
        }
    }

    #[test]
    fn constructive_flag_matches_ast() {
        let cp = compiled("p(X ++ Y) :- q(X), q(Y).").unwrap();
        assert!(cp.clauses[0].constructive);
        let cp = compiled("p(X[1:2]) :- q(X).").unwrap();
        assert!(!cp.clauses[0].constructive);
    }
}
