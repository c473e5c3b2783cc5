//! Body matching: enumerating the substitutions of Definition 4.
//!
//! Given a clause body and the current interpretation, this module
//! enumerates every substitution θ *based on the extended active domain*
//! (Definition 1) that is defined at the clause and satisfies the body. The
//! search binds variables from facts wherever possible (joins with greedy
//! literal scheduling) and falls back to honest domain enumeration exactly
//! where the semantics requires it: unguarded sequence variables range over
//! the domain's member sequences, and index variables that no fact
//! determines range over the integers `0..=lmax+1`.
//!
//! Unification against indexed terms is occurrence-driven: matching
//! `X[N1:N2] = v` with `X` bound finds the occurrences of `v` inside `X` and
//! solves the index equations `N1 = start`, `N2 = end` — multiple
//! occurrences yield multiple substitutions, as the fixpoint semantics
//! demands.
//!
//! # Matching is read-only
//!
//! The matcher borrows the store as `&SeqStore` and never interns: indexed
//! terms resolve through [`SeqStore::subseq_lookup`]. This is sound because
//! every sequence a substitution can reach is *window-closed* — extended
//! active domain members by Definition 2's closure invariant, and program
//! constants because the evaluator pre-closes them — so any defined window
//! already has an interned handle. This is what lets a round match every
//! task against one unchanging interpretation before its commit interns
//! anything.
//!
//! The search is also **allocation-free in its steady state**: one scratch
//! [`Bindings`] per clause evaluation, mutated in place through a bind/undo
//! trail (no `Bindings` clone per candidate substitution), the
//! unsolved-literal set as a `u128` bitmask, and join candidates taken as
//! borrowed slices from the fact store's column indexes. Alternative
//! solutions are delivered through continuations instead of result vectors.

use crate::compile::{CBase, CBody, CIdx, CSeq, CompiledClause};
use crate::eval::interp::FactStore;
use seqlog_sequence::{index_window, ExtendedDomain, SeqId, SeqStore};

/// A partial substitution over a clause's variable slots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bindings {
    /// Sequence-variable slots.
    pub seq: Vec<Option<SeqId>>,
    /// Index-variable slots.
    pub idx: Vec<Option<i64>>,
}

impl Bindings {
    /// Fresh, all-unbound bindings for a clause.
    pub fn for_clause(c: &CompiledClause) -> Self {
        Self {
            seq: vec![None; c.n_seq],
            idx: vec![None; c.n_idx],
        }
    }
}

/// One recorded binding, undone on backtrack.
#[derive(Clone, Copy, Debug)]
enum TrailEntry {
    Seq(u16),
    Idx(u16),
}

/// The single scratch substitution threaded through a clause's search,
/// with its undo trail. Binding writes a slot and records it; backtracking
/// pops to a mark and clears the recorded slots — no clone per candidate.
pub struct Search {
    /// The current (partial) substitution.
    pub b: Bindings,
    trail: Vec<TrailEntry>,
}

impl Search {
    /// Fresh scratch state for a clause.
    pub fn for_clause(c: &CompiledClause) -> Self {
        Self {
            b: Bindings::for_clause(c),
            trail: Vec::with_capacity(c.n_seq + c.n_idx),
        }
    }

    #[inline]
    fn mark(&self) -> usize {
        self.trail.len()
    }

    #[inline]
    fn bind_seq(&mut self, v: u16, id: SeqId) {
        debug_assert!(self.b.seq[v as usize].is_none());
        self.b.seq[v as usize] = Some(id);
        self.trail.push(TrailEntry::Seq(v));
    }

    #[inline]
    fn bind_idx(&mut self, v: u16, n: i64) {
        debug_assert!(self.b.idx[v as usize].is_none());
        self.b.idx[v as usize] = Some(n);
        self.trail.push(TrailEntry::Idx(v));
    }

    #[inline]
    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            match self.trail.pop().unwrap() {
                TrailEntry::Seq(v) => self.b.seq[v as usize] = None,
                TrailEntry::Idx(v) => self.b.idx[v as usize] = None,
            }
        }
    }
}

/// Outcome of evaluating a term under a partial substitution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TermVal {
    /// Some variable in the term is still unbound.
    Unbound,
    /// All variables bound but the term is undefined (index out of range,
    /// Section 3.2).
    Undefined,
    /// The term's value.
    Val(SeqId),
}

/// Outcome of evaluating an index term under a partial substitution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IdxVal {
    /// Some index variable in the term is still unbound.
    Unbound,
    /// All variables bound but the arithmetic over- or underflowed `i64`
    /// — the term denotes no domain integer, so any enclosing indexed term
    /// is undefined.
    Undefined,
    /// The term's value.
    Val(i64),
}

/// Read-only context for matching. All fields are shared borrows — matching
/// never mutates the store (indexed terms resolve by lookup against
/// window-closed bases), so a round's match phase sees one fixed
/// interpretation.
pub struct MatchEnv<'a> {
    /// Sequence interner (read-only during matching).
    pub store: &'a SeqStore,
    /// Extended active domain of the current interpretation.
    pub domain: &'a ExtendedDomain,
    /// Current interpretation.
    pub facts: &'a FactStore,
    /// `lmax + 1` — the top of the integer range.
    pub int_upper: i64,
}

/// Semi-naive delta restriction for one clause application: body-atom
/// occurrence `at` matches only tuples at positions `from..to` of its
/// relation (a chunk of the previous round's additions), and atom
/// occurrences *before* `at` are restricted to the pre-round prefix recorded
/// in `sizes_before` — so a clause mentioning the same grown predicate
/// twice derives each new–new combination exactly once across the
/// per-literal firings.
#[derive(Clone, Copy, Debug)]
pub struct Delta<'a> {
    /// Body literal index carrying the delta.
    pub at: usize,
    /// First delta tuple position (inclusive).
    pub from: usize,
    /// One past the last delta tuple position.
    pub to: usize,
    /// Per-predicate relation sizes before the round, indexed by `PredId`.
    pub sizes_before: &'a [usize],
}

/// A continuation receiving each satisfying (partial) substitution.
type Cont<'x> = &'x mut dyn FnMut(&mut Search, &MatchEnv<'_>);

/// Evaluate an index term with overflow-checked arithmetic. `end_val` is the
/// length of the enclosing indexed term's base.
pub fn eval_idx(t: &CIdx, b: &Bindings, end_val: i64) -> IdxVal {
    match t {
        CIdx::Int(i) => IdxVal::Val(*i),
        CIdx::Var(v) => match b.idx[*v as usize] {
            Some(n) => IdxVal::Val(n),
            None => IdxVal::Unbound,
        },
        CIdx::End => IdxVal::Val(end_val),
        CIdx::Add(x, y) => combine(eval_idx(x, b, end_val), eval_idx(y, b, end_val), true),
        CIdx::Sub(x, y) => combine(eval_idx(x, b, end_val), eval_idx(y, b, end_val), false),
    }
}

/// Checked combination of two index sub-results: overflow is `Undefined`
/// (the term denotes no integer), and `Undefined` dominates `Unbound` (no
/// binding can make the term defined).
#[inline]
fn combine(x: IdxVal, y: IdxVal, add: bool) -> IdxVal {
    match (x, y) {
        (IdxVal::Undefined, _) | (_, IdxVal::Undefined) => IdxVal::Undefined,
        (IdxVal::Unbound, _) | (_, IdxVal::Unbound) => IdxVal::Unbound,
        (IdxVal::Val(a), IdxVal::Val(b)) => {
            let r = if add {
                a.checked_add(b)
            } else {
                a.checked_sub(b)
            };
            match r {
                Some(v) => IdxVal::Val(v),
                None => IdxVal::Undefined,
            }
        }
    }
}

/// Evaluate a non-constructive sequence term under `b`, without interning.
///
/// A defined window that has no interned handle can only arise from a base
/// that is not window-closed, which the evaluator's pre-closing of program
/// constants rules out; it is mapped (conservatively) to `Undefined`.
pub fn eval_seq(t: &CSeq, b: &Bindings, store: &SeqStore) -> TermVal {
    match t {
        CSeq::Const(id) => TermVal::Val(*id),
        CSeq::Var(v) => match b.seq[*v as usize] {
            Some(id) => TermVal::Val(id),
            None => TermVal::Unbound,
        },
        CSeq::Indexed { base, lo, hi } => {
            let base_id = match base {
                CBase::Const(id) => *id,
                CBase::Var(v) => match b.seq[*v as usize] {
                    Some(id) => id,
                    None => return TermVal::Unbound,
                },
            };
            let end_val = store.len_of(base_id) as i64;
            let (n1, n2) = match (eval_idx(lo, b, end_val), eval_idx(hi, b, end_val)) {
                (IdxVal::Val(n1), IdxVal::Val(n2)) => (n1, n2),
                (IdxVal::Undefined, _) | (_, IdxVal::Undefined) => return TermVal::Undefined,
                _ => return TermVal::Unbound,
            };
            match store.subseq_lookup(base_id, n1, n2) {
                Some(Some(id)) => TermVal::Val(id),
                Some(None) => {
                    debug_assert!(false, "defined window of a non-window-closed base");
                    TermVal::Undefined
                }
                None => TermVal::Undefined,
            }
        }
        CSeq::Concat(..) | CSeq::Transducer { .. } => {
            unreachable!("constructive terms are head-only (validated)")
        }
    }
}

/// Solve `t = target` for the unbound index variables of `t`, invoking `k`
/// on each solution. Uses linear isolation when one side of `+`/`-` is
/// ground and falls back to enumerating a variable over `0..=int_upper`
/// otherwise (index variables range over the domain integers). All
/// isolation arithmetic is overflow-checked: an overflowing rearrangement
/// has no solution in the domain integers.
fn solve_idx(
    t: &CIdx,
    target: i64,
    end_val: i64,
    st: &mut Search,
    env: &MatchEnv<'_>,
    k: Cont<'_>,
) {
    match t {
        CIdx::Int(i) => {
            if *i == target {
                k(st, env);
            }
        }
        CIdx::End => {
            if end_val == target {
                k(st, env);
            }
        }
        CIdx::Var(v) => match st.b.idx[*v as usize] {
            Some(val) => {
                if val == target {
                    k(st, env);
                }
            }
            None => {
                if (0..=env.int_upper).contains(&target) {
                    let mark = st.mark();
                    st.bind_idx(*v, target);
                    k(st, env);
                    st.undo_to(mark);
                }
            }
        },
        CIdx::Add(x, y) => match (eval_idx(x, &st.b, end_val), eval_idx(y, &st.b, end_val)) {
            (IdxVal::Undefined, _) | (_, IdxVal::Undefined) => {}
            (IdxVal::Val(xv), _) => {
                if let Some(rest) = target.checked_sub(xv) {
                    solve_idx(y, rest, end_val, st, env, k);
                }
            }
            (IdxVal::Unbound, IdxVal::Val(yv)) => {
                if let Some(rest) = target.checked_sub(yv) {
                    solve_idx(x, rest, end_val, st, env, k);
                }
            }
            (IdxVal::Unbound, IdxVal::Unbound) => {
                enumerate_then_solve(t, target, end_val, st, env, k);
            }
        },
        CIdx::Sub(x, y) => match (eval_idx(x, &st.b, end_val), eval_idx(y, &st.b, end_val)) {
            (IdxVal::Undefined, _) | (_, IdxVal::Undefined) => {}
            (IdxVal::Val(xv), _) => {
                if let Some(rest) = xv.checked_sub(target) {
                    solve_idx(y, rest, end_val, st, env, k);
                }
            }
            (IdxVal::Unbound, IdxVal::Val(yv)) => {
                if let Some(rest) = target.checked_add(yv) {
                    solve_idx(x, rest, end_val, st, env, k);
                }
            }
            (IdxVal::Unbound, IdxVal::Unbound) => {
                enumerate_then_solve(t, target, end_val, st, env, k);
            }
        },
    }
}

/// Fallback for index terms with two unbound variables (e.g. `N+M`): bind
/// the first unbound variable to each domain integer and retry.
fn enumerate_then_solve(
    t: &CIdx,
    target: i64,
    end_val: i64,
    st: &mut Search,
    env: &MatchEnv<'_>,
    k: Cont<'_>,
) {
    let Some(v) = first_unbound_idx(t, &st.b) else {
        return;
    };
    for n in 0..=env.int_upper {
        let mark = st.mark();
        st.bind_idx(v, n);
        solve_idx(t, target, end_val, st, env, k);
        st.undo_to(mark);
    }
}

fn first_unbound_idx(t: &CIdx, b: &Bindings) -> Option<u16> {
    match t {
        CIdx::Int(_) | CIdx::End => None,
        CIdx::Var(v) => b.idx[*v as usize].is_none().then_some(*v),
        CIdx::Add(x, y) | CIdx::Sub(x, y) => {
            first_unbound_idx(x, b).or_else(|| first_unbound_idx(y, b))
        }
    }
}

/// Evaluate an index term *independently of the base's length*: `Unbound`
/// when the term contains `end` or an unbound variable. Used to pin a
/// solution length before the base is known.
fn eval_idx_pure(t: &CIdx, b: &Bindings) -> IdxVal {
    match t {
        CIdx::Int(i) => IdxVal::Val(*i),
        CIdx::Var(v) => match b.idx[*v as usize] {
            Some(n) => IdxVal::Val(n),
            None => IdxVal::Unbound,
        },
        CIdx::End => IdxVal::Unbound,
        CIdx::Add(x, y) => combine(eval_idx_pure(x, b), eval_idx_pure(y, b), true),
        CIdx::Sub(x, y) => combine(eval_idx_pure(x, b), eval_idx_pure(y, b), false),
    }
}

/// Unify a non-constructive term with a concrete value, invoking `k` on
/// every extension of the current substitution.
fn unify(t: &CSeq, v: SeqId, st: &mut Search, env: &MatchEnv<'_>, k: Cont<'_>) {
    match t {
        CSeq::Const(id) => {
            if *id == v {
                k(st, env);
            }
        }
        CSeq::Var(x) => match st.b.seq[*x as usize] {
            Some(id) => {
                if id == v {
                    k(st, env);
                }
            }
            None => {
                let mark = st.mark();
                st.bind_seq(*x, v);
                k(st, env);
                st.undo_to(mark);
            }
        },
        CSeq::Indexed { base, lo, hi } => match base {
            CBase::Const(id) => unify_indexed(*id, lo, hi, v, st, env, k),
            CBase::Var(x) => match st.b.seq[*x as usize] {
                Some(id) => unify_indexed(id, lo, hi, v, st, env, k),
                None => {
                    // The base ranges over the extended active domain
                    // (the honest Definition 4 semantics for unguarded
                    // variables). For the structural-recursion idiom
                    // `X[a:end] = v` with `a` known, every solution has
                    // `len(X) = a-1+len(v)` — restrict the enumeration to
                    // that length bucket; the unification itself still
                    // decides membership, so this is a pure prefilter.
                    let domain: &ExtendedDomain = env.domain;
                    match (eval_idx_pure(lo, &st.b), hi) {
                        (IdxVal::Undefined, _) => return, // no binding defines X[lo:hi]
                        (IdxVal::Val(a), CIdx::End) => {
                            if a < 1 {
                                return; // X[a:end] is undefined for every X
                            }
                            let Some(want) = usize::try_from(a - 1)
                                .ok()
                                .and_then(|p| p.checked_add(env.store.len_of(v)))
                            else {
                                return;
                            };
                            for &s in domain.members_of_len(want) {
                                let mark = st.mark();
                                st.bind_seq(*x, s);
                                unify_indexed(s, lo, hi, v, st, env, k);
                                st.undo_to(mark);
                            }
                            return;
                        }
                        _ => {}
                    }
                    for s in domain.iter() {
                        let mark = st.mark();
                        st.bind_seq(*x, s);
                        unify_indexed(s, lo, hi, v, st, env, k);
                        st.undo_to(mark);
                    }
                }
            },
        },
        CSeq::Concat(..) | CSeq::Transducer { .. } => {
            unreachable!("constructive terms are head-only (validated)")
        }
    }
}

/// `base[n1:n2] == v`, without interning the window: an equal window would
/// already be interned as `v`, so a plain slice comparison suffices (and a
/// failed comparison never pollutes the store).
#[inline]
fn window_equals(store: &SeqStore, base: SeqId, n1: i64, n2: i64, v: SeqId) -> bool {
    match index_window(store.len_of(base), n1, n2) {
        None => false,
        Some((s, e)) => store.get(base)[s..e] == *store.get(v),
    }
}

/// Unify `base[lo:hi] = v` for a bound base: enumerate occurrences of `v` in
/// `base` and solve the index equations. When either endpoint is already
/// evaluable it pins the occurrence position (the structural-recursion
/// idioms `X[1:N] = v` / `X[N+1:end] = v`), so only one window comparison is
/// needed instead of a full occurrence scan.
fn unify_indexed(
    base: SeqId,
    lo: &CIdx,
    hi: &CIdx,
    v: SeqId,
    st: &mut Search,
    env: &MatchEnv<'_>,
    k: Cont<'_>,
) {
    let end_val = env.store.len_of(base) as i64;
    let vlen = env.store.len_of(v) as i64;
    match (eval_idx(lo, &st.b, end_val), eval_idx(hi, &st.b, end_val)) {
        // An overflowing endpoint denotes no integer: the indexed term is
        // undefined under every extension.
        (IdxVal::Undefined, _) | (_, IdxVal::Undefined) => {}
        // Both endpoints ground: evaluate and compare (a length mismatch
        // fails the slice comparison).
        (IdxVal::Val(n1), IdxVal::Val(n2)) => {
            if window_equals(env.store, base, n1, n2, v) {
                k(st, env);
            }
        }
        // Lower endpoint ground: the only candidate occurrence starts at
        // `n1`, i.e. the window is [n1 .. n1-1+|v|].
        (IdxVal::Val(n1), IdxVal::Unbound) => {
            let Some(n2) = n1.checked_sub(1).and_then(|p| p.checked_add(vlen)) else {
                return;
            };
            if window_equals(env.store, base, n1, n2, v) {
                solve_idx(hi, n2, end_val, st, env, k);
            }
        }
        // Upper endpoint ground: the only candidate occurrence ends at
        // `n2`, i.e. the window is [n2-|v|+1 .. n2].
        (IdxVal::Unbound, IdxVal::Val(n2)) => {
            let Some(n1) = n2.checked_sub(vlen).and_then(|p| p.checked_add(1)) else {
                return;
            };
            if window_equals(env.store, base, n1, n2, v) {
                solve_idx(lo, n1, end_val, st, env, k);
            }
        }
        // Neither endpoint known: enumerate every occurrence of `v`.
        (IdxVal::Unbound, IdxVal::Unbound) => {
            let occurrences = env.store.occurrences(base, v);
            for start0 in occurrences {
                // 1-based window: [start0+1 .. start0+vlen].
                let n1 = start0 as i64 + 1;
                let n2 = start0 as i64 + vlen;
                solve_idx(lo, n1, end_val, st, env, &mut |st, env| {
                    solve_idx(hi, n2, end_val, st, env, k);
                });
            }
        }
    }
}

/// Match one atom's argument terms against a fact tuple, invoking `k` on
/// each consistent extension.
fn unify_tuple(args: &[CSeq], tuple: &[SeqId], st: &mut Search, env: &MatchEnv<'_>, k: Cont<'_>) {
    match args.split_first() {
        None => k(st, env),
        Some((arg, rest_args)) => {
            let (&val, rest_vals) = tuple.split_first().expect("arity matches");
            unify(arg, val, st, env, &mut |st, env| {
                unify_tuple(rest_args, rest_vals, st, env, k);
            });
        }
    }
}

/// Join candidates for one atom: either a borrowed column-index posting
/// list or a position range over the whole relation (delta-restricted).
enum Candidates<'f> {
    List(&'f [u32]),
    Range(usize, usize),
}

impl Candidates<'_> {
    fn len(&self) -> usize {
        match self {
            Candidates::List(l) => l.len(),
            Candidates::Range(a, b) => b - a,
        }
    }
}

/// Enumerate the substitutions satisfying `clause`'s body in `env`,
/// optionally under a [`Delta`] restriction (semi-naive evaluation). Calls
/// `on_match` for every satisfying (still possibly partial — free head
/// variables unbound) substitution; the `Bindings` handed to `on_match` is
/// the clause's scratch substitution and is only valid for the duration of
/// the call.
pub fn solve_body(
    clause: &CompiledClause,
    env: &MatchEnv<'_>,
    delta: Option<Delta<'_>>,
    on_match: &mut dyn FnMut(&mut Bindings, &MatchEnv<'_>),
) {
    let mut st = Search::for_clause(clause);
    search(clause, env, delta, all_literals(clause), &mut st, on_match);
}

/// [`solve_body`] for one head instance `goal`: the head's plain-variable
/// arguments are pre-bound from the goal tuple before the search starts, so
/// the greedy literal choice begins from their bound columns. A variable
/// repeated in the head must meet equal values, and a goal of the wrong
/// arity matches nothing. Arguments that are not plain variables (indexed,
/// constructive or constant terms) are not constrained here: a
/// substitution reaching `on_match` may still evaluate the head to a tuple
/// other than `goal`, and the caller compares.
pub fn solve_body_bound(
    clause: &CompiledClause,
    env: &MatchEnv<'_>,
    goal: &[SeqId],
    on_match: &mut dyn FnMut(&mut Bindings, &MatchEnv<'_>),
) {
    if goal.len() != clause.head.args.len() {
        return;
    }
    let mut st = Search::for_clause(clause);
    for (arg, &v) in clause.head.args.iter().zip(goal) {
        if let CSeq::Var(x) = arg {
            match st.b.seq[*x as usize] {
                Some(bound) if bound != v => return,
                Some(_) => {}
                None => st.bind_seq(*x, v),
            }
        }
    }
    search(clause, env, None, all_literals(clause), &mut st, on_match);
}

/// The bitmask of every body literal (the search's initial `remaining`).
fn all_literals(clause: &CompiledClause) -> u128 {
    debug_assert!(clause.body.len() <= 128, "rejected at compile time");
    match clause.body.len() {
        128 => !0,
        n => (1u128 << n) - 1,
    }
}

/// Position window of one atom occurrence under a delta restriction: the
/// delta literal sees its chunk, literals before it the pre-round prefix,
/// literals after it the full relation.
#[inline]
fn atom_window(delta: Option<Delta<'_>>, li: usize, pred: usize, rel_len: usize) -> (usize, usize) {
    match delta {
        Some(d) if li == d.at => (d.from.min(rel_len), d.to.min(rel_len)),
        Some(d) if li < d.at => (
            0,
            d.sizes_before.get(pred).copied().unwrap_or(0).min(rel_len),
        ),
        _ => (0, rel_len),
    }
}

fn search(
    clause: &CompiledClause,
    env: &MatchEnv<'_>,
    delta: Option<Delta<'_>>,
    remaining: u128,
    st: &mut Search,
    on_match: &mut dyn FnMut(&mut Bindings, &MatchEnv<'_>),
) {
    if remaining == 0 {
        on_match(&mut st.b, env);
        return;
    }
    let live = |li: usize| remaining & (1u128 << li) != 0;

    // 1. Ground (in)equalities: decide without branching.
    for (li, lit) in clause.body.iter().enumerate() {
        if !live(li) {
            continue;
        }
        let (l, r, is_eq) = match lit {
            CBody::Eq(l, r) => (l, r, true),
            CBody::Neq(l, r) => (l, r, false),
            CBody::Atom(_) => continue,
        };
        let (lv, rv) = (eval_seq(l, &st.b, env.store), eval_seq(r, &st.b, env.store));
        match (lv, rv) {
            (TermVal::Undefined, _) | (_, TermVal::Undefined) => return,
            (TermVal::Val(a), TermVal::Val(c)) => {
                if (a == c) != is_eq {
                    return;
                }
                search(clause, env, delta, remaining & !(1 << li), st, on_match);
                return;
            }
            _ => {}
        }
    }

    // 2. Equalities with one evaluable side whose other side unifies
    // *cheaply* (no domain enumeration): a bare variable, or an indexed
    // term with a bound base. Equalities over unbound bases are deferred
    // until the atoms have had a chance to bind them — matching an atom is
    // proportional to its extent, while domain enumeration is proportional
    // to the (much larger) extended active domain.
    let cheap = |t: &CSeq, b: &Bindings| match t {
        CSeq::Var(_) | CSeq::Const(_) => true,
        CSeq::Indexed { base, .. } => match base {
            CBase::Const(_) => true,
            CBase::Var(x) => b.seq[*x as usize].is_some(),
        },
        _ => false,
    };
    let mut deferred_eq = false;
    for (li, lit) in clause.body.iter().enumerate() {
        if !live(li) {
            continue;
        }
        if let CBody::Eq(l, r) = lit {
            let lv = eval_seq(l, &st.b, env.store);
            let rv = eval_seq(r, &st.b, env.store);
            let (val, other) = match (lv, rv) {
                (TermVal::Val(a), TermVal::Unbound) => (a, r),
                (TermVal::Unbound, TermVal::Val(c)) => (c, l),
                _ => continue,
            };
            if !cheap(other, &st.b) {
                deferred_eq = true;
                continue;
            }
            let rest = remaining & !(1 << li);
            unify(other, val, st, env, &mut |st, env| {
                search(clause, env, delta, rest, st, on_match);
            });
            return;
        }
    }

    // 3. Best atom: cheapest expected match work. The base measure is the
    // candidate tuple count (using the most selective ground column); an
    // atom whose arguments contain an indexed term over a still-unbound
    // base is penalized by the domain size, because unifying each of its
    // tuples enumerates domain members — joining a cheap guard atom first
    // binds the base and turns that enumeration into one window comparison.
    // The fact store is immutable during matching, so posting lists and
    // tuples are borrowed in place — no candidate vectors, no tuple clones.
    let facts: &FactStore = env.facts;
    let mut best: Option<(usize, Candidates<'_>, usize)> = None;
    for (li, lit) in clause.body.iter().enumerate() {
        if !live(li) {
            continue;
        }
        let CBody::Atom(atom) = lit else {
            continue;
        };
        let rel = facts.relation(atom.pred);
        let (from, to) = atom_window(delta, li, atom.pred.index(), rel.len());
        // Choose the most selective ground column, if any.
        let mut chosen: Option<&[u32]> = None;
        for (c, arg) in atom.args.iter().enumerate() {
            if let TermVal::Val(v) = eval_seq(arg, &st.b, env.store) {
                let list = rel.positions_with(c, v, from, to);
                if chosen.is_none_or(|cur| list.len() < cur.len()) {
                    chosen = Some(list);
                }
            }
        }
        let candidates = match chosen {
            Some(list) => Candidates::List(list),
            None => Candidates::Range(from.min(to), to),
        };
        // Penalty: an unbound indexed base that no earlier bare-variable
        // argument of this same atom will have bound by then.
        let mut bound_by_earlier: u128 = 0;
        let mut needs_enum = false;
        for arg in &atom.args {
            match arg {
                CSeq::Var(v) if (*v as usize) < 128 => {
                    bound_by_earlier |= 1 << v;
                }
                CSeq::Indexed {
                    base: CBase::Var(x),
                    ..
                } => {
                    let already = st.b.seq[*x as usize].is_some()
                        || ((*x as usize) < 128 && bound_by_earlier >> (*x as usize) & 1 == 1);
                    if !already {
                        needs_enum = true;
                        break;
                    }
                }
                _ => {}
            }
        }
        let weight = if needs_enum {
            candidates.len().saturating_mul(env.domain.len().max(1))
        } else {
            candidates.len()
        };
        if best.as_ref().is_none_or(|&(_, _, w)| weight < w) {
            best = Some((li, candidates, weight));
        }
    }

    if let Some((li, candidates, _)) = best {
        let CBody::Atom(atom) = &clause.body[li] else {
            unreachable!()
        };
        let rel = facts.relation(atom.pred);
        let rest = remaining & !(1 << li);
        let mut with_pos = |pos: usize, st: &mut Search, env: &MatchEnv<'_>| {
            let tuple = rel.tuple(pos);
            if tuple.len() != atom.args.len() {
                return; // arity mismatch never unifies
            }
            unify_tuple(&atom.args, tuple, st, env, &mut |st, env| {
                search(clause, env, delta, rest, st, on_match);
            });
        };
        match candidates {
            Candidates::List(list) => {
                for &pos in list {
                    with_pos(pos as usize, st, env);
                }
            }
            Candidates::Range(a, b) => {
                for pos in a..b {
                    with_pos(pos, st, env);
                }
            }
        }
        return;
    }

    // 3½. No atoms remain: process a deferred equality by unification with
    // domain enumeration of its unbound base (the honest Definition 4
    // semantics, now unavoidable).
    if deferred_eq {
        for (li, lit) in clause.body.iter().enumerate() {
            if !live(li) {
                continue;
            }
            if let CBody::Eq(l, r) = lit {
                let lv = eval_seq(l, &st.b, env.store);
                let rv = eval_seq(r, &st.b, env.store);
                let (val, other) = match (lv, rv) {
                    (TermVal::Val(a), TermVal::Unbound) => (a, r),
                    (TermVal::Unbound, TermVal::Val(c)) => (c, l),
                    _ => continue,
                };
                let rest = remaining & !(1 << li);
                unify(other, val, st, env, &mut |st, env| {
                    search(clause, env, delta, rest, st, on_match);
                });
                return;
            }
        }
    }

    // 4. Only non-evaluable (in)equalities remain: enumerate one of their
    // free variables over the domain (sequence) or integer range (index),
    // then retry. This is the honest Definition 4 semantics.
    let mut free_seq: Option<u16> = None;
    let mut free_idx: Option<u16> = None;
    for (li, lit) in clause.body.iter().enumerate() {
        if !live(li) {
            continue;
        }
        let (l, r) = match lit {
            CBody::Eq(l, r) | CBody::Neq(l, r) => (l, r),
            CBody::Atom(_) => unreachable!("atoms handled above"),
        };
        for t in [l, r] {
            let mut sv = Vec::new();
            let mut iv = Vec::new();
            t.seq_vars(&mut sv);
            t.idx_vars(&mut iv);
            free_seq = free_seq.or(sv.into_iter().find(|&v| st.b.seq[v as usize].is_none()));
            free_idx = free_idx.or(iv.into_iter().find(|&v| st.b.idx[v as usize].is_none()));
        }
    }
    if let Some(v) = free_seq {
        let domain: &ExtendedDomain = env.domain;
        for s in domain.iter() {
            let mark = st.mark();
            st.bind_seq(v, s);
            search(clause, env, delta, remaining, st, on_match);
            st.undo_to(mark);
        }
    } else if let Some(v) = free_idx {
        for n in 0..=env.int_upper {
            let mark = st.mark();
            st.bind_idx(v, n);
            search(clause, env, delta, remaining, st, on_match);
            st.undo_to(mark);
        }
    } else {
        // All variables bound yet some (in)equality was neither ground nor
        // one-sided — impossible: with all vars bound every term evaluates.
        unreachable!("bound bindings with non-evaluable literals");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::parser::parse_program;
    use seqlog_sequence::{Alphabet, ExtendedDomain};

    struct Fixture {
        alphabet: Alphabet,
        store: SeqStore,
        domain: ExtendedDomain,
        facts: FactStore,
    }

    impl Fixture {
        fn new() -> Self {
            Self {
                alphabet: Alphabet::new(),
                store: SeqStore::new(),
                domain: ExtendedDomain::new(),
                facts: FactStore::new(),
            }
        }

        fn fact(&mut self, pred: &str, args: &[&str]) {
            let tuple: Vec<SeqId> = args
                .iter()
                .map(|s| {
                    let syms = self.alphabet.seq_of_str(s);
                    self.store.intern_vec(syms)
                })
                .collect();
            for &id in &tuple {
                self.domain.insert_closed(&mut self.store, id);
            }
            self.facts.insert_named(pred, tuple.into());
        }

        fn matches(&mut self, rule: &str) -> Vec<Bindings> {
            let prog = parse_program(rule, &mut self.alphabet, &mut self.store).unwrap();
            let cp = compile(&prog).unwrap();
            // Pre-close constants, as the evaluator does before matching.
            for id in cp.constants() {
                self.store.close_windows(id);
            }
            let clause = &cp.clauses[0];
            // Align the fixture store to the compiled program's ids.
            let facts = self.facts.realigned_to(&cp.preds);
            let mut out = Vec::new();
            let env = MatchEnv {
                store: &self.store,
                domain: &self.domain,
                facts: &facts,
                int_upper: self.domain.int_upper(),
            };
            solve_body(clause, &env, None, &mut |b, _| out.push(b.clone()));
            out
        }

        /// [`solve_body_bound`] of a one-clause `rule` for the head goal
        /// spelled by `goal`.
        fn bound_matches(&mut self, rule: &str, goal: &[&str]) -> Vec<Bindings> {
            let prog = parse_program(rule, &mut self.alphabet, &mut self.store).unwrap();
            let cp = compile(&prog).unwrap();
            let goal: Vec<SeqId> = goal
                .iter()
                .map(|g| self.store.intern_vec(self.alphabet.seq_of_str(g)))
                .collect();
            let facts = self.facts.realigned_to(&cp.preds);
            let env = MatchEnv {
                store: &self.store,
                domain: &self.domain,
                facts: &facts,
                int_upper: self.domain.int_upper(),
            };
            let mut out = Vec::new();
            solve_body_bound(&cp.clauses[0], &env, &goal, &mut |b, _| {
                out.push(b.clone());
            });
            out
        }
    }

    #[test]
    fn plain_join_binds_variables() {
        let mut fx = Fixture::new();
        fx.fact("r", &["ab"]);
        fx.fact("r", &["cd"]);
        let ms = fx.matches("answer(X ++ Y) :- r(X), r(Y).");
        assert_eq!(ms.len(), 4); // 2 × 2 pairs
        assert!(ms.iter().all(|b| b.seq.iter().all(Option::is_some)));
    }

    #[test]
    fn indexed_term_unification_enumerates_occurrences() {
        let mut fx = Fixture::new();
        fx.fact("hay", &["abab"]);
        fx.fact("needle", &["ab"]);
        // For each occurrence of the needle: N1 bound to its start.
        let ms = fx.matches("p(X) :- hay(X), needle(X[N1:N2]).");
        assert_eq!(ms.len(), 2);
        let mut starts: Vec<i64> = ms.iter().map(|b| b.idx[0].unwrap()).collect();
        starts.sort_unstable();
        assert_eq!(starts, vec![1, 3]);
    }

    #[test]
    fn equality_with_one_ground_side_unifies() {
        let mut fx = Fixture::new();
        fx.fact("r", &["abc"]);
        let ms = fx.matches(r#"p(X) :- r(X), X[1] = "a"."#);
        assert_eq!(ms.len(), 1);
        let ms = fx.matches(r#"p(X) :- r(X), X[1] = "b"."#);
        assert!(ms.is_empty());
    }

    #[test]
    fn undefined_terms_fail_the_substitution() {
        let mut fx = Fixture::new();
        fx.fact("r", &["ab"]);
        // X[5] is undefined for a length-2 sequence: θ is not defined at the
        // clause, so no substitution matches.
        let ms = fx.matches(r#"p(X) :- r(X), X[5] = "a"."#);
        assert!(ms.is_empty());
    }

    #[test]
    fn inequality_filters() {
        let mut fx = Fixture::new();
        fx.fact("r", &["a"]);
        fx.fact("r", &["b"]);
        let ms = fx.matches("p(X, Y) :- r(X), r(Y), X != Y.");
        assert_eq!(ms.len(), 2); // (a,b) and (b,a)
    }

    #[test]
    fn unguarded_base_ranges_over_domain() {
        let mut fx = Fixture::new();
        fx.fact("q", &["bc"]);
        fx.fact("seed", &["abc"]);
        // X is unguarded: it ranges over the extended active domain; the
        // members with X[2:end] = "bc" are exactly "abc" (from seed's
        // closure... "abc"[2:3]="bc" ✓) and "bbc"? not in domain. Also "bc"
        // itself? "bc"[2:2]="c" ≠ "bc". So only "abc".
        let ms = fx.matches("p(X) :- q(X[2:end]).");
        let vals: Vec<SeqId> = ms.iter().map(|b| b.seq[0].unwrap()).collect();
        assert_eq!(vals.len(), 1);
        let expected = {
            let syms = fx.alphabet.seq_of_str("abc");
            fx.store.intern_vec(syms)
        };
        assert_eq!(vals[0], expected);
    }

    #[test]
    fn matching_never_grows_the_store() {
        let mut fx = Fixture::new();
        fx.fact("hay", &["abab"]);
        fx.fact("needle", &["ab"]);
        fx.fact("r", &["abc"]);
        fx.fact("q", &["bc"]);
        let rules = [
            "p(X) :- hay(X), needle(X[N1:N2]).",
            "p(X) :- q(X[2:end]).",
            r#"p(X) :- r(X), X[1] = "a"."#,
            "suffix(X[N:end]) :- r(X).",
        ];
        for rule in rules {
            // Parse + pre-close first (those intern), then measure.
            let prog = parse_program(rule, &mut fx.alphabet, &mut fx.store).unwrap();
            let cp = compile(&prog).unwrap();
            for id in cp.constants() {
                fx.store.close_windows(id);
            }
            let facts = fx.facts.realigned_to(&cp.preds);
            let before = fx.store.count();
            let env = MatchEnv {
                store: &fx.store,
                domain: &fx.domain,
                facts: &facts,
                int_upper: fx.domain.int_upper(),
            };
            let mut n = 0usize;
            solve_body(&cp.clauses[0], &env, None, &mut |_, _| n += 1);
            assert!(n > 0, "{rule} must actually exercise the match paths");
            assert_eq!(fx.store.count(), before, "{rule} interned during match");
        }
    }

    #[test]
    fn overflowing_index_arithmetic_is_undefined_not_a_panic() {
        // Adversarial constants: N + i64::MAX and 0 - i64::MAX - ... would
        // wrap (release) or panic (debug) under unchecked arithmetic. They
        // must instead behave as undefined — no matches, no crash.
        let mut fx = Fixture::new();
        fx.fact("r", &["abc"]);
        let ms = fx.matches(&format!("p(X) :- r(X), X[N + {} : end] = \"a\".", i64::MAX));
        assert!(ms.is_empty());
        let ms = fx.matches(&format!(
            "p(X) :- r(X), X[1 - 2 - {} : end] = \"a\".",
            i64::MAX
        ));
        assert!(ms.is_empty());
        // Ground overflowing endpoints on an atom argument, too.
        let ms = fx.matches(&format!("p(X) :- r(X[{} + {} : end]).", i64::MAX, i64::MAX));
        assert!(ms.is_empty());
        // Sanity: the same shapes with small constants still match.
        let ms = fx.matches("p(X) :- r(X), X[N + 1 : end] = \"c\".");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].idx[0], Some(2));
    }

    #[test]
    fn eval_idx_checked_arithmetic() {
        let b = Bindings {
            seq: vec![],
            idx: vec![Some(3)],
        };
        let add = CIdx::Add(Box::new(CIdx::Var(0)), Box::new(CIdx::Int(i64::MAX)));
        assert_eq!(eval_idx(&add, &b, 10), IdxVal::Undefined);
        let sub = CIdx::Sub(Box::new(CIdx::Int(i64::MIN)), Box::new(CIdx::Var(0)));
        assert_eq!(eval_idx(&sub, &b, 10), IdxVal::Undefined);
        let ok = CIdx::Add(Box::new(CIdx::Var(0)), Box::new(CIdx::End));
        assert_eq!(eval_idx(&ok, &b, 10), IdxVal::Val(13));
        let unbound = CIdx::Add(Box::new(CIdx::Var(0)), Box::new(CIdx::Var(1)));
        let b2 = Bindings {
            seq: vec![],
            idx: vec![Some(3), None],
        };
        assert_eq!(eval_idx(&unbound, &b2, 10), IdxVal::Unbound);
        // Undefined dominates Unbound: no binding can repair an overflow.
        let dominated = CIdx::Add(
            Box::new(CIdx::Var(1)),
            Box::new(CIdx::Add(
                Box::new(CIdx::Int(1)),
                Box::new(CIdx::Int(i64::MAX)),
            )),
        );
        assert_eq!(eval_idx(&dominated, &b2, 10), IdxVal::Undefined);
    }

    #[test]
    fn delta_restriction_limits_candidates() {
        let mut fx = Fixture::new();
        fx.fact("r", &["a"]);
        fx.fact("r", &["b"]);
        let prog = parse_program("p(X) :- r(X).", &mut fx.alphabet, &mut fx.store).unwrap();
        let cp = compile(&prog).unwrap();
        let facts = fx.facts.realigned_to(&cp.preds);
        let env = MatchEnv {
            store: &fx.store,
            domain: &fx.domain,
            facts: &facts,
            int_upper: fx.domain.int_upper(),
        };
        let sizes_before = vec![0; cp.preds.len()];
        // Only tuples from position 1 (the second fact).
        let mut out = Vec::new();
        solve_body(
            &cp.clauses[0],
            &env,
            Some(Delta {
                at: 0,
                from: 1,
                to: 2,
                sizes_before: &sizes_before,
            }),
            &mut |b, _| out.push(b.clone()),
        );
        assert_eq!(out.len(), 1);
        // A chunked window excluding both facts matches nothing.
        let mut out = Vec::new();
        solve_body(
            &cp.clauses[0],
            &env,
            Some(Delta {
                at: 0,
                from: 0,
                to: 0,
                sizes_before: &sizes_before,
            }),
            &mut |b, _| out.push(b.clone()),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn delta_restricts_prior_literals_to_the_preround_prefix() {
        // Clause body r(X), r(Y) with the delta on the second literal: the
        // first literal must range only over the pre-round prefix, so each
        // new–new pair is derived by exactly one per-literal firing.
        let mut fx = Fixture::new();
        fx.fact("r", &["a"]); // position 0: "old"
        fx.fact("r", &["b"]); // position 1: the round's delta
        let prog =
            parse_program("p(X, Y) :- r(X), r(Y).", &mut fx.alphabet, &mut fx.store).unwrap();
        let cp = compile(&prog).unwrap();
        let facts = fx.facts.realigned_to(&cp.preds);
        let env = MatchEnv {
            store: &fx.store,
            domain: &fx.domain,
            facts: &facts,
            int_upper: fx.domain.int_upper(),
        };
        let mut sizes_before = vec![0; cp.preds.len()];
        let r_id = cp.preds.lookup("r").unwrap();
        sizes_before[r_id.index()] = 1;
        let collect = |at: usize| {
            let mut out = Vec::new();
            solve_body(
                &cp.clauses[0],
                &env,
                Some(Delta {
                    at,
                    from: 1,
                    to: 2,
                    sizes_before: &sizes_before,
                }),
                &mut |b, _| out.push((b.seq[0].unwrap(), b.seq[1].unwrap())),
            );
            out
        };
        // Firing with delta at literal 0: X ∈ Δ, Y ∈ full — (b,a), (b,b).
        let at0 = collect(0);
        // Firing with delta at literal 1: X ∈ old prefix, Y ∈ Δ — (a,b).
        let at1 = collect(1);
        assert_eq!(at0.len(), 2);
        assert_eq!(at1.len(), 1);
        // Together: every pair touching the delta exactly once, no overlap.
        let mut all = at0;
        all.extend(at1);
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn trailing_free_equality_enumerates_domain() {
        let mut fx = Fixture::new();
        fx.fact("r", &["ab"]);
        // Y is free on both sides of the equality: enumerate the domain.
        // Members equal to their own full slice: all of them.
        let ms = fx.matches("p(Y) :- r(X), Y = Y.");
        // domain of "ab": ε, a, b, ab → 4 members.
        assert_eq!(ms.len(), 4);
    }

    #[test]
    fn scratch_bindings_are_restored_between_matches() {
        // The same scratch substitution is reused across candidate tuples
        // via the undo trail. Every delivered substitution must be fully
        // bound, and an unbalanced bind/undo would skew the solution count
        // of a repeated solve — both solves must agree exactly.
        let mut fx = Fixture::new();
        fx.fact("r", &["a"]);
        fx.fact("r", &["b"]);
        fx.fact("r", &["c"]);
        let prog =
            parse_program("p(X, Y) :- r(X), r(Y).", &mut fx.alphabet, &mut fx.store).unwrap();
        let cp = compile(&prog).unwrap();
        let facts = fx.facts.realigned_to(&cp.preds);
        let env = MatchEnv {
            store: &fx.store,
            domain: &fx.domain,
            facts: &facts,
            int_upper: fx.domain.int_upper(),
        };
        let mut solutions: Vec<Vec<Bindings>> = Vec::new();
        for _ in 0..2 {
            let mut out = Vec::new();
            solve_body(&cp.clauses[0], &env, None, &mut |b, _| {
                assert!(b.seq.iter().all(Option::is_some));
                out.push(b.clone());
            });
            assert_eq!(out.len(), 9);
            solutions.push(out);
        }
        assert_eq!(solutions[0], solutions[1]);
    }

    #[test]
    fn bound_head_restricts_the_search_to_its_goal() {
        let mut fx = Fixture::new();
        fx.fact("edge", &["a", "b"]);
        fx.fact("edge", &["b", "c"]);
        fx.fact("edge", &["a", "d"]);
        fx.fact("anc", &["b", "c"]);
        fx.fact("anc", &["d", "c"]);
        let rule = "anc(X, Z) :- edge(X, Y), anc(Y, Z).";
        // anc(a, c) has two derivations, through b and through d.
        let ms = fx.bound_matches(rule, &["a", "c"]);
        assert_eq!(ms.len(), 2);
        let a = fx.store.intern_vec(fx.alphabet.seq_of_str("a"));
        assert!(ms.iter().all(|b| b.seq[0] == Some(a)));
        assert!(fx.bound_matches(rule, &["b", "b"]).is_empty());
        // A repeated head variable must meet equal values; a goal of the
        // wrong arity matches nothing.
        fx.fact("r", &["a"]);
        assert_eq!(fx.bound_matches("p(X, X) :- r(X).", &["a", "a"]).len(), 1);
        assert!(fx.bound_matches("p(X, X) :- r(X).", &["a", "b"]).is_empty());
        assert!(fx.bound_matches("p(X, X) :- r(X).", &["a"]).is_empty());
    }

    #[test]
    fn arity_mismatched_tuples_never_unify() {
        // The store does not enforce per-predicate arity; an atom must
        // match only tuples of its own arity (no prefix matching).
        let mut fx = Fixture::new();
        fx.fact("r", &["a"]);
        fx.fact("r", &["a", "b"]);
        let ms = fx.matches("p(X) :- r(X).");
        assert_eq!(ms.len(), 1, "only the arity-1 tuple matches");
        let ms = fx.matches("p(X, Y) :- r(X, Y).");
        assert_eq!(ms.len(), 1, "only the arity-2 tuple matches");
    }
}
