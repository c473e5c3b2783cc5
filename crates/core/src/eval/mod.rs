//! Fixpoint evaluation of Sequence Datalog / Transducer Datalog programs
//! (Section 3.3, extended with transducer terms per Section 7.1).
//!
//! The evaluator computes `lfp(T_{P,db}) = T_{P,db} ↑ ω` bottom-up. Each
//! round applies the T-operator to the current interpretation: substitutions
//! range over the extended active domain *of that interpretation*
//! (Definition 4), new facts are collected and committed at the end of the
//! round, and every sequence occurring in a committed fact enters the domain
//! together with its contiguous subsequences.
//!
//! # Two-phase rounds: match, then commit
//!
//! Every round runs in two phases, one after the other on the calling
//! thread:
//!
//! 1. **Match** — read-only on shared state. The round's work is split
//!    into *match tasks* (one clause, optionally restricted to a
//!    fixed-size chunk of one body literal's semi-naive delta, or to a
//!    chunk of DRed's re-derivation goals). Each task runs the matcher
//!    over `&SeqStore`/`&FactStore`/`&ExtendedDomain` borrows and emits
//!    *recipes* (fully bound substitutions, flat in a per-task buffer).
//! 2. **Commit** — in task order. Each task's recipes are walked in
//!    emission order: the clause head is evaluated under the recipe
//!    against `&mut SeqStore`, interning fresh values (concatenations,
//!    transducer outputs, windows) directly; a goal recipe keeps only its
//!    goal; the tuple goes through one [`interp::Relation::insert`]; a new
//!    fact's sequences are closed into the domain; statistics accumulate;
//!    and the budgets are checked after every new fact — a single wide
//!    round cannot overshoot `max_facts` by more than one fact. The first
//!    head-evaluation or budget error stops the walk at its recipe.
//!
//! The phases stay apart because the commit mutates the relations, the
//! store and the domain that the match iterates: every substitution of a
//! round ranges over the interpretation *entering* the round (the
//! T-operator of Section 3.3), never over facts the same round added.
//!
//! Evaluation is **deterministic by construction**: one thread runs the
//! task list in order, and the task list depends only on the program and
//! the interpretation. The model, each relation's insertion order, the
//! interner's id numbering, and [`EvalStats`] are therefore a function of
//! the program, the database and the configuration, on success and on
//! error alike.
//!
//! Read-only matching leans on the closure invariant of Definition 2: every
//! window of a domain member is already interned, so indexed terms resolve
//! by [`SeqStore::subseq_lookup`] instead of interning. Program constants
//! are pre-closed ([`SeqStore::close_windows`]) before the first round to
//! extend the invariant to constant bases.
//!
//! # Interned, index-addressed core
//!
//! The hot loop never touches a predicate-name `String`:
//!
//! * compilation interns every predicate to a dense
//!   [`PredId`] in the program's [`PredTable`];
//! * the [`FactStore`] is a `Vec<Relation>` indexed by `PredId` (the store's
//!   table starts as a copy of the program's, so compiled ids index it
//!   directly; database-only predicates extend it at seeding);
//! * [`interp::Relation::insert`] performs a **single hash probe** per tuple
//!   (open addressing over cached tuple hashes — no `contains`+`insert`
//!   pair, no tuple clone);
//! * the per-round delta snapshot ([`FactStore::sizes`]) is a plain
//!   `Vec<usize>` copy, and recipes are flat `SeqId`/`i64` buffers — zero
//!   `String` allocations per derived fact;
//! * the matcher ([`matcher`]) runs on one scratch substitution per task
//!   with a bind/undo trail — no `Bindings` clone per candidate.
//!
//! `&str` lookups remain available at the API boundary
//! ([`Model::tuples`], [`FactStore::contains`]).
//!
//! # Budgets and strategies
//!
//! Because the finiteness problem is fully undecidable (Theorem 2), the
//! evaluator enforces explicit budgets ([`EvalConfig`]) and reports
//! [`BudgetKind`]-tagged errors instead of diverging on programs like
//! Example 1.5's `rep2` or Example 1.6's `echo`. Budgets are checked as the
//! commit phase inserts facts, not just between rounds.
//!
//! Both strategies run through the one round loop ([`Fixpoint::run`]).
//! [`Strategy::SemiNaive`] (the default) walks the program's SCC schedule
//! ([`crate::analysis::Schedule`]) with delta-driven rounds.
//! [`Strategy::Naive`] is the same loop over a single stratum holding every
//! clause, with every task planned full in every round: the literal
//! T-operator iteration, kept as the executable specification that
//! semi-naive is differentially tested against. Semi-naive fires
//! each clause once per body-literal occurrence of a grown predicate, with
//! that occurrence restricted to the delta, occurrences *before* it
//! restricted to the pre-round prefix, and occurrences after it unrestricted
//! — so a clause mentioning the same grown predicate twice derives each
//! new–new combination exactly once. *Domain-sensitive* clauses (those that
//! enumerate the extended active domain) are additionally re-evaluated in
//! full whenever the domain has grown.
//!
//! # Reading [`EvalStats`]
//!
//! `stats.derivations` counts **head instantiations attempted** (recipes
//! emitted), including duplicates that the fact store then rejects — it is
//! the work measure of the T-operator, not the output size (`stats.facts`
//! is). A large `derivations`-to-`facts` ratio under [`Strategy::Naive`]
//! and a near-1 ratio under [`Strategy::SemiNaive`] is the expected
//! signature of delta evaluation working; `transducer_calls`/
//! `transducer_steps` account for embedded machine runs separately.

pub mod interp;
pub mod matcher;

use crate::analysis::Stratum;
use crate::compile::{
    CBase, CBody, CIdx, CSeq, CompileError, CompiledClause, CompiledProgram, PredId, PredTable,
};
use crate::registry::TransducerRegistry;
use interp::{FactStore, Relation};
use matcher::{solve_body, solve_body_bound, Bindings, Delta, MatchEnv};
use seqlog_sequence::{ExtendedDomain, FxHashSet, SeqId, SeqStore, Sym};
use seqlog_transducer::{ExecLimits, ExecStats};
use std::fmt;

/// Evaluation strategy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Literal T-operator iteration — the executable specification.
    Naive,
    /// Delta-driven evaluation (default).
    #[default]
    SemiNaive,
}

/// Evaluation budgets and strategy selection.
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig {
    /// Strategy to use.
    pub strategy: Strategy,
    /// Maximum T-operator rounds.
    pub max_rounds: usize,
    /// Maximum total facts.
    pub max_facts: usize,
    /// Maximum extended-active-domain size (member sequences).
    pub max_domain: usize,
    /// Maximum length of any created sequence.
    pub max_seq_len: usize,
    /// Budgets for embedded transducer runs.
    pub exec_limits: ExecLimits,
    /// Run the compile-time transducer-fusion pass
    /// ([`crate::analysis::fuse`]) when a session opens (default `true`).
    /// With `false`, chained transducer calls are evaluated stage by stage.
    /// Fusion is a pure rewrite, so the extent is bit-for-bit identical
    /// either way.
    pub fusion: bool,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            strategy: Strategy::SemiNaive,
            max_rounds: 10_000,
            max_facts: 1_000_000,
            max_domain: 1_000_000,
            max_seq_len: 65_536,
            exec_limits: ExecLimits::default(),
            fusion: true,
        }
    }
}

impl EvalConfig {
    /// A small-budget configuration for probing programs suspected of
    /// having an infinite least fixpoint (Examples 1.5/1.6).
    pub fn probe() -> Self {
        Self {
            max_rounds: 50,
            max_facts: 20_000,
            max_domain: 20_000,
            max_seq_len: 4_096,
            ..Self::default()
        }
    }

    /// The default configuration. Evaluation runs on the calling thread,
    /// so the thread count is ignored; the constructor remains for callers
    /// written when the match phase had worker threads.
    pub fn with_threads(_threads: usize) -> Self {
        Self::default()
    }
}

/// Which budget was exhausted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// `max_rounds`.
    Rounds,
    /// `max_facts`.
    Facts,
    /// `max_domain`.
    DomainSize,
    /// `max_seq_len`.
    SeqLen,
}

/// Counters describing an evaluation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// T-operator rounds performed.
    pub rounds: usize,
    /// Facts in the final (or partial) interpretation.
    pub facts: usize,
    /// Extended-active-domain size.
    pub domain_size: usize,
    /// Longest sequence created during evaluation.
    pub max_seq_len: usize,
    /// Head instantiations attempted (including duplicates rejected by the
    /// fact store) — the T-operator work measure, not the output size.
    pub derivations: u64,
    /// Transducer-term evaluations.
    pub transducer_calls: u64,
    /// Total transducer transitions across all calls.
    pub transducer_steps: u64,
}

/// Evaluation errors.
#[derive(Clone, Debug)]
pub enum EvalError {
    /// Static validation failed.
    Compile(CompileError),
    /// A budget was exhausted — the program may have an infinite least
    /// fixpoint (Theorem 2 makes this undecidable in general).
    Budget {
        /// Exhausted budget.
        kind: BudgetKind,
        /// Statistics at the point of interruption.
        stats: EvalStats,
    },
    /// A transducer term refers to a machine that is not registered.
    UnknownTransducer(String),
    /// A database handed to an assert or to batch evaluation named a
    /// sequence id the store never issued. Refused before anything is
    /// logged, interned or seeded; a session is not poisoned, and an
    /// [`crate::engine::Engine`] keeps its interners.
    UnknownSeq(SeqId),
    /// A transducer run failed (stuck machine or exec budget).
    Transducer {
        /// Machine name.
        name: String,
        /// Rendered execution error.
        error: String,
    },
    /// The session that was asked to do this work was poisoned by an
    /// earlier evaluation error and refuses further mutation (see
    /// [`crate::session::EngineSession`]; the read API stays available).
    Poisoned {
        /// The error that poisoned the session.
        original: Box<EvalError>,
    },
    /// A durable session's on-disk state could not be written or rebuilt
    /// (see [`crate::wal`] and [`crate::snapshot`]). On the write path the
    /// refused mutation was **not** applied; on the recovery path no
    /// session state was replaced.
    Recovery(crate::wal::RecoveryError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Compile(e) => write!(f, "{e}"),
            Self::Budget { kind, stats } => write!(
                f,
                "budget exhausted ({kind:?}) after {} rounds, {} facts, domain {}",
                stats.rounds, stats.facts, stats.domain_size
            ),
            Self::UnknownTransducer(n) => write!(f, "unknown transducer @{n}"),
            Self::UnknownSeq(id) => write!(f, "unknown sequence id {}", id.0),
            Self::Transducer { name, error } => write!(f, "transducer @{name}: {error}"),
            Self::Poisoned { original } => {
                write!(f, "session poisoned by earlier error: {original}")
            }
            Self::Recovery(e) => write!(f, "durability: {e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<CompileError> for EvalError {
    fn from(e: CompileError) -> Self {
        Self::Compile(e)
    }
}

impl From<crate::wal::RecoveryError> for EvalError {
    fn from(e: crate::wal::RecoveryError) -> Self {
        Self::Recovery(e)
    }
}

/// The result of a (terminating) evaluation: the least fixpoint
/// interpretation, its extended active domain, and statistics.
#[derive(Clone, Debug)]
pub struct Model {
    /// The least fixpoint `T_{P,db} ↑ ω`.
    pub facts: FactStore,
    /// Its extended active domain.
    pub domain: ExtendedDomain,
    /// Evaluation statistics.
    pub stats: EvalStats,
}

impl Model {
    /// Tuples of `pred` (empty when absent). Allocates a `Vec` of
    /// references; iterate `self.facts.relation_named(pred)` via
    /// [`interp::Relation::iter`] to avoid it.
    pub fn tuples(&self, pred: &str) -> Vec<&[SeqId]> {
        self.facts.tuples(pred)
    }

    /// Membership test.
    pub fn contains(&self, pred: &str, tuple: &[SeqId]) -> bool {
        self.facts.contains(pred, tuple)
    }
}

/// One unit of a round's match work: one clause, optionally restricted to
/// a chunk `from..to` of body-literal `at`'s semi-naive delta, or bound to
/// a chunk of the round's goal tuples.
#[derive(Clone, Copy, Debug)]
struct MatchTask {
    clause: usize,
    /// `(at, from, to)` — `None` for a full (unrestricted) application.
    delta: Option<(usize, usize, usize)>,
    /// `(from, to)` — head-bound re-derivation (DRed pass 4): match once
    /// per goal tuple `goals[from..to]` of the round, with the head's plain
    /// variables pre-bound from it, and admit only head instances equal to
    /// their goal. `None` for an ordinary application.
    goals: Option<(usize, usize)>,
}

impl MatchTask {
    /// A full (unrestricted) application of clause `clause`.
    fn full(clause: usize) -> Self {
        Self {
            clause,
            delta: None,
            goals: None,
        }
    }
}

/// Delta tuples (or DRed goals) per task. The chunks fix the commit order:
/// the matcher picks its literal order from candidate counts, so a
/// different chunking can reorder a round's recipes, and with them the
/// insertion order and the interner's id numbering.
const DELTA_CHUNK: usize = 256;

/// Recipes of one task: fully bound substitutions for the task's clause,
/// stored flat with stride `n_seq` / `n_idx`. The commit phase evaluates
/// the clause head under each of them.
#[derive(Default)]
struct RecipeBuf {
    seqs: Vec<SeqId>,
    idxs: Vec<i64>,
    count: usize,
    /// Per recipe of a goal task: the index of the goal it must derive.
    /// Empty for every other task.
    goal_of: Vec<usize>,
}

impl RecipeBuf {
    /// Empty the buffer for reuse, keeping its allocations (the DRed
    /// over-delete loop runs one scratch buffer across all propagations).
    fn clear(&mut self) {
        self.seqs.clear();
        self.idxs.clear();
        self.count = 0;
        self.goal_of.clear();
    }
}

/// What one [`Fixpoint::assert_fact_full`] actually changed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AssertOutcome {
    /// The fact was new to the interpretation (it will be part of the next
    /// run's semi-naive delta).
    pub new_fact: bool,
    /// The fact was new to the *base* set (it may already have been present
    /// as a derived fact).
    pub new_base: bool,
}

/// Resumable semi-naive fixpoint state: an interpretation under
/// construction, together with the bookkeeping the round loop needs to
/// *re-enter* evaluation after new base facts arrive.
///
/// Every evaluation goes through a [`crate::session::EngineSession`], which
/// owns one of these. Batch evaluation
/// ([`crate::engine::Engine::evaluate_with`]) seeds a fresh `Fixpoint` from
/// the database and [`run`](Fixpoint::run)s it to quiescence once; a
/// long-lived session instead keeps it alive across updates:
/// [`assert_fact`](Fixpoint::assert_fact) inserts new base facts after a
/// fixpoint has been reached — closing the extended active
/// domain over their sequences at assert time, exactly as initial seeding
/// does — and the next `run` resumes the round loop with exactly
/// those facts as the semi-naive delta.
///
/// Resumption is sound because `T_{P,db}` is monotone (Definitions 2–3):
/// the settled interpretation `lfp(T_{P,db})` is contained in
/// `lfp(T_{P,db∪Δ})`, every clause is already closed over the settled
/// facts, and any *new* derivation must bind at least one body literal to a
/// delta fact (covered by the delta tasks) or consult a domain member that
/// did not exist before (covered by re-running domain-sensitive clauses
/// whenever [`domain_done`](#structfield.domain_done) is behind the current
/// domain). Iterating from the grown intermediate interpretation therefore
/// converges to `lfp(T_{P,db∪Δ})` itself — the same model a batch
/// re-evaluation from scratch computes.
///
/// `stats` accumulate across runs (`rounds` counts every round ever
/// executed); the `max_rounds` budget is enforced **per run**, so a
/// long-lived session is not eventually starved by its own uptime. The
/// remaining budgets (`max_facts`, `max_domain`, `max_seq_len`) bound the
/// cumulative state and behave exactly as in batch evaluation.
#[derive(Clone, Debug)]
pub struct Fixpoint {
    facts: FactStore,
    domain: ExtendedDomain,
    stats: EvalStats,
    /// Per-relation fact counts (indexed by `PredId`) that the round loop
    /// has fully processed; facts beyond them form the next delta.
    sizes_done: Vec<usize>,
    /// Domain size the domain-sensitive clauses have been evaluated
    /// against; when the domain outgrows it, those clauses re-run in full.
    domain_done: usize,
    /// True until the first round runs. The first round of a fixpoint's
    /// life is a *full* round: it fires empty-body program clauses and
    /// initializes the semi-naive deltas.
    virgin: bool,
    /// The *base* (asserted/seeded) facts, indexed by `PredId` — the `db`
    /// of `lfp(T_{P,db})`. Retraction is defined over this set: derived
    /// facts can only disappear by losing base support, and surviving base
    /// facts are the re-derivation frontier of Delete-and-Rederive
    /// ([`Fixpoint::retract_facts`]). A fact both derivable and asserted is
    /// recorded here even when its `FactStore` insert deduped.
    base: Vec<Relation>,
}

impl Fixpoint {
    /// Empty state for `program`: the fact store's predicate table starts
    /// as a copy of the program's, so compiled `PredId`s address relations
    /// directly. The caller is responsible for window-closing program
    /// constants ([`SeqStore::close_windows`]) before the first
    /// [`run`](Fixpoint::run), as [`crate::session::EngineSession`] does.
    pub fn new(program: &CompiledProgram) -> Self {
        Self {
            facts: FactStore::with_preds(program.preds.clone()),
            domain: ExtendedDomain::new(),
            stats: EvalStats::default(),
            sizes_done: Vec::new(),
            domain_done: 0,
            virgin: true,
            base: Vec::new(),
        }
    }

    /// Intern `name` in the state's predicate table (extending it past the
    /// program's predicates when needed).
    pub fn pred_id(&mut self, name: &str) -> PredId {
        self.facts.pred_id(name)
    }

    /// Insert a base fact, closing the extended active domain over its
    /// sequences (Definition 2) so a subsequent [`run`](Fixpoint::run) can
    /// match it read-only. Returns `true` when the fact is new; new facts
    /// become part of the next run's semi-naive delta.
    ///
    /// The fact is also recorded as *base* — even when the interpretation
    /// already contains it as a derived fact — so that
    /// [`retract_facts`](Fixpoint::retract_facts) knows what the database
    /// proper consists of.
    pub fn assert_fact(&mut self, store: &mut SeqStore, pred: PredId, tuple: Box<[SeqId]>) -> bool {
        self.assert_fact_full(store, pred, tuple).new_fact
    }

    /// [`assert_fact`](Fixpoint::assert_fact), reporting separately whether
    /// the fact was new to the interpretation and new to the base set (the
    /// distinction the session's atomic batch rollback needs).
    pub fn assert_fact_full(
        &mut self,
        store: &mut SeqStore,
        pred: PredId,
        tuple: Box<[SeqId]>,
    ) -> AssertOutcome {
        if self.base.len() <= pred.index() {
            self.base.resize_with(pred.index() + 1, Relation::default);
        }
        let new_base = self.base[pred.index()].insert(tuple.clone());
        if !self.facts.insert(pred, tuple) {
            return AssertOutcome {
                new_fact: false,
                new_base,
            };
        }
        // The just-inserted tuple is the relation's last; read it back for
        // domain closure instead of cloning it up front.
        let rel = self.facts.relation(pred);
        let inserted = rel.tuple(rel.len() - 1);
        for &id in inserted {
            self.domain.insert_closed(store, id);
        }
        AssertOutcome {
            new_fact: true,
            new_base,
        }
    }

    /// True when `tuple` is recorded as a base (asserted/seeded) fact.
    pub fn is_base_fact(&self, pred: PredId, tuple: &[SeqId]) -> bool {
        self.base
            .get(pred.index())
            .is_some_and(|r| r.contains(tuple))
    }

    /// Reverse a *pending* assert (one made since the last run): withdraw
    /// the fact from the interpretation and the base set without any
    /// Delete-and-Rederive maintenance, and release its arguments from the
    /// extended active domain. Sound only because an un-run fact has no
    /// derived consequences and sits beyond every watermark; the session
    /// uses this to make batch asserts failure-atomic. Undoing asserts
    /// newest first removes exactly the domain members they introduced,
    /// which sit at the tail of the member order, so the domain rollback
    /// costs what the asserts added. Leaves fact tombstones — the caller
    /// finishes a rollback (however many facts it spans) with one
    /// [`Fixpoint::compact_pending`]. Returns whether the fact was present.
    pub fn unassert_pending(
        &mut self,
        store: &SeqStore,
        pred: PredId,
        tuple: &[SeqId],
        drop_base: bool,
    ) -> bool {
        if drop_base {
            self.drop_base_record(pred, tuple);
        }
        let removed = self.facts.remove(pred, tuple);
        if removed {
            self.domain.release(store, tuple.iter().copied());
        }
        removed
    }

    /// Withdraw only the *base* record of a duplicate assert (the fact
    /// itself predates the assert and stays). The other half of the
    /// session's batch rollback; tombstones like
    /// [`Fixpoint::unassert_pending`].
    pub fn drop_base_record(&mut self, pred: PredId, tuple: &[SeqId]) -> bool {
        self.base
            .get_mut(pred.index())
            .is_some_and(|rel| rel.remove(tuple))
    }

    /// Compact every tombstone a rollback left behind (fact store and base
    /// set). One call per rollback, not per fact.
    pub fn compact_pending(&mut self) {
        self.facts.compact();
        for rel in &mut self.base {
            rel.compact();
        }
    }

    /// The current interpretation.
    pub fn facts(&self) -> &FactStore {
        &self.facts
    }

    /// The current extended active domain.
    pub fn domain(&self) -> &ExtendedDomain {
        &self.domain
    }

    /// Cumulative statistics, finalized against the current state (facts
    /// asserted since the last run are included in `facts`/`domain_size`).
    pub fn stats(&self) -> EvalStats {
        let mut stats = self.stats;
        finalize_stats(&mut stats, &self.facts, &self.domain);
        stats
    }

    /// The raw cumulative statistics, exactly as the round loop last left
    /// them — **not** finalized against the current state. This is what the
    /// durability layer must persist: [`Fixpoint::stats`] latches
    /// `max_seq_len` against the *current* domain into its returned copy,
    /// and a live session only writes that latch into its own state at the
    /// next run's budget check. Persisting the finalized copy would let a
    /// checkpoint taken between an assert and a retract record a high-water
    /// mark the uncrashed session never records — breaking bit-for-bit
    /// recovery by the act of checkpointing.
    pub fn stats_raw(&self) -> EvalStats {
        self.stats
    }

    /// A [`Model`] clone of the current state (the session read API).
    pub fn snapshot(&self) -> Model {
        Model {
            facts: self.facts.clone(),
            domain: self.domain.clone(),
            stats: self.stats(),
        }
    }

    /// Consume the state into a [`Model`].
    pub fn into_model(self) -> Model {
        let stats = self.stats();
        Model {
            facts: self.facts,
            domain: self.domain,
            stats,
        }
    }

    /// The base (asserted/seeded) relations, indexed by `PredId`. May be
    /// shorter than the fact store's relation list (predicates that were
    /// never asserted have no entry). Read-only: the durability layer
    /// serializes this to snapshots.
    pub fn base_relations(&self) -> &[Relation] {
        &self.base
    }

    /// The per-relation semi-naive watermarks (processed fact counts,
    /// indexed by `PredId`); facts beyond them form the next run's delta.
    pub fn sizes_done(&self) -> &[usize] {
        &self.sizes_done
    }

    /// True until the first round has run (the first round of a fixpoint's
    /// life is a full round).
    pub fn is_virgin(&self) -> bool {
        self.virgin
    }

    /// True when the domain-sensitive clauses have been evaluated against
    /// the current extended active domain (no pending domain growth).
    pub fn domain_settled(&self) -> bool {
        self.domain_done == self.domain.len()
    }

    /// True when the state is `lfp(T_{P,db})` of its current base facts,
    /// so every relation already holds its full extent: a round has run,
    /// every relation — asserted-only predicates past the program's
    /// included — is at its semi-naive watermark (no pending delta), and
    /// the domain-sensitive clauses have seen the whole extended active
    /// domain.
    ///
    /// Through the session API the domain conjunct never decides alone:
    /// the domain changes only together with the facts (an assert closes
    /// over its arguments, a rollback or retraction releases them), so a
    /// domain behind its watermark always comes with a relation behind
    /// its own. It guards the states [`Fixpoint::restore`] can build
    /// with `domain_settled = false`, pinned by the
    /// `is_settled_needs_every_watermark` test.
    pub fn is_settled(&self) -> bool {
        !self.virgin
            && self.domain_settled()
            && self
                .facts
                .relations()
                .all(|(p, rel)| rel.len() == self.sizes_done.get(p.index()).copied().unwrap_or(0))
    }

    /// Rebuild a `Fixpoint` from persisted parts. The extended active
    /// domain is **recomputed** by closing over every sequence of every
    /// loaded fact (Definition 4 makes it a function of the
    /// interpretation) — it is deliberately not a parameter, so no on-disk
    /// format can install a domain the facts do not justify. Constructive
    /// growth is therefore exactly reproduced: a corrupt or stale domain
    /// cannot survive recovery. The recomputation visits members in
    /// relation-iteration order; callers that recorded the live session's
    /// chronological member order can re-impose it afterwards with
    /// [`Fixpoint::adopt_domain_order`], which accepts only a permutation
    /// of the recomputed set.
    ///
    /// `domain_settled` restores the domain watermark as a bit: either the
    /// domain-sensitive clauses are caught up (`domain_done = |domain|`) or
    /// they re-run in full on the next `run` (`domain_done = 0`). The two
    /// unsettled cases are behaviorally identical — any pending growth
    /// already forces a full re-run of every domain-sensitive clause — so
    /// the bit loses nothing, and bit-for-bit stats equality with an
    /// uncrashed session is preserved.
    pub fn restore(
        store: &mut SeqStore,
        facts: FactStore,
        base: Vec<Relation>,
        stats: EvalStats,
        sizes_done: Vec<usize>,
        virgin: bool,
        domain_settled: bool,
    ) -> Self {
        let domain = domain_of(store, &facts);
        let domain_done = if domain_settled { domain.len() } else { 0 };
        Self {
            facts,
            domain,
            stats,
            sizes_done,
            domain_done,
            virgin,
            base,
        }
    }

    /// Adopt a recorded extended-domain member order (see
    /// [`ExtendedDomain::reorder`]): the set stays the recomputed closure,
    /// only the insertion order — which free-variable enumeration makes
    /// observable — is taken from the record, and only after verifying it
    /// is exactly a permutation of that closure. Returns `false` (domain
    /// untouched) when it is not.
    pub fn adopt_domain_order(&mut self, store: &SeqStore, order: &[SeqId]) -> bool {
        self.domain.reorder(store, order)
    }

    /// A scratch `Fixpoint` for demand-driven (magic-set) evaluation,
    /// seeded from this state's facts and extended active domain
    /// ([`crate::analysis::magic`]). The current interpretation — settled
    /// derivations *and* pending asserts alike — becomes the scratch seed:
    /// relations are realigned to the transformed program's predicate
    /// table (a prefix-compatible extension, so original ids stay valid),
    /// the domain is cloned as-is (it is already closed over every seeded
    /// fact, so recomputing it à la [`Fixpoint::restore`] would be pure
    /// waste on the point-query path), and the round watermarks reset so
    /// the scratch's first run is a full virgin round. Nothing of this
    /// state is borrowed or mutated; the scratch is independent.
    ///
    /// The scratch records no base relations: demand evaluation never
    /// retracts, and the seeded facts' domain closure is already done.
    pub fn demand_scratch(&self, preds: &PredTable) -> Fixpoint {
        Fixpoint {
            facts: self.facts.realigned_to(preds),
            domain: self.domain.clone(),
            stats: EvalStats::default(),
            sizes_done: Vec::new(),
            domain_done: 0,
            virgin: true,
            base: Vec::new(),
        }
    }

    /// Insert a demand seed fact (the magic predicate's query binding)
    /// **without** closing the extended active domain over its arguments —
    /// deliberately unlike [`Fixpoint::assert_fact`]. The magic seed is an
    /// auxiliary fact, not part of the database: closing the domain over a
    /// query value would let domain-sensitive clauses (in the magic
    /// transformation's full-fallback mode) enumerate a sequence the real
    /// interpretation never contained, deriving facts the batch fixpoint
    /// does not — wrong answers by over-approximation. The caller
    /// window-closes the seed's sequences in the *store* instead
    /// ([`SeqStore::close_windows`]), exactly like program body constants,
    /// so indexed terms over guard-bound variables still resolve.
    pub fn seed_demand(&mut self, pred: PredId, tuple: Box<[SeqId]>) {
        self.facts.insert(pred, tuple);
    }

    /// Drive the round loop to quiescence, resuming from the
    /// facts asserted since the last run (they — plus any domain growth —
    /// are the first resumed round's delta). On a fresh state this is
    /// exactly batch evaluation. Each call executes at least one round
    /// (a settled state pays one quiescence-check round); `max_rounds`
    /// bounds the rounds of *this* call, while the size budgets bound the
    /// cumulative state.
    ///
    /// On error the state is a sound under-approximation of the least
    /// fixpoint, and the round watermarks have *not* advanced past the
    /// interrupted round — a later `run` (say, with larger budgets)
    /// re-derives it and still converges to `lfp(T_{P,db})`.
    /// [`crate::session::EngineSession`] nevertheless poisons on error;
    /// retrying is a `Fixpoint`-level affordance.
    ///
    /// There is one round loop (`Fixpoint::run_stratified`).
    /// [`Strategy::SemiNaive`] walks the program's SCC condensation in
    /// topological order; [`Strategy::Naive`] runs the same loop over a
    /// single stratum holding every clause, planning every clause in full
    /// in every round — the literal T-operator. Both converge to the same
    /// `lfp(T_{P,db})`.
    pub fn run(
        &mut self,
        program: &CompiledProgram,
        store: &mut SeqStore,
        registry: &TransducerRegistry,
        config: &EvalConfig,
    ) -> Result<(), EvalError> {
        match config.strategy {
            Strategy::SemiNaive => {
                let strata = &program.schedule.strata;
                self.run_stratified(program, strata, false, store, registry, config)
            }
            Strategy::Naive => {
                let all = Stratum {
                    clauses: (0..program.clauses.len() as u32).collect(),
                    ..Stratum::default()
                };
                let strata = std::slice::from_ref(&all);
                self.run_stratified(program, strata, true, store, registry, config)
            }
        }
    }

    /// The round loop, over `strata` in order.
    ///
    /// Strata are visited in topological order; within a stratum, rounds
    /// run over only that stratum's clauses until it quiesces. A predicate
    /// is only ever inserted into by its own (head) stratum's clauses, so
    /// when a stratum runs, every input from an earlier stratum is already
    /// settled — except that commits in later strata can still grow the
    /// **extended active domain**, which re-arms earlier strata's
    /// domain-sensitive clauses. An outer pass loop therefore repeats the
    /// topological sweep until a full pass derives nothing (a lone stratum
    /// has nothing to re-arm it, so its sweep runs once).
    ///
    /// With `naive` every clause is planned in full in every round — no
    /// deltas, no skipping. Otherwise rounds are semi-naive, and a stratum
    /// whose input deltas are empty and whose domain watermark is current
    /// plans zero tasks and is skipped without paying a round. This is the
    /// *downstream cone* property: a session assert into predicate `p`
    /// re-runs only `p`'s stratum and the strata downstream of it, at a
    /// per-skipped-stratum cost of one planning scan.
    ///
    /// Determinism is inherited from the two-phase rounds: stratum order,
    /// each round's task list, and the task-order commit depend only on
    /// the program and the interpretation.
    ///
    /// The global watermarks (`sizes_done` / `domain_done` / `virgin`)
    /// advance only when the run *succeeds*: per-stratum watermarks
    /// diverge from them only for the duration of the call, and at
    /// quiescence every stratum has processed every input, so they
    /// collapse to the final sizes. A mid-run error leaves the entry
    /// watermarks in place and a later run re-derives the interrupted
    /// rounds (idempotent — the fact store dedupes); durable-session
    /// snapshot formats are unaffected.
    fn run_stratified(
        &mut self,
        program: &CompiledProgram,
        strata: &[Stratum],
        naive: bool,
        store: &mut SeqStore,
        registry: &TransducerRegistry,
        config: &EvalConfig,
    ) -> Result<(), EvalError> {
        check_budgets(&self.facts, &self.domain, config, &mut self.stats)?;

        let rounds_at_entry = self.stats.rounds;
        if config.max_rounds == 0 {
            finalize_stats(&mut self.stats, &self.facts, &self.domain);
            return Err(EvalError::Budget {
                kind: BudgetKind::Rounds,
                stats: self.stats,
            });
        }

        let ns = strata.len();
        // Per-stratum watermarks; `None` means "this stratum has not run
        // in this call yet — measure its delta from the global watermarks".
        let mut done: Vec<Option<Vec<usize>>> = vec![None; ns];
        let mut sdomain: Vec<usize> = vec![self.domain_done; ns];
        let mut svirgin: Vec<bool> = vec![self.virgin; ns];
        let mut tasks: Vec<MatchTask> = Vec::new();
        let mut members: Vec<SeqId> = Vec::new();

        loop {
            let mut pass_added = false;
            for (si, stratum) in strata.iter().enumerate() {
                if stratum.clauses.is_empty() {
                    continue; // source stratum: database-only predicates
                }
                loop {
                    let domain_now = self.domain.len();
                    let domain_grew = domain_now > sdomain[si];
                    let full = naive || svirgin[si];

                    // Plan this stratum round.
                    tasks.clear();
                    for &ci in &stratum.clauses {
                        let ci = ci as usize;
                        let clause = &program.clauses[ci];
                        // Domain-sensitive clauses re-run in full whenever
                        // the domain grew — *including* body-empty ones
                        // like `p(X, X) :- true.`, whose free head
                        // variables range over the domain (checked before
                        // the ground-clause skip below: skipping first
                        // loses their new-member instantiations).
                        if full || (clause.domain_sensitive && domain_grew) {
                            tasks.push(MatchTask::full(ci));
                            continue;
                        }
                        // Semi-naive: ground facts fire only in the full
                        // first round (and above, when domain-sensitive).
                        if clause.body.is_empty() {
                            continue;
                        }
                        for (li, lit) in clause.body.iter().enumerate() {
                            let CBody::Atom(atom) = lit else {
                                continue;
                            };
                            let pi = atom.pred.index();
                            let before = match &done[si] {
                                Some(v) => v.get(pi).copied().unwrap_or(0),
                                None => self.sizes_done.get(pi).copied().unwrap_or(0),
                            };
                            let now = self.facts.len_of(atom.pred);
                            let mut from = before;
                            while from < now {
                                let to = (from + DELTA_CHUNK).min(now);
                                tasks.push(MatchTask {
                                    clause: ci,
                                    delta: Some((li, from, to)),
                                    goals: None,
                                });
                                from = to;
                            }
                        }
                    }
                    if tasks.is_empty() {
                        // Inputs settled: skip the stratum without a round.
                        break;
                    }
                    if self.stats.rounds - rounds_at_entry >= config.max_rounds {
                        finalize_stats(&mut self.stats, &self.facts, &self.domain);
                        return Err(EvalError::Budget {
                            kind: BudgetKind::Rounds,
                            stats: self.stats,
                        });
                    }

                    let sizes_now = self.facts.sizes();
                    let added = self.round(
                        program,
                        &tasks,
                        &[],
                        done[si].as_deref(),
                        &mut members,
                        store,
                        registry,
                        config,
                    )?;
                    done[si] = Some(sizes_now);
                    sdomain[si] = domain_now;
                    svirgin[si] = false;
                    if added > 0 {
                        pass_added = true;
                    } else {
                        break;
                    }
                }
            }
            if !pass_added || ns == 1 {
                break;
            }
        }

        // Contract: every `run` call executes at least one round — a fully
        // settled state pays a single quiescence round.
        if self.stats.rounds == rounds_at_entry {
            self.stats.rounds += 1;
        }
        // Quiescence: every stratum has processed every input delta and
        // the final domain, so the per-stratum watermarks collapse into
        // the global ones.
        self.sizes_done = self.facts.sizes();
        self.domain_done = self.domain.len();
        self.virgin = false;

        finalize_stats(&mut self.stats, &self.facts, &self.domain);
        Ok(())
    }

    /// One round over a planned task list: the match (every task through
    /// [`run_match_task`], in order) then the commit ([`commit_round`]). Every round goes through here — the round
    /// loop's and DRed's re-derive round alike. Counts the round and
    /// returns how many facts it added. Goal tasks index `goals`; delta
    /// tasks measure their pre-round prefix against `sizes_before`
    /// (`None`: the global watermarks); `members` is scratch for the
    /// round's domain snapshot, reused across rounds.
    #[allow(clippy::too_many_arguments)]
    fn round(
        &mut self,
        program: &CompiledProgram,
        tasks: &[MatchTask],
        goals: &[Box<[SeqId]>],
        sizes_before: Option<&[usize]>,
        members: &mut Vec<SeqId>,
        store: &mut SeqStore,
        registry: &TransducerRegistry,
        config: &EvalConfig,
    ) -> Result<usize, EvalError> {
        self.stats.rounds += 1;
        // Snapshot for free-variable enumeration: substitutions in this
        // round range over the domain of the interpretation entering it.
        // Only domain-sensitive clauses enumerate members (every other
        // clause binds all slots from matched facts), so the snapshot is
        // taken only when the plan contains one.
        members.clear();
        if tasks
            .iter()
            .any(|t| program.clauses[t.clause].domain_sensitive)
        {
            members.extend(self.domain.iter());
        }
        let sizes_before = sizes_before.unwrap_or(&self.sizes_done);
        let bufs: Vec<RecipeBuf> = tasks
            .iter()
            .map(|task| {
                let mut buf = RecipeBuf::default();
                run_match_task(
                    program,
                    task,
                    goals,
                    store,
                    &self.facts,
                    &self.domain,
                    members,
                    sizes_before,
                    &mut buf,
                );
                buf
            })
            .collect();
        commit_round(
            program,
            tasks,
            &bufs,
            goals,
            store,
            &mut self.facts,
            &mut self.domain,
            registry,
            config,
            &mut self.stats,
        )
    }

    /// Retract base facts and restore the least fixpoint of the surviving
    /// database by **Delete-and-Rederive** (DRed). Returns how many of the
    /// given facts were actually base facts (non-base facts — including
    /// derived-only facts and unknown tuples — are ignored; derived facts
    /// can only disappear by losing base support). When *nothing* qualifies
    /// the call is a pure no-op: no maintenance runs and the state —
    /// pending asserts included — is untouched.
    ///
    /// The maintenance runs to quiescence before returning, in four passes:
    ///
    /// 1. **Over-delete.** Starting from the retracted facts, deletion is
    ///    propagated forward through the compiled clauses: any head
    ///    instance with *some* derivation touching a deleted fact is marked
    ///    deleted too (matching reuses the read-only match machinery
    ///    with the deleted tuple pinned as a one-element delta and every
    ///    other literal ranging over the full pre-retraction store). This
    ///    over-approximates — facts with surviving alternative derivations
    ///    are marked as well — which is what makes it sound.
    /// 2. **Domain-sensitive wipe.** Facts derived by *domain-sensitive*
    ///    clauses consult the extended active domain rather than body
    ///    facts, so clause-body propagation cannot see their dependencies —
    ///    and they can even keep an orphaned sequence in the domain
    ///    circularly (a surviving `pair(ab, ab)` is the only remaining
    ///    carrier of `ab`, and `ab`'s membership is the only justification
    ///    of `pair(ab, ab)` — the `pair(X, X) :- true.` class of bug).
    ///    Whenever anything is deleted, every fact under a domain-sensitive
    ///    clause's head is therefore over-deleted too, and the propagation
    ///    re-runs.
    /// 3. **Physical deletion and domain cascade.** The over-deleted tuples
    ///    are read off in ascending position per predicate, then tombstoned
    ///    and compacted away (surviving insertion order is preserved). The
    ///    ones still recorded as base facts are re-seeded beyond the
    ///    watermarks; the others become the re-derivation *goals*. Every
    ///    argument of every deleted fact is then released from the
    ///    extended active domain ([`ExtendedDomain::release`]): members no
    ///    surviving fact reaches any more leave it — their windows and the
    ///    integers they pinned with them — and survivors keep their
    ///    chronological order. Definition 4 makes the domain a function of
    ///    the interpretation, and the support counts compute exactly that
    ///    function at the cost of what was deleted. The semi-naive
    ///    watermarks **regress soundly**: each predicate's watermark drops
    ///    by the number of processed positions it lost, so pending (not yet
    ///    run) asserts stay beyond it; the domain watermark resets.
    /// 4. **Re-derive.** One round restores alternative derivations of the
    ///    goals. For each goal and each clause with its head predicate, the
    ///    head's plain-variable arguments are bound from the goal and the
    ///    body is matched over the surviving facts; a head instance enters
    ///    (through the ordinary commit path) only when it equals its goal.
    ///    Domain-sensitive clauses, whose instantiation set changed with
    ///    the domain, and clauses whose head has no plain variable to bind
    ///    are applied in full instead. The ordinary [`run`](Fixpoint::run)
    ///    loop then resumes semi-naive from the regressed watermarks to
    ///    quiescence. The DRed invariant — after over-deletion the
    ///    surviving interpretation is contained in the new least fixpoint,
    ///    and every fact of it derivable from the survivors was over-deleted
    ///    and is a goal — makes the result exactly `lfp(T_{P,db'})` for the
    ///    surviving database `db'`, which is differentially fuzzed against
    ///    fresh batch evaluation.
    ///
    /// On error the state poisons at the session layer: unlike a failed
    /// grow-only `run`, a failed retraction may leave facts whose support
    /// is already gone (an over-approximation), so no retry affordance is
    /// offered.
    pub fn retract_facts(
        &mut self,
        program: &CompiledProgram,
        store: &mut SeqStore,
        registry: &TransducerRegistry,
        config: &EvalConfig,
        facts: &[(PredId, Box<[SeqId]>)],
    ) -> Result<usize, EvalError> {
        let mut seeds: Vec<(PredId, u32)> = Vec::new();
        let mut retracted = 0usize;
        for (pred, tuple) in facts {
            let Some(brel) = self.base.get_mut(pred.index()) else {
                continue;
            };
            if !brel.remove(tuple) {
                continue;
            }
            retracted += 1;
            if let Some(pos) = self.facts.position_of(*pred, tuple) {
                seeds.push((*pred, pos));
            }
        }
        for rel in &mut self.base {
            rel.compact();
        }
        if seeds.is_empty() {
            return Ok(retracted);
        }
        self.delete_and_rederive(program, store, registry, config, seeds)?;
        Ok(retracted)
    }

    /// The DRed passes (see [`Fixpoint::retract_facts`] for the protocol).
    fn delete_and_rederive(
        &mut self,
        program: &CompiledProgram,
        store: &mut SeqStore,
        registry: &TransducerRegistry,
        config: &EvalConfig,
        seeds: Vec<(PredId, u32)>,
    ) -> Result<(), EvalError> {
        let nrels = self.facts.sizes().len();
        let mut marked: Vec<FxHashSet<u32>> = Vec::new();
        marked.resize_with(nrels, FxHashSet::default);
        let mut work: Vec<(PredId, u32)> = Vec::new();
        for (pred, pos) in seeds {
            if marked[pred.index()].insert(pos) {
                work.push((pred, pos));
            }
        }

        // Head predicates of domain-sensitive clauses, in clause order.
        let mut ds_heads: Vec<PredId> = Vec::new();
        for c in &program.clauses {
            if c.domain_sensitive && !ds_heads.contains(&c.head.pred) {
                ds_heads.push(c.head.pred);
            }
        }

        // --- Passes 1 + 2: over-delete closure + domain-sensitive wipe ---
        // Everything here only *marks*: the store keeps the pre-retraction
        // interpretation, so matching over it is exactly matching over the
        // old `I` that classic DRed's over-deletion rule prescribes. The
        // loop is worklist-ordered, hence deterministic.
        let sizes_full = self.facts.sizes();
        // Only domain-sensitive clauses enumerate members (as in `round`).
        let members: Vec<SeqId> = if ds_heads.is_empty() {
            Vec::new()
        } else {
            self.domain.iter().collect()
        };
        let mut buf = RecipeBuf::default();
        let mut cursor = 0usize;
        let mut wiped = ds_heads.is_empty();
        loop {
            while cursor < work.len() {
                let (pred, pos) = work[cursor];
                cursor += 1;
                for (ci, clause) in program.clauses.iter().enumerate() {
                    for (li, lit) in clause.body.iter().enumerate() {
                        let CBody::Atom(atom) = lit else { continue };
                        if atom.pred != pred {
                            continue;
                        }
                        // One-element delta at literal `li`; `sizes_full`
                        // as the "pre-round prefix" leaves every other
                        // literal unrestricted over the old store.
                        let task = MatchTask {
                            clause: ci,
                            delta: Some((li, pos as usize, pos as usize + 1)),
                            goals: None,
                        };
                        let hp = clause.head.pred;
                        let facts = &self.facts;
                        eval_task_settled(
                            program,
                            &task,
                            store,
                            facts,
                            &self.domain,
                            &members,
                            &sizes_full,
                            registry,
                            config,
                            &mut buf,
                            &mut self.stats,
                            |t| {
                                if let Some(hpos) = facts.position_of(hp, t) {
                                    if marked[hp.index()].insert(hpos) {
                                        work.push((hp, hpos));
                                    }
                                }
                            },
                        )?;
                    }
                }
            }
            if wiped {
                break;
            }
            // Any deletion can shrink the extended active domain, and a
            // domain-sensitive derivation can even carry its own
            // justification (the `pair(ab, ab)` circularity above), so a
            // shrink test against the surviving facts would be fooled.
            // Over-delete everything a domain-sensitive clause could have
            // derived — the re-derive pass restores what the new domain
            // still supports — and propagate those deletions too.
            wiped = true;
            for &pred in &ds_heads {
                let rel = self.facts.relation(pred);
                for pos in 0..rel.len() as u32 {
                    if marked[pred.index()].insert(pos) {
                        work.push((pred, pos));
                    }
                }
            }
        }

        // --- Pass 3: physical deletion, domain cascade, sound watermark
        // regression. Per predicate, the new watermark is the number of
        // *surviving* processed positions: compaction preserves relative
        // order, so the first `new_done[p]` surviving tuples are exactly the
        // survivors of the processed prefix, and pending asserts stay
        // beyond it.
        let mut new_done: Vec<usize> = (0..nrels)
            .map(|i| self.sizes_done.get(i).copied().unwrap_or(0))
            .collect();
        // Over-deleted tuples still recorded as base facts (re-seeded), the
        // others (re-derivation goals, `goal_preds` holding each
        // predicate's range of `goals`), and every argument of every
        // deleted fact (released from the domain).
        let mut reseed: Vec<(PredId, Box<[SeqId]>)> = Vec::new();
        let mut goals: Vec<Box<[SeqId]>> = Vec::new();
        let mut goal_preds: Vec<(PredId, usize, usize)> = Vec::new();
        let mut released: Vec<SeqId> = Vec::new();
        for (pi, set) in marked.iter().enumerate() {
            if set.is_empty() {
                continue;
            }
            let pred = PredId(pi as u32);
            let mut positions: Vec<u32> = set.iter().copied().collect();
            positions.sort_unstable();
            new_done[pi] -= positions.partition_point(|&p| (p as usize) < new_done[pi]);
            let from = goals.len();
            let rel = self.facts.relation(pred);
            for &pos in &positions {
                let tuple = rel.tuple(pos as usize);
                released.extend_from_slice(tuple);
                if self.is_base_fact(pred, tuple) {
                    reseed.push((pred, tuple.into()));
                } else {
                    goals.push(tuple.into());
                }
            }
            if goals.len() > from {
                goal_preds.push((pred, from, goals.len()));
            }
            for &pos in &positions {
                self.facts.remove_at(pred, pos);
            }
        }
        self.facts.compact();
        // Re-seed first, so members a re-seeded fact holds never leave the
        // domain. Re-seeded facts land beyond the regressed watermarks: the
        // resumed loop treats them as delta facts.
        for (pred, tuple) in reseed {
            if self.facts.insert(pred, tuple) {
                let rel = self.facts.relation(pred);
                for &id in rel.tuple(rel.len() - 1) {
                    self.domain.insert_closed(store, id);
                }
            }
        }
        self.domain.release(store, released);
        #[cfg(debug_assertions)]
        self.assert_domain_is_closure(store);

        // Watermarks regress *before* the re-derive round commits: if that
        // round errors mid-commit, the regressed watermarks still cover the
        // interrupted work (re-matching is idempotent), never skip it.
        self.sizes_done = new_done;
        self.domain_done = 0;

        // --- Pass 4: re-derive round, then resume to quiescence. Clauses
        // whose head predicate has goals try to re-derive exactly those
        // goals, bound from the head; domain-sensitive clauses (their
        // instantiation set changed with the domain) and goal-carrying
        // clauses with no plain head variable to bind run in full. Every
        // other clause's conclusions are intact — the surviving store is a
        // subset of the old one and none of its head tuples were lost
        // without being re-seeded — so it is sound to skip.
        if !self.virgin {
            let domain_now = self.domain.len();
            let mut tasks: Vec<MatchTask> = Vec::new();
            for (ci, c) in program.clauses.iter().enumerate() {
                let head_goals = goal_preds.iter().find(|g| g.0 == c.head.pred);
                let bindable = c.head.args.iter().any(|a| matches!(a, CSeq::Var(_)));
                if c.domain_sensitive || (head_goals.is_some() && !bindable) {
                    tasks.push(MatchTask::full(ci));
                } else if let Some(&(_, mut from, to)) = head_goals {
                    while from < to {
                        let end = (from + DELTA_CHUNK).min(to);
                        tasks.push(MatchTask {
                            clause: ci,
                            delta: None,
                            goals: Some((from, end)),
                        });
                        from = end;
                    }
                }
            }
            if !tasks.is_empty() {
                let mut members = Vec::new();
                self.round(
                    program,
                    &tasks,
                    &goals,
                    None,
                    &mut members,
                    store,
                    registry,
                    config,
                )?;
                // `sizes_done` stays regressed: pending asserts, re-seeded
                // base facts, and this round's additions all sit beyond it
                // and form the resumed loop's delta. Domain-sensitive
                // clauses are caught up with the domain as of round start.
                self.domain_done = domain_now;
            }
        }
        self.run(program, store, registry, config)?;
        #[cfg(debug_assertions)]
        self.assert_domain_is_closure(store);
        Ok(())
    }

    /// Debug builds: the support-counted domain is exactly the closure a
    /// rebuild from the facts computes ([`domain_of`]), as a set and in
    /// `lmax`. Checked after DRed's physical deletion and at its end, so
    /// every suite that retracts checks the cascade on every retraction.
    #[cfg(debug_assertions)]
    fn assert_domain_is_closure(&self, store: &mut SeqStore) {
        let rebuilt = domain_of(store, &self.facts);
        assert_eq!(self.domain.len(), rebuilt.len(), "domain size diverged");
        assert!(
            rebuilt.iter().all(|m| self.domain.contains(m)),
            "domain members diverged"
        );
        assert_eq!(self.domain.max_len(), rebuilt.max_len(), "lmax diverged");
    }
}

/// The extended active domain induced by `facts`: closure of every
/// sequence occurring in a tuple, in relation order (Definition 2; program
/// constants are window-closed in the store but, as in batch evaluation,
/// only enter the domain through facts). `facts` must hold no tombstones.
fn domain_of(store: &mut SeqStore, facts: &FactStore) -> ExtendedDomain {
    let mut domain = ExtendedDomain::new();
    for (_, rel) in facts.relations() {
        for pos in 0..rel.len() {
            for &id in rel.tuple(pos) {
                domain.insert_closed(store, id);
            }
        }
    }
    domain
}

/// Run one task's matching and head-variable enumeration, appending a
/// recipe per attempted head instantiation (and, for a goal task, the goal
/// it targets). Pure: borrows everything immutably and cannot fail.
#[allow(clippy::too_many_arguments)]
fn run_match_task(
    program: &CompiledProgram,
    task: &MatchTask,
    goals: &[Box<[SeqId]>],
    store: &SeqStore,
    facts: &FactStore,
    domain: &ExtendedDomain,
    members: &[SeqId],
    sizes_before: &[usize],
    out: &mut RecipeBuf,
) {
    let clause = &program.clauses[task.clause];
    let env = MatchEnv {
        store,
        domain,
        facts,
        int_upper: domain.int_upper(),
    };
    let delta = task.delta.map(|(at, from, to)| Delta {
        at,
        from,
        to,
        sizes_before,
    });
    let int_upper = env.int_upper;
    let Some((from, to)) = task.goals else {
        solve_body(clause, &env, delta, &mut |b, _env| {
            emit_recipes(b, members, int_upper, out);
        });
        return;
    };
    for (g, goal) in (from..to).zip(&goals[from..to]) {
        solve_body_bound(clause, &env, goal, &mut |b, _env| {
            emit_recipes(b, members, int_upper, out);
        });
        out.goal_of.resize(out.count, g);
    }
}

/// Enumerate free (head-only) variables over the domain and record one
/// recipe per completion. Works in place on the matcher's scratch
/// substitution (free slots are bound and restored) — no `Bindings` clone
/// per derivation.
fn emit_recipes(b: &mut Bindings, members: &[SeqId], int_upper: i64, out: &mut RecipeBuf) {
    fn rec(
        b: &mut Bindings,
        seq_at: usize,
        idx_at: usize,
        members: &[SeqId],
        int_upper: i64,
        out: &mut RecipeBuf,
    ) {
        if let Some(v) = (seq_at..b.seq.len()).find(|&v| b.seq[v].is_none()) {
            for &m in members {
                b.seq[v] = Some(m);
                rec(b, v + 1, idx_at, members, int_upper, out);
            }
            b.seq[v] = None;
            return;
        }
        if let Some(v) = (idx_at..b.idx.len()).find(|&v| b.idx[v].is_none()) {
            for n in 0..=int_upper {
                b.idx[v] = Some(n);
                rec(b, b.seq.len(), v + 1, members, int_upper, out);
            }
            b.idx[v] = None;
            return;
        }
        // Fully bound: snapshot the substitution as a recipe.
        out.count += 1;
        out.seqs
            .extend(b.seq.iter().map(|s| s.expect("fully bound")));
        out.idxs
            .extend(b.idx.iter().map(|n| n.expect("fully bound")));
    }
    rec(b, 0, 0, members, int_upper, out);
}

/// Phase 2: the sequential commit. Walks the tasks in task order and each
/// task's recipes in emission order: the head is evaluated against the
/// store ([`eval_recipe_head`], interning fresh values), a defined head
/// instance is inserted, a new fact's sequences are closed into the
/// domain, and the budgets are checked after every new fact — a wide
/// round cannot overshoot `max_facts` by more than one fact. The first
/// error stops the walk at its recipe; facts committed before it stay.
/// Returns how many facts the round added.
#[allow(clippy::too_many_arguments)]
fn commit_round(
    program: &CompiledProgram,
    tasks: &[MatchTask],
    bufs: &[RecipeBuf],
    goals: &[Box<[SeqId]>],
    store: &mut SeqStore,
    facts: &mut FactStore,
    domain: &mut ExtendedDomain,
    registry: &TransducerRegistry,
    config: &EvalConfig,
    stats: &mut EvalStats,
) -> Result<usize, EvalError> {
    let mut added = 0usize;
    let mut tuple: Vec<SeqId> = Vec::new();
    for (task, buf) in tasks.iter().zip(bufs) {
        let clause = &program.clauses[task.clause];
        stats.derivations += buf.count as u64;
        for r in 0..buf.count {
            let head = eval_recipe_head(
                clause, buf, r, goals, store, facts, domain, registry, config, stats, &mut tuple,
            )?;
            if !head || !facts.insert(clause.head.pred, tuple.as_slice().into()) {
                continue;
            }
            added += 1;
            for &id in &tuple {
                domain.insert_closed(store, id);
            }
            check_budgets(facts, domain, config, stats)?;
        }
    }
    Ok(added)
}

/// Head instances derived by one T-operator application, as `(PredId,
/// tuple)` over the program's [`crate::compile::PredTable`].
pub type DerivedFacts = Vec<(PredId, Box<[SeqId]>)>;

/// One application of the T-operator to an arbitrary interpretation:
/// returns every derivable head instance as `(PredId, tuple)` over the
/// program's [`crate::compile::PredTable`] (used by the Appendix A model
/// checker; `T(I) ⊆ I` iff `I` is a model, Lemma 4).
pub fn tp_step(
    program: &CompiledProgram,
    store: &mut SeqStore,
    registry: &TransducerRegistry,
    facts: &FactStore,
    domain: &ExtendedDomain,
    config: &EvalConfig,
) -> Result<DerivedFacts, EvalError> {
    // Cold path: if the interpretation was not built from this program's
    // table, realign it so compiled `PredId`s address the right relations.
    let realigned;
    let facts = if program.preds.is_prefix_of(facts.preds()) {
        facts
    } else {
        realigned = facts.realigned_to(&program.preds);
        &realigned
    };
    for id in program.constants() {
        store.close_windows(id);
    }
    let mut stats = EvalStats::default();
    let members: Vec<SeqId> = domain.iter().collect();
    let mut out = Vec::new();
    let mut buf = RecipeBuf::default();
    for (ci, clause) in program.clauses.iter().enumerate() {
        let task = MatchTask::full(ci);
        eval_task_settled(
            program,
            &task,
            store,
            facts,
            domain,
            &members,
            &[],
            registry,
            config,
            &mut buf,
            &mut stats,
            |t| out.push((clause.head.pred, t.into())),
        )?;
    }
    Ok(out)
}

/// Evaluate `clause`'s head under recipe `r` of `buf` into `tuple`,
/// interning fresh values into `store`. Head arguments are evaluated left
/// to right, each checked against `max_seq_len`, and the first error
/// stops the evaluation; a `max_seq_len` overrun raises the `SeqLen`
/// budget error with `stats` finalized against `facts` and `domain`.
/// Transducer calls and steps accumulate into `stats` as they run.
/// Returns `Ok(false)` when some head term is undefined (Section 3.2: no
/// fact, no error) or when a goal recipe's instance differs from its goal
/// — a goal task admits only its goal; the other head instances of the
/// surviving facts are in the interpretation already or are goals of
/// their own.
#[allow(clippy::too_many_arguments)]
fn eval_recipe_head(
    clause: &CompiledClause,
    buf: &RecipeBuf,
    r: usize,
    goals: &[Box<[SeqId]>],
    store: &mut SeqStore,
    facts: &FactStore,
    domain: &ExtendedDomain,
    registry: &TransducerRegistry,
    config: &EvalConfig,
    stats: &mut EvalStats,
    tuple: &mut Vec<SeqId>,
) -> Result<bool, EvalError> {
    let seqs = &buf.seqs[r * clause.n_seq..(r + 1) * clause.n_seq];
    let idxs = &buf.idxs[r * clause.n_idx..(r + 1) * clause.n_idx];
    tuple.clear();
    for arg in &clause.head.args {
        let Some(id) = eval_head(arg, seqs, idxs, store, registry, config, stats)? else {
            return Ok(false);
        };
        let len = store.len_of(id);
        if len > config.max_seq_len {
            finalize_stats(stats, facts, domain);
            stats.max_seq_len = stats.max_seq_len.max(len);
            return Err(EvalError::Budget {
                kind: BudgetKind::SeqLen,
                stats: *stats,
            });
        }
        tuple.push(id);
    }
    Ok(buf.goal_of.get(r).is_none_or(|&g| *goals[g] == tuple[..]))
}

/// Match one task and evaluate its heads sequentially, handing each
/// defined head tuple to `emit` in recipe order. Recipes and transducer
/// work accumulate into `stats`; a head-evaluation error surfaces exactly
/// as the round's commit raises it. The sequential path shared by DRed's
/// over-delete loop and [`tp_step`].
#[allow(clippy::too_many_arguments)]
fn eval_task_settled(
    program: &CompiledProgram,
    task: &MatchTask,
    store: &mut SeqStore,
    facts: &FactStore,
    domain: &ExtendedDomain,
    members: &[SeqId],
    sizes_before: &[usize],
    registry: &TransducerRegistry,
    config: &EvalConfig,
    scratch: &mut RecipeBuf,
    stats: &mut EvalStats,
    mut emit: impl FnMut(&[SeqId]),
) -> Result<(), EvalError> {
    let clause = &program.clauses[task.clause];
    scratch.clear();
    run_match_task(
        program,
        task,
        &[],
        store,
        facts,
        domain,
        members,
        sizes_before,
        scratch,
    );
    stats.derivations += scratch.count as u64;
    let mut tuple: Vec<SeqId> = Vec::new();
    for r in 0..scratch.count {
        if eval_recipe_head(
            clause,
            scratch,
            r,
            &[],
            store,
            facts,
            domain,
            registry,
            config,
            stats,
            &mut tuple,
        )? {
            emit(&tuple);
        }
    }
    Ok(())
}

fn finalize_stats(stats: &mut EvalStats, facts: &FactStore, domain: &ExtendedDomain) {
    stats.facts = facts.total_facts();
    stats.domain_size = domain.len();
    stats.max_seq_len = stats.max_seq_len.max(domain.max_len());
}

fn check_budgets(
    facts: &FactStore,
    domain: &ExtendedDomain,
    config: &EvalConfig,
    stats: &mut EvalStats,
) -> Result<(), EvalError> {
    finalize_stats(stats, facts, domain);
    if facts.total_facts() > config.max_facts {
        return Err(EvalError::Budget {
            kind: BudgetKind::Facts,
            stats: *stats,
        });
    }
    if domain.len() > config.max_domain {
        return Err(EvalError::Budget {
            kind: BudgetKind::DomainSize,
            stats: *stats,
        });
    }
    if domain.max_len() > config.max_seq_len {
        return Err(EvalError::Budget {
            kind: BudgetKind::SeqLen,
            stats: *stats,
        });
    }
    Ok(())
}

/// Evaluate an index term of a committed recipe (all variables bound).
/// `None` on `i64` overflow — the enclosing indexed term is then undefined.
fn commit_idx(t: &CIdx, idxs: &[i64], end_val: i64) -> Option<i64> {
    match t {
        CIdx::Int(i) => Some(*i),
        CIdx::Var(v) => Some(idxs[*v as usize]),
        CIdx::End => Some(end_val),
        CIdx::Add(x, y) => commit_idx(x, idxs, end_val)?.checked_add(commit_idx(y, idxs, end_val)?),
        CIdx::Sub(x, y) => commit_idx(x, idxs, end_val)?.checked_sub(commit_idx(y, idxs, end_val)?),
    }
}

/// Evaluate a (possibly constructive) head term under a recipe's total
/// substitution, interning the value it denotes: constants and matched
/// bindings are already interned, windows resolve through
/// [`SeqStore::subseq`], concatenations through [`SeqStore::concat`], and
/// transducer outputs are interned as they come. `Ok(None)` means the term
/// is undefined (no fact derived, Section 3.2). The registry is consulted
/// before the arguments are evaluated, a transducer call is counted before
/// the machine runs, and its steps count only on success.
fn eval_head(
    t: &CSeq,
    seqs: &[SeqId],
    idxs: &[i64],
    store: &mut SeqStore,
    registry: &TransducerRegistry,
    config: &EvalConfig,
    stats: &mut EvalStats,
) -> Result<Option<SeqId>, EvalError> {
    match t {
        CSeq::Const(id) => Ok(Some(*id)),
        CSeq::Var(v) => Ok(Some(seqs[*v as usize])),
        CSeq::Indexed { base, lo, hi } => {
            let base_id = match base {
                CBase::Const(id) => *id,
                CBase::Var(v) => seqs[*v as usize],
            };
            let end_val = store.len_of(base_id) as i64;
            let (Some(n1), Some(n2)) =
                (commit_idx(lo, idxs, end_val), commit_idx(hi, idxs, end_val))
            else {
                return Ok(None);
            };
            Ok(store.subseq(base_id, n1, n2))
        }
        CSeq::Concat(x, y) => {
            let Some(xv) = eval_head(x, seqs, idxs, store, registry, config, stats)? else {
                return Ok(None);
            };
            let Some(yv) = eval_head(y, seqs, idxs, store, registry, config, stats)? else {
                return Ok(None);
            };
            Ok(Some(store.concat(xv, yv)))
        }
        CSeq::Transducer { name, args } => {
            let machine = registry
                .get(name)
                .ok_or_else(|| EvalError::UnknownTransducer(name.clone()))?;
            let mut inputs: Vec<SeqId> = Vec::with_capacity(args.len());
            for a in args {
                match eval_head(a, seqs, idxs, store, registry, config, stats)? {
                    Some(v) => inputs.push(v),
                    None => return Ok(None),
                }
            }
            let tapes: Vec<&[Sym]> = inputs.iter().map(|&id| store.get(id)).collect();
            let mut exec_stats = ExecStats::default();
            stats.transducer_calls += 1;
            let output =
                seqlog_transducer::run(machine, &tapes, &config.exec_limits, &mut exec_stats)
                    .map_err(|e| EvalError::Transducer {
                        name: name.clone(),
                        error: e.to_string(),
                    })?;
            stats.transducer_steps += exec_stats.steps;
            Ok(Some(store.intern_vec(output)))
        }
    }
}
