//! The user-facing engine: owns the alphabet, the sequence interner, and the
//! transducer registry; parses, analyzes, and evaluates programs.
//!
//! ```
//! use seqlog_core::engine::Engine;
//! use seqlog_core::database::Database;
//!
//! let mut engine = Engine::new();
//! // Example 1.1 — all suffixes of sequences in r.
//! let program = engine.parse_program("suffix(X[N:end]) :- r(X).").unwrap();
//! let mut db = Database::new();
//! engine.add_fact(&mut db, "r", &["abc"]);
//! let model = engine.evaluate(&program, &db).unwrap();
//! let mut suffixes = engine.rendered_tuples(&model, "suffix");
//! suffixes.sort();
//! assert_eq!(suffixes, vec![
//!     vec!["".to_string()],
//!     vec!["abc".to_string()],
//!     vec!["bc".to_string()],
//!     vec!["c".to_string()],
//! ]);
//! ```

use crate::analysis::{Bind, ProgramReport};
use crate::ast::Program;
use crate::database::Database;
use crate::eval::interp::Relation;
use crate::eval::{EvalConfig, EvalError, Model};
use crate::parser::{parse_program, ParseError};
use crate::registry::TransducerRegistry;
use crate::session::EngineSession;
use seqlog_sequence::{Alphabet, SeqId, SeqStore, Sym};
use seqlog_transducer::Transducer;

/// Render one interned sequence through an alphabet + store pair — the
/// single rendering primitive every query-result path goes through. An id
/// the store never issued renders as the fixed placeholder
/// `<unknown sequence N>` instead of panicking.
pub(crate) fn render_seq(alphabet: &Alphabet, store: &SeqStore, id: SeqId) -> String {
    if id.index() >= store.count() {
        return format!("<unknown sequence {}>", id.0);
    }
    alphabet.render(store.get(id))
}

/// Render a relation's tuples in insertion order. The shared helper
/// behind [`Engine::rendered_tuples`] and
/// [`crate::session::EngineSession::query`] — one formatting path, so
/// batch and session (and demand) renderings are byte-identical.
pub(crate) fn render_tuples_with(
    rel: Option<&Relation>,
    alphabet: &Alphabet,
    store: &SeqStore,
) -> Vec<Vec<String>> {
    match rel {
        None => Vec::new(),
        Some(rel) => rel
            .iter()
            .map(|t| {
                t.iter()
                    .map(|&id| render_seq(alphabet, store, id))
                    .collect()
            })
            .collect(),
    }
}

/// Rendered, sorted, deduplicated single-column answers. The shared
/// helper behind [`Engine::answers`] and
/// [`crate::session::EngineSession::answers`].
pub(crate) fn render_answers_with(
    rel: Option<&Relation>,
    alphabet: &Alphabet,
    store: &SeqStore,
) -> Vec<String> {
    let mut out: Vec<String> = match rel {
        None => Vec::new(),
        Some(rel) => rel
            .iter()
            .filter(|t| t.len() == 1)
            .map(|t| render_seq(alphabet, store, t[0]))
            .collect(),
    };
    out.sort();
    out.dedup();
    out
}

/// An evaluation context: interners plus registered transducers.
#[derive(Default)]
pub struct Engine {
    /// Symbol interner.
    pub alphabet: Alphabet,
    /// Sequence interner.
    pub store: SeqStore,
    /// Registered transducers for `@name(…)` terms.
    pub registry: TransducerRegistry,
}

impl Engine {
    /// Create an engine with empty interners and registry.
    pub fn new() -> Self {
        Self {
            alphabet: Alphabet::new(),
            store: SeqStore::new(),
            registry: TransducerRegistry::new(),
        }
    }

    /// Intern a string as a sequence (one symbol per character).
    pub fn seq(&mut self, text: &str) -> SeqId {
        let syms = self.alphabet.seq_of_str(text);
        self.store.intern_vec(syms)
    }

    /// Render an interned sequence back to a string; an id this engine's
    /// store never issued renders as `<unknown sequence N>`.
    pub fn render(&self, id: SeqId) -> String {
        render_seq(&self.alphabet, &self.store, id)
    }

    /// Parse a program, interning its constants.
    pub fn parse_program(&mut self, src: &str) -> Result<Program, ParseError> {
        parse_program(src, &mut self.alphabet, &mut self.store)
    }

    /// Add a fact with string arguments to a database.
    pub fn add_fact(&mut self, db: &mut Database, pred: &str, args: &[&str]) {
        let tuple: Vec<SeqId> = args.iter().map(|s| self.seq(s)).collect();
        db.add(pred, tuple);
    }

    /// Register a transducer for use in `@name(…)` terms.
    pub fn register_transducer(&mut self, name: &str, machine: Transducer) {
        self.registry.register(name, machine);
    }

    /// Register a finite-state transducer *relation* (possibly
    /// nondeterministic). It is analyzed by the machine-level lints
    /// (`SL007` fires when a head term calls a non-functional relation)
    /// and is callable from `@name(…)` terms only when it lowers to a
    /// deterministic runtime machine.
    pub fn register_relation(&mut self, name: &str, fst: seqlog_transducer::Fst, end_marker: Sym) {
        self.registry.register_fst(name, fst, end_marker);
    }

    /// Register an acyclic transducer network under its own name. Unary
    /// chains are fused by the transducer algebra at registration time and
    /// become callable as a single machine (see
    /// [`crate::registry::TransducerRegistry::register_network`]).
    pub fn register_network(&mut self, network: seqlog_transducer::Network) {
        self.registry.register_network(network);
    }

    /// Evaluate with the default configuration.
    pub fn evaluate(&mut self, program: &Program, db: &Database) -> Result<Model, EvalError> {
        self.evaluate_with(program, db, &EvalConfig::default())
    }

    /// Evaluate with an explicit configuration.
    ///
    /// A thin wrapper over [`EngineSession`]: the engine's interners and
    /// registry move into a session, the database is seeded, the session
    /// runs once, and the interners (grown by the evaluation) and the
    /// unchanged registry move back, on the error path too. A `db` holding
    /// an id this engine's store never issued is refused with
    /// [`EvalError::UnknownSeq`] before anything is seeded.
    pub fn evaluate_with(
        &mut self,
        program: &Program,
        db: &Database,
        config: &EvalConfig,
    ) -> Result<Model, EvalError> {
        let mut session = self.open_seeded(program, db, config)?;
        let outcome = session.run();
        let model = self.take_back(session);
        outcome.map(|_| model)
    }

    /// Move the interners and registry into a session over `program` with
    /// `db` seeded as its base facts. A compile error, or an id in `db`
    /// that this engine's store never issued ([`EvalError::UnknownSeq`]),
    /// leaves the engine as it was; otherwise hand them back with
    /// [`Engine::take_back`].
    fn open_seeded(
        &mut self,
        program: &Program,
        db: &Database,
        config: &EvalConfig,
    ) -> Result<EngineSession, EvalError> {
        let compiled = crate::compile::compile(program)?;
        let mut session = EngineSession::open_compiled(std::mem::take(self), compiled, *config);
        if let Err(e) = session.seed_db(db) {
            self.take_back(session);
            return Err(e);
        }
        Ok(session)
    }

    /// Reclaim the interners and registry from a session opened by
    /// [`Engine::open_seeded`], returning its interpretation.
    fn take_back(&mut self, session: EngineSession) -> Model {
        let (engine, model) = session.into_parts();
        *self = engine;
        model
    }

    /// Open a persistent [`EngineSession`] over `program`, consuming the
    /// engine (the session takes ownership of the interners and the
    /// transducer registry). Sessions resume the semi-naive fixpoint from
    /// newly asserted facts instead of re-evaluating from scratch — see
    /// [`crate::session`] for the protocol and guarantees.
    ///
    /// ```
    /// use seqlog_core::engine::Engine;
    /// use seqlog_core::eval::EvalConfig;
    ///
    /// let mut engine = Engine::new();
    /// let program = engine.parse_program("suffix(X[N:end]) :- r(X).").unwrap();
    /// let mut session = engine.into_session(&program, EvalConfig::default()).unwrap();
    /// session.assert_fact("r", &["ab"]).unwrap();
    /// session.run().unwrap();
    /// assert_eq!(session.answers("suffix"), ["", "ab", "b"]);
    /// // Later facts extend the settled model incrementally.
    /// session.assert_fact("r", &["cd"]).unwrap();
    /// session.run().unwrap();
    /// assert_eq!(session.answers("suffix"), ["", "ab", "b", "cd", "d"]);
    /// ```
    pub fn into_session(
        self,
        program: &Program,
        config: EvalConfig,
    ) -> Result<EngineSession, EvalError> {
        EngineSession::open(self, program, config)
    }

    /// Static analysis of `program` (see [`crate::analysis`]): compile it,
    /// then report the dependency graph (Definition 9) and its SCC
    /// condensation, strong safety (Definition 10, Theorem 8), the strata
    /// of stratified construction, guardedness (Appendix B), the
    /// non-constructive fragment (Theorem 3), the program order against
    /// this engine's registry (Section 7.1), the stratified evaluation
    /// schedule, per-clause facts, the `SL001`..`SL009` lint diagnostics
    /// and the transducer-fusion decisions. Database predicates are
    /// inferred as the predicates heading no clause;
    /// [`crate::session::EngineSession::report`] knows what has actually
    /// been asserted and gives the closed-world reading. A program that
    /// [`crate::compile::compile`] rejects returns
    /// [`EvalError::Compile`].
    ///
    /// ```
    /// use seqlog_core::engine::Engine;
    /// use seqlog_core::analysis::LintCode;
    ///
    /// let mut engine = Engine::new();
    /// // Example 5.1: construction between strata, never on a cycle.
    /// let program = engine
    ///     .parse_program("double(X ++ X) :- r(X).\nquadruple(X ++ X) :- double(X).")
    ///     .unwrap();
    /// let report = engine.analyze(&program).unwrap();
    /// assert!(report.strongly_safe && report.guarded && !report.non_constructive);
    /// assert_eq!(report.order, 1);
    /// // A duplicated clause is linted.
    /// let program = engine
    ///     .parse_program("p(X) :- q(X).\np(X) :- q(X).")
    ///     .unwrap();
    /// let report = engine.analyze(&program).unwrap();
    /// let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
    /// assert_eq!(codes, [LintCode::DuplicateClause]);
    /// ```
    pub fn analyze(&self, program: &Program) -> Result<ProgramReport, EvalError> {
        let compiled = crate::compile::compile(program)?;
        let mut report = ProgramReport::analyze(&compiled);
        report.attach_fusion(&crate::analysis::fuse::fuse_program(
            &compiled,
            &self.registry,
            &crate::analysis::FuseLimits::default(),
        ));
        report.attach_order(&compiled, &self.registry);
        Ok(report)
    }

    /// The tuples of `pred` in `model`, rendered to strings.
    pub fn rendered_tuples(&self, model: &Model, pred: &str) -> Vec<Vec<String>> {
        render_tuples_with(
            model.facts.relation_named(pred),
            &self.alphabet,
            &self.store,
        )
    }

    /// Rendered, sorted, deduplicated single-column answers for `pred`
    /// (convenience for the common `output(Y)` query shape, Definition 5).
    pub fn answers(&self, model: &Model, pred: &str) -> Vec<String> {
        render_answers_with(
            model.facts.relation_named(pred),
            &self.alphabet,
            &self.store,
        )
    }

    /// Demand-driven (goal-directed) point query with the default
    /// configuration — see [`Engine::query_bound_with`].
    pub fn query_bound(
        &mut self,
        program: &Program,
        db: &Database,
        pred: &str,
        pattern: &[Bind<'_>],
    ) -> Result<Vec<Vec<String>>, EvalError> {
        self.query_bound_with(program, db, pred, pattern, &EvalConfig::default())
    }

    /// Demand-driven (goal-directed) point query: evaluate only what the
    /// goal `pred(pattern)` needs via the magic-set transformation
    /// ([`crate::analysis::magic`]) and return the matching tuples of
    /// `pred` — rendered, sorted, and deduplicated (byte-identical to
    /// filtering and sorting [`Engine::rendered_tuples`] of a full
    /// [`Engine::evaluate_with`] run).
    ///
    /// One-shot: a thin wrapper that seeds a throwaway [`EngineSession`]
    /// with `db` and asks it. Sessions cache the transformed program per
    /// adornment — [`crate::session::EngineSession::query_bound`] is the
    /// repeated point-query API.
    pub fn query_bound_with(
        &mut self,
        program: &Program,
        db: &Database,
        pred: &str,
        pattern: &[Bind<'_>],
        config: &EvalConfig,
    ) -> Result<Vec<Vec<String>>, EvalError> {
        let mut session = self.open_seeded(program, db, config)?;
        let answers = session.query_bound(pred, pattern);
        self.take_back(session);
        answers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_of_an_unissued_id_is_a_placeholder() {
        let mut e = Engine::new();
        let ab = e.seq("ab");
        assert_eq!(e.render(ab), "ab");
        let unissued = SeqId(e.store.count() as u32);
        assert_eq!(
            e.render(unissued),
            format!("<unknown sequence {}>", unissued.0)
        );
        assert_eq!(e.render(SeqId(u32::MAX)), "<unknown sequence 4294967295>");
    }
}
