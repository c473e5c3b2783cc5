//! # seqlog-core — Sequence Datalog and Transducer Datalog
//!
//! The primary contribution of Bonner & Mecca, *Sequences, Datalog, and
//! Transducers* (PODS 1995 / JCSS 57, 1998), implemented in full:
//!
//! * **Sequence Datalog** (Section 3): Datalog over sequence databases with
//!   interpreted *indexed terms* `X[N1:N2]` (structural recursion) and
//!   *constructive terms* `X ++ Y` (constructive recursion), evaluated to the
//!   least fixpoint of the `T_{P,db}` operator over the **extended active
//!   domain** ([`eval`]).
//! * **Transducer Datalog** (Section 7): heads may invoke generalized
//!   sequence transducers via `@name(…)` terms bound through a
//!   [`registry::TransducerRegistry`]; [`translate`] compiles any Transducer
//!   Datalog program to an equivalent plain Sequence Datalog program
//!   (Theorem 7).
//! * **Static analysis** (Sections 5, 7.1 and 8): one report,
//!   [`analysis::ProgramReport`] from [`engine::Engine::analyze`], holds the
//!   dependency graph, constructive cycles, strong safety, the strata of
//!   stratified construction, guardedness and program order; its SCC
//!   condensation also drives the evaluator's stratified schedule and its
//!   lint engine emits stable `SL001`..`SL006` diagnostics ([`analysis`]).
//! * **Guarding** (Appendix B, Theorem 10): the `dom`-guarding
//!   transformation ([`guard`]).
//! * **Model theory** (Appendix A): model checking against the fixpoint
//!   semantics ([`model`]).
//!
//! Entry point: [`engine::Engine`].

// Every public item carries documentation, and a pedantic-subset of
// clippy is promoted to warn (CI runs clippy with `-D warnings`, so
// these are effectively deny). The subset is an allowlist on purpose:
// each lint here pulled its weight on this codebase; blanket
// `clippy::pedantic` was evaluated and rejected as mostly noise
// (must_use_candidate, module_name_repetitions, …).
#![warn(missing_docs)]
#![warn(
    clippy::cast_lossless,
    clippy::explicit_iter_loop,
    clippy::inefficient_to_string,
    clippy::items_after_statements,
    clippy::manual_let_else,
    clippy::map_unwrap_or,
    clippy::match_same_arms,
    clippy::redundant_closure_for_method_calls,
    clippy::semicolon_if_nothing_returned,
    clippy::uninlined_format_args
)]

pub mod analysis;
pub mod ast;
pub mod compile;
pub mod database;
pub mod engine;
pub mod eval;
pub mod guard;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod registry;
pub mod session;
pub mod snapshot;
pub mod translate;
pub mod wal;

pub use analysis::{
    Adornment, Bind, Diagnostic, FuseLimits, FusionDecision, LintCode, MagicProgram, ProgramReport,
    Severity,
};
pub use ast::{Atom, BodyLit, Clause, IndexTerm, IndexedBase, Program, SeqTerm};
pub use database::Database;
pub use engine::Engine;
pub use eval::{BudgetKind, EvalConfig, EvalError, EvalStats, Fixpoint, Model, Strategy};
pub use session::{DurabilityOptions, EngineSession};
pub use wal::RecoveryError;

/// Commonly used items, re-exported for `use seqlog_core::prelude::*`.
pub mod prelude {
    pub use crate::analysis::{
        Adornment, Bind, Diagnostic, FuseLimits, FusionDecision, LintCode, ProgramReport, Severity,
    };
    pub use crate::ast::Program;
    pub use crate::database::Database;
    pub use crate::engine::Engine;
    pub use crate::eval::{EvalConfig, EvalError, Model, Strategy};
    pub use crate::guard::guard_program;
    pub use crate::model::is_model;
    pub use crate::registry::TransducerRegistry;
    pub use crate::session::{DurabilityOptions, EngineSession};
    pub use crate::translate::translate_program;
    pub use crate::wal::RecoveryError;
    pub use seqlog_sequence::{Alphabet, ExtendedDomain, SeqId, SeqStore, Sym};
    pub use seqlog_transducer::{DeterminizeCaps, Fst, Network, Transducer};
}
