//! Persistent evaluation sessions: a serving-shaped wrapper around the
//! resumable fixpoint.
//!
//! Batch evaluation ([`Engine::evaluate_with`]) recomputes `lfp(T_{P,db})`
//! from scratch on every call (it opens a throwaway session, seeds the
//! database, runs once, and takes the model out). Under continuously arriving base facts that
//! is the dominant cost: the least fixpoint is *monotone* in the database
//! (Definitions 2–3 — `T_{P,db}` only grows when `db` grows), so a model
//! computed once can be extended by resuming the semi-naive round loop from
//! exactly the newly inserted tuples. [`EngineSession`] packages that:
//!
//! * it **owns** the compiled program, the sequence interners, the
//!   transducer registry, and the [`Fixpoint`] state (facts + extended
//!   active domain + cumulative [`EvalStats`]);
//! * [`assert_fact`](EngineSession::assert_fact) /
//!   [`assert_db`](EngineSession::assert_db) insert base facts *after* a
//!   fixpoint has been reached — window-closure of the new constants
//!   happens at assert time, mirroring the evaluator's pre-closing of
//!   program constants — and the next [`run`](EngineSession::run) resumes
//!   with those facts as the semi-naive delta;
//! * [`retract_fact`](EngineSession::retract_fact) /
//!   [`retract_db`](EngineSession::retract_db) **remove** base facts and
//!   immediately restore the least fixpoint of the surviving database by
//!   Delete-and-Rederive ([`Fixpoint::retract_facts`]) — the non-monotone
//!   half of the update surface;
//! * [`query`](EngineSession::query) / [`answers`](EngineSession::answers) /
//!   [`snapshot`](EngineSession::snapshot) read the current interpretation
//!   between updates.
//!
//! # Point queries
//!
//! [`query_bound`](EngineSession::query_bound) answers `pred(pattern)`
//! with the sorted filter of the fixpoint's extent. A **settled** session
//! ([`is_settled`](EngineSession::is_settled): every assert processed by a
//! `run` or an effective retraction) already holds `lfp(T_{P,db})`, so
//! the answer is an index probe of the relation costing O(answer), and the
//! query interns nothing. Otherwise the magic-set scratch fixpoint runs
//! over a copy of the session's facts.
//! [`DemandAnswer::evaluated`] tells the two routes apart.
//!
//! # Equivalence with batch evaluation
//!
//! For any split of a database into batches, asserting the batches in order
//! with a `run` after each yields the **same extents** as one batch
//! evaluation of the union. (The per-relation *insertion order* may differ
//! from the batch order, because facts settle in arrival order; set-level
//! extents are identical. This is differentially fuzzed in
//! `tests/fuzz_differential.rs` and checked for every paper example in
//! `tests/paper_examples.rs`.)
//!
//! # Retraction
//!
//! Sessions distinguish **base facts** (asserted through this API, or
//! seeded from a database) from **derived facts**. Only base facts can be
//! retracted; derived facts disappear exactly when they lose all base
//! support. After any `retract_*` call that **takes effect** (returns
//! `true`, or a positive count), the session is settled at
//! `lfp(T_{P,db'})` for the surviving base set `db'` — extent-equal to a
//! fresh batch evaluation of the survivors (the differential oracle in
//! `tests/fuzz_differential.rs`).
//! Deletion under recursion is where naive implementations go wrong, so the
//! engine uses Delete-and-Rederive with an explicit *domain shrinkage* step:
//! the extended active domain is a function of the interpretation
//! (Definition 4), so when the facts that introduced a sequence are
//! retracted, the sequence leaves the domain (its support count drops to
//! zero) and domain-sensitive clauses such as `pair(X, X) :- true.` must
//! lose the instantiations it justified. See [`Fixpoint::retract_facts`]
//! for the four DRed passes. Retracting a fact
//! that is not a base fact — including a typo, an unknown predicate, or a
//! derived-only fact — is a **no-op**: it returns `false`/count `0`, never
//! interns anything, and leaves the session exactly as it was — including
//! any pending (un-run) asserts, which stay pending until the next
//! [`run`](EngineSession::run) or effective retraction.
//!
//! An effective retraction settles eagerly (it behaves like an implicit
//! [`run`](EngineSession::run), processing any pending asserts too): a
//! half-maintained interpretation would serve wrong answers, so there is no
//! "retract now, re-derive later" mode.
//!
//! # Budgets are exact on the update surface
//!
//! Every assert — one fact or a batch, string or id arguments — is one
//! **failure-atomic** batch. Before anything is logged or interned, each
//! argument is checked: a value longer than `max_seq_len` is refused
//! (before the quadratic window closure), and so is an id the session's
//! store never issued ([`EvalError::UnknownSeq`]). A fact that would push
//! the state past `max_facts` or `max_domain` is then refused as it
//! applies: every fact of the batch is withdrawn and its arguments
//! released, which removes exactly the window closure it added, and the
//! pre-call state is restored exactly; the error reports the would-be
//! stats, and the session stays healthy — so an accepted assert can never
//! make the next `run` fail its entry budget check. (The commit phase of a
//! `run` keeps its documented behavior: it stops — and poisons — one fact
//! past the budget; the poisoned state is the diagnostic artifact.)
//! Refusals never poison. A budget-refused batch may leave sequences in
//! the append-only interner; the interner is not part of the
//! interpretation, so this is unobservable through the query API.
//!
//! # Predicates outside the compiled program
//!
//! `assert_*` **allows** predicates the program never mentions: they intern
//! fresh `PredId`s past the compiled table and become inert relations — no
//! clause consumes them, but they are queryable, contribute their sequences
//! to the extended active domain, and are retractable like any base fact.
//! (This mirrors batch evaluation, which seeds database-only predicates the
//! same way.) The read/retract surface (`query`, `relation`, `pred_id`,
//! `retract_*`) never interns: an unknown name is simply absent.
//!
//! # Error handling: sessions poison
//!
//! If a `run` fails — a budget exhausts mid-commit, a transducer gets stuck
//! — the session's state is a partially committed round: still a *sound*
//! under-approximation (every fact in it is derivable), but not a fixpoint.
//! The session then **poisons**: every later `assert_*`/`retract_*`/`run`
//! returns [`EvalError::Poisoned`] wrapping the original error, while the
//! read API (`query`/`snapshot`/`stats`) stays available for post-mortem
//! inspection. A failed **retraction** poisons identically, with one
//! honest difference in the post-mortem state: an interrupted
//! Delete-and-Rederive may leave facts whose base support is already gone,
//! i.e. an *over*-approximation of the new fixpoint (the retraction did not
//! finish taking effect). In-memory sessions have no way back from poison
//! other than re-evaluating from scratch; **durable** sessions additionally
//! offer [`recover`](EngineSession::recover), which rebuilds the last
//! healthy state from disk (below).
//!
//! # Durability: write-ahead log, snapshots, recovery
//!
//! [`open_durable`](EngineSession::open_durable) /
//! [`make_durable`](EngineSession::make_durable) attach a durability
//! directory holding a **write-ahead log** (`wal.bin`) and binary
//! **snapshots** (`snap-<covered>.bin`):
//!
//! * Every committed mutation batch — assert batch, retract batch, and each
//!   [`run`](EngineSession::run) boundary — is appended to the log **before**
//!   its in-memory commit, as a length-prefixed, CRC-checksummed record.
//!   Every argument is checked first — an id the store never issued
//!   ([`EvalError::UnknownSeq`]) or a value past `max_seq_len` is refused
//!   before anything is logged — so only a budget refusal can follow a
//!   logged assert batch; it is compensated with an `Abort` record so
//!   replay skips it. Records are **logical** (predicate names plus
//!   per-argument symbol names). Every mutator and replay go through one
//!   path: a private assert batch and a private retract batch, whose
//!   entries carry strings, store ids, or a record's symbol names. Replay
//!   runs those same batches and `run` on a non-durable scratch session,
//!   so it re-interns everything in the original order and the
//!   append-only interners reproduce identical ids.
//! * Snapshots hold the alphabet, sequence store, relations, base-fact
//!   set, cumulative stats, and the semi-naive watermarks, encoded straight
//!   from the live state in one pass — atomically (write, sync, rename)
//!   and whole-file checksummed. One is written every
//!   [`DurabilityOptions::snapshot_every`] records, on
//!   [`checkpoint`](EngineSession::checkpoint), and on attach.
//! * **Recovery** ([`open_durable`](EngineSession::open_durable) on an
//!   existing directory, or [`recover`](EngineSession::recover) on a
//!   poisoned durable session) reads snapshots newest first, rebuilding the
//!   interners and fixpoint as it reads; one that fails any check —
//!   checksum, structure or content — is skipped for the next older one,
//!   and recovery fails when none loads. It then replays the log tail after
//!   the chosen snapshot and resumes the fixpoint from the watermarks. A
//!   torn final record (a crash mid-append) is truncated away; *interior*
//!   corruption is a hard [`RecoveryError`] — committed history is never
//!   silently dropped. The extended active domain is a **function of the
//!   interpretation** (Definition 4), so its membership is rebuilt from the
//!   restored facts by re-closing every tuple — never trusted from disk; a
//!   corrupted snapshot can therefore fail its checksum or its validation,
//!   but cannot smuggle domain members past the fixpoint semantics. Only
//!   the domain's member *order* — observable through free-variable
//!   enumeration, hence part of bit-for-bit fidelity — comes from the
//!   snapshot, and only after it verifies as an exact permutation of the
//!   rebuilt closure.
//!
//! The recovery oracle (fuzzed with crash injection in
//! `tests/fuzz_recovery.rs`): a recovered session is **bit-for-bit equal**
//! — relation extents, insertion order, stats invariants — to a fresh
//! session that applies the surviving logged history in order.
//! Equivalently, after a final `run`, its model equals a fresh batch
//! evaluation of the surviving base facts, by the equivalence guarantee
//! above.

use std::fs;
use std::path::{Path, PathBuf};

use crate::analysis::magic::{magic_transform, MagicProgram};
use crate::analysis::Bind;
use crate::ast::Program;
use crate::compile::{compile, CompiledProgram, PredId};
use crate::database::Database;
use crate::engine::{render_answers_with, render_seq, render_tuples_with, Engine};
use crate::eval::interp::Relation;
use crate::eval::{AssertOutcome, BudgetKind, EvalConfig, EvalError, EvalStats, Fixpoint, Model};
use crate::registry::TransducerRegistry;
use crate::snapshot::{list_snapshots, write_snapshot, SessionSnapshot};
use crate::wal::{
    read_wal, LoggedFact, ReadRecord, RecoveryError, WalReadOptions, WalRecord, WalWriter, WAL_FILE,
};
use seqlog_sequence::{Alphabet, SeqId, SeqStore, Sym};
use std::collections::HashMap;

/// Tuning for a durable session (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct DurabilityOptions {
    /// Write a snapshot automatically after this many log records (0
    /// disables auto-checkpointing; only explicit
    /// [`checkpoint`](EngineSession::checkpoint)/
    /// [`compact`](EngineSession::compact) calls snapshot then).
    pub snapshot_every: usize,
    /// `fsync` the log after every record. Off by default: every record is
    /// still flushed to the OS before the in-memory commit, so recovery is
    /// exact after a process kill; syncing additionally survives an OS
    /// crash at a large per-record cost (measured by the `wal_overhead`
    /// bench).
    pub sync_data: bool,
    /// Snapshots retained after a new one is written.
    pub snapshots_kept: usize,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            snapshot_every: 64,
            sync_data: false,
            snapshots_kept: 2,
        }
    }
}

/// The attached durability state of a session: the directory, the
/// append handle, and the auto-checkpoint cadence counter.
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    wal: WalWriter,
    opts: DurabilityOptions,
    since_snapshot: usize,
}

/// The arguments of one fact on the update surface, as
/// [`EngineSession`]'s one assert batch and one retract batch take them.
#[derive(Clone, Copy)]
enum Args<'a> {
    /// String values, one symbol per character.
    Text(&'a [&'a str]),
    /// Ids of this session's store.
    Ids(&'a [SeqId]),
    /// Per-argument symbol names, as a log record carries them.
    Names(&'a [Vec<String>]),
}

/// A persistent evaluation session over one compiled program.
///
/// Create one with [`Engine::into_session`] (the session takes ownership of
/// the engine's interners and registry). See the [module docs](self) for
/// the update/query protocol and the poisoning contract.
///
/// Cloning a durable session yields a **detached** (in-memory) clone: two
/// writers appending to one log would interleave incompatible histories,
/// so the clone's `durability` is dropped and only the original keeps
/// logging.
pub struct EngineSession {
    alphabet: Alphabet,
    store: SeqStore,
    registry: TransducerRegistry,
    program: CompiledProgram,
    config: EvalConfig,
    fx: Fixpoint,
    poisoned: Option<EvalError>,
    durability: Option<Durability>,
    /// Machine-level diagnostics (`SL007`–`SL009`) computed by the fusion
    /// pass at [`open`](EngineSession::open) time, against the *pre-rewrite*
    /// program (the stored program is post-rewrite when fusion applied).
    fusion_diagnostics: Vec<crate::analysis::Diagnostic>,
    /// Fusion decisions from the same pass, surfaced via
    /// [`report`](EngineSession::report).
    fusion_decisions: Vec<crate::analysis::FusionDecision>,
    /// Magic-transformed programs cached per `(goal, bound-mask)` — the
    /// program never changes over a session's life, so entries never
    /// invalidate; repeated point queries recompile nothing.
    demand_cache: HashMap<(PredId, Vec<bool>), MagicProgram>,
}

/// The result of an instrumented demand query
/// ([`EngineSession::query_bound_instrumented`]): the answers plus the
/// scratch evaluation's statistics, for the fuzz harness's selectivity
/// bounds.
#[doc(hidden)]
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemandAnswer {
    /// Rendered, sorted, deduplicated matching tuples.
    pub answers: Vec<Vec<String>>,
    /// Finalized statistics of the scratch evaluation (all-zero when the
    /// query answered without evaluating).
    pub stats: EvalStats,
    /// True when the query took the scratch route: the magic scratch
    /// fixpoint ran, or — on a program with no constructive clause — it
    /// was skipped because a bound value was never interned, so nothing
    /// can match (`stats` all-zero). False when the query probed the
    /// session's own relation instead — the goal is asserted-only or
    /// unknown, or the session [`is_settled`](EngineSession::is_settled)
    /// and the options are the defaults.
    pub evaluated: bool,
}

impl Clone for EngineSession {
    fn clone(&self) -> Self {
        Self {
            alphabet: self.alphabet.clone(),
            store: self.store.clone(),
            registry: self.registry.clone(),
            program: self.program.clone(),
            config: self.config,
            fx: self.fx.clone(),
            poisoned: self.poisoned.clone(),
            durability: None,
            fusion_diagnostics: self.fusion_diagnostics.clone(),
            fusion_decisions: self.fusion_decisions.clone(),
            demand_cache: self.demand_cache.clone(),
        }
    }
}

impl EngineSession {
    /// Open a session: compile `program`, window-close its constants, and
    /// take ownership of `engine`'s alphabet, store, and registry. No
    /// evaluation happens yet — call [`run`](EngineSession::run) after the
    /// first asserts (or immediately, to settle a program with ground
    /// clauses and no base facts).
    pub fn open(engine: Engine, program: &Program, config: EvalConfig) -> Result<Self, EvalError> {
        Ok(Self::open_compiled(engine, compile(program)?, config))
    }

    /// [`open`](EngineSession::open) over an already-compiled program.
    /// Infallible, so a caller that moved its engine in always gets it
    /// back through [`into_parts`](EngineSession::into_parts).
    pub(crate) fn open_compiled(
        engine: Engine,
        mut compiled: CompiledProgram,
        config: EvalConfig,
    ) -> Self {
        let Engine {
            alphabet,
            mut store,
            mut registry,
        } = engine;
        // Compile-time transducer fusion (see [`crate::analysis::fuse`]):
        // analyze against the pre-rewrite program, then store the rewritten
        // program and register the fused machines. A pure rewrite — the
        // session's extent is bit-for-bit identical either way.
        let pass = crate::analysis::fuse::fuse_program(
            &compiled,
            &registry,
            &crate::analysis::FuseLimits::default(),
        );
        if config.fusion {
            if let Some((rewritten, machines)) = pass.fused {
                compiled = rewritten;
                for (name, machine) in machines {
                    registry.register(name, machine);
                }
            }
        }
        for id in compiled.constants() {
            store.close_windows(id);
        }
        let fx = Fixpoint::new(&compiled);
        Self {
            alphabet,
            store,
            registry,
            program: compiled,
            config,
            fx,
            poisoned: None,
            durability: None,
            fusion_diagnostics: pass.diagnostics,
            fusion_decisions: pass.decisions,
            demand_cache: HashMap::new(),
        }
    }

    /// Seed every fact of `db` as a base fact by raw
    /// [`Fixpoint::assert_fact`] — batch evaluation's seeding
    /// (Definition 4: database atoms are clauses with empty bodies). Unlike
    /// [`assert_db`](EngineSession::assert_db) nothing is logged and
    /// budgets are not checked per fact: the next run enforces them, as
    /// batch evaluation always has. An id this session's store never
    /// issued refuses the whole database ([`EvalError::UnknownSeq`])
    /// before anything is seeded.
    pub(crate) fn seed_db(&mut self, db: &Database) -> Result<(), EvalError> {
        db.iter()
            .try_for_each(|(_, tuple)| tuple.iter().try_for_each(|&id| self.check_issued(id)))?;
        for (pred, tuple) in db.iter() {
            let pid = self.fx.pred_id(pred);
            self.fx.assert_fact(&mut self.store, pid, tuple.into());
        }
        Ok(())
    }

    /// Consume the session into the engine it was opened from and its
    /// current interpretation as a [`Model`] (moved, not cloned). The
    /// machines the fusion pass registered at open time are dropped, so
    /// the engine's registry is exactly the one it was opened with.
    pub(crate) fn into_parts(self) -> (Engine, Model) {
        let mut registry = self.registry;
        if self.config.fusion {
            for d in &self.fusion_decisions {
                if d.applied && d.clause.is_some() {
                    registry.unregister(&d.fused_name);
                }
            }
        }
        let engine = Engine {
            alphabet: self.alphabet,
            store: self.store,
            registry,
        };
        (engine, self.fx.into_model())
    }

    /// Open a **durable** session backed by `dir`. On a fresh (or empty)
    /// directory this is [`open`](EngineSession::open) followed by
    /// [`make_durable`](EngineSession::make_durable); when `dir` already
    /// holds a log, the session is **recovered** instead: the newest valid
    /// snapshot is loaded, the log tail is replayed through the ordinary
    /// session paths, and the fixpoint resumes from the persisted
    /// watermarks (see the [module docs](self) for the recovery
    /// guarantee). The caller must supply the same program text and
    /// registered transducers the original session had; mismatches are
    /// refused with [`EvalError::Recovery`] before any state is replaced.
    pub fn open_durable(
        engine: Engine,
        program: &Program,
        config: EvalConfig,
        dir: impl AsRef<Path>,
        opts: DurabilityOptions,
    ) -> Result<Self, EvalError> {
        let dir = dir.as_ref();
        let mut session = Self::open(engine, program, config)?;
        if dir.join(WAL_FILE).exists() {
            session.attach_recover(dir.to_path_buf(), opts)?;
        } else {
            session.make_durable(dir, opts)?;
        }
        Ok(session)
    }

    fn guard_poison(&self) -> Result<(), EvalError> {
        match &self.poisoned {
            Some(original) => Err(EvalError::Poisoned {
                original: Box::new(original.clone()),
            }),
            None => Ok(()),
        }
    }

    /// Attach a write-ahead log (and snapshots) under `dir` to this
    /// session. The directory must not already hold a log (recover one
    /// with [`open_durable`](EngineSession::open_durable) instead); an
    /// initial snapshot of the current state is written immediately, so
    /// recovery never depends on replaying history from before this call.
    /// From here on every committed assert/retract batch and every
    /// [`run`](EngineSession::run) boundary is appended to the log
    /// **before** its in-memory commit.
    pub fn make_durable(
        &mut self,
        dir: impl AsRef<Path>,
        opts: DurabilityOptions,
    ) -> Result<(), EvalError> {
        self.guard_poison()?;
        if self.durability.is_some() {
            return Err(mismatch("session is already durable"));
        }
        let dir = dir.as_ref();
        fs::create_dir_all(dir)
            .map_err(|e| EvalError::Recovery(RecoveryError::io("create durability dir", &e)))?;
        let wal_path = dir.join(WAL_FILE);
        if wal_path.exists() {
            return Err(mismatch(
                "directory already holds a log; use open_durable to recover it",
            ));
        }
        let wal = WalWriter::create(&wal_path, 0, opts.sync_data).map_err(EvalError::Recovery)?;
        self.durability = Some(Durability {
            dir: dir.to_path_buf(),
            wal,
            opts,
            since_snapshot: 0,
        });
        match self.write_checkpoint() {
            Ok(_) => Ok(()),
            Err(e) => {
                self.durability = None;
                let _ = fs::remove_file(&wal_path);
                Err(e)
            }
        }
    }

    /// Write a snapshot of the current state now (in addition to the
    /// automatic cadence of [`DurabilityOptions::snapshot_every`]);
    /// returns the snapshot's path. Recovery loads the newest valid
    /// snapshot and replays only the log records after it.
    pub fn checkpoint(&mut self) -> Result<PathBuf, EvalError> {
        self.guard_poison()?;
        self.write_checkpoint()
    }

    /// [`checkpoint`](EngineSession::checkpoint), then rewrite the log as
    /// an empty file whose `base_index` is the snapshot's covered record
    /// count — bounding both the log's size and recovery's replay work.
    /// Old snapshots beyond [`DurabilityOptions::snapshots_kept`] are
    /// pruned as part of the checkpoint.
    pub fn compact(&mut self) -> Result<(), EvalError> {
        self.guard_poison()?;
        self.write_checkpoint()?;
        let d = self
            .durability
            .as_mut()
            .expect("write_checkpoint verified durability");
        let next = d.wal.next_index();
        let wal_path = d.dir.join(WAL_FILE);
        let tmp = d.dir.join(format!("{WAL_FILE}.tmp"));
        let fresh = WalWriter::create(&tmp, next, d.opts.sync_data).map_err(EvalError::Recovery)?;
        drop(fresh);
        fs::rename(&tmp, &wal_path)
            .map_err(|e| EvalError::Recovery(RecoveryError::io("rename compacted log", &e)))?;
        let contents =
            read_wal(&wal_path, &WalReadOptions::default()).map_err(EvalError::Recovery)?;
        d.wal = WalWriter::reopen(&wal_path, &contents, d.opts.sync_data)
            .map_err(EvalError::Recovery)?;
        Ok(())
    }

    /// Rebuild this session's state from its own snapshot + log — the
    /// recovery path for a **poisoned** durable session. The in-memory
    /// state (a partially committed round, or an interrupted
    /// Delete-and-Rederive) is discarded and replaced by a replay of the
    /// durable history; a final record that fails replay — the one whose
    /// live execution poisoned the session — is truncated away, so the
    /// result is the last healthy state, pending (logged, un-run) asserts
    /// included, and the poison is cleared. Callers typically raise
    /// budgets via [`config_mut`](EngineSession::config_mut) first, in
    /// which case the failing record may now replay successfully and
    /// nothing is truncated.
    ///
    /// On failure the session is left exactly as it was (state, poison,
    /// and log attachment untouched). After a successful recovery,
    /// previously obtained [`SeqId`]s are invalidated: the interners are
    /// rebuilt from disk.
    pub fn recover(&mut self) -> Result<EvalStats, EvalError> {
        let Some(d) = self.durability.as_ref() else {
            return Err(mismatch("session is not durable; nothing to recover from"));
        };
        let dir = d.dir.clone();
        let opts = d.opts.clone();
        self.attach_recover(dir, opts)?;
        Ok(self.stats())
    }

    /// True when this session logs to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Total log records ever committed by this durable session (across
    /// compactions), or `None` when not durable.
    pub fn durable_records(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.wal.next_index())
    }

    /// Current byte length of the write-ahead log, or `None` when not
    /// durable. The crash-injection harness uses this to pick kill
    /// offsets at and between record boundaries.
    pub fn wal_len(&self) -> Option<u64> {
        self.durability.as_ref().map(|d| d.wal.len())
    }

    /// The durability directory, when attached.
    pub fn durability_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Append one record, counting it toward the auto-checkpoint cadence.
    /// No-op on non-durable sessions. On append failure the mutation must
    /// be refused by the caller — nothing has committed in memory.
    fn log_record(&mut self, rec: &WalRecord) -> Result<(), EvalError> {
        if let Some(d) = self.durability.as_mut() {
            d.wal.append(rec).map_err(EvalError::Recovery)?;
            d.since_snapshot += 1;
        }
        Ok(())
    }

    /// Compensate a logged-but-refused batch with an [`WalRecord::Abort`]
    /// so replay skips it, and hand back the original refusal. If even the
    /// compensation cannot be written the session poisons: without it, a
    /// later crash would replay the refused batch as committed.
    fn abort_logged(&mut self, original: EvalError) -> EvalError {
        if self.durability.is_some() {
            if let Err(e) = self.log_record(&WalRecord::Abort) {
                self.poisoned = Some(e.clone());
                return e;
            }
        }
        original
    }

    /// Auto-checkpoint hook, called after every successfully committed
    /// durable mutation. A failed automatic snapshot is deliberately not
    /// surfaced: the log remains authoritative, so the only consequence is
    /// a longer replay tail (explicit
    /// [`checkpoint`](EngineSession::checkpoint) calls do surface errors).
    fn after_mutation(&mut self) {
        let Some(d) = self.durability.as_ref() else {
            return;
        };
        if d.opts.snapshot_every > 0 && d.since_snapshot >= d.opts.snapshot_every {
            let _ = self.write_checkpoint();
        }
    }

    fn write_checkpoint(&mut self) -> Result<PathBuf, EvalError> {
        let Some(d) = self.durability.as_ref() else {
            return Err(mismatch("session is not durable"));
        };
        let path = write_snapshot(
            &d.dir,
            d.opts.snapshots_kept,
            d.wal.next_index(),
            &self.alphabet,
            &self.store,
            &self.fx,
        )
        .map_err(EvalError::Recovery)?;
        if let Some(d) = self.durability.as_mut() {
            d.since_snapshot = 0;
        }
        Ok(path)
    }

    /// Load the newest usable snapshot under `dir`, replay the log tail
    /// on a non-durable scratch session through the live mutators' own
    /// assert and retract batches and `run`, and swap the rebuilt
    /// state into `self`. See the [module docs](self) for the protocol; on
    /// any error `self` is untouched.
    fn attach_recover(&mut self, dir: PathBuf, opts: DurabilityOptions) -> Result<(), EvalError> {
        let wal_path = dir.join(WAL_FILE);
        let contents =
            read_wal(&wal_path, &WalReadOptions::default()).map_err(EvalError::Recovery)?;
        let last_index = contents.base_index + contents.records.len() as u64;

        // Newest snapshot consistent with the log. A snapshot claiming
        // records the log never had means committed history vanished —
        // hard corruption, not something to silently fall back from. A
        // snapshot that fails any check while it is read and rebuilt —
        // checksum, structure or content — is skipped for an older one.
        let mut chosen: Option<(SessionSnapshot, PathBuf)> = None;
        let mut first_err: Option<RecoveryError> = None;
        for (covered, path) in list_snapshots(&dir).map_err(EvalError::Recovery)? {
            if covered > last_index {
                return Err(mismatch(&format!(
                    "snapshot covers {covered} records but the log ends at {last_index}"
                )));
            }
            if covered < contents.base_index {
                // Predates the log's compaction base: its tail records are
                // gone, so it cannot seed a replay. Try an older... there
                // is nothing older that could work either.
                first_err.get_or_insert(RecoveryError::Mismatch {
                    detail: format!(
                        "snapshot covers {covered} records but the log starts at {}",
                        contents.base_index
                    ),
                });
                continue;
            }
            match SessionSnapshot::read(&path) {
                Ok(s) => {
                    chosen = Some((s, path));
                    break;
                }
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        let Some((snap, snap_path)) = chosen else {
            return Err(EvalError::Recovery(first_err.unwrap_or_else(|| {
                RecoveryError::Mismatch {
                    detail: "no usable snapshot found".to_string(),
                }
            })));
        };

        let covered = snap.covered;
        let tail: Vec<&ReadRecord> = contents
            .records
            .iter()
            .filter(|r| r.index >= covered)
            .collect();
        let mut scratch = self.rebuild_scratch(snap)?;
        let mut next_index = last_index;
        let mut truncate_at = None;
        if let Err((k, e)) = replay_records(&mut scratch, &tail, u64::MAX) {
            if k + 1 != last_index {
                // Only the *final* record may fail replay (the poisoned
                // tail, or a torn abort): committed interior records
                // replayed successfully once, so a mid-log failure means
                // the environment — program, registry, budgets — does not
                // match the history, and truncating would destroy it.
                return Err(mismatch(&format!(
                    "log record {k} failed to replay mid-log ({e}); refusing to truncate \
                     committed history"
                )));
            }
            // The first rebuild was consumed by the failed replay: read
            // the chosen file again (this retry is rare).
            let snap = SessionSnapshot::read(&snap_path).map_err(EvalError::Recovery)?;
            scratch = self.rebuild_scratch(snap)?;
            replay_records(&mut scratch, &tail, k).map_err(|(i, e2)| {
                mismatch(&format!("log record {i} failed prefix replay: {e2}"))
            })?;
            let failing = contents
                .records
                .iter()
                .find(|r| r.index == k)
                .expect("failing index comes from these records");
            truncate_at = Some(failing.start_offset);
            next_index = k;
        }

        let mut wal =
            WalWriter::reopen(&wal_path, &contents, opts.sync_data).map_err(EvalError::Recovery)?;
        if let Some(offset) = truncate_at {
            wal.truncate_to(offset, next_index)
                .map_err(EvalError::Recovery)?;
        }
        let since_snapshot = (next_index - covered) as usize;
        self.alphabet = scratch.alphabet;
        self.store = scratch.store;
        self.fx = scratch.fx;
        self.poisoned = None;
        self.durability = Some(Durability {
            dir,
            wal,
            opts,
            since_snapshot,
        });
        Ok(())
    }

    /// Wrap a rebuilt snapshot in a detached scratch session sharing this
    /// session's program, registry, and config, verifying the loaded
    /// interners extend the caller's (same alphabet prefix, same sequence
    /// prefix, program predicates a prefix of the loaded table) so the
    /// compiled program's ids stay valid over the loaded state.
    fn rebuild_scratch(&self, snap: SessionSnapshot) -> Result<EngineSession, EvalError> {
        let (alphabet, mut store, fx) = snap.state;
        if !self.program.preds.is_prefix_of(fx.facts().preds()) {
            return Err(mismatch(
                "program predicates are not a prefix of the persisted predicate table",
            ));
        }
        // Shared-prefix consistency: the caller's interners and the loaded
        // ones both descend from the same compiled program by append-only
        // interning of the same logged history, so whichever is shorter
        // must be a content-prefix of the other. (On `open_durable` the
        // caller holds just the program's symbols; on `recover()` the live
        // session has grown past the snapshot — both directions are fine,
        // divergence is not.) Compared by *name*, not raw ids: past the
        // common length the two sides may intern different symbols.
        let n_syms = self.alphabet.len().min(alphabet.len());
        if self
            .alphabet
            .iter()
            .take(n_syms)
            .any(|(s, name)| alphabet.name(s) != name)
        {
            return Err(mismatch("persisted alphabet diverges from the session's"));
        }
        let n_seqs = self.store.count().min(store.count());
        for i in 0..n_seqs {
            let id = SeqId(i as u32);
            let live = self.store.get(id);
            let loaded = store.get(id);
            if live.len() != loaded.len()
                || live
                    .iter()
                    .zip(loaded.iter())
                    .any(|(&a, &b)| self.alphabet.name(a) != alphabet.name(b))
            {
                return Err(mismatch(
                    "persisted sequence store diverges from the session's",
                ));
            }
        }
        // Every compiled constant must resolve inside the loaded store (its
        // content equality is covered by the shared-prefix check above).
        if self
            .program
            .constants()
            .iter()
            .any(|id| (id.0 as usize) >= store.count())
        {
            return Err(mismatch(
                "program constants are missing from the persisted sequence store",
            ));
        }
        for id in self.program.constants() {
            store.close_windows(id);
        }
        Ok(EngineSession {
            alphabet,
            store,
            registry: self.registry.clone(),
            program: self.program.clone(),
            config: self.config,
            fx,
            poisoned: None,
            durability: None,
            fusion_diagnostics: self.fusion_diagnostics.clone(),
            fusion_decisions: self.fusion_decisions.clone(),
            demand_cache: HashMap::new(),
        })
    }

    /// Refuse an assert's arguments before anything is logged or interned:
    /// an id this session's store never issued
    /// ([`EvalError::UnknownSeq`]), or a value longer than `max_seq_len` —
    /// domain closure interns O(len²) windows, so an oversized value must
    /// be rejected *before* closure, not discovered by the next run's
    /// budget check. Neither refusal poisons: the interpretation is
    /// untouched and the session keeps serving (batch evaluation, by
    /// contrast, only discovers oversized database sequences at run time).
    fn check_args(&self, args: Args<'_>) -> Result<(), EvalError> {
        match args {
            Args::Text(values) => values
                .iter()
                .try_for_each(|s| self.check_seq_len(s.chars().count())),
            Args::Ids(ids) => ids.iter().try_for_each(|&id| {
                self.check_issued(id)?;
                self.check_seq_len(self.store.len_of(id))
            }),
            Args::Names(names) => names.iter().try_for_each(|n| self.check_seq_len(n.len())),
        }
    }

    /// The refusal of an id this session's store never issued, shared by
    /// [`check_args`](Self::check_args) and [`seed_db`](Self::seed_db).
    fn check_issued(&self, id: SeqId) -> Result<(), EvalError> {
        if id.index() >= self.store.count() {
            return Err(EvalError::UnknownSeq(id));
        }
        Ok(())
    }

    /// The `max_seq_len` refusal for a sequence of `len` symbols, shared by
    /// [`check_args`](Self::check_args) and the constructive point-query
    /// path.
    fn check_seq_len(&self, len: usize) -> Result<(), EvalError> {
        if len > self.config.max_seq_len {
            let mut stats = self.fx.stats();
            stats.max_seq_len = stats.max_seq_len.max(len);
            return Err(EvalError::Budget {
                kind: BudgetKind::SeqLen,
                stats,
            });
        }
        Ok(())
    }

    /// Intern checked arguments as a tuple. Text interns per character,
    /// the same symbols its logged names carry, so a replayed record
    /// re-interns in the original order and the append-only interners
    /// reproduce identical ids.
    fn intern_args(&mut self, args: Args<'_>) -> Box<[SeqId]> {
        match args {
            Args::Text(values) => values
                .iter()
                .map(|s| {
                    let syms = self.alphabet.seq_of_str(s);
                    self.store.intern_vec(syms)
                })
                .collect(),
            Args::Ids(ids) => ids.into(),
            Args::Names(names) => names
                .iter()
                .map(|n| {
                    let syms = n.iter().map(|name| self.alphabet.intern(name)).collect();
                    self.store.intern_vec(syms)
                })
                .collect(),
        }
    }

    /// Resolve arguments **without interning** anything (not even alphabet
    /// symbols): `None` when some value was never interned or some id never
    /// issued, in which case no such fact can exist.
    fn lookup_args(&self, args: Args<'_>) -> Option<Box<[SeqId]>> {
        match args {
            Args::Text(values) => values.iter().map(|s| self.lookup_seq(s)).collect(),
            Args::Ids(ids) => ids
                .iter()
                .all(|id| id.index() < self.store.count())
                .then(|| ids.into()),
            Args::Names(names) => names
                .iter()
                .map(|n| {
                    let syms: Option<Vec<Sym>> =
                        n.iter().map(|name| self.alphabet.lookup(name)).collect();
                    self.store.lookup(&syms?)
                })
                .collect(),
        }
    }

    /// The logged form of a checked or resolved fact: predicate name plus
    /// per-argument symbol names, independent of the interners. Text splits
    /// per character exactly like [`Alphabet::seq_of_str`]; ids read their
    /// symbols back through the store.
    fn logged_fact(&self, pred: &str, args: Args<'_>) -> LoggedFact {
        let args = match args {
            Args::Text(values) => values
                .iter()
                .map(|s| s.chars().map(String::from).collect())
                .collect(),
            Args::Ids(ids) => ids
                .iter()
                .map(|&id| {
                    self.store
                        .get(id)
                        .iter()
                        .map(|&s| self.alphabet.name(s).to_string())
                        .collect()
                })
                .collect(),
            Args::Names(names) => names.to_vec(),
        };
        LoggedFact {
            pred: pred.to_string(),
            args,
        }
    }

    /// The one assert path, shared by every `assert_*` mutator and by log
    /// replay: refuse on poison, check every argument
    /// ([`check_args`](Self::check_args)), log one
    /// [`WalRecord::AssertBatch`] when durable, then intern and apply each
    /// fact in order with exact budgets. A refusal rolls the whole batch
    /// back and compensates the record with [`WalRecord::Abort`]. Returns
    /// how many facts were new.
    fn assert_batch(&mut self, facts: &[(&str, Args<'_>)]) -> Result<usize, EvalError> {
        self.guard_poison()?;
        for &(_, args) in facts {
            self.check_args(args)?;
        }
        if self.durability.is_some() && !facts.is_empty() {
            let logged = facts
                .iter()
                .map(|&(pred, args)| self.logged_fact(pred, args))
                .collect();
            self.log_record(&WalRecord::AssertBatch(logged))?;
        }
        let mut applied: Vec<(PredId, Box<[SeqId]>, AssertOutcome)> = Vec::new();
        let mut added = 0;
        for &(pred, args) in facts {
            let tuple = self.intern_args(args);
            let pid = self.fx.pred_id(pred);
            match self.assert_exact(pid, tuple, &mut applied) {
                Ok(new_fact) => added += usize::from(new_fact),
                Err(e) => {
                    self.rollback_asserts(&applied);
                    return Err(self.abort_logged(e));
                }
            }
        }
        self.after_mutation();
        Ok(added)
    }

    /// One fact of an assert batch with **exact** cumulative-budget
    /// enforcement: a fact that would push the state past `max_facts` is
    /// refused before it applies, one that pushes the domain past
    /// `max_domain` right after, with its change already in `applied` so
    /// the batch rollback removes it and exactly the window closure it
    /// added. The reported stats are the would-be (peak) stats, so the
    /// caller sees what tripped. Duplicate asserts never grow the state
    /// and are always admitted (they still record base status for
    /// retraction). Returns whether the fact was new.
    fn assert_exact(
        &mut self,
        pid: PredId,
        tuple: Box<[SeqId]>,
        applied: &mut Vec<(PredId, Box<[SeqId]>, AssertOutcome)>,
    ) -> Result<bool, EvalError> {
        if !self.fx.facts().contains_id(pid, &tuple) {
            let mut peak = self.fx.stats();
            if peak.facts + 1 > self.config.max_facts {
                peak.facts += 1;
                return Err(EvalError::Budget {
                    kind: BudgetKind::Facts,
                    stats: peak,
                });
            }
        }
        let outcome = self
            .fx
            .assert_fact_full(&mut self.store, pid, tuple.clone());
        if outcome.new_fact || outcome.new_base {
            applied.push((pid, tuple, outcome));
        }
        if outcome.new_fact && self.fx.domain().len() > self.config.max_domain {
            return Err(EvalError::Budget {
                kind: BudgetKind::DomainSize,
                stats: self.fx.stats(),
            });
        }
        Ok(outcome.new_fact)
    }

    /// Reverse what a refused batch applied (newest first), restoring
    /// the exact pre-batch state: each withdrawn fact releases its
    /// arguments, which removes exactly the domain members the batch
    /// introduced (they are the newest, so this costs what they added).
    /// Fact removals tombstone; one compaction pass at the end settles the
    /// whole rollback, however large the batch.
    fn rollback_asserts(&mut self, applied: &[(PredId, Box<[SeqId]>, AssertOutcome)]) {
        for (pid, tuple, outcome) in applied.iter().rev() {
            if outcome.new_fact {
                self.fx
                    .unassert_pending(&self.store, *pid, tuple, outcome.new_base);
            } else if outcome.new_base {
                self.fx.drop_base_record(*pid, tuple);
            }
        }
        self.fx.compact_pending();
    }

    /// The one retract path, shared by every `retract_*` mutator and by log
    /// replay: refuse on poison, then resolve each fact by lookup only —
    /// an unknown predicate, a value never interned or an id never issued
    /// drops the fact. When nothing resolves, nothing is logged and the
    /// count is 0. Otherwise one [`WalRecord::RetractBatch`] is logged
    /// when durable and one Delete-and-Rederive pass
    /// ([`Fixpoint::retract_facts`]) runs, poisoning on failure like
    /// [`run`](EngineSession::run). Returns how many were base facts.
    fn retract_batch(&mut self, facts: &[(&str, Args<'_>)]) -> Result<usize, EvalError> {
        self.guard_poison()?;
        let mut batch: Vec<(PredId, Box<[SeqId]>)> = Vec::new();
        let mut logged: Vec<LoggedFact> = Vec::new();
        for &(pred, args) in facts {
            let Some(pid) = self.fx.facts().lookup_pred(pred) else {
                continue;
            };
            let Some(tuple) = self.lookup_args(args) else {
                continue;
            };
            if self.durability.is_some() {
                logged.push(self.logged_fact(pred, args));
            }
            batch.push((pid, tuple));
        }
        if batch.is_empty() {
            return Ok(0);
        }
        self.log_record(&WalRecord::RetractBatch(logged))?;
        match self.fx.retract_facts(
            &self.program,
            &mut self.store,
            &self.registry,
            &self.config,
            &batch,
        ) {
            Ok(n) => {
                self.after_mutation();
                Ok(n)
            }
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Intern `text` as a sequence and window-close it, so it can serve as
    /// an indexed base as soon as it reaches the matcher. Use with
    /// [`assert_db`](EngineSession::assert_db) to build tuples without
    /// going through string arguments twice. Like every `assert_*`,
    /// refused on a poisoned session (the update surface closes uniformly)
    /// and on sequences longer than `max_seq_len` (rejected before the
    /// quadratic window closure; the session stays healthy).
    pub fn assert_seq(&mut self, text: &str) -> Result<SeqId, EvalError> {
        self.guard_poison()?;
        self.check_args(Args::Text(&[text]))?;
        let syms = self.alphabet.seq_of_str(text);
        let id = self.store.intern_vec(syms);
        self.store.close_windows(id);
        Ok(id)
    }

    /// Assert one base fact with string arguments. Returns `true` when the
    /// fact is new; new facts become the next [`run`](EngineSession::run)'s
    /// semi-naive delta. Duplicate asserts never grow the interpretation
    /// (but still mark the fact as *base*, so it survives retraction of its
    /// other derivations); arguments longer than `max_seq_len` and facts
    /// that would exceed `max_facts`/`max_domain` are refused eagerly and
    /// exactly (state untouched, session not poisoned).
    pub fn assert_fact(&mut self, pred: &str, args: &[&str]) -> Result<bool, EvalError> {
        self.assert_batch(&[(pred, Args::Text(args))])
            .map(|n| n > 0)
    }

    /// Assert a batch of string-argument facts; returns how many were new.
    ///
    /// **Failure-atomic**: if any fact of the batch is refused (budget) the
    /// whole batch rolls back and the session state is exactly what it was
    /// before the call; on a poisoned session nothing is applied either.
    pub fn assert_facts(&mut self, facts: &[(&str, &[&str])]) -> Result<usize, EvalError> {
        let facts: Vec<_> = facts
            .iter()
            .map(|&(pred, args)| (pred, Args::Text(args)))
            .collect();
        self.assert_batch(&facts)
    }

    /// Assert every fact of `db` over already-interned sequences; returns
    /// how many were new. The ids must come from this session's store —
    /// e.g. from [`assert_seq`](EngineSession::assert_seq), or from the
    /// owning [`Engine`] before [`Engine::into_session`]; an id the store
    /// never issued is refused with [`EvalError::UnknownSeq`]. Lengths and
    /// budgets are enforced exactly, as in
    /// [`assert_fact`](EngineSession::assert_fact). **Failure-atomic**,
    /// like [`assert_facts`](EngineSession::assert_facts).
    pub fn assert_db(&mut self, db: &Database) -> Result<usize, EvalError> {
        let facts: Vec<_> = db
            .iter()
            .map(|(pred, tuple)| (pred, Args::Ids(tuple)))
            .collect();
        self.assert_batch(&facts)
    }

    /// Retract one base fact with string arguments; returns `true` when the
    /// fact was a base fact and has been retracted. Non-base facts
    /// (derived-only, unknown predicate, never-interned arguments) are
    /// **no-ops** returning `false`: nothing is interned, and the session
    /// state — pending asserts included — is left exactly as it was.
    ///
    /// When the retraction takes effect the session is **settled**: the
    /// interpretation equals a fresh batch evaluation of the surviving base
    /// facts (pending asserts included), maintained incrementally by
    /// Delete-and-Rederive — see the [module docs](self) and
    /// [`Fixpoint::retract_facts`]. On failure the session poisons, exactly
    /// like [`run`](EngineSession::run).
    pub fn retract_fact(&mut self, pred: &str, args: &[&str]) -> Result<bool, EvalError> {
        self.retract_batch(&[(pred, Args::Text(args))])
            .map(|n| n > 0)
    }

    /// The `(position, id)` pair of every bound value of a `query_bound`
    /// pattern, without interning: `None` when one was never interned
    /// (then no fact can match).
    fn lookup_pattern(&self, pattern: &[Bind<'_>]) -> Option<Vec<(usize, SeqId)>> {
        bound_values(pattern)
            .map(|(i, s)| Some((i, self.lookup_seq(s)?)))
            .collect()
    }

    /// The interned id of `text`, without interning anything.
    fn lookup_seq(&self, text: &str) -> Option<SeqId> {
        self.store.lookup(&self.alphabet.lookup_seq_of_str(text)?)
    }

    /// Retract every fact of `db` in one Delete-and-Rederive maintenance
    /// pass; returns how many were base facts (and are now gone). Unknown
    /// predicates, non-base facts and ids the store never issued are
    /// skipped; if nothing qualifies the call is a pure no-op (count `0`,
    /// session untouched).
    pub fn retract_db(&mut self, db: &Database) -> Result<usize, EvalError> {
        let facts: Vec<_> = db
            .iter()
            .map(|(pred, tuple)| (pred, Args::Ids(tuple)))
            .collect();
        self.retract_batch(&facts)
    }

    /// True when the session knows `pred(args…)` as a *base* fact (i.e. a
    /// retraction of it would take effect). Read-only: interns nothing.
    pub fn is_base_fact(&self, pred: &str, args: &[&str]) -> bool {
        let Some(pid) = self.fx.facts().lookup_pred(pred) else {
            return false;
        };
        match self.lookup_args(Args::Text(args)) {
            Some(tuple) => self.fx.is_base_fact(pid, &tuple),
            None => false,
        }
    }

    /// Resume the fixpoint over everything asserted since the last run.
    /// Returns the cumulative statistics on success. On failure the error
    /// is returned **and the session poisons** (see the module docs);
    /// `max_rounds` is a per-run budget, the size budgets are cumulative.
    pub fn run(&mut self) -> Result<EvalStats, EvalError> {
        self.guard_poison()?;
        self.log_record(&WalRecord::Run)?;
        match self
            .fx
            .run(&self.program, &mut self.store, &self.registry, &self.config)
        {
            Ok(()) => {
                self.after_mutation();
                Ok(self.fx.stats())
            }
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Rendered tuples of `pred` in insertion order (empty when absent).
    /// Reflects the state as of the last `run` plus any raw asserts since.
    pub fn query(&self, pred: &str) -> Vec<Vec<String>> {
        render_tuples_with(
            self.fx.facts().relation_named(pred),
            &self.alphabet,
            &self.store,
        )
    }

    /// Rendered, sorted, deduplicated single-column answers for `pred`
    /// (the `output(Y)` convention of Definition 5).
    pub fn answers(&self, pred: &str) -> Vec<String> {
        render_answers_with(
            self.fx.facts().relation_named(pred),
            &self.alphabet,
            &self.store,
        )
    }

    /// Demand-driven (goal-directed) point query: return the tuples of
    /// `pred` matching `pattern` — rendered, sorted, deduplicated. The
    /// answers equal filtering a full
    /// [`run`](EngineSession::run)-then-[`query`](EngineSession::query)
    /// by the pattern — byte-identically. Two routes
    /// reach them:
    ///
    /// * **Settled session** ([`is_settled`](EngineSession::is_settled)),
    ///   or a goal no clause derives into: the relation already holds its
    ///   extent, so the query is an **index probe** of it — the bound
    ///   column with the shortest posting list is walked, the other bound
    ///   columns checked — costing O(answer) plus the sort. Bound values
    ///   are only looked up, never interned: a value the session never
    ///   saw matches nothing, and reading leaves the interners as they
    ///   were.
    /// * **Unsettled session** (asserts since the last
    ///   [`run`](EngineSession::run), or never run): the magic-set
    ///   transformation ([`crate::analysis::magic`]) evaluates only what
    ///   the goal needs in a **scratch fixpoint** seeded from a copy of
    ///   this session's current facts (settled derivations plus the
    ///   pending asserts). The session's own interpretation, watermarks,
    ///   WAL, and durability state are never touched, and an evaluation
    ///   error here — a budget of [`config`](EngineSession::config)
    ///   included — returns without poisoning the session. A selective
    ///   goal evaluates a small cone; the fallback gate in
    ///   [`crate::analysis::magic`] degrades to the batch fixpoint when
    ///   domain-sensitive strata make demand restriction unsound. When
    ///   the program has no constructive clause, bound values are only
    ///   looked up here too: its fixpoint holds interned values only, so
    ///   an unseen value answers empty without running the scratch.
    ///
    /// `&mut self` because on the scratch route derived sequences — and,
    /// for a constructive program, bound values — intern into the
    /// session's append-only store (a constructive program can derive a
    /// value nothing interned yet);
    /// like [`check_model`](EngineSession::check_model), this never
    /// changes the session's interpretation. Magic-transformed programs
    /// are cached per `(goal, bound-mask)`, so repeated point queries
    /// recompile nothing.
    pub fn query_bound(
        &mut self,
        pred: &str,
        pattern: &[Bind<'_>],
    ) -> Result<Vec<Vec<String>>, EvalError> {
        self.query_bound_instrumented(pred, pattern)
            .map(|r| r.answers)
    }

    /// [`query_bound`](EngineSession::query_bound) with the scratch
    /// evaluation's statistics, which the demand fuzz harness bounds;
    /// [`DemandAnswer::evaluated`] reports which route answered.
    #[doc(hidden)]
    pub fn query_bound_instrumented(
        &mut self,
        pred: &str,
        pattern: &[Bind<'_>],
    ) -> Result<DemandAnswer, EvalError> {
        self.guard_poison()?;
        // The scratch runs only for a goal some clause derives into, on a
        // session whose relations may still lack part of its extent.
        let scratch_goal = self.program.preds.lookup(pred).filter(|&g| {
            self.program.clauses.iter().any(|c| c.head.pred == g) && !self.fx.is_settled()
        });
        let Some(goal) = scratch_goal else {
            // An asserted-only or unknown predicate, or a settled session:
            // the relation already holds the goal's extent.
            let answers = match self.lookup_pattern(pattern) {
                Some(bound) => filter_bound_answers(
                    self.fx.facts().relation_named(pred),
                    pattern.len(),
                    &bound,
                    &self.alphabet,
                    &self.store,
                ),
                None => Vec::new(),
            };
            return Ok(DemandAnswer {
                answers,
                stats: EvalStats::default(),
                evaluated: false,
            });
        };
        let bound = if self.program.clauses.iter().any(|c| c.constructive) {
            // The assert path's `max_seq_len` refusal, checked before
            // interning: window closure stores O(n³) symbols.
            for (_, value) in bound_values(pattern) {
                self.check_seq_len(value.chars().count())?;
            }
            intern_pattern(pattern, &mut self.alphabet, &mut self.store)
        } else {
            // Without a constructive clause the fixpoint holds only
            // interned, window-closed values, so a bound value never
            // interned matches nothing. A hit that is no domain member
            // (a program constant, or a value interned but never closed)
            // is window-closed like `intern_pattern` does, since the
            // matcher may take its windows; members are closed already.
            let Some(bound) = self.lookup_pattern(pattern) else {
                return Ok(DemandAnswer {
                    answers: Vec::new(),
                    stats: EvalStats::default(),
                    evaluated: true,
                });
            };
            for &(_, id) in &bound {
                if !self.fx.domain().contains(id) {
                    self.store.close_windows(id);
                }
            }
            bound
        };
        let adornment = Bind::adornment(pattern);
        let mask: Vec<bool> = pattern
            .iter()
            .map(|b| matches!(b, Bind::Bound(_)))
            .collect();
        let program = &self.program;
        let magic: &MagicProgram = self
            .demand_cache
            .entry((goal, mask))
            .or_insert_with(|| magic_transform(program, goal, &adornment));
        for id in magic.program.constants() {
            self.store.close_windows(id);
        }
        let mut scratch = self.fx.demand_scratch(&magic.program.preds);
        let seed: Box<[SeqId]> = bound.iter().map(|&(_, id)| id).collect();
        scratch.seed_demand(magic.seed, seed);
        scratch.run(
            &magic.program,
            &mut self.store,
            &self.registry,
            &self.config,
        )?;
        Ok(DemandAnswer {
            answers: filter_bound_answers(
                Some(scratch.facts().relation(goal)),
                pattern.len(),
                &bound,
                &self.alphabet,
                &self.store,
            ),
            stats: scratch.stats(),
            evaluated: true,
        })
    }

    /// True when the session holds the least fixpoint of its current base
    /// facts ([`Fixpoint::is_settled`]): a [`run`](EngineSession::run)
    /// or an effective retraction has processed every assert, so each
    /// relation holds its full extent and
    /// [`query_bound`](EngineSession::query_bound) answers by an index
    /// probe. Any assert that adds a fact unsettles it until the next run.
    pub fn is_settled(&self) -> bool {
        self.fx.is_settled()
    }

    /// The raw relation of `pred`, if present.
    pub fn relation(&self, pred: &str) -> Option<&Relation> {
        self.fx.facts().relation_named(pred)
    }

    /// A [`Model`] clone of the current interpretation (facts, extended
    /// active domain, finalized cumulative stats).
    pub fn snapshot(&self) -> Model {
        self.fx.snapshot()
    }

    /// Cumulative statistics (finalized against the current state).
    pub fn stats(&self) -> EvalStats {
        self.fx.stats()
    }

    /// Render an interned sequence back to a string; an id this session's
    /// store never issued renders as `<unknown sequence N>`.
    pub fn render(&self, id: SeqId) -> String {
        render_seq(&self.alphabet, &self.store, id)
    }

    /// The interned id of `pred`, if it occurs in the program or has been
    /// asserted.
    pub fn pred_id(&self, pred: &str) -> Option<PredId> {
        self.fx.facts().lookup_pred(pred)
    }

    /// Every predicate this session knows, in `PredId` order: the compiled
    /// program's predicates followed by any asserted-only ones.
    pub fn predicates(&self) -> impl Iterator<Item = &str> {
        self.fx.facts().predicates()
    }

    /// The compiled program this session serves.
    pub fn program(&self) -> &CompiledProgram {
        &self.program
    }

    /// Compile-time analysis of this session's program against what has
    /// actually been asserted (see [`crate::analysis`]): the database
    /// predicates are the program's non-head predicates plus every
    /// predicate currently holding base facts, so a recursively defined
    /// predicate stops being provably empty (`SL003`) as soon as a base
    /// fact for it lands. The report's
    /// [`Schedule`](crate::analysis::Schedule) is the one the session's
    /// runs follow: an assert into predicate `p` re-runs only `p`'s
    /// stratum and its downstream cone — every other stratum's planning
    /// finds an empty delta and skips without paying a round. Fusion
    /// decisions and the program order come from the session's registry,
    /// as [`Engine::analyze`] attaches them.
    pub fn report(&self) -> crate::analysis::ProgramReport {
        let n = self.program.preds.len();
        let mut is_head = vec![false; n];
        for c in &self.program.clauses {
            is_head[c.head.pred.index()] = true;
        }
        let base = self.fx.base_relations();
        let edb: Vec<PredId> = (0..n)
            .filter(|&p| !is_head[p] || base.get(p).is_some_and(|r| !r.is_empty()))
            .map(|p| PredId(p as u32))
            .collect();
        let mut report = crate::analysis::ProgramReport::analyze_with_edb(&self.program, &edb);
        report.attach_fusion(&crate::analysis::fuse::FusePass {
            diagnostics: self.fusion_diagnostics.clone(),
            decisions: self.fusion_decisions.clone(),
            fused: None,
        });
        report.attach_order(&self.program, &self.registry);
        report
    }

    /// The evaluation configuration (mutable: budgets may be adjusted
    /// between runs).
    pub fn config_mut(&mut self) -> &mut EvalConfig {
        &mut self.config
    }

    /// The evaluation configuration.
    pub fn config(&self) -> &EvalConfig {
        &self.config
    }

    /// True when a failed run has poisoned the session.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// The error that poisoned the session, if any.
    pub fn poison(&self) -> Option<&EvalError> {
        self.poisoned.as_ref()
    }

    /// Verify the settled state is a model of `P ∪ db` (Lemma 4): one
    /// T-application over the current interpretation must derive nothing
    /// outside it ([`crate::model::closed_under_tp`]; the base facts are
    /// part of the interpretation by construction, so `db ⊆ I` needs no
    /// separate check). Diagnostic — a successful
    /// [`run`](EngineSession::run) guarantees this; a poisoned session
    /// typically fails it. Deliberately available on poisoned sessions:
    /// the T-application may grow the append-only interner, but it never
    /// changes the *interpretation* (facts and domain), which is what
    /// poisoning freezes.
    pub fn check_model(&mut self) -> Result<bool, EvalError> {
        crate::model::closed_under_tp(
            &self.program,
            self.fx.facts(),
            self.fx.domain(),
            &mut self.store,
            &self.registry,
            &self.config,
        )
    }
}

/// Filter a relation by a bound-argument pattern and render the matches,
/// sorted and deduplicated — the answer shape of `query_bound`. `bound`
/// lists `(position, required id)` pairs; tuples of a different arity than
/// `arity` never match. With a bound column the relation is probed, not
/// scanned: the shortest column posting list among the bound values
/// ([`Relation::positions_with`]) gives the candidates, and only they are
/// checked against the other bound columns.
fn filter_bound_answers(
    rel: Option<&Relation>,
    arity: usize,
    bound: &[(usize, SeqId)],
    alphabet: &Alphabet,
    store: &SeqStore,
) -> Vec<Vec<String>> {
    let Some(rel) = rel else {
        return Vec::new();
    };
    let keep = |t: &&[SeqId]| t.len() == arity && bound.iter().all(|&(i, id)| t[i] == id);
    let render = |t: &[SeqId]| -> Vec<String> {
        t.iter()
            .map(|&id| render_seq(alphabet, store, id))
            .collect()
    };
    let shortest = bound
        .iter()
        .map(|&(col, id)| rel.positions_with(col, id, 0, rel.len()))
        .min_by_key(|list| list.len());
    let mut out: Vec<Vec<String>> = match shortest {
        Some(list) => list
            .iter()
            .map(|&pos| rel.tuple(pos as usize))
            .filter(keep)
            .map(render)
            .collect(),
        None => rel.iter().filter(keep).map(render).collect(),
    };
    out.sort();
    out.dedup();
    out
}

/// The bound positions of a `query_bound` pattern with their values.
fn bound_values<'p>(pattern: &'p [Bind<'_>]) -> impl Iterator<Item = (usize, &'p str)> {
    pattern.iter().enumerate().filter_map(|(i, b)| match b {
        Bind::Bound(s) => Some((i, *s)),
        Bind::Free => None,
    })
}

/// Intern a `query_bound` pattern's bound values and window-close them in
/// the store, returning `(position, id)` pairs — the scratch route's
/// binding. Interning (rather than a failable lookup) matters for
/// completeness: a constructive program can *derive* the queried value
/// even when nothing interned it yet, and the derivation must land on the
/// same id. The interners are append-only, so this is unobservable through
/// the query API; window closure mirrors the treatment of program body
/// constants (a guard-bound variable may serve as an indexed base). It
/// costs O(n³) symbols for an n-symbol value (every window is stored as
/// its own sequence), which is why only a constructive program's scratch
/// route takes it, after refusing values past `max_seq_len`; every other
/// route only looks values up.
fn intern_pattern(
    pattern: &[Bind<'_>],
    alphabet: &mut Alphabet,
    store: &mut SeqStore,
) -> Vec<(usize, SeqId)> {
    bound_values(pattern)
        .map(|(i, s)| {
            let id = store.intern_vec(alphabet.seq_of_str(s));
            store.close_windows(id);
            (i, id)
        })
        .collect()
}

/// A consistency violation between snapshot, log, and caller environment.
fn mismatch(detail: &str) -> EvalError {
    EvalError::Recovery(RecoveryError::Mismatch {
        detail: detail.to_string(),
    })
}

/// Replay a log tail (records already filtered to `index >= snapshot
/// coverage`) against a freshly restored, non-durable scratch session
/// through the same assert and retract batches and [`run`] the live
/// mutators use, stopping before `limit`. A record followed by
/// [`WalRecord::Abort`] was refused and rolled back live, so the pair is
/// skipped whole; a replay failure reports the failing record's index so
/// the caller can decide between truncating a poisoned tail and refusing
/// to touch committed history.
///
/// [`run`]: EngineSession::run
fn replay_records(
    s: &mut EngineSession,
    tail: &[&ReadRecord],
    limit: u64,
) -> Result<(), (u64, EvalError)> {
    let mut i = 0;
    while i < tail.len() {
        let r = tail[i];
        if r.index >= limit {
            break;
        }
        let aborted = tail
            .get(i + 1)
            .is_some_and(|n| matches!(n.record, WalRecord::Abort));
        let replayed = match &r.record {
            WalRecord::Abort => Ok(()),
            _ if aborted => {
                i += 2;
                continue;
            }
            WalRecord::AssertBatch(facts) => s.assert_batch(&logged_args(facts)).map(drop),
            WalRecord::RetractBatch(facts) => s.retract_batch(&logged_args(facts)).map(drop),
            WalRecord::Run => s.run().map(drop),
        };
        replayed.map_err(|e| (r.index, e))?;
        i += 1;
    }
    Ok(())
}

/// A logged batch as entries of the session's assert and retract batches.
fn logged_args(facts: &[LoggedFact]) -> Vec<(&str, Args<'_>)> {
    facts
        .iter()
        .map(|f| (f.pred.as_str(), Args::Names(&f.args)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `gd` is domain-sensitive, so its extent depends on the domain
    /// watermark as well as the relation ones.
    fn settled_session() -> EngineSession {
        let mut e = Engine::new();
        let program = e
            .parse_program("anc(X, Y) :- edge(X, Y).\ngd(X, X) :- true.")
            .expect("test program parses");
        let mut s = e
            .into_session(&program, EvalConfig::default())
            .expect("test program compiles");
        s.assert_fact("edge", &["ab", "b"]).unwrap();
        s.run().unwrap();
        s
    }

    #[test]
    fn render_of_an_unissued_id_is_a_placeholder() {
        let s = settled_session();
        let ab = s.lookup_seq("ab").expect("asserted value is interned");
        assert_eq!(s.render(ab), "ab");
        let unissued = SeqId(s.store.count() as u32);
        assert_eq!(
            s.render(unissued),
            format!("<unknown sequence {}>", unissued.0)
        );
    }

    #[test]
    fn refused_oversized_asserts_intern_nothing() {
        let mut e = Engine::new();
        let program = e.parse_program("p(X) :- r(X).").unwrap();
        let config = EvalConfig {
            max_seq_len: 64,
            ..EvalConfig::default()
        };
        let mut s = e.into_session(&program, config).unwrap();
        let dir = scratch_dir("oversized");
        s.make_durable(&dir, DurabilityOptions::default()).unwrap();
        s.assert_fact("r", &["ab"]).unwrap();
        let wide = s.assert_seq("abcdefgh").unwrap();
        let (seqs, syms) = (s.store.count(), s.alphabet.len());
        let records = s.durable_records();
        // New letters, so interning even one symbol would show.
        let long = "xyz".repeat(67);
        let refused = |r: Result<_, EvalError>| {
            matches!(
                r,
                Err(EvalError::Budget {
                    kind: BudgetKind::SeqLen,
                    ..
                })
            )
        };
        assert!(refused(s.assert_fact("r", &[&long]).map(drop)));
        assert!(refused(
            s.assert_facts(&[("r", &["xy"]), ("r", &[&long])]).map(drop)
        ));
        assert!(refused(s.assert_seq(&long).map(drop)));
        // The id routes check an interned sequence's length the same way.
        s.config_mut().max_seq_len = 4;
        let mut one = Database::new();
        one.add("r", vec![wide]);
        assert!(refused(s.assert_db(&one).map(drop)));
        let mut db = Database::new();
        db.add("r", vec![s.store.empty()]);
        db.add("r", vec![wide]);
        assert!(refused(s.assert_db(&db).map(drop)));
        assert_eq!(s.store.count(), seqs);
        assert_eq!(s.alphabet.len(), syms);
        // Every refusal came before logging: no record, no `Abort`.
        assert_eq!(s.durable_records(), records);
        assert!(!s.is_poisoned());
        assert_eq!(s.query("r").len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    /// A fresh directory under the system temp dir for a durable test
    /// session.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("seqlog-session-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn foreign_seq_ids_are_refused_before_logging() {
        let mut e = Engine::new();
        let program = e.parse_program("p(X) :- r(X).").unwrap();
        let mut s = e.into_session(&program, EvalConfig::default()).unwrap();
        let dir = scratch_dir("foreign");
        s.make_durable(&dir, DurabilityOptions::default()).unwrap();
        s.assert_fact("r", &["ab"]).unwrap();
        // Ids another engine issued, past the end of this session's store.
        let mut other = Engine::new();
        let far = (0..64).map(|i| other.seq(&format!("w{i}"))).last();
        let mut foreign = Database::new();
        foreign.add("r", vec![far.unwrap()]);
        let stranger = SeqId(1_000_000);
        let mut strangers = Database::new();
        strangers.add("r", vec![stranger]);
        let before = (s.store.count(), s.alphabet.len(), s.durable_records());
        assert!(matches!(
            s.assert_db(&strangers),
            Err(EvalError::UnknownSeq(id)) if id == stranger
        ));
        assert!(matches!(
            s.assert_db(&foreign),
            Err(EvalError::UnknownSeq(_))
        ));
        // A retraction of a fact no store id names is a no-op.
        assert_eq!(s.retract_db(&strangers).unwrap(), 0);
        assert_eq!(s.retract_db(&foreign).unwrap(), 0);
        let after = (s.store.count(), s.alphabet.len(), s.durable_records());
        assert_eq!(after, before, "nothing interned, nothing logged");
        assert!(!s.is_poisoned());
        assert_eq!(s.query("r"), vec![vec!["ab".to_string()]]);
        let _ = fs::remove_dir_all(&dir);
    }

    fn probe(s: &mut EngineSession, pred: &str, key: &str) -> DemandAnswer {
        s.query_bound_instrumented(pred, &[Bind::Bound(key), Bind::Free])
            .unwrap()
    }

    #[test]
    fn settled_query_of_an_unseen_key_interns_nothing() {
        let mut s = settled_session();
        assert!(s.is_settled());
        let (seqs, syms) = (s.store.count(), s.alphabet.len());
        // Known letters, unknown word: interning it would window-close
        // 300·301/2 windows into the store.
        let key = "ab".repeat(150);
        for pred in ["anc", "edge", "gd"] {
            let r = probe(&mut s, pred, &key);
            assert!(r.answers.is_empty() && !r.evaluated, "{pred}: {r:?}");
        }
        // An unknown letter misses in the alphabet already.
        assert!(probe(&mut s, "anc", "zz").answers.is_empty());
        assert_eq!((s.store.count(), s.alphabet.len()), (seqs, syms));
        // A hit still answers from the relation.
        let r = probe(&mut s, "anc", "ab");
        assert_eq!(r.answers, vec![vec!["ab".to_string(), "b".to_string()]]);
        assert!(!r.evaluated);
    }

    #[test]
    fn unsettled_query_of_an_unseen_key_interns_nothing() {
        // No constructive clause: the scratch route looks bound values up
        // instead of interning and window-closing them.
        let mut s = settled_session();
        s.assert_fact("edge", &["b", "c"]).unwrap();
        assert!(!s.is_settled());
        let (seqs, syms) = (s.store.count(), s.alphabet.len());
        let key = "ab".repeat(150);
        for pred in ["anc", "gd"] {
            let r = probe(&mut s, pred, &key);
            assert!(r.answers.is_empty() && r.evaluated, "{pred}: {r:?}");
            assert_eq!(r.stats, EvalStats::default());
        }
        assert_eq!((s.store.count(), s.alphabet.len()), (seqs, syms));
        // A known key still runs the scratch over the pending assert.
        let r = probe(&mut s, "anc", "b");
        assert_eq!(r.answers, vec![vec!["b".to_string(), "c".to_string()]]);
        assert!(r.evaluated);
    }

    #[test]
    fn unsettled_query_of_an_overlong_key_refuses_before_interning() {
        // A constructive clause makes the scratch route intern and
        // window-close bound values, so `max_seq_len` applies to them as it
        // does to asserted ones.
        let mut e = Engine::new();
        let program = e
            .parse_program("dbl(X, X ++ X) :- r(X).")
            .expect("test program parses");
        let config = EvalConfig {
            max_seq_len: 64,
            ..EvalConfig::default()
        };
        let mut s = e
            .into_session(&program, config)
            .expect("test program compiles");
        s.assert_fact("r", &["ab"]).unwrap();
        assert!(!s.is_settled());
        let (seqs, syms) = (s.store.count(), s.alphabet.len());
        let key = "ab".repeat(100);
        let refusal = |r: Result<Vec<Vec<String>>, EvalError>| match r {
            Err(EvalError::Budget {
                kind: BudgetKind::SeqLen,
                stats,
            }) => stats.max_seq_len,
            other => panic!("expected a seq-len budget error, got {other:?}"),
        };
        let refused = refusal(s.query_bound("dbl", &[Bind::Bound(&key), Bind::Free]));
        assert_eq!(refused, 200);
        assert!(!s.is_poisoned());
        assert_eq!((s.store.count(), s.alphabet.len()), (seqs, syms));
        // The same refusal the assert path gives.
        assert_eq!(
            refusal(s.assert_fact("r", &[&key]).map(|_| Vec::new())),
            200
        );
        let r = s.query_bound("dbl", &[Bind::Bound("ab"), Bind::Free]);
        assert_eq!(r.unwrap(), vec![vec!["ab".to_string(), "abab".to_string()]]);
    }

    #[test]
    fn is_settled_needs_every_watermark() {
        let mut s = settled_session();
        assert!(s.is_settled());
        let settled = probe(&mut s, "gd", "ab");
        assert!(!settled.evaluated);
        let rebuilt = |s: &mut EngineSession, virgin: bool, domain_settled: bool| {
            let order: Vec<SeqId> = s.fx.domain().iter().collect();
            Fixpoint::restore(
                &mut s.store,
                s.fx.facts().clone(),
                s.fx.base_relations().to_vec(),
                s.fx.stats_raw(),
                s.fx.sizes_done().to_vec(),
                virgin,
                domain_settled,
                &order,
            )
            .expect("the live member order is a permutation of the closure")
        };
        for (virgin, domain_settled) in [(true, true), (false, false)] {
            let mut c = s.clone();
            c.fx = rebuilt(&mut c, virgin, domain_settled);
            assert!(
                !c.is_settled(),
                "virgin={virgin} domain_settled={domain_settled}"
            );
            let r = probe(&mut c, "gd", "ab");
            assert!(r.evaluated);
            assert_eq!(r.answers, settled.answers);
        }
        let mut c = s.clone();
        c.fx = rebuilt(&mut c, false, true);
        assert!(c.is_settled());
        // A pending assert over known values leaves the domain as it was:
        // only the relation watermark sees it.
        let domain = s.fx.domain().len();
        s.assert_fact("edge", &["b", "ab"]).unwrap();
        assert_eq!(s.fx.domain().len(), domain);
        assert!(!s.is_settled());
        let r = probe(&mut s, "anc", "b");
        assert!(r.evaluated);
        assert_eq!(r.answers, vec![vec!["b".to_string(), "ab".to_string()]]);
        s.run().unwrap();
        // So does one into a predicate past the program's, which no
        // clause reads.
        s.assert_fact("extra", &["b"]).unwrap();
        assert_eq!(s.fx.domain().len(), domain);
        assert!(!s.is_settled());
        s.run().unwrap();
        assert!(s.is_settled());
    }
}
