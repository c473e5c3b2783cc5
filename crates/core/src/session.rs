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
//! evaluation of the union — and, like batch evaluation, the result is
//! bit-for-bit identical for every `EvalConfig::threads` setting. (The
//! per-relation *insertion order* may differ from the batch order, because
//! facts settle in arrival order; set-level extents are identical. This is
//! differentially fuzzed in `tests/fuzz_differential.rs` and checked for
//! every paper example in `tests/paper_examples.rs`.)
//!
//! # Retraction
//!
//! Sessions distinguish **base facts** (asserted through this API, or
//! seeded from a database) from **derived facts**. Only base facts can be
//! retracted; derived facts disappear exactly when they lose all base
//! support. After any `retract_*` call that **takes effect** (returns
//! `true`, or a positive count), the session is settled at
//! `lfp(T_{P,db'})` for the surviving base set `db'` — bit-for-bit equal
//! across thread counts, and extent-equal to a fresh batch evaluation of
//! the survivors (the differential oracle in `tests/fuzz_differential.rs`).
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
//! An assert that would push the state past `max_facts` or `max_domain` is
//! **refused before it applies**: the fact is withdrawn and its arguments
//! released, which removes exactly the window closure it added; the error
//! reports the would-be stats, and the session stays healthy — so an
//! accepted assert can never make the next `run` fail its entry budget
//! check. Batch asserts
//! ([`assert_facts`](EngineSession::assert_facts) /
//! [`assert_db`](EngineSession::assert_db)) are **failure-atomic**: on a
//! mid-batch rejection every fact of the batch is rolled back and the
//! pre-call state is restored exactly. (The commit phase of a `run` keeps
//! its documented behavior: it stops — and poisons — one fact past the
//! budget; the poisoned state is the diagnostic artifact.) Oversized
//! sequences are still rejected eagerly, before the quadratic window
//! closure. Budget refusals never poison. Refused asserts may leave
//! sequences in the append-only interner; the interner is not part of the
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
//!   its in-memory commit, as a length-prefixed, CRC-checksummed record. A
//!   batch that is logged but then *refused* (budget) is compensated with an
//!   `Abort` record so replay skips it. Records are **logical** (predicate
//!   names plus per-argument symbol names), so replay through the ordinary
//!   session API re-interns everything in the original order and the
//!   append-only interners reproduce identical ids.
//! * Snapshots capture the alphabet, sequence store, relations, base-fact
//!   set, cumulative stats, and the semi-naive watermarks — atomically
//!   (write-then-rename) and whole-file checksummed. One is written every
//!   [`DurabilityOptions::snapshot_every`] records, on
//!   [`checkpoint`](EngineSession::checkpoint), and on attach.
//! * **Recovery** ([`open_durable`](EngineSession::open_durable) on an
//!   existing directory, or [`recover`](EngineSession::recover) on a
//!   poisoned durable session) loads the newest valid snapshot, replays the
//!   log tail after it, and resumes the fixpoint from the watermarks. A torn
//!   final record (a crash mid-append) is truncated away; *interior*
//!   corruption is a hard [`RecoveryError`] — committed history is never
//!   silently dropped. The extended active domain is a **function of the
//!   interpretation** (Definition 4), so its membership is rebuilt from the
//!   restored facts by re-closing every tuple — never trusted from disk; a
//!   corrupted snapshot can therefore fail its checksum or its structural
//!   validation, but cannot smuggle domain members past the fixpoint
//!   semantics. Only the domain's member *order* — observable through
//!   free-variable enumeration, hence part of bit-for-bit fidelity — comes
//!   from the snapshot, and only after it verifies as an exact permutation
//!   of the rebuilt closure.
//!
//! The recovery oracle (fuzzed with crash injection in
//! `tests/fuzz_recovery.rs`): a recovered session is **bit-for-bit equal**
//! — relation extents, insertion order, stats invariants, for every
//! `EvalConfig::threads` — to a fresh session that applies the surviving
//! logged history in order. Equivalently, after a final `run`, its model
//! equals a fresh batch evaluation of the surviving base facts, by the
//! equivalence guarantee above.

use std::fs;
use std::path::{Path, PathBuf};

use crate::analysis::magic::{magic_transform, MagicOptions, MagicProgram};
use crate::analysis::Bind;
use crate::ast::Program;
use crate::compile::{compile, CompiledProgram, PredId};
use crate::database::Database;
use crate::engine::{render_answers_with, render_seq, render_tuples_with, Engine};
use crate::eval::interp::Relation;
use crate::eval::{AssertOutcome, BudgetKind, EvalConfig, EvalError, EvalStats, Fixpoint, Model};
use crate::registry::TransducerRegistry;
use crate::snapshot::{list_snapshots, SessionSnapshot};
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
    /// Test-only mutant: skip WAL checksum verification. Exists so the
    /// recovery fuzz harness can prove its oracle catches a weakened
    /// reader; never set in production.
    #[doc(hidden)]
    pub danger_skip_crc: bool,
    /// Test-only mutant: treat a torn tail as a hard error instead of
    /// truncating it.
    #[doc(hidden)]
    pub danger_skip_tail_truncation: bool,
    /// Test-only mutant: restore snapshots with stale (fully caught-up)
    /// watermarks, erasing pending facts from the next run's delta.
    #[doc(hidden)]
    pub danger_stale_watermarks: bool,
}

impl Default for DurabilityOptions {
    fn default() -> Self {
        Self {
            snapshot_every: 64,
            sync_data: false,
            snapshots_kept: 2,
            danger_skip_crc: false,
            danger_skip_tail_truncation: false,
            danger_stale_watermarks: false,
        }
    }
}

impl DurabilityOptions {
    fn read_options(&self) -> WalReadOptions {
        WalReadOptions {
            danger_verify_crc: !self.danger_skip_crc,
            danger_truncate_torn_tail: !self.danger_skip_tail_truncation,
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
        if !config.danger_disable_fusion {
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
    /// batch evaluation always has.
    pub(crate) fn seed_db(&mut self, db: &Database) {
        for (pred, tuple) in db.iter() {
            let pid = self.fx.pred_id(pred);
            self.fx.assert_fact(&mut self.store, pid, tuple.into());
        }
    }

    /// Consume the session into the engine it was opened from and its
    /// current interpretation as a [`Model`] (moved, not cloned). The
    /// machines the fusion pass registered at open time are dropped, so
    /// the engine's registry is exactly the one it was opened with.
    pub(crate) fn into_parts(self) -> (Engine, Model) {
        let mut registry = self.registry;
        if !self.config.danger_disable_fusion {
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
        let contents = read_wal(&wal_path, &d.opts.read_options()).map_err(EvalError::Recovery)?;
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
        let covered = d.wal.next_index();
        let snap = SessionSnapshot::capture(covered, &self.alphabet, &self.store, &self.fx);
        let path = snap
            .write(&d.dir, d.opts.snapshots_kept)
            .map_err(EvalError::Recovery)?;
        if let Some(d) = self.durability.as_mut() {
            d.since_snapshot = 0;
        }
        Ok(path)
    }

    /// A [`LoggedFact`] for an already-interned tuple: predicate name plus
    /// per-argument symbol names, read back through the interners.
    fn logged_fact_ids(&self, pred: &str, tuple: &[SeqId]) -> LoggedFact {
        LoggedFact {
            pred: pred.to_string(),
            args: tuple
                .iter()
                .map(|&id| {
                    self.store
                        .get(id)
                        .iter()
                        .map(|&s| self.alphabet.name(s).to_string())
                        .collect()
                })
                .collect(),
        }
    }

    /// Load the newest usable snapshot under `dir`, replay the log tail
    /// through the ordinary (unlogged) apply paths, and swap the rebuilt
    /// state into `self`. See the [module docs](self) for the protocol; on
    /// any error `self` is untouched.
    fn attach_recover(&mut self, dir: PathBuf, opts: DurabilityOptions) -> Result<(), EvalError> {
        let wal_path = dir.join(WAL_FILE);
        let contents = read_wal(&wal_path, &opts.read_options()).map_err(EvalError::Recovery)?;
        let last_index = contents.base_index + contents.records.len() as u64;

        // Newest snapshot consistent with the log. A snapshot claiming
        // records the log never had means committed history vanished —
        // hard corruption, not something to silently fall back from.
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

        let tail: Vec<&ReadRecord> = contents
            .records
            .iter()
            .filter(|r| r.index >= snap.covered)
            .collect();
        let mut scratch = self.rebuild_scratch(&snap, &snap_path, &opts)?;
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
            scratch = self.rebuild_scratch(&snap, &snap_path, &opts)?;
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
        let since_snapshot = (next_index - snap.covered) as usize;
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

    /// Install a snapshot into a detached scratch session sharing this
    /// session's program, registry, and config, verifying the loaded
    /// interners extend the caller's (same alphabet prefix, same sequence
    /// prefix, program predicates a prefix of the loaded table) so the
    /// compiled program's ids stay valid over the loaded state.
    fn rebuild_scratch(
        &self,
        snap: &SessionSnapshot,
        snap_path: &Path,
        opts: &DurabilityOptions,
    ) -> Result<EngineSession, EvalError> {
        let (alphabet, mut store, fx) = snap
            .install(snap_path, opts.danger_stale_watermarks)
            .map_err(EvalError::Recovery)?;
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

    /// Replay an [`WalRecord::AssertBatch`]: the unlogged twin of
    /// [`assert_facts`](EngineSession::assert_facts) (failure-atomic, same
    /// budget order), interning through the logged symbol names.
    fn apply_assert_batch(&mut self, facts: &[LoggedFact]) -> Result<usize, EvalError> {
        let mut applied: Vec<(PredId, Box<[SeqId]>, AssertOutcome)> = Vec::new();
        let mut added = 0;
        for f in facts {
            let step = self.intern_logged_tuple(&f.args).and_then(|tuple| {
                let pid = self.fx.pred_id(&f.pred);
                self.assert_batch_step(pid, tuple.into(), &mut applied)
            });
            match step {
                Ok(n) => added += n,
                Err(e) => {
                    self.rollback_asserts(&applied);
                    return Err(e);
                }
            }
        }
        Ok(added)
    }

    /// Replay a [`WalRecord::RetractBatch`]: the unlogged twin of
    /// [`retract_db`](EngineSession::retract_db). Resolution is
    /// lookup-only, exactly like the live path.
    fn apply_retract_batch(&mut self, facts: &[LoggedFact]) -> Result<usize, EvalError> {
        let mut batch: Vec<(PredId, Box<[SeqId]>)> = Vec::new();
        for f in facts {
            let Some(pid) = self.fx.facts().lookup_pred(&f.pred) else {
                continue;
            };
            let Some(tuple) = self.lookup_logged_tuple(&f.args) else {
                continue;
            };
            batch.push((pid, tuple.into()));
        }
        if batch.is_empty() {
            return Ok(0);
        }
        self.fx.retract_facts(
            &self.program,
            &mut self.store,
            &self.registry,
            &self.config,
            &batch,
        )
    }

    /// Replay a [`WalRecord::Run`] boundary.
    fn replay_run(&mut self) -> Result<(), EvalError> {
        self.fx
            .run(&self.program, &mut self.store, &self.registry, &self.config)
    }

    /// Intern a logged tuple (per-argument symbol names), enforcing
    /// `max_seq_len` eagerly like [`intern_tuple`](Self::intern_tuple).
    fn intern_logged_tuple(&mut self, args: &[Vec<String>]) -> Result<Vec<SeqId>, EvalError> {
        let mut tuple: Vec<SeqId> = Vec::with_capacity(args.len());
        for names in args {
            let syms: Vec<Sym> = names.iter().map(|n| self.alphabet.intern(n)).collect();
            let id = self.store.intern_vec(syms);
            self.check_seq_budget(id)?;
            tuple.push(id);
        }
        Ok(tuple)
    }

    /// Resolve a logged tuple without interning anything (`None` when some
    /// symbol or sequence was never interned — no such fact can exist).
    fn lookup_logged_tuple(&self, args: &[Vec<String>]) -> Option<Vec<SeqId>> {
        let mut tuple: Vec<SeqId> = Vec::with_capacity(args.len());
        for names in args {
            let mut syms: Vec<Sym> = Vec::with_capacity(names.len());
            for n in names {
                syms.push(self.alphabet.lookup(n)?);
            }
            tuple.push(self.store.lookup(&syms)?);
        }
        Some(tuple)
    }

    /// Eager `max_seq_len` enforcement on the assert path (and, through
    /// [`check_seq_len`](Self::check_seq_len), on the constructive
    /// point-query path): domain closure interns O(len²) windows, so an
    /// oversized input must be rejected *before* closure, not discovered
    /// by the next run's budget check.
    /// Rejection does **not** poison — the interpretation is untouched and
    /// the session keeps serving (batch evaluation, by contrast, only
    /// discovers oversized database sequences at run time).
    fn check_seq_budget(&self, id: SeqId) -> Result<(), EvalError> {
        self.check_seq_len(self.store.len_of(id))
    }

    /// [`check_seq_budget`](Self::check_seq_budget) for a sequence of `len`
    /// symbols that need not be interned.
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

    /// Intern string arguments as a tuple, enforcing `max_seq_len` eagerly.
    fn intern_tuple(&mut self, args: &[&str]) -> Result<Vec<SeqId>, EvalError> {
        let mut tuple: Vec<SeqId> = Vec::with_capacity(args.len());
        for s in args {
            let syms = self.alphabet.seq_of_str(s);
            let id = self.store.intern_vec(syms);
            self.check_seq_budget(id)?;
            tuple.push(id);
        }
        Ok(tuple)
    }

    /// One assert with **exact** cumulative-budget enforcement: a fact that
    /// would push the state past `max_facts` or `max_domain` is refused
    /// with the interpretation restored to exactly its pre-call state
    /// (fact, base record, and partial window closure all rolled back).
    /// The reported stats are the would-be (peak) stats, so the caller sees
    /// what tripped. Duplicate asserts never grow the state and are always
    /// admitted (they still record base status for retraction). Refusal
    /// does not poison.
    fn assert_ids_exact(
        &mut self,
        pid: PredId,
        tuple: Box<[SeqId]>,
    ) -> Result<AssertOutcome, EvalError> {
        for &id in &tuple {
            self.check_seq_budget(id)?;
        }
        if self.fx.facts().contains_id(pid, &tuple) {
            return Ok(self.fx.assert_fact_full(&mut self.store, pid, tuple));
        }
        let stats = self.fx.stats();
        if stats.facts + 1 > self.config.max_facts {
            let mut peak = stats;
            peak.facts += 1;
            return Err(EvalError::Budget {
                kind: BudgetKind::Facts,
                stats: peak,
            });
        }
        let outcome = self
            .fx
            .assert_fact_full(&mut self.store, pid, tuple.clone());
        debug_assert!(outcome.new_fact, "absent fact must insert");
        if self.fx.domain().len() > self.config.max_domain {
            let peak = self.fx.stats();
            self.fx
                .unassert_pending(&self.store, pid, &tuple, outcome.new_base);
            self.fx.compact_pending();
            return Err(EvalError::Budget {
                kind: BudgetKind::DomainSize,
                stats: peak,
            });
        }
        Ok(outcome)
    }

    /// Reverse a prefix of a failed batch assert (newest first), restoring
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

    /// Intern `text` as a sequence and window-close it, so it can serve as
    /// an indexed base as soon as it reaches the matcher. Use with
    /// [`assert_fact_ids`](EngineSession::assert_fact_ids) to build tuples
    /// without going through string arguments twice. Like every `assert_*`,
    /// refused on a poisoned session (the update surface closes uniformly)
    /// and on sequences longer than `max_seq_len` (rejected before the
    /// quadratic window closure; the session stays healthy).
    pub fn assert_seq(&mut self, text: &str) -> Result<SeqId, EvalError> {
        self.guard_poison()?;
        let syms = self.alphabet.seq_of_str(text);
        let id = self.store.intern_vec(syms);
        self.check_seq_budget(id)?;
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
        self.guard_poison()?;
        let tuple = self.intern_tuple(args)?;
        if self.durability.is_some() {
            let rec = WalRecord::AssertBatch(vec![logged_fact_strs(pred, args)]);
            self.log_record(&rec)?;
        }
        let pid = self.fx.pred_id(pred);
        match self.assert_ids_exact(pid, tuple.into()) {
            Ok(outcome) => {
                self.after_mutation();
                Ok(outcome.new_fact)
            }
            Err(e) => Err(self.abort_logged(e)),
        }
    }

    /// Assert a batch of string-argument facts; returns how many were new.
    ///
    /// **Failure-atomic**: if any fact of the batch is refused (budget) the
    /// whole batch rolls back and the session state is exactly what it was
    /// before the call; on a poisoned session nothing is applied either.
    pub fn assert_facts(&mut self, facts: &[(&str, &[&str])]) -> Result<usize, EvalError> {
        self.guard_poison()?;
        if self.durability.is_some() && !facts.is_empty() {
            let rec = WalRecord::AssertBatch(
                facts
                    .iter()
                    .map(|(pred, args)| logged_fact_strs(pred, args))
                    .collect(),
            );
            self.log_record(&rec)?;
        }
        let mut applied: Vec<(PredId, Box<[SeqId]>, AssertOutcome)> = Vec::new();
        let mut added = 0;
        for (pred, args) in facts {
            let step = self.intern_tuple(args).and_then(|tuple| {
                let pid = self.fx.pred_id(pred);
                self.assert_batch_step(pid, tuple.into(), &mut applied)
            });
            match step {
                Ok(n) => added += n,
                Err(e) => {
                    self.rollback_asserts(&applied);
                    return Err(self.abort_logged(e));
                }
            }
        }
        self.after_mutation();
        Ok(added)
    }

    /// One entry of an atomic batch: apply the assert with exact budgets
    /// and record what it changed in `applied`, so a later
    /// [`rollback_asserts`](EngineSession::rollback_asserts) can reverse
    /// it. Returns 1 when the fact was new. The single place the batch
    /// bookkeeping condition lives — `assert_facts` and `assert_db` both
    /// route through it.
    fn assert_batch_step(
        &mut self,
        pid: PredId,
        tuple: Box<[SeqId]>,
        applied: &mut Vec<(PredId, Box<[SeqId]>, AssertOutcome)>,
    ) -> Result<usize, EvalError> {
        let outcome = self.assert_ids_exact(pid, tuple.clone())?;
        if outcome.new_fact || outcome.new_base {
            applied.push((pid, tuple, outcome));
        }
        Ok(usize::from(outcome.new_fact))
    }

    /// Assert one base fact over already-interned sequences (ids must come
    /// from this session's store — e.g. from
    /// [`assert_seq`](EngineSession::assert_seq), or from the owning
    /// [`Engine`] before [`Engine::into_session`]). Budgets are enforced
    /// exactly, as in [`assert_fact`](EngineSession::assert_fact).
    pub fn assert_fact_ids(&mut self, pred: &str, tuple: &[SeqId]) -> Result<bool, EvalError> {
        self.guard_poison()?;
        if self.durability.is_some() {
            let rec = WalRecord::AssertBatch(vec![self.logged_fact_ids(pred, tuple)]);
            self.log_record(&rec)?;
        }
        let pid = self.fx.pred_id(pred);
        match self.assert_ids_exact(pid, tuple.into()) {
            Ok(outcome) => {
                self.after_mutation();
                Ok(outcome.new_fact)
            }
            Err(e) => Err(self.abort_logged(e)),
        }
    }

    /// Assert every fact of `db` (built against this session's store);
    /// returns how many were new. **Failure-atomic**, like
    /// [`assert_facts`](EngineSession::assert_facts).
    pub fn assert_db(&mut self, db: &Database) -> Result<usize, EvalError> {
        self.guard_poison()?;
        if self.durability.is_some() {
            let logged: Vec<LoggedFact> = db
                .iter()
                .map(|(pred, tuple)| self.logged_fact_ids(pred, tuple))
                .collect();
            if !logged.is_empty() {
                self.log_record(&WalRecord::AssertBatch(logged))?;
            }
        }
        let mut applied: Vec<(PredId, Box<[SeqId]>, AssertOutcome)> = Vec::new();
        let mut added = 0;
        for (pred, tuple) in db.iter() {
            let pid = self.fx.pred_id(pred);
            match self.assert_batch_step(pid, tuple.into(), &mut applied) {
                Ok(n) => added += n,
                Err(e) => {
                    self.rollback_asserts(&applied);
                    return Err(self.abort_logged(e));
                }
            }
        }
        self.after_mutation();
        Ok(added)
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
        self.guard_poison()?;
        let Some(pid) = self.fx.facts().lookup_pred(pred) else {
            return Ok(false);
        };
        let Some(tuple) = self.lookup_tuple(args) else {
            return Ok(false);
        };
        if self.durability.is_some() {
            let rec = WalRecord::RetractBatch(vec![self.logged_fact_ids(pred, &tuple)]);
            self.log_record(&rec)?;
        }
        let n = self.retract_ids_batch(vec![(pid, tuple.into())])?;
        self.after_mutation();
        Ok(n > 0)
    }

    /// Resolve string arguments to interned ids **without interning**
    /// anything (not even alphabet symbols): `None` when some argument was
    /// never interned, in which case no such fact can exist.
    fn lookup_tuple(&self, args: &[&str]) -> Option<Vec<SeqId>> {
        args.iter().map(|s| self.lookup_seq(s)).collect()
    }

    /// [`lookup_tuple`](Self::lookup_tuple) for a `query_bound` pattern:
    /// the `(position, id)` pair of every bound value, or `None` when one
    /// was never interned (then no fact can match).
    fn lookup_pattern(&self, pattern: &[Bind<'_>]) -> Option<Vec<(usize, SeqId)>> {
        bound_values(pattern)
            .map(|(i, s)| Some((i, self.lookup_seq(s)?)))
            .collect()
    }

    /// The interned id of `text`, without interning anything.
    fn lookup_seq(&self, text: &str) -> Option<SeqId> {
        self.store.lookup(&self.alphabet.lookup_seq_of_str(text)?)
    }

    /// [`retract_fact`](EngineSession::retract_fact) over already-interned
    /// sequences.
    pub fn retract_fact_ids(&mut self, pred: &str, tuple: &[SeqId]) -> Result<bool, EvalError> {
        self.guard_poison()?;
        let Some(pid) = self.fx.facts().lookup_pred(pred) else {
            return Ok(false);
        };
        if self.durability.is_some() {
            let rec = WalRecord::RetractBatch(vec![self.logged_fact_ids(pred, tuple)]);
            self.log_record(&rec)?;
        }
        let n = self.retract_ids_batch(vec![(pid, tuple.into())])?;
        self.after_mutation();
        Ok(n > 0)
    }

    /// Retract every fact of `db` in one Delete-and-Rederive maintenance
    /// pass; returns how many were base facts (and are now gone). Unknown
    /// predicates and non-base facts are skipped; if nothing qualifies the
    /// call is a pure no-op (count `0`, session untouched).
    pub fn retract_db(&mut self, db: &Database) -> Result<usize, EvalError> {
        self.guard_poison()?;
        let mut batch: Vec<(PredId, Box<[SeqId]>)> = Vec::new();
        let mut logged: Vec<LoggedFact> = Vec::new();
        for (pred, tuple) in db.iter() {
            if let Some(pid) = self.fx.facts().lookup_pred(pred) {
                if self.durability.is_some() {
                    logged.push(self.logged_fact_ids(pred, tuple));
                }
                batch.push((pid, tuple.into()));
            }
        }
        if batch.is_empty() {
            return Ok(0);
        }
        if self.durability.is_some() {
            self.log_record(&WalRecord::RetractBatch(logged))?;
        }
        let n = self.retract_ids_batch(batch)?;
        self.after_mutation();
        Ok(n)
    }

    /// True when the session knows `pred(args…)` as a *base* fact (i.e. a
    /// retraction of it would take effect). Read-only: interns nothing.
    pub fn is_base_fact(&self, pred: &str, args: &[&str]) -> bool {
        let Some(pid) = self.fx.facts().lookup_pred(pred) else {
            return false;
        };
        match self.lookup_tuple(args) {
            Some(tuple) => self.fx.is_base_fact(pid, &tuple),
            None => false,
        }
    }

    /// Run one retraction maintenance pass, poisoning on failure (the same
    /// discipline as [`run`](EngineSession::run)).
    fn retract_ids_batch(
        &mut self,
        batch: Vec<(PredId, Box<[SeqId]>)>,
    ) -> Result<usize, EvalError> {
        match self.fx.retract_facts(
            &self.program,
            &mut self.store,
            &self.registry,
            &self.config,
            &batch,
        ) {
            Ok(n) => Ok(n),
            Err(e) => {
                self.poisoned = Some(e.clone());
                Err(e)
            }
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
    /// by the pattern — byte-identically, on any thread count. Two routes
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
        self.query_bound_instrumented(pred, pattern, &MagicOptions::default())
            .map(|r| r.answers)
    }

    /// [`query_bound`](EngineSession::query_bound) with explicit
    /// [`MagicOptions`] and scratch-evaluation statistics — the demand
    /// fuzz harness's hook for mutation testing. Non-default options
    /// bypass the adornment cache and always take the scratch route, even
    /// on a settled session; [`DemandAnswer::evaluated`] reports which
    /// route answered.
    #[doc(hidden)]
    pub fn query_bound_instrumented(
        &mut self,
        pred: &str,
        pattern: &[Bind<'_>],
        opts: &MagicOptions,
    ) -> Result<DemandAnswer, EvalError> {
        self.guard_poison()?;
        // The scratch runs only for a goal some clause derives into, on a
        // session whose relations may still lack part of its extent.
        let scratch_goal = self.program.preds.lookup(pred).filter(|&g| {
            self.program.clauses.iter().any(|c| c.head.pred == g)
                && (!self.fx.is_settled() || *opts != MagicOptions::default())
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
        let fresh;
        let magic: &MagicProgram = if *opts == MagicOptions::default() {
            self.demand_cache
                .entry((goal, mask))
                .or_insert_with(|| magic_transform(program, goal, &adornment, opts))
        } else {
            fresh = magic_transform(program, goal, &adornment, opts);
            &fresh
        };
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

    /// Render an interned sequence back to a string.
    pub fn render(&self, id: SeqId) -> String {
        self.alphabet.render(self.store.get(id))
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

    /// The evaluation configuration (mutable: budgets and thread count may
    /// be adjusted between runs; determinism holds for any `threads`).
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

/// A [`LoggedFact`] for string arguments, split per character exactly like
/// [`Alphabet::seq_of_str`] — interner-independent, so replay re-interns in
/// the same order and reproduces identical ids.
fn logged_fact_strs(pred: &str, args: &[&str]) -> LoggedFact {
    LoggedFact {
        pred: pred.to_string(),
        args: args
            .iter()
            .map(|s| s.chars().map(String::from).collect())
            .collect(),
    }
}

/// Replay a log tail (records already filtered to `index >= snapshot
/// coverage`) against a freshly restored scratch session, stopping before
/// `limit`. A record followed by [`WalRecord::Abort`] was refused and rolled
/// back live, so the pair is skipped whole; a replay failure reports the
/// failing record's index so the caller can decide between truncating a
/// poisoned tail and refusing to touch committed history.
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
        match &r.record {
            WalRecord::Abort => {}
            _ if aborted => {
                i += 2;
                continue;
            }
            WalRecord::AssertBatch(facts) => {
                s.apply_assert_batch(facts).map_err(|e| (r.index, e))?;
            }
            WalRecord::RetractBatch(facts) => {
                s.apply_retract_batch(facts).map_err(|e| (r.index, e))?;
            }
            WalRecord::Run => s.replay_run().map_err(|e| (r.index, e))?,
        }
        i += 1;
    }
    Ok(())
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

    fn probe(s: &mut EngineSession, pred: &str, key: &str) -> DemandAnswer {
        s.query_bound_instrumented(
            pred,
            &[Bind::Bound(key), Bind::Free],
            &MagicOptions::default(),
        )
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
            Fixpoint::restore(
                &mut s.store,
                s.fx.facts().clone(),
                s.fx.base_relations().to_vec(),
                s.fx.stats_raw(),
                s.fx.sizes_done().to_vec(),
                virgin,
                domain_settled,
            )
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
