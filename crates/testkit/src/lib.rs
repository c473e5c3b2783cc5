//! Random *safe* Sequence Datalog cases, plus the differential harness
//! that evaluates them along independent routes.
//!
//! The fragment-sensitivity results around Sequence Datalog (expressiveness
//! depends delicately on which operations — indexing, construction, free
//! variables — a fragment admits) make randomized cross-fragment testing
//! the right safety net for an optimized engine: each generated program
//! composes a few *shapes* drawn from the fragments the evaluator treats
//! differently (delta-driven joins, domain-sensitive clauses, constructive
//! heads, equality literals), and every case is terminating by
//! construction, so `batch ≡ incremental` is decidable per case.
//!
//! Two case families are generated over the same shape grammar:
//!
//! * [`FuzzCase`] — assert-only batches; oracle: batch ≡ incremental
//!   ([`batch_outcome`] vs [`incremental_outcome`]).
//! * [`InterleavedCase`] — assert/**retract** interleavings; oracle: after
//!   any history, the session equals a fresh batch evaluation of the
//!   *surviving* base facts ([`interleaved_outcome`] vs
//!   [`surviving_batch_outcome`]) — the Delete-and-Rederive correctness
//!   bar, with the ground-domain-sensitive shape (`gd(X, X) :- true.`)
//!   forced in regularly because retraction must shrink the extended
//!   active domain it enumerates.
//!
//! Generation is built on the workspace's `proptest` shim: strategies are
//! deterministic per test name ([`proptest::test_runner::TestRng`]), so a
//! failing case reproduces by running the same test — the seed is pinned by
//! construction. See `tests/fuzz_differential.rs` at the workspace root for
//! the assertions.

use proptest::collection;
use proptest::prop_oneof;
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
pub use seqlog_core::analysis::Bind;
use seqlog_core::eval::interp::FactStore;
pub use seqlog_core::session::DemandAnswer;
use seqlog_core::wal::{read_wal, ReadRecord, WalReadOptions, WalRecord, WAL_FILE, WAL_HEADER_LEN};
use seqlog_core::{
    Database, DurabilityOptions, Engine, EngineSession, EvalConfig, EvalError, EvalStats,
};
use seqlog_sequence::Sym;
use seqlog_transducer::library;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One generated differential case: a safe program plus base-fact batches.
///
/// All base facts are unary over the feed predicates `r0`/`r1`; the
/// batches model arrival order — a session asserts them one batch at a
/// time, batch evaluation sees their union.
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// Program source (terminating by construction).
    pub program: String,
    /// Fact batches in arrival order: `(pred, word)` per fact.
    pub batches: Vec<Vec<(String, String)>>,
}

impl FuzzCase {
    /// All facts of every batch, in arrival order.
    pub fn union_facts(&self) -> impl Iterator<Item = &(String, String)> {
        self.batches.iter().flatten()
    }

    /// Total fact count across batches.
    pub fn fact_count(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }
}

impl fmt::Display for FuzzCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program:\n{}", self.program)?;
        for (i, b) in self.batches.iter().enumerate() {
            writeln!(f, "batch {i}: {b:?}")?;
        }
        Ok(())
    }
}

/// Strategy producing [`FuzzCase`]s. Tunables bound the worst case so a
/// few hundred cases stay fast in debug builds.
pub struct CaseStrategy {
    /// Shape instances composed per program (1..=max).
    pub max_shapes: usize,
    /// Fact batches per case (1..=max).
    pub max_batches: usize,
    /// Facts per batch (0..=max; at least one fact overall is guaranteed).
    pub max_facts_per_batch: usize,
    /// Maximum word length (alphabet `{a, b, c}`, empty words included).
    pub max_word_len: usize,
}

impl Default for CaseStrategy {
    fn default() -> Self {
        Self {
            max_shapes: 3,
            max_batches: 4,
            max_facts_per_batch: 3,
            max_word_len: 5,
        }
    }
}

/// The default case strategy.
pub fn cases() -> CaseStrategy {
    CaseStrategy::default()
}

fn word_strategy(max_len: usize) -> impl Strategy<Value = String> {
    collection::vec(prop_oneof!["a", "b", "c"], 0..max_len + 1).prop_map(|v| v.concat())
}

/// Number of distinct program shapes [`CaseStrategy`] draws from.
pub const SHAPE_COUNT: usize = 9;

/// The unary head predicate of shape `kind` (instance `u`), when it has
/// one. The interleaving generator occasionally asserts base facts *into*
/// these derived predicates: a fact both asserted and derivable is exactly
/// the case where retraction must distinguish base support from rule
/// support (DRed's re-seed pass).
fn shape_unary_head(kind: usize, u: usize) -> Option<String> {
    match kind {
        0 => Some(format!("c{u}x0")),
        1 => Some(format!("suf{u}")),
        2 => Some(format!("pre{u}")),
        3 => Some(format!("t{u}")),
        5 => Some(format!("occ{u}")),
        8 => Some(format!("m{u}p")),
        _ => None, // dbl/cat construct, fr/gd are binary
    }
}

/// Emit the clauses of shape `kind` (see the module docs), with predicate
/// names suffixed by `u` so composed instances never collide, feeding from
/// base predicate `r{base}`.
fn shape_clauses(kind: usize, u: usize, base: usize, out: &mut String) {
    use std::fmt::Write as _;
    match kind {
        // Three-predicate mutually recursive trimming chain: drives
        // semi-naive deltas across several predicates and many rounds.
        0 => {
            let _ = writeln!(out, "c{u}x0(X) :- r{base}(X).");
            let _ = writeln!(out, "c{u}x1(X[2:end]) :- c{u}x0(X), X != \"\".");
            let _ = writeln!(out, "c{u}x2(X[2:end]) :- c{u}x1(X), X != \"\".");
            let _ = writeln!(out, "c{u}x0(X[2:end]) :- c{u}x2(X), X != \"\".");
        }
        // Suffix enumeration: free index variable ⇒ domain-sensitive.
        1 => {
            let _ = writeln!(out, "suf{u}(X[N:end]) :- r{base}(X).");
        }
        // Prefix enumeration (same fragment, other edge).
        2 => {
            let _ = writeln!(out, "pre{u}(X[1:N]) :- r{base}(X).");
        }
        // Self-join over a trimmed predicate: wide cross-product rounds,
        // the largest match phases the generator produces.
        3 => {
            let _ = writeln!(out, "t{u}(X) :- r{base}(X).");
            let _ = writeln!(out, "t{u}(X[3:end]) :- t{u}(X), X != \"\".");
            let _ = writeln!(out, "pair{u}(X, Y) :- t{u}(X), t{u}(Y).");
        }
        // Stratified construction: concat heads grow the domain without
        // recursion through `++` (Example 5.1's safe pattern).
        4 => {
            let _ = writeln!(out, "dbl{u}(X ++ X) :- r{base}(X).");
            let _ = writeln!(out, "cat{u}(X ++ Y) :- r0(X), r1(Y).");
        }
        // Equality literal with indices bound only by occurrence matching
        // (indices are inclusive: `X[N:N]` is the length-1 window at N):
        // domain-sensitive through its index variable.
        5 => {
            let _ = writeln!(out, "occ{u}(X) :- r{base}(X), X[N:N] = \"a\".");
        }
        // Free head variable: Y ranges over the *whole* extended active
        // domain (Definition 4). The only shape whose old facts derive new
        // tuples purely because the domain grew — it is what forces the
        // resume path to re-run domain-sensitive clauses, and a mutation
        // that skips that refire is caught by this shape alone.
        6 => {
            let _ = writeln!(out, "fr{u}(X, Y) :- r{base}(X).");
        }
        // Ground domain-sensitive clause: empty body, free head variable.
        // Regression shape for the planner ordering bug where body-empty
        // clauses were skipped before the domain-growth refire check.
        7 => {
            let _ = writeln!(out, "gd{u}(X, X) :- true.");
        }
        // Two-predicate mutual recursion with a guard inequality.
        _ => {
            let _ = writeln!(out, "m{u}p(X) :- r{base}(X).");
            let _ = writeln!(out, "m{u}p(X[2:end]) :- m{u}q(X), X != \"\".");
            let _ = writeln!(out, "m{u}q(X) :- m{u}p(X).");
        }
    }
}

impl Strategy for CaseStrategy {
    type Value = FuzzCase;

    fn generate(&self, rng: &mut TestRng) -> FuzzCase {
        let words = word_strategy(self.max_word_len);
        let n_shapes = 1 + (rng.next_u64() as usize) % self.max_shapes;
        let mut program = String::new();
        for u in 0..n_shapes {
            let kind = (rng.next_u64() as usize) % SHAPE_COUNT;
            let base = (rng.next_u64() as usize) % 2;
            shape_clauses(kind, u, base, &mut program);
        }
        let n_batches = 1 + (rng.next_u64() as usize) % self.max_batches;
        let mut batches: Vec<Vec<(String, String)>> = (0..n_batches)
            .map(|_| {
                let n_facts = (rng.next_u64() as usize) % (self.max_facts_per_batch + 1);
                (0..n_facts)
                    .map(|_| {
                        let pred = format!("r{}", rng.next_u64() % 2);
                        (pred, words.generate(rng))
                    })
                    .collect()
            })
            .collect();
        if batches.iter().all(Vec::is_empty) {
            batches[0].push(("r0".to_string(), words.generate(rng)));
        }
        FuzzCase { program, batches }
    }
}

/// One session operation of an [`InterleavedCase`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `assert_fact(pred, [word])`.
    Assert {
        /// Base predicate (`r0`/`r1`).
        pred: String,
        /// Unary argument.
        word: String,
    },
    /// `retract_fact(pred, [word])` — may be a no-op (never asserted, or
    /// already retracted), which is part of the surface under test.
    Retract {
        /// Base predicate.
        pred: String,
        /// Unary argument.
        word: String,
    },
}

/// A generated assert/retract interleaving over a safe program: the
/// non-monotone counterpart of [`FuzzCase`]. The session route applies each
/// step's ops in order with a [`EngineSession::run`]-equivalent settle after
/// the step; the oracle route batch-evaluates the *surviving* base facts.
///
/// [`EngineSession::run`]: seqlog_core::session::EngineSession::run
#[derive(Clone, Debug)]
pub struct InterleavedCase {
    /// Program source (terminating by construction).
    pub program: String,
    /// Operation batches in arrival order.
    pub steps: Vec<Vec<Op>>,
}

impl InterleavedCase {
    /// The surviving base facts under set semantics (asserts dedupe, a
    /// retract removes the fact when present), in first-assert order.
    pub fn surviving_facts(&self) -> Vec<(String, String)> {
        let mut order: Vec<(String, String)> = Vec::new();
        let mut live: std::collections::BTreeSet<(String, String)> = Default::default();
        for op in self.steps.iter().flatten() {
            match op {
                Op::Assert { pred, word } => {
                    let key = (pred.clone(), word.clone());
                    if live.insert(key.clone()) && !order.contains(&key) {
                        order.push(key);
                    }
                }
                Op::Retract { pred, word } => {
                    live.remove(&(pred.clone(), word.clone()));
                }
            }
        }
        order.retain(|k| live.contains(k));
        order
    }

    /// Total number of operations.
    pub fn op_count(&self) -> usize {
        self.steps.iter().map(Vec::len).sum()
    }

    /// True when some op retracts a word that was asserted earlier (the
    /// interesting, effective retraction — as opposed to no-op retracts).
    pub fn has_effective_retract(&self) -> bool {
        let mut live: std::collections::BTreeSet<(&str, &str)> = Default::default();
        for op in self.steps.iter().flatten() {
            match op {
                Op::Assert { pred, word } => {
                    live.insert((pred, word));
                }
                Op::Retract { pred, word } => {
                    if live.remove(&(pred.as_str(), word.as_str())) {
                        return true;
                    }
                }
            }
        }
        false
    }
}

impl fmt::Display for InterleavedCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "program:\n{}", self.program)?;
        for (i, step) in self.steps.iter().enumerate() {
            write!(f, "step {i}:")?;
            for op in step {
                match op {
                    Op::Assert { pred, word } => write!(f, " +{pred}({word:?})")?,
                    Op::Retract { pred, word } => write!(f, " -{pred}({word:?})")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Strategy producing [`InterleavedCase`]s. Roughly a third of the ops are
/// retractions, most of which target previously asserted facts (the rest
/// exercise the no-op path). With `force_gd`, every program includes the
/// ground-domain-sensitive shape `gd(X, X) :- true.` — the domain-shrink
/// trap retraction must handle; without it, every third case still does.
pub struct InterleavedCaseStrategy {
    /// Shape instances composed per program (1..=max).
    pub max_shapes: usize,
    /// Operation batches per case (1..=max).
    pub max_steps: usize,
    /// Ops per batch (0..=max; at least one assert overall is guaranteed).
    pub max_ops_per_step: usize,
    /// Maximum word length (alphabet `{a, b, c}`, empty words included).
    pub max_word_len: usize,
    /// Always include the ground-domain-sensitive shape.
    pub force_gd: bool,
}

impl Default for InterleavedCaseStrategy {
    fn default() -> Self {
        Self {
            max_shapes: 3,
            max_steps: 4,
            max_ops_per_step: 4,
            max_word_len: 5,
            force_gd: false,
        }
    }
}

/// The default interleaved-case strategy.
pub fn interleaved_cases() -> InterleavedCaseStrategy {
    InterleavedCaseStrategy::default()
}

/// [`interleaved_cases`] with the ground-domain-sensitive shape forced into
/// every program (guaranteed domain-shrinkage coverage).
pub fn interleaved_cases_with_gd() -> InterleavedCaseStrategy {
    InterleavedCaseStrategy {
        force_gd: true,
        ..InterleavedCaseStrategy::default()
    }
}

impl Strategy for InterleavedCaseStrategy {
    type Value = InterleavedCase;

    fn generate(&self, rng: &mut TestRng) -> InterleavedCase {
        let words = word_strategy(self.max_word_len);
        let n_shapes = 1 + (rng.next_u64() as usize) % self.max_shapes;
        let mut program = String::new();
        let mut has_gd = false;
        // Feed predicates, plus the unary *derived* predicates of the
        // chosen shapes: asserting into a derived predicate makes facts
        // that are both base and rule-supported, the re-seed-sensitive
        // class of retraction.
        let mut assertable: Vec<String> = vec!["r0".to_string(), "r1".to_string()];
        for u in 0..n_shapes {
            let kind = (rng.next_u64() as usize) % SHAPE_COUNT;
            has_gd |= kind == 7;
            let base = (rng.next_u64() as usize) % 2;
            shape_clauses(kind, u, base, &mut program);
            assertable.extend(shape_unary_head(kind, u));
        }
        if !has_gd && (self.force_gd || rng.next_u64().is_multiple_of(3)) {
            shape_clauses(7, n_shapes, 0, &mut program);
        }
        let mut pool: Vec<(String, String)> = Vec::new();
        let n_steps = 1 + (rng.next_u64() as usize) % self.max_steps;
        let mut steps: Vec<Vec<Op>> = (0..n_steps)
            .map(|_| {
                let n_ops = (rng.next_u64() as usize) % (self.max_ops_per_step + 1);
                (0..n_ops)
                    .map(|_| {
                        let pick_pred = |rng: &mut TestRng, assertable: &[String]| {
                            if assertable.len() > 2 && rng.next_u64().is_multiple_of(5) {
                                assertable[2 + (rng.next_u64() as usize) % (assertable.len() - 2)]
                                    .clone()
                            } else {
                                format!("r{}", rng.next_u64() % 2)
                            }
                        };
                        let retract = !pool.is_empty() && rng.next_u64().is_multiple_of(3);
                        if retract {
                            if rng.next_u64().is_multiple_of(4) {
                                // A (most likely) never-asserted fact: the
                                // no-op retraction path.
                                Op::Retract {
                                    pred: pick_pred(rng, &assertable),
                                    word: words.generate(rng),
                                }
                            } else {
                                let (pred, word) =
                                    pool[(rng.next_u64() as usize) % pool.len()].clone();
                                Op::Retract { pred, word }
                            }
                        } else {
                            let pred = pick_pred(rng, &assertable);
                            let word = words.generate(rng);
                            pool.push((pred.clone(), word.clone()));
                            Op::Assert { pred, word }
                        }
                    })
                    .collect()
            })
            .collect();
        if pool.is_empty() {
            steps[0].push(Op::Assert {
                pred: "r0".to_string(),
                word: words.generate(rng),
            });
        }
        InterleavedCase { program, steps }
    }
}

/// The observable result of evaluating a case: either the rendered extents
/// of every predicate (in per-relation insertion order), or the error it
/// failed with. [`Outcome::extents_sorted`] gives the set-level view for
/// cross-route comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Evaluation settled: per-predicate extents and final stats.
    Model {
        /// Rendered tuples per predicate, insertion order.
        extents: BTreeMap<String, Vec<Vec<String>>>,
        /// Final statistics.
        stats: EvalStats,
    },
    /// Evaluation failed (rendered via `Debug` of the error's budget kind,
    /// or `Display` for non-budget errors).
    Failed(String),
}

/// Relation extents keyed by predicate name, rendered back to strings.
pub type Extents = BTreeMap<String, Vec<Vec<String>>>;

impl Outcome {
    fn from_error(e: &EvalError) -> Self {
        match e {
            EvalError::Budget { kind, .. } => Outcome::Failed(format!("budget:{kind:?}")),
            other => Outcome::Failed(other.to_string()),
        }
    }

    /// Extents with each relation's tuples sorted — equal across routes
    /// that agree set-wise but not on insertion order (batch vs session).
    pub fn extents_sorted(&self) -> Option<Extents> {
        match self {
            Outcome::Model { extents, .. } => {
                let mut out = extents.clone();
                for v in out.values_mut() {
                    v.sort();
                }
                Some(out)
            }
            Outcome::Failed(_) => None,
        }
    }

    /// [`Outcome::extents_sorted`] with empty relations dropped. The
    /// session route keeps a (now empty) relation for a predicate whose
    /// last fact was retracted; the fresh-batch oracle never saw that
    /// predicate at all. Set-level equality must ignore the difference.
    pub fn extents_sorted_nonempty(&self) -> Option<Extents> {
        self.extents_sorted().map(|mut out| {
            out.retain(|_, v| !v.is_empty());
            out
        })
    }

    /// The bit-for-bit view for recovery comparison: extents in
    /// per-relation **insertion order** plus the exact stats, with empty
    /// relations dropped (a budget-refused assert may intern a predicate it
    /// never populates; the replayed route skips the aborted record and
    /// never sees the name — an unobservable difference).
    pub fn bitwise_view(&self) -> Option<(Extents, EvalStats)> {
        match self {
            Outcome::Model { extents, stats } => {
                let mut out = extents.clone();
                out.retain(|_, v| !v.is_empty());
                Some((out, *stats))
            }
            Outcome::Failed(_) => None,
        }
    }

    /// The failure label, if the route failed.
    pub fn failure(&self) -> Option<&str> {
        match self {
            Outcome::Failed(s) => Some(s),
            Outcome::Model { .. } => None,
        }
    }
}

fn render_store(e: &Engine, facts: &FactStore) -> BTreeMap<String, Vec<Vec<String>>> {
    facts
        .predicates()
        .map(|pred| {
            let rows = facts
                .relation_named(pred)
                .map(|rel| {
                    rel.iter()
                        .map(|t| t.iter().map(|&id| e.render(id)).collect())
                        .collect()
                })
                .unwrap_or_default();
            (pred.to_string(), rows)
        })
        .collect()
}

/// Evaluate the union of all batches in one shot.
pub fn batch_outcome(case: &FuzzCase, config: &EvalConfig) -> Outcome {
    batch_outcome_in(Engine::new(), case, config)
}

/// [`batch_outcome`] with the standard chain machines
/// ([`register_chain_machines`]) registered, for cases extended by
/// [`with_chain_clauses`].
pub fn chained_batch_outcome(case: &FuzzCase, config: &EvalConfig) -> Outcome {
    let mut e = Engine::new();
    register_chain_machines(&mut e);
    batch_outcome_in(e, case, config)
}

fn batch_outcome_in(mut e: Engine, case: &FuzzCase, config: &EvalConfig) -> Outcome {
    let program = e
        .parse_program(&case.program)
        .expect("generated programs parse");
    // The union database, assembled batch-wise (Database::extend_from is
    // the boundary the session route's assert_db mirrors).
    let mut db = Database::new();
    for batch in &case.batches {
        let mut batch_db = Database::new();
        for (pred, word) in batch {
            e.add_fact(&mut batch_db, pred, &[word]);
        }
        db.extend_from(&batch_db);
    }
    match e.evaluate_with(&program, &db, config) {
        Ok(m) => Outcome::Model {
            stats: m.stats,
            extents: render_store(&e, &m.facts),
        },
        Err(err) => Outcome::from_error(&err),
    }
}

/// Evaluate incrementally: open a session, assert one batch at a time with
/// a resume after each. The first failing resume ends the route (sessions
/// poison on error).
pub fn incremental_outcome(case: &FuzzCase, config: &EvalConfig) -> Outcome {
    let mut e = Engine::new();
    let program = e
        .parse_program(&case.program)
        .expect("generated programs parse");
    let mut session = e
        .into_session(&program, *config)
        .expect("generated programs compile");
    for batch in &case.batches {
        for (pred, word) in batch {
            if let Err(err) = session.assert_fact(pred, &[word.as_str()]) {
                return Outcome::from_error(&err);
            }
        }
        if let Err(err) = session.run() {
            return Outcome::from_error(&err);
        }
    }
    let model = session.snapshot();
    let extents = session
        .predicates()
        .map(|pred| (pred.to_string(), session.query(pred)))
        .collect();
    Outcome::Model {
        extents,
        stats: model.stats,
    }
}

/// Session route for an interleaved case: apply each step's ops in order
/// (retractions settle eagerly), then resume the fixpoint, and read the
/// final extents. The first failing op or resume ends the route (sessions
/// poison on evaluation errors; budget-refused asserts are reported the
/// same way for cross-route comparison).
pub fn interleaved_outcome(case: &InterleavedCase, config: &EvalConfig) -> Outcome {
    let mut e = Engine::new();
    let program = e
        .parse_program(&case.program)
        .expect("generated programs parse");
    let mut session = e
        .into_session(&program, *config)
        .expect("generated programs compile");
    for step in &case.steps {
        for op in step {
            let result = match op {
                Op::Assert { pred, word } => session.assert_fact(pred, &[word]).map(|_| ()),
                Op::Retract { pred, word } => session.retract_fact(pred, &[word]).map(|_| ()),
            };
            if let Err(err) = result {
                return Outcome::from_error(&err);
            }
        }
        if let Err(err) = session.run() {
            return Outcome::from_error(&err);
        }
    }
    let model = session.snapshot();
    let extents = session
        .predicates()
        .map(|pred| (pred.to_string(), session.query(pred)))
        .collect();
    Outcome::Model {
        extents,
        stats: model.stats,
    }
}

/// The retraction oracle: batch-evaluate the case's *surviving* base facts
/// from scratch. [`interleaved_outcome`] must agree with this extent-wise
/// (Definition 4 / Theorem 2: the least fixpoint is a function of the
/// database, however the database came to be).
pub fn surviving_batch_outcome(case: &InterleavedCase, config: &EvalConfig) -> Outcome {
    let mut e = Engine::new();
    let program = e
        .parse_program(&case.program)
        .expect("generated programs parse");
    let mut db = Database::new();
    for (pred, word) in case.surviving_facts() {
        e.add_fact(&mut db, &pred, &[&word]);
    }
    match e.evaluate_with(&program, &db, config) {
        Ok(m) => Outcome::Model {
            stats: m.stats,
            extents: render_store(&e, &m.facts),
        },
        Err(err) => Outcome::from_error(&err),
    }
}

// ---------------------------------------------------------------------------
// Crash-injection harness for durable sessions
// ---------------------------------------------------------------------------

/// A self-cleaning temporary directory (std-only `tempfile` stand-in).
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory under the OS temp dir, unique per process
    /// and call.
    pub fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("seqlog-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir { path }
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// A snapshot file observed during a [`durable_run`]: its name, its full
/// byte image, and the log length when it first appeared. Keeping the bytes
/// (not just the path) lets [`crash_at`] materialize the files a crash at
/// any earlier offset would have found, even ones the live run later pruned.
pub struct SnapshotMark {
    /// File name (`snap-….bin`).
    pub name: String,
    /// Complete file contents when first observed.
    pub bytes: Vec<u8>,
    /// `wal_len()` at the moment the file was first observed.
    pub wal_len: u64,
}

/// The trace of one durable execution of an [`InterleavedCase`]: the live
/// directory, the log length after every session call (the record-boundary
/// kill points), every snapshot ever written, and the final outcome.
pub struct DurableRun {
    /// The live durability directory (kept alive by this struct).
    pub dir: TempDir,
    /// `wal_len()` after each assert/retract/run call, in order.
    pub boundaries: Vec<u64>,
    /// All snapshots observed, in first-appearance order.
    pub snapshots: Vec<SnapshotMark>,
    /// Final log length.
    pub final_len: u64,
    /// The live route's outcome (for comparison against recovery at the
    /// final offset).
    pub outcome: Outcome,
}

fn observe_snapshots(dir: &Path, wal_len: u64, seen: &mut Vec<SnapshotMark>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.starts_with("snap-") || !name.ends_with(".bin") {
            continue;
        }
        if seen.iter().any(|m| m.name == name) {
            continue;
        }
        let Ok(bytes) = fs::read(entry.path()) else {
            continue;
        };
        seen.push(SnapshotMark {
            name,
            bytes,
            wal_len,
        });
    }
}

/// Execute `case` in a durable session, recording record boundaries and
/// snapshot appearances after every call. Budget-refused asserts/retracts do
/// **not** end the run (they leave an `Abort` pair in the log — coverage for
/// the compensation path); a poisoning failure does, and the poisoned log
/// tail then becomes a recovery input like any other.
pub fn durable_run(
    case: &InterleavedCase,
    config: &EvalConfig,
    opts: &DurabilityOptions,
) -> DurableRun {
    let dir = TempDir::new("run");
    let mut e = Engine::new();
    let program = e
        .parse_program(&case.program)
        .expect("generated programs parse");
    let mut session = e
        .into_session(&program, *config)
        .expect("generated programs compile");
    session
        .make_durable(dir.path(), opts.clone())
        .expect("attach durability to a fresh dir");
    let mut boundaries = Vec::new();
    let mut snapshots = Vec::new();
    let mark = |s: &EngineSession, b: &mut Vec<u64>, snaps: &mut Vec<SnapshotMark>| {
        let len = s.wal_len().expect("session is durable");
        b.push(len);
        observe_snapshots(dir.path(), len, snaps);
    };
    mark(&session, &mut boundaries, &mut snapshots);
    let mut outcome = None;
    'steps: for step in &case.steps {
        for op in step {
            let result = match op {
                Op::Assert { pred, word } => session.assert_fact(pred, &[word]).map(|_| ()),
                Op::Retract { pred, word } => session.retract_fact(pred, &[word]).map(|_| ()),
            };
            mark(&session, &mut boundaries, &mut snapshots);
            if let Err(err) = result {
                if session.is_poisoned() {
                    outcome = Some(Outcome::from_error(&err));
                    break 'steps;
                }
            }
        }
        if let Err(err) = session.run() {
            mark(&session, &mut boundaries, &mut snapshots);
            outcome = Some(Outcome::from_error(&err));
            break 'steps;
        }
        mark(&session, &mut boundaries, &mut snapshots);
    }
    let final_len = session.wal_len().expect("session is durable");
    let outcome = outcome.unwrap_or_else(|| session_outcome(&session));
    DurableRun {
        dir,
        boundaries,
        snapshots,
        final_len,
        outcome,
    }
}

/// Materialize the durability directory a crash at log offset `offset`
/// would leave behind: the log truncated to `offset` and exactly the
/// snapshots that existed by then (snapshots are written atomically, so a
/// crash never leaves a partial one).
pub fn crash_at(run: &DurableRun, offset: u64) -> TempDir {
    let crashed = TempDir::new("crash");
    let bytes = fs::read(run.dir.path().join(WAL_FILE)).expect("read live wal");
    let cut = offset.min(bytes.len() as u64) as usize;
    fs::write(crashed.path().join(WAL_FILE), &bytes[..cut]).expect("write crashed wal");
    for mark in &run.snapshots {
        if mark.wal_len <= offset {
            fs::write(crashed.path().join(&mark.name), &mark.bytes).expect("write snapshot");
        }
    }
    crashed
}

/// The deterministic kill points for a run: every record boundary, plus the
/// midpoint of every inter-boundary gap (mid-record torn tails), all at or
/// past the log header (an offset inside the header models a crash during
/// [`EngineSession::make_durable`] itself and is tested separately).
pub fn kill_offsets(run: &DurableRun) -> Vec<u64> {
    let mut offsets = Vec::new();
    for (i, &b) in run.boundaries.iter().enumerate() {
        offsets.push(b);
        if let Some(&next) = run.boundaries.get(i + 1) {
            if next > b + 1 {
                offsets.push(b + (next - b) / 2);
            }
        }
    }
    offsets.push(run.final_len);
    offsets.retain(|&o| o >= WAL_HEADER_LEN);
    offsets.sort_unstable();
    offsets.dedup();
    offsets
}

/// Recover a session from a (possibly crashed) durability directory.
pub fn recover_session(
    program_src: &str,
    dir: &Path,
    config: &EvalConfig,
    opts: &DurabilityOptions,
) -> Result<EngineSession, EvalError> {
    let mut e = Engine::new();
    let program = e
        .parse_program(program_src)
        .expect("generated programs parse");
    EngineSession::open_durable(e, &program, *config, dir, opts.clone())
}

/// The session's observable state as an [`Outcome`] — insertion-order
/// extents per predicate, plus cumulative stats.
pub fn session_outcome(session: &EngineSession) -> Outcome {
    let extents = session
        .predicates()
        .map(|pred| (pred.to_string(), session.query(pred)))
        .collect();
    Outcome::Model {
        extents,
        stats: session.stats(),
    }
}

/// The *effective* records of a log: aborted pairs removed, `Abort`
/// markers dropped.
fn effective_records(records: &[ReadRecord]) -> Vec<&ReadRecord> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < records.len() {
        let r = &records[i];
        let aborted = records
            .get(i + 1)
            .is_some_and(|n| matches!(n.record, WalRecord::Abort));
        match &r.record {
            WalRecord::Abort => {}
            _ if aborted => {
                i += 2;
                continue;
            }
            _ => out.push(r),
        }
        i += 1;
    }
    out
}

fn logged_word(names: &[Vec<String>]) -> Vec<String> {
    names.iter().map(|arg| arg.concat()).collect()
}

/// Replay a directory's log through a **fresh, in-memory** session — the
/// bit-for-bit oracle for recovery: the recovered session must equal this
/// one in extents (insertion order, empty relations ignored: aborted
/// asserts may leave an interned-but-empty predicate behind) and stats.
pub fn wal_replay_outcome(program_src: &str, dir: &Path, config: &EvalConfig) -> Outcome {
    let contents = read_wal(&dir.join(WAL_FILE), &WalReadOptions::default())
        .expect("recovered directories hold a readable log");
    assert_eq!(
        contents.base_index, 0,
        "the fresh-replay oracle needs the full history (uncompacted log)"
    );
    let mut e = Engine::new();
    let program = e
        .parse_program(program_src)
        .expect("generated programs parse");
    let mut session = e
        .into_session(&program, *config)
        .expect("generated programs compile");
    for r in effective_records(&contents.records) {
        let result = match &r.record {
            WalRecord::AssertBatch(facts) => {
                let mut err = None;
                for f in facts {
                    let word = logged_word(&f.args);
                    let args: Vec<&str> = word.iter().map(String::as_str).collect();
                    if let Err(e) = session.assert_fact(&f.pred, &args) {
                        err = Some(e);
                        break;
                    }
                }
                match err {
                    None => Ok(()),
                    Some(e) => Err(e),
                }
            }
            WalRecord::RetractBatch(facts) => {
                let mut err = None;
                for f in facts {
                    let word = logged_word(&f.args);
                    let args: Vec<&str> = word.iter().map(String::as_str).collect();
                    if let Err(e) = session.retract_fact(&f.pred, &args) {
                        err = Some(e);
                        break;
                    }
                }
                match err {
                    None => Ok(()),
                    Some(e) => Err(e),
                }
            }
            WalRecord::Run => session.run().map(|_| ()),
            WalRecord::Abort => unreachable!("effective_records drops aborts"),
        };
        if let Err(err) = result {
            return Outcome::from_error(&err);
        }
    }
    session_outcome(&session)
}

/// The surviving base facts recorded in a directory's log (set semantics
/// over the effective assert/retract records), in first-assert order — the
/// input for the fresh-batch-evaluation oracle.
pub fn wal_surviving_facts(dir: &Path) -> Vec<(String, Vec<String>)> {
    let contents = read_wal(&dir.join(WAL_FILE), &WalReadOptions::default())
        .expect("recovered directories hold a readable log");
    let mut order: Vec<(String, Vec<String>)> = Vec::new();
    let mut live: std::collections::BTreeSet<(String, Vec<String>)> = Default::default();
    for r in effective_records(&contents.records) {
        match &r.record {
            WalRecord::AssertBatch(facts) => {
                for f in facts {
                    let key = (f.pred.clone(), logged_word(&f.args));
                    if live.insert(key.clone()) && !order.contains(&key) {
                        order.push(key);
                    }
                }
            }
            WalRecord::RetractBatch(facts) => {
                for f in facts {
                    live.remove(&(f.pred.clone(), logged_word(&f.args)));
                }
            }
            _ => {}
        }
    }
    order.retain(|k| live.contains(k));
    order
}

/// Batch-evaluate the log's surviving base facts from scratch: the
/// Definition 4 oracle for a recovered-then-settled session (the least
/// fixpoint is a function of the database, however it was reached —
/// crashes and recoveries included).
pub fn wal_surviving_batch_outcome(program_src: &str, dir: &Path, config: &EvalConfig) -> Outcome {
    let mut e = Engine::new();
    let program = e
        .parse_program(program_src)
        .expect("generated programs parse");
    let mut db = Database::new();
    for (pred, args) in wal_surviving_facts(dir) {
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        e.add_fact(&mut db, &pred, &refs);
    }
    match e.evaluate_with(&program, &db, config) {
        Ok(m) => Outcome::Model {
            stats: m.stats,
            extents: render_store(&e, &m.facts),
        },
        Err(err) => Outcome::from_error(&err),
    }
}

// ---------------------------------------------------------------------------
// Demand-driven (bound-argument) query harness
// ---------------------------------------------------------------------------

/// A demand probe pattern: `Some(word)` binds the position, `None` leaves
/// it free. String-level so probes can be generated from rendered extents.
pub type BoundPattern = Vec<Option<String>>;

fn as_binds(pattern: &[Option<String>]) -> Vec<Bind<'_>> {
    pattern
        .iter()
        .map(|p| match p {
            Some(w) => Bind::Bound(w),
            None => Bind::Free,
        })
        .collect()
}

/// The demand oracle: the batch extent of `pred`, filtered down to the
/// tuples matching every bound position, sorted and deduplicated —
/// exactly what [`EngineSession::query_bound`] promises to return.
pub fn filtered_extent(
    extents: &Extents,
    pred: &str,
    pattern: &[Option<String>],
) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = extents
        .get(pred)
        .map(|rows| {
            rows.iter()
                .filter(|t| {
                    t.len() == pattern.len()
                        && pattern
                            .iter()
                            .zip(t.iter())
                            .all(|(b, v)| b.as_ref().is_none_or(|b| b == v))
                })
                .cloned()
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out.dedup();
    out
}

/// Every (pred, pattern) probe a case's batch model offers at arity ≤ 3:
/// for each populated predicate, all 2^arity bound/free masks with bound
/// values drawn from one of its tuples (so every adornment is exercised
/// with at least one hit), plus an all-bound miss probe over a word the
/// generator's alphabet can never derive.
pub fn demand_probes(extents: &Extents) -> Vec<(String, BoundPattern)> {
    let mut probes = Vec::new();
    for (pred, rows) in extents {
        let Some(sample) = rows.last() else { continue };
        let arity = sample.len();
        if arity == 0 || arity > 3 {
            continue;
        }
        for mask in 0..(1usize << arity) {
            let pattern: BoundPattern = (0..arity)
                .map(|i| (mask >> i & 1 == 1).then(|| sample[i].clone()))
                .collect();
            probes.push((pred.clone(), pattern));
        }
        probes.push((pred.clone(), vec![Some("zq".to_string()); arity]));
    }
    probes
}

/// The session state a demand probe meets ([`demand_outcome`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DemandArm {
    /// Every batch asserted, never run: the scratch evaluation derives
    /// everything itself.
    Unsettled,
    /// Every batch asserted with a run after each: the session is settled
    /// and answers by probing its own relation.
    Settled,
    /// All but the last batch asserted and run, the last one asserted
    /// and pending: the scratch starts from settled facts plus a delta.
    MidStream,
}

/// Every [`DemandArm`].
pub const DEMAND_ARMS: [DemandArm; 3] = [
    DemandArm::Unsettled,
    DemandArm::Settled,
    DemandArm::MidStream,
];

/// A demand probe's answer, with whether the magic scratch had to run:
/// exactly for a goal some clause derives into, on a session holding
/// asserts no run processed — always on the unsettled arm, and on the
/// mid-stream arm when its last batch added a fact. Worked out from the
/// asserts themselves, not from the session's own settledness test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DemandRun {
    /// What `query_bound_instrumented` returned.
    pub answer: DemandAnswer,
    /// The value `answer.evaluated` must have.
    pub expect_evaluated: bool,
}

/// `query_bound` along the session route: assert the batches as `arm`
/// says, then issue the instrumented query. Failures are rendered like
/// [`Outcome::Failed`] labels.
pub fn demand_outcome(
    case: &FuzzCase,
    config: &EvalConfig,
    pred: &str,
    pattern: &[Option<String>],
    arm: DemandArm,
) -> Result<DemandRun, String> {
    let fail = |err: EvalError| Outcome::from_error(&err).failure().unwrap().to_string();
    let mut e = Engine::new();
    let program = e
        .parse_program(&case.program)
        .expect("generated programs parse");
    let mut session = e
        .into_session(&program, *config)
        .expect("generated programs compile");
    let settled = match arm {
        DemandArm::Unsettled => 0,
        DemandArm::Settled => case.batches.len(),
        DemandArm::MidStream => case.batches.len() - 1,
    };
    if arm == DemandArm::MidStream {
        // Past the virgin round even when the case has one batch.
        session.run().map_err(fail)?;
    }
    let mut pending = arm == DemandArm::Unsettled;
    for (i, batch) in case.batches.iter().enumerate() {
        for (p, word) in batch {
            let added = session.assert_fact(p, &[word.as_str()]).map_err(fail)?;
            pending |= added && i >= settled;
        }
        if i < settled {
            session.run().map_err(fail)?;
        }
    }
    let compiled = session.program();
    let derivable = compiled
        .preds
        .lookup(pred)
        .is_some_and(|g| compiled.clauses.iter().any(|c| c.head.pred == g));
    let answer = session
        .query_bound_instrumented(pred, &as_binds(pattern))
        .map_err(fail)?;
    Ok(DemandRun {
        answer,
        expect_evaluated: derivable && pending,
    })
}

/// Register the standard chain machines `m1`/`m2`/`m3` — functional
/// 1-state letter mappers over `a`/`b`/`c` — used by the fusion
/// differential ([`with_chain_clauses`] / [`chained_batch_outcome`]).
/// `m1` is a rotation, `m2` collapses, `m3` swaps: composed in any order
/// they do not commute, so a swapped-composition mutant diverges.
pub fn register_chain_machines(e: &mut Engine) {
    let s: Vec<Sym> = "abc".chars().map(|c| e.alphabet.intern_char(c)).collect();
    let m1 = library::mapper(
        &mut e.alphabet,
        "m1",
        &[(s[0], s[1]), (s[1], s[2]), (s[2], s[0])],
    );
    let m2 = library::mapper(
        &mut e.alphabet,
        "m2",
        &[(s[0], s[0]), (s[1], s[0]), (s[2], s[1])],
    );
    let m3 = library::mapper(
        &mut e.alphabet,
        "m3",
        &[(s[0], s[2]), (s[1], s[1]), (s[2], s[0])],
    );
    e.registry.register("m1", m1);
    e.registry.register("m2", m2);
    e.registry.register("m3", m3);
}

/// Extend a generated case with transducer-chain clauses over both base
/// predicates: a 2-machine and a 3-machine nesting. Evaluating the result
/// (via [`chained_batch_outcome`]) with fusion on and off is the
/// differential oracle for the compile-time fusion pass.
pub fn with_chain_clauses(mut case: FuzzCase) -> FuzzCase {
    case.program
        .push_str("fzc0(@m1(@m2(X))) :- r0(X).\nfzc1(@m3(@m2(@m1(X)))) :- r1(X).\n");
    case
}

/// Strategy producing random small [`Fst`](seqlog_transducer::Fst)s over a symbol universe — the
/// input machines of the transducer-algebra property suite
/// (`crates/transducer/tests/algebra.rs`). Machines may be
/// nondeterministic, carry unreachable or stuck states, and emit 0–2
/// symbols per arc; at least one state is final, so the relation is
/// non-trivial for some input.
pub struct FstStrategy {
    universe: Vec<Sym>,
    max_states: usize,
    max_arcs_per_state: usize,
    max_out_len: usize,
}

/// The default [`FstStrategy`] over `universe`.
pub fn fsts(universe: Vec<Sym>) -> FstStrategy {
    FstStrategy {
        universe,
        max_states: 4,
        max_arcs_per_state: 3,
        max_out_len: 2,
    }
}

impl FstStrategy {
    fn word(&self, rng: &mut TestRng) -> Vec<Sym> {
        let len = (rng.next_u64() as usize) % (self.max_out_len + 1);
        (0..len)
            .map(|_| self.universe[(rng.next_u64() as usize) % self.universe.len()])
            .collect()
    }
}

impl Strategy for FstStrategy {
    type Value = seqlog_transducer::Fst;

    fn generate(&self, rng: &mut TestRng) -> seqlog_transducer::Fst {
        let n = 1 + (rng.next_u64() as usize) % self.max_states;
        let mut f = seqlog_transducer::Fst::new("rand", n);
        for q in 0..n as u32 {
            let n_arcs = (rng.next_u64() as usize) % (self.max_arcs_per_state + 1);
            for _ in 0..n_arcs {
                let input = self.universe[(rng.next_u64() as usize) % self.universe.len()];
                let output = self.word(rng);
                let next = (rng.next_u64() % n as u64) as u32;
                f.add_arc(q, input, output, next);
            }
            if rng.next_u64().is_multiple_of(3) {
                let out = self.word(rng);
                f.set_final(q, out);
            }
        }
        if (0..n as u32).all(|q| f.finals_of(q).is_empty()) {
            f.set_final(0, Vec::new());
        }
        f.normalize();
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_cases_parse_and_settle() {
        let mut rng = TestRng::from_name("generated_cases_parse_and_settle");
        let strat = cases();
        for _ in 0..32 {
            let case = strat.generate(&mut rng);
            assert!(case.fact_count() >= 1, "{case}");
            let out = batch_outcome(&case, &EvalConfig::default());
            assert!(out.failure().is_none(), "default budgets must fit: {case}");
        }
    }

    #[test]
    fn interleaved_cases_generate_effective_retractions() {
        let mut rng = TestRng::from_name("interleaved_cases_generate_effective_retractions");
        let strat = interleaved_cases_with_gd();
        let mut effective = 0usize;
        let mut noop_retracts = 0usize;
        for _ in 0..64 {
            let case = strat.generate(&mut rng);
            assert!(
                case.program.contains("gd"),
                "force_gd must include the ground-domain-sensitive shape:\n{case}"
            );
            assert!(!case.surviving_facts().is_empty() || case.op_count() > 0);
            effective += usize::from(case.has_effective_retract());
            noop_retracts += case
                .steps
                .iter()
                .flatten()
                .filter(|op| matches!(op, Op::Retract { .. }))
                .count();
        }
        assert!(
            effective >= 16,
            "only {effective}/64 cases retract an asserted fact — generator too weak"
        );
        assert!(noop_retracts > 0, "retract ops must occur at all");
    }

    #[test]
    fn surviving_facts_apply_set_semantics() {
        let op = |retract: bool, pred: &str, word: &str| {
            if retract {
                Op::Retract {
                    pred: pred.into(),
                    word: word.into(),
                }
            } else {
                Op::Assert {
                    pred: pred.into(),
                    word: word.into(),
                }
            }
        };
        let case = InterleavedCase {
            program: "t0(X) :- r0(X).\n".into(),
            steps: vec![
                vec![
                    op(false, "r0", "a"),
                    op(false, "r0", "b"),
                    op(false, "r0", "a"),
                ],
                vec![op(true, "r0", "a"), op(true, "r1", "zz")], // r1(zz): no-op
                vec![op(false, "r0", "a"), op(true, "r0", "b")],
            ],
        };
        assert!(case.has_effective_retract());
        assert_eq!(
            case.surviving_facts(),
            vec![("r0".to_string(), "a".to_string())],
            "assert/retract/re-assert leaves the fact live; b stays dead"
        );
    }

    #[test]
    fn interleaved_routes_agree_on_a_pinned_case() {
        // One deterministic domain-shrinking case, checked without the
        // fuzz harness: gd(X, X) ranges over the whole extended domain, so
        // retracting "ab" must drop its windows from gd.
        let mk = |pred: &str, word: &str, retract: bool| {
            if retract {
                Op::Retract {
                    pred: pred.into(),
                    word: word.into(),
                }
            } else {
                Op::Assert {
                    pred: pred.into(),
                    word: word.into(),
                }
            }
        };
        let case = InterleavedCase {
            program: "gd0(X, X) :- true.\nsuf0(X[N:end]) :- r0(X).\n".into(),
            steps: vec![
                vec![mk("r0", "ab", false), mk("r0", "c", false)],
                vec![mk("r0", "ab", true)],
            ],
        };
        let config = EvalConfig::default();
        let oracle = surviving_batch_outcome(&case, &config)
            .extents_sorted_nonempty()
            .expect("oracle settles");
        let session = interleaved_outcome(&case, &config)
            .extents_sorted_nonempty()
            .expect("session settles");
        assert_eq!(session, oracle);
        // And the shrink really happened: gd0 holds only ε and "c" pairs.
        assert_eq!(oracle["gd0"].len(), 2);
    }

    #[test]
    fn shapes_cover_all_kinds() {
        // Pin the shape table: each kind emits at least one clause and
        // parses on its own.
        for kind in 0..SHAPE_COUNT {
            let mut src = String::new();
            shape_clauses(kind, 0, 0, &mut src);
            assert!(!src.is_empty());
            let mut e = Engine::new();
            e.parse_program(&src).unwrap_or_else(|err| {
                panic!("shape {kind} must parse: {err}\n{src}");
            });
        }
    }
}
