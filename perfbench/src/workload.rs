//! What every workload has in common: a generated [`Spec`] (program, base
//! facts, expected extents and a script of operations, all derived from the
//! seed), and [`run`], which drives a spec through the engine's public API
//! and checks every answer against the spec's expectations.
//!
//! One run, in order:
//! 1. Set-up of the serving session from a fresh engine: parse, open a
//!    session, load the base facts, run to the fixpoint, attach durability
//!    with the default `DurabilityOptions` (flush to the OS per record, no
//!    fsync, a snapshot every 64 records).
//! 2. One warm-up point query, so the per-adornment magic program is cached
//!    before timing (a session pays that once).
//! 3. The script: a closed loop of one client issuing batch evaluations,
//!    point queries, updates and retractions, each timed on its own. Spread
//!    over the loop, `SETUPS - 1` more set-ups from scratch and about
//!    `RECOVERIES` recoveries (`open_durable`) of a copy of the serving
//!    session's durable directory.
//!
//! The traced run does the same and additionally records spans, counts
//! layer work, alternates traced and untraced operations (their latency gap
//! is the tracing overhead) and times a few layer calls on their own.

use crate::metrics::Report;
use crate::trace::Tracer;
use crate::util::{mean, median, ratio, tail, Extent};
use seqlog_core::prelude::*;
use seqlog_core::snapshot::{list_snapshots, SessionSnapshot};
use seqlog_core::wal::{read_wal, WalReadOptions, WAL_FILE};
use seqlog_core::EvalStats;
use seqlog_transducer::library;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run: the serving session's plus extra ones spread over the
/// loop.
const SETUPS: usize = 9;
/// Recoveries per run, spread over the loop.
const RECOVERIES: usize = 6;
/// Log records past the newest snapshot that each recovery replays (ten
/// cycles of update, run and retract records).
const RECOVERY_TAIL: u64 = 30;
/// Repetitions of each standalone layer probe in the traced run.
const PROBES: usize = 3;
/// Alternating threads=1 / default batch evaluations for the parallel gain.
const GAIN_PAIRS: usize = 5;

/// A base or update fact: predicate and string arguments.
pub type Fact = (&'static str, Vec<String>);

pub enum Op {
    /// Batch evaluation (`Engine::evaluate_with`) of the base database.
    /// `full` also renders and digests every extent of the model; otherwise
    /// only the fact count is checked.
    Eval { full: bool },
    /// `query_bound(pred, [Bound(key), Free])`.
    Query {
        pred: &'static str,
        key: String,
        expect: Extent,
    },
    /// `assert_facts(facts)` then `run()`; the session must then hold
    /// `expect_facts` facts.
    Update {
        facts: Vec<Fact>,
        expect_facts: usize,
    },
    /// `retract_fact` of a fact an earlier update added.
    Retract { fact: Fact, expect_facts: usize },
}

pub struct Spec {
    pub program: &'static str,
    /// Register the Example 7.1 `transcribe`/`translate` machines.
    pub transducers: bool,
    pub base: Vec<Fact>,
    /// Every predicate's extent once the base facts are settled.
    pub settled: Vec<(&'static str, Extent)>,
    pub settled_facts: usize,
    pub warm_query: Op,
    pub cycles: Vec<Vec<Op>>,
    /// Inputs of the standalone transducer-network probe.
    pub reads: Vec<String>,
    /// Per read, the protein the oracle expects from the network.
    pub proteins: Vec<String>,
}

fn engine(spec: &Spec) -> Engine {
    let mut e = Engine::new();
    if spec.transducers {
        let transcribe = library::transcribe(&mut e.alphabet);
        let translate = library::translate(&mut e.alphabet);
        e.register_transducer("transcribe", transcribe);
        e.register_transducer("translate", translate);
    }
    e
}

fn arg_refs(facts: &[Fact]) -> Vec<Vec<&str>> {
    facts
        .iter()
        .map(|(_, a)| a.iter().map(String::as_str).collect())
        .collect()
}

fn fact_refs<'a>(facts: &'a [Fact], args: &'a [Vec<&'a str>]) -> Vec<(&'a str, &'a [&'a str])> {
    facts
        .iter()
        .zip(args)
        .map(|((p, _), a)| (*p, a.as_slice()))
        .collect()
}

fn user_bytes(facts: &[Fact]) -> usize {
    facts
        .iter()
        .map(|(_, a)| a.iter().map(String::len).sum::<usize>())
        .sum()
}

/// Rendered extent of `pred`, streamed row by row.
fn extent(
    rel: Option<&seqlog_core::eval::interp::Relation>,
    render: impl Fn(SeqId) -> String,
) -> Extent {
    let mut e = Extent::default();
    if let Some(rel) = rel {
        for t in rel.iter() {
            let row: Vec<String> = t.iter().map(|&id| render(id)).collect();
            e.add(&row);
        }
    }
    e
}

fn session_extents(spec: &Spec, s: &EngineSession) -> Vec<Extent> {
    spec.settled
        .iter()
        .map(|(p, _)| extent(s.relation(p), |id| s.render(id)))
        .collect()
}

fn expected_extents(spec: &Spec) -> Vec<Extent> {
    spec.settled.iter().map(|(_, e)| *e).collect()
}

/// Latency samples (ms) per operation kind.
#[derive(Default)]
struct Samples {
    eval: Vec<f64>,
    query: Vec<f64>,
    update: Vec<f64>,
    retract: Vec<f64>,
}

impl Samples {
    fn of(&mut self, op: &Op) -> &mut Vec<f64> {
        match op {
            Op::Eval { .. } => &mut self.eval,
            Op::Query { .. } => &mut self.query,
            Op::Update { .. } => &mut self.update,
            Op::Retract { .. } => &mut self.retract,
        }
    }

    /// Each kind's samples with the names of its mean and tail metrics.
    fn kinds(&self) -> [(&'static str, &'static str, &Vec<f64>); 4] {
        [
            ("eval_ms_mean", "eval_ms_tail", &self.eval),
            ("query_ms_mean", "query_ms_tail", &self.query),
            ("update_ms_mean", "update_ms_tail", &self.update),
            ("retract_ms_mean", "retract_ms_tail", &self.retract),
        ]
    }
}

/// Layer counters and standalone probe timings gathered in the traced run.
#[derive(Default)]
struct Counters {
    eval_stats: EvalStats,
    retracts: u64,
    dred_derivations: u64,
    dred_removed: u64,
    checkpoints: u64,
    newest_snapshot: u64,
    wal_read_ms: Vec<f64>,
    snapshot_read_ms: Vec<f64>,
}

struct Live<'a> {
    spec: &'a Spec,
    base: &'a [(&'a str, &'a [&'a str])],
    work: &'a Path,
    traced: bool,
    tr: Tracer,
    report: Report,
    session: EngineSession,
    dir: PathBuf,
    batch: Engine,
    batch_program: Program,
    db: Database,
    counters: Counters,
}

impl Live<'_> {
    /// Run one operation, check it, and return its latency in ms.
    fn op(&mut self, op: &Op) -> f64 {
        let before = self.traced.then(|| self.session.stats());
        let (ms, ok, what) = match op {
            Op::Eval { full } => {
                let t0 = Instant::now();
                let root = self.tr.begin("bench.eval");
                let out = self.tr.span("eval.evaluate", || {
                    self.batch
                        .evaluate_with(&self.batch_program, &self.db, &EvalConfig::default())
                });
                self.tr.end(root);
                let ms = ms_since(t0);
                match out {
                    Ok(model) => {
                        self.counters.eval_stats = model.stats;
                        let mut ok = model.stats.facts == self.spec.settled_facts;
                        if *full {
                            let got: Vec<Extent> = self
                                .spec
                                .settled
                                .iter()
                                .map(|(p, _)| {
                                    extent(model.facts.relation_named(p), |id| {
                                        self.batch.render(id)
                                    })
                                })
                                .collect();
                            ok &= got == expected_extents(self.spec);
                        }
                        (ms, ok, format!("eval: {} facts", model.stats.facts))
                    }
                    Err(e) => (ms, false, format!("eval: {e}")),
                }
            }
            Op::Query { pred, key, expect } => {
                let t0 = Instant::now();
                let root = self.tr.begin("bench.query");
                let out = self.tr.span("magic.query_bound", || {
                    self.session
                        .query_bound(pred, &[Bind::Bound(key), Bind::Free])
                });
                self.tr.end(root);
                let ms = ms_since(t0);
                match out {
                    Ok(rows) => {
                        let got = Extent::of(&rows);
                        (
                            ms,
                            got == *expect,
                            format!("query {pred}({key}, _): {got:?} != {expect:?}"),
                        )
                    }
                    Err(e) => (ms, false, format!("query {pred}({key}, _): {e}")),
                }
            }
            Op::Update {
                facts,
                expect_facts,
            } => {
                let args = arg_refs(facts);
                let refs = fact_refs(facts, &args);
                let t0 = Instant::now();
                let root = self.tr.begin("bench.update");
                let out = self
                    .tr
                    .span("sequence.assert", || self.session.assert_facts(&refs))
                    .and_then(|_| self.tr.span("eval.run", || self.session.run()));
                self.tr.end(root);
                let ms = ms_since(t0);
                match out {
                    Ok(stats) => (
                        ms,
                        stats.facts == *expect_facts,
                        format!("update: {} facts, expected {expect_facts}", stats.facts),
                    ),
                    Err(e) => (ms, false, format!("update: {e}")),
                }
            }
            Op::Retract {
                fact: (pred, args),
                expect_facts,
            } => {
                let args: Vec<&str> = args.iter().map(String::as_str).collect();
                let t0 = Instant::now();
                let root = self.tr.begin("bench.retract");
                let out = self
                    .tr
                    .span("dred.retract", || self.session.retract_fact(pred, &args));
                self.tr.end(root);
                let ms = ms_since(t0);
                let facts = self.session.stats().facts;
                match out {
                    Ok(took) => (
                        ms,
                        took && facts == *expect_facts,
                        format!("retract {pred}{args:?}: took={took}, {facts} facts, expected {expect_facts}"),
                    ),
                    Err(e) => (ms, false, format!("retract {pred}{args:?}: {e}")),
                }
            }
        };
        self.report.check(ok, || what);
        if let Some(before) = before {
            self.count_layers(op, before);
        }
        ms
    }

    /// Traced run only, outside the timed region: DRed work per retraction
    /// and automatic checkpoints (a new newest snapshot file).
    fn count_layers(&mut self, op: &Op, before: EvalStats) {
        let after = self.session.stats();
        if let Op::Retract { .. } = op {
            self.counters.retracts += 1;
            self.counters.dred_derivations += after.derivations - before.derivations;
            self.counters.dred_removed += before.facts.saturating_sub(after.facts) as u64;
        }
        let newest = newest_snapshot(&self.dir).map_or(0, |(c, _)| c);
        if newest != self.counters.newest_snapshot {
            self.counters.checkpoints += 1;
            self.counters.newest_snapshot = newest;
        }
    }

    /// One more set-up from scratch beside the serving session, checked and
    /// then thrown away. Returns its time in seconds.
    fn extra_setup(&mut self) -> f64 {
        let dir = self.work.join("setup");
        let _ = std::fs::remove_dir_all(&dir);
        let (secs, session) = timed_setup(self.spec, &mut self.tr, self.base, &dir);
        let want = self.spec.settled_facts;
        match session.map(|s| s.stats().facts) {
            Ok(facts) => self.report.check(facts == want, || {
                format!("setup: {facts} facts, expected {want}")
            }),
            Err(err) => self.report.check(false, || format!("setup: {err}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
        secs
    }

    /// Recover a copy of the serving session's durable directory, taken
    /// between two cycles (so the session holds exactly the settled state),
    /// and check the recovered extents. Returns the recovery time in
    /// seconds. The copy is what a process killed at that moment leaves:
    /// every record is flushed to the OS before it is acknowledged.
    fn recover_copy(&mut self) -> Result<f64, String> {
        let dir = self.work.join("recovered");
        let _ = std::fs::remove_dir_all(&dir);
        copy_dir(&self.dir, &dir).map_err(|e| format!("copy {}: {e}", self.dir.display()))?;
        if self.traced {
            let t0 = Instant::now();
            let wal = self.tr.span("wal.read", || {
                read_wal(&dir.join(WAL_FILE), &WalReadOptions::default())
            });
            self.counters.wal_read_ms.push(ms_since(t0));
            self.report
                .check(wal.is_ok(), || "read_wal failed".to_string());
            if let Some((_, path)) = newest_snapshot(&dir) {
                let t0 = Instant::now();
                let snap = self
                    .tr
                    .span("snapshot.read", || SessionSnapshot::read(&path));
                self.counters.snapshot_read_ms.push(ms_since(t0));
                self.report
                    .check(snap.is_ok(), || "snapshot read failed".to_string());
            }
        }
        let mut e = engine(self.spec);
        let program = e
            .parse_program(self.spec.program)
            .map_err(|err| format!("parse: {err:?}"))?;
        let t0 = Instant::now();
        let root = self.tr.begin("bench.recover");
        let out = self.tr.span("session.open_durable", || {
            EngineSession::open_durable(
                e,
                &program,
                EvalConfig::default(),
                &dir,
                DurabilityOptions::default(),
            )
        });
        self.tr.end(root);
        let secs = t0.elapsed().as_secs_f64();
        match out {
            Ok(s) => {
                let facts = s.stats().facts;
                let same = facts == self.spec.settled_facts
                    && session_extents(self.spec, &s) == expected_extents(self.spec);
                self.report.check(same, || {
                    format!("recovery: {facts} facts, or extents differ from the oracle")
                });
            }
            Err(err) => self.report.check(false, || format!("recovery: {err}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(secs)
    }
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

fn newest_snapshot(dir: &Path) -> Option<(u64, PathBuf)> {
    list_snapshots(dir).ok()?.into_iter().next()
}

/// One set-up: parse, open, load, settle, attach durability under `dir`.
fn setup(
    spec: &Spec,
    tr: &mut Tracer,
    base: &[(&str, &[&str])],
    dir: &Path,
) -> Result<EngineSession, String> {
    let mut e = engine(spec);
    let program = tr
        .span("parser.parse", || e.parse_program(spec.program))
        .map_err(|err| format!("parse: {err:?}"))?;
    let mut s = tr
        .span("session.open", || {
            e.into_session(&program, EvalConfig::default())
        })
        .map_err(|err| format!("open: {err}"))?;
    tr.span("sequence.load", || s.assert_facts(base))
        .map_err(|err| format!("load: {err}"))?;
    tr.span("eval.run", || s.run())
        .map_err(|err| format!("settle: {err}"))?;
    tr.span("snapshot.make_durable", || {
        s.make_durable(dir, DurabilityOptions::default())
    })
    .map_err(|err| format!("make durable: {err}"))?;
    Ok(s)
}

fn timed_setup(
    spec: &Spec,
    tr: &mut Tracer,
    base: &[(&str, &[&str])],
    dir: &Path,
) -> (f64, Result<EngineSession, String>) {
    let t0 = Instant::now();
    let root = tr.begin("bench.setup");
    let session = setup(spec, tr, base, dir);
    tr.end(root);
    (t0.elapsed().as_secs_f64(), session)
}

fn spread_note(samples: &[f64]) -> String {
    let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = samples.iter().copied().fold(0.0, f64::max);
    format!(" of {}, min {lo:.4}, max {hi:.4}", samples.len())
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// True at `k` evenly spaced cycles out of `n` (the last cycle among them).
fn spaced(c: usize, k: usize, n: usize) -> bool {
    (c + 1) * k / n != c * k / n
}

/// Drive `spec` once. The loop stops early, with fewer samples, once it has
/// run for `cap`. `work` is a scratch directory the run owns; `trace_out`
/// receives the spans of a traced run.
pub fn run(
    spec: &Spec,
    traced: bool,
    cap: Duration,
    work: &Path,
    trace_out: &Path,
) -> Result<Report, String> {
    let mut tr = Tracer::new(traced);
    let mut report = Report::default();
    let base_args = arg_refs(&spec.base);
    let base = fact_refs(&spec.base, &base_args);

    // 1. The serving session; its set-up is the first set-up sample.
    let dir = work.join("live");
    let (secs, session) = timed_setup(spec, &mut tr, &base, &dir);
    let mut setup_s = vec![secs];
    let session = session?;
    let settled = session.stats();
    report.check(settled.facts == spec.settled_facts, || {
        format!(
            "setup: {} facts, expected {}",
            settled.facts, spec.settled_facts
        )
    });
    let got = session_extents(spec, &session);
    report.check(got == expected_extents(spec), || {
        "settled session: extents differ from the oracle".to_string()
    });
    let fused = tr.span("analysis.report", || {
        session.report().fusion.iter().filter(|d| d.applied).count()
    });

    // The batch engine behind `Op::Eval`, loaded once.
    let mut batch = engine(spec);
    let batch_program = batch
        .parse_program(spec.program)
        .map_err(|err| format!("parse: {err:?}"))?;
    let mut db = Database::new();
    for (pred, args) in &base {
        batch.add_fact(&mut db, pred, args);
    }

    let mut live = Live {
        spec,
        base: &base,
        work,
        traced,
        tr,
        report,
        session,
        dir,
        batch,
        batch_program,
        db,
        counters: Counters::default(),
    };
    live.counters.newest_snapshot = newest_snapshot(&live.dir).map_or(0, |(c, _)| c);

    // 2. Warm the per-adornment magic cache; the second, warm run of the
    //    same query is the baseline for the transform's cost.
    let cold_ms = live.op(&spec.warm_query);
    let warm_ms = live.op(&spec.warm_query);

    // 3. The measured loop. The traced run records spans on every other
    //    operation of each kind, so the others give the untraced latencies
    //    it compares with. Further set-ups and recoveries are spread over
    //    the loop, so a burst of load on the host cannot fall on all of them.
    let wal_start = live.session.wal_len().unwrap_or(0);
    let records_start = live.session.durable_records().unwrap_or(0);
    let mut untraced = Samples::default();
    let mut with_spans = Samples::default();
    let mut recovery_s = Vec::new();
    let (mut due, mut last_recovered) = (0usize, None);
    // A run with fewer snapshots than `RECOVERIES` recovers each copy more
    // than once (updates log two records, retractions one).
    let records: usize = spec
        .cycles
        .iter()
        .flatten()
        .map(|op| match op {
            Op::Update { .. } => 2,
            Op::Retract { .. } => 1,
            Op::Eval { .. } | Op::Query { .. } => 0,
        })
        .sum();
    let snapshots = records / DurabilityOptions::default().snapshot_every.max(1);
    let repeats = RECOVERIES.div_ceil(snapshots.clamp(1, RECOVERIES));
    let mut user = 0usize;
    let n = spec.cycles.len();
    let loop_start = Instant::now();
    for (c, cycle) in spec.cycles.iter().enumerate() {
        if loop_start.elapsed() > cap {
            println!("# loop stopped after {c} of {n} cycles: over {cap:?}");
            break;
        }
        for op in cycle {
            let spans_on = traced && with_spans.of(op).len() <= untraced.of(op).len();
            live.tr.set_enabled(spans_on);
            let ms = live.op(op);
            if spans_on {
                with_spans.of(op).push(ms);
            } else {
                untraced.of(op).push(ms);
            }
            user += match op {
                Op::Update { facts, .. } => user_bytes(facts),
                Op::Retract { fact, .. } => user_bytes(std::slice::from_ref(fact)),
                Op::Eval { .. } | Op::Query { .. } => 0,
            };
        }
        live.tr.set_enabled(traced);
        if spaced(c, SETUPS - 1, n) {
            setup_s.push(live.extra_setup());
        }
        // A recovery falls due at evenly spaced cycles and runs at the next
        // cycle boundary where the log holds at least `RECOVERY_TAIL`
        // records past the newest snapshot, once per snapshot: every
        // sample then replays the same length of log.
        due += usize::from(spaced(c, RECOVERIES, n));
        let covered = newest_snapshot(&live.dir).map_or(0, |(c, _)| c);
        let tail = live.session.durable_records().unwrap_or(0) - covered;
        if due > 0 && tail >= RECOVERY_TAIL && last_recovered != Some(covered) {
            for _ in 0..repeats.min(RECOVERIES - recovery_s.len()) {
                recovery_s.push(live.recover_copy()?);
            }
            due -= 1;
            last_recovered = Some(covered);
        }
    }
    if recovery_s.is_empty() {
        // Too short a run to reach the tail length (the smoke test).
        recovery_s.push(live.recover_copy()?);
    }
    println!(
        "# measured loop: {:.2} s for {n} cycles",
        loop_start.elapsed().as_secs_f64()
    );
    let wal_growth = live.session.wal_len().unwrap_or(0) - wal_start;
    let wal_records = live.session.durable_records().unwrap_or(0) - records_start;

    let mut snapshot_ms = Vec::new();
    let mut checkpoint_ms = Vec::new();
    if traced {
        for _ in 0..PROBES {
            let t0 = Instant::now();
            let model = live.tr.span("session.snapshot", || live.session.snapshot());
            snapshot_ms.push(ms_since(t0));
            drop(model);
        }
        for _ in 0..PROBES {
            let t0 = Instant::now();
            let out = live
                .tr
                .span("snapshot.checkpoint", || live.session.checkpoint());
            checkpoint_ms.push(ms_since(t0));
            live.report
                .check(out.is_ok(), || "checkpoint failed".to_string());
        }
    }
    let snapshot_bytes = newest_snapshot(&live.dir)
        .and_then(|(_, path)| std::fs::metadata(path).ok())
        .map_or(0, |m| m.len());
    let Live {
        mut tr,
        mut report,
        session,
        mut batch,
        batch_program,
        db,
        counters,
        ..
    } = live;
    drop(session);

    // End-to-end metrics, from untraced samples only.
    report.set_noted(
        "setup_s",
        median(&setup_s),
        format!(" (median{})", spread_note(&setup_s)),
    );
    report.set("peak_rss_mb", crate::util::peak_rss_mb().unwrap_or(0.0));
    let mut busy_ms = 0.0;
    let mut ops = 0usize;
    for (mean_name, tail_name, v) in untraced.kinds() {
        let (t, pct) = tail(v);
        report.set_noted(
            mean_name,
            mean(v),
            format!(" ({} samples, median {})", v.len(), median(v)),
        );
        report.set_noted(tail_name, t, format!(" (p{pct:.1} of {} samples)", v.len()));
        busy_ms += v.iter().sum::<f64>();
        ops += v.len();
    }
    report.set_noted(
        "ops_per_s",
        ratio(ops as f64, busy_ms / 1e3),
        format!(" ({ops} operations)"),
    );
    report.set_noted(
        "recovery_s",
        mean(&recovery_s),
        format!(" (mean{})", spread_note(&recovery_s)),
    );

    if traced {
        let s = counters.eval_stats;
        let base_facts = spec.base.len() as f64;
        let run_ms = median(&tr.durations("eval.evaluate"));
        report.set("parser.parse_ms", median(&tr.durations("parser.parse")));
        report.set("session.open_ms", median(&tr.durations("session.open")));
        report.set("analysis.fused_chains", fused as f64);
        report.set("sequence.load_ms", median(&tr.durations("sequence.load")));
        report.set("sequence.domain_members", settled.domain_size as f64);
        let base_symbols: usize = spec
            .base
            .iter()
            .map(|(_, a)| a.iter().map(|w| w.chars().count()).sum::<usize>())
            .sum();
        report.set(
            "sequence.members_per_base_symbol",
            ratio(settled.domain_size as f64, base_symbols as f64),
        );
        report.set("eval.run_ms", run_ms);
        report.set("eval.resume_ms", median(&tr.durations("eval.run")));
        report.set("eval.rounds", s.rounds as f64);
        report.set("eval.derivations", s.derivations as f64);
        report.set(
            "eval.admit_ratio",
            ratio(s.facts as f64 - base_facts, s.derivations as f64),
        );
        report.set(
            "eval.derivations_per_s",
            ratio(s.derivations as f64, run_ms / 1e3),
        );

        // Parallel gain: threads=1 against the default on the same input.
        let (mut one, mut dflt) = (Vec::new(), Vec::new());
        for _ in 0..GAIN_PAIRS {
            for (threads, into) in [(1, &mut one), (0, &mut dflt)] {
                let t0 = Instant::now();
                let out = tr.span("eval.evaluate", || {
                    batch.evaluate_with(&batch_program, &db, &EvalConfig::with_threads(threads))
                });
                into.push(ms_since(t0));
                let facts = out.map(|m| m.stats.facts).unwrap_or(0);
                report.check(facts == spec.settled_facts, || {
                    format!("eval at threads={threads}: {facts} facts")
                });
            }
        }
        report.set_noted(
            "eval.parallel_gain",
            ratio(median(&one), median(&dflt)),
            format!(" ({} / {} ms)", median(&one), median(&dflt)),
        );

        report.set("transducer.calls", s.transducer_calls as f64);
        report.set("transducer.steps", s.transducer_steps as f64);
        report.set(
            "transducer.steps_per_call",
            ratio(s.transducer_steps as f64, s.transducer_calls as f64),
        );
        let exec_ms = transducer_probe(spec, &mut tr, &mut report);
        report.set("transducer.exec_ms", exec_ms);

        report.set_noted(
            "magic.transform_ms",
            cold_ms - warm_ms,
            format!(" (first query {cold_ms} ms, same query warm {warm_ms} ms)"),
        );
        report.set("session.snapshot_ms", median(&snapshot_ms));
        report.set(
            "dred.derivations_per_retract",
            ratio(counters.dred_derivations as f64, counters.retracts as f64),
        );
        report.set(
            "dred.facts_removed_per_retract",
            ratio(counters.dred_removed as f64, counters.retracts as f64),
        );
        report.set("wal.records", wal_records as f64);
        report.set(
            "wal.bytes_per_user_byte",
            ratio(wal_growth as f64, user as f64),
        );
        report.set("wal.read_ms", median(&counters.wal_read_ms));
        report.set("snapshot.checkpoints", counters.checkpoints as f64);
        report.set("snapshot.checkpoint_ms", median(&checkpoint_ms));
        report.set("snapshot.read_ms", median(&counters.snapshot_read_ms));
        report.set(
            "snapshot.bytes_per_fact",
            ratio(snapshot_bytes as f64, spec.settled_facts as f64),
        );

        let (mut on, mut off) = (0.0, 0.0);
        for ((_, _, t), (_, _, u)) in with_spans.kinds().iter().zip(untraced.kinds()) {
            on += median(t);
            off += median(u);
        }
        report.set("trace.overhead_pct", 100.0 * (ratio(on, off) - 1.0));
        let by_layer = tr.self_time_by_layer();
        for name in [
            "bench.self_ms",
            "parser.self_ms",
            "session.self_ms",
            "analysis.self_ms",
            "sequence.self_ms",
            "eval.self_ms",
            "transducer.self_ms",
            "magic.self_ms",
            "dred.self_ms",
            "wal.self_ms",
            "snapshot.self_ms",
        ] {
            let layer = name.trim_end_matches(".self_ms");
            report.set(name, by_layer.get(layer).copied().unwrap_or(0.0));
        }
        tr.write_jsonl(trace_out)
            .map_err(|err| format!("write {}: {err}", trace_out.display()))?;
    }
    Ok(report)
}

/// The standalone transcribe→translate network over the workload's reads:
/// checks each output against the oracle and returns the median time of a
/// full pass (ms).
fn transducer_probe(spec: &Spec, tr: &mut Tracer, report: &mut Report) -> f64 {
    let mut alphabet = Alphabet::new();
    let net = Network::chain(
        "dna_to_protein",
        vec![
            library::transcribe(&mut alphabet),
            library::translate(&mut alphabet),
        ],
    );
    let reads: Vec<Vec<Sym>> = spec.reads.iter().map(|r| alphabet.seq_of_str(r)).collect();
    let mut times = Vec::new();
    for rep in 0..PROBES {
        let t0 = Instant::now();
        let outs: Vec<_> = tr.span("transducer.exec", || {
            reads.iter().map(|r| net.run_simple(&[r])).collect()
        });
        times.push(ms_since(t0));
        if rep == 0 {
            let ok = outs
                .iter()
                .zip(&spec.proteins)
                .all(|(out, want)| out.as_ref().is_ok_and(|o| alphabet.render(o) == *want));
            report.check(ok, || {
                "standalone network disagrees with the oracle".to_string()
            });
        }
    }
    median(&times)
}
