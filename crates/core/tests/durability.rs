//! Pinned regression tests for the durability layer: write-ahead logging,
//! snapshots, crash recovery, abort compensation, corruption handling, and
//! poisoned-session recovery ([`EngineSession::recover`]).
//!
//! The fuzz-scale counterpart (crash injection at fuzzed byte offsets over
//! generated assert/retract interleavings) lives at the workspace root in
//! `tests/fuzz_recovery.rs`; this file pins the individual behaviors with
//! hand-built cases so a failure names the broken mechanism directly.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use seqlog_core::database::Database;
use seqlog_core::engine::Engine;
use seqlog_core::eval::{BudgetKind, EvalConfig, EvalError, EvalStats};
use seqlog_core::session::{DurabilityOptions, EngineSession};
use seqlog_core::wal::{RecoveryError, WAL_FILE, WAL_HEADER_LEN};

/// Self-cleaning temp dir (the core crate cannot depend on `seqlog-testkit`
/// — testkit depends on core — so the helper is duplicated here, small).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("seqlog-core-{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).expect("create temp dir");
        TempDir(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

const SRC: &str = r#"
    t(X) :- r(X).
    t(X[2:end]) :- t(X), X != "".
    pair(X, Y) :- t(X), t(Y).
"#;

fn open_durable(
    src: &str,
    config: EvalConfig,
    dir: &Path,
    opts: DurabilityOptions,
) -> EngineSession {
    let mut e = Engine::new();
    let p = e.parse_program(src).unwrap();
    EngineSession::open_durable(e, &p, config, dir, opts).unwrap()
}

fn try_open_durable(
    src: &str,
    config: EvalConfig,
    dir: &Path,
    opts: DurabilityOptions,
) -> Result<EngineSession, EvalError> {
    let mut e = Engine::new();
    let p = e.parse_program(src).unwrap();
    EngineSession::open_durable(e, &p, config, dir, opts)
}

/// Insertion-order extents (empty relations dropped) plus stats: the
/// bit-for-bit state view recovery is compared on.
fn state(s: &EngineSession) -> (BTreeMap<String, Vec<Vec<String>>>, EvalStats) {
    let mut extents: BTreeMap<String, Vec<Vec<String>>> = s
        .predicates()
        .map(|p| (p.to_string(), s.query(p)))
        .collect();
    extents.retain(|_, v| !v.is_empty());
    (extents, s.stats())
}

#[test]
fn durable_reopen_round_trips_bit_for_bit() {
    let dir = TempDir::new("roundtrip");
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    s.assert_fact("r", &["abcab"]).unwrap();
    s.assert_fact("r", &["bc"]).unwrap();
    s.run().unwrap();
    s.retract_fact("r", &["bc"]).unwrap();
    s.assert_fact("r", &["ca"]).unwrap();
    s.run().unwrap();
    let live = state(&s);
    drop(s); // simulated clean exit; a kill leaves the same files
    let recovered = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    assert_eq!(state(&recovered), live);
    assert!(recovered.is_durable());
}

#[test]
fn recovery_resumes_pending_asserts_through_the_watermarks() {
    // Crash between an assert and its run: the recovered session must hold
    // the fact as *pending* and derive from it on the next run — the
    // watermark-restoration contract.
    let dir = TempDir::new("pending");
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    s.assert_fact("r", &["ab"]).unwrap();
    s.run().unwrap();
    s.assert_fact("r", &["cc"]).unwrap(); // never run before the "crash"
    drop(s);
    let mut recovered = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    recovered.run().unwrap();

    let mut oracle = open_durable(
        SRC,
        EvalConfig::default(),
        TempDir::new("pending-oracle").path(),
        Default::default(),
    );
    oracle.assert_fact("r", &["ab"]).unwrap();
    oracle.run().unwrap();
    oracle.assert_fact("r", &["cc"]).unwrap();
    oracle.run().unwrap();
    assert_eq!(state(&recovered), state(&oracle));
    assert!(recovered
        .query("t")
        .iter()
        .any(|t| t == &vec!["cc".to_string()]));
}

#[test]
fn torn_tail_is_truncated_to_the_last_complete_record() {
    let dir = TempDir::new("torn");
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    s.assert_fact("r", &["ab"]).unwrap();
    s.run().unwrap();
    let settled = state(&s);
    let settled_len = s.wal_len().unwrap();
    s.assert_fact("r", &["cccc"]).unwrap();
    drop(s);

    // Kill mid-append: cut the last record in half.
    let wal = dir.path().join(WAL_FILE);
    let bytes = fs::read(&wal).unwrap();
    let cut = settled_len as usize + (bytes.len() - settled_len as usize) / 2;
    fs::write(&wal, &bytes[..cut]).unwrap();

    let recovered = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    assert_eq!(state(&recovered), settled, "torn record must vanish whole");
    assert_eq!(
        fs::metadata(&wal).unwrap().len(),
        settled_len,
        "reopen must truncate the torn bytes away"
    );
}

#[test]
fn interior_corruption_is_a_recovery_error_not_a_truncation() {
    let dir = TempDir::new("interior");
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    let first_len = {
        s.assert_fact("r", &["ab"]).unwrap();
        s.wal_len().unwrap()
    };
    s.run().unwrap();
    drop(s);

    // Remove every snapshot so recovery must replay from the log start —
    // then flip a byte inside the *first* record (interior, not tail).
    for entry in fs::read_dir(dir.path()).unwrap().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("snap-") {
            fs::remove_file(entry.path()).unwrap();
        }
    }
    let wal = dir.path().join(WAL_FILE);
    let mut bytes = fs::read(&wal).unwrap();
    let mid = (WAL_HEADER_LEN as usize + first_len as usize) / 2;
    bytes[mid] ^= 0x01;
    fs::write(&wal, &bytes).unwrap();

    // No snapshot at all → recovery refuses outright (Mismatch); put back a
    // fresh empty-state snapshot by re-creating the scenario instead: with
    // the corrupt record interior and no usable snapshot the error must be
    // a clean RecoveryError either way, never a panic or a silent model.
    match try_open_durable(SRC, EvalConfig::default(), dir.path(), Default::default()) {
        Err(EvalError::Recovery(RecoveryError::Corrupt { .. }))
        | Err(EvalError::Recovery(RecoveryError::Mismatch { .. })) => {}
        other => panic!(
            "expected a clean recovery error, got {:?}",
            other.map(|_| "a recovered session")
        ),
    }
}

#[test]
fn interior_corruption_with_a_valid_snapshot_is_corrupt() {
    // Same flip, snapshots left in place: the reader still walks the whole
    // log and must report the interior CRC failure as corruption rather
    // than truncating committed history at the flipped record.
    let dir = TempDir::new("interior2");
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    let first_len = {
        s.assert_fact("r", &["ab"]).unwrap();
        s.wal_len().unwrap()
    };
    s.run().unwrap();
    drop(s);
    let wal = dir.path().join(WAL_FILE);
    let mut bytes = fs::read(&wal).unwrap();
    let mid = (WAL_HEADER_LEN as usize + first_len as usize) / 2;
    bytes[mid] ^= 0x01;
    fs::write(&wal, &bytes).unwrap();
    match try_open_durable(SRC, EvalConfig::default(), dir.path(), Default::default()) {
        Err(EvalError::Recovery(RecoveryError::Corrupt { .. })) => {}
        other => panic!(
            "expected Corrupt, got {:?}",
            other.map(|_| "a recovered session")
        ),
    }
}

#[test]
fn snapshot_corruption_falls_back_to_an_older_snapshot() {
    let dir = TempDir::new("snapfall");
    let opts = DurabilityOptions {
        snapshot_every: 1, // snapshot after every record
        ..Default::default()
    };
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), opts.clone());
    s.assert_fact("r", &["abc"]).unwrap();
    s.run().unwrap();
    let live = state(&s);
    drop(s);

    // Corrupt the *newest* snapshot; recovery must fall back to an older
    // one and make up the difference by replaying more of the log.
    let mut snaps: Vec<PathBuf> = fs::read_dir(dir.path())
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .unwrap()
                .to_string_lossy()
                .starts_with("snap-")
        })
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 2, "cadence 1 must leave several snapshots");
    let newest = snaps.last().unwrap();
    let mut bytes = fs::read(newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(newest, &bytes).unwrap();

    let recovered = open_durable(SRC, EvalConfig::default(), dir.path(), opts);
    assert_eq!(state(&recovered), live);
}

#[test]
fn crash_inside_the_header_is_a_clean_error() {
    // A kill during make_durable itself: less than a full header on disk.
    let dir = TempDir::new("header");
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    s.assert_fact("r", &["ab"]).unwrap();
    drop(s);
    let wal = dir.path().join(WAL_FILE);
    let bytes = fs::read(&wal).unwrap();
    fs::write(&wal, &bytes[..(WAL_HEADER_LEN as usize) / 2]).unwrap();
    match try_open_durable(SRC, EvalConfig::default(), dir.path(), Default::default()) {
        Err(EvalError::Recovery(RecoveryError::Corrupt { .. })) => {}
        other => panic!(
            "expected Corrupt for a torn header, got {:?}",
            other.map(|_| "a recovered session")
        ),
    }
}

#[test]
fn poisoned_session_recovers_with_raised_budgets() {
    // Satellite (a): EvalError::Poisoned is no longer terminal for durable
    // sessions. Poison via a mid-run Facts budget, raise the budget, and
    // recover(): the replayed history now completes and the session serves.
    let dir = TempDir::new("poison");
    let config = EvalConfig {
        max_facts: 4,
        ..EvalConfig::default()
    };
    let mut s = open_durable(
        "p(X) :- r(X).\npair(X, Y) :- p(X), p(Y).",
        config,
        dir.path(),
        Default::default(),
    );
    s.assert_fact("r", &["a"]).unwrap();
    s.assert_fact("r", &["b"]).unwrap();
    match s.run() {
        Err(EvalError::Budget { kind, .. }) => assert_eq!(kind, BudgetKind::Facts),
        other => panic!("expected Facts budget poisoning, got {other:?}"),
    }
    assert!(s.is_poisoned());
    assert!(matches!(
        s.assert_fact("r", &["c"]),
        Err(EvalError::Poisoned { .. })
    ));

    s.config_mut().max_facts = 1_000_000;
    let stats = s.recover().unwrap();
    assert!(!s.is_poisoned());
    assert!(stats.facts >= 8, "2 base + 2 p + 4 pair");

    // The recovered state equals a fresh evaluation of the same history.
    let oracle_dir = TempDir::new("poison-oracle");
    let mut oracle = open_durable(
        "p(X) :- r(X).\npair(X, Y) :- p(X), p(Y).",
        EvalConfig::default(),
        oracle_dir.path(),
        Default::default(),
    );
    oracle.assert_fact("r", &["a"]).unwrap();
    oracle.assert_fact("r", &["b"]).unwrap();
    oracle.run().unwrap();
    assert_eq!(state(&s), state(&oracle));

    // And the session is truly live again.
    s.assert_fact("r", &["c"]).unwrap();
    s.run().unwrap();
    assert_eq!(s.query("pair").len(), 9);
}

#[test]
fn recover_without_raising_budgets_truncates_the_poisoned_tail() {
    // If the failure is deterministic and the caller recovers without
    // changing anything, the failing final record is dropped: the session
    // returns to the last healthy state (pending asserts included).
    let dir = TempDir::new("poison-trunc");
    let config = EvalConfig {
        max_facts: 4,
        ..EvalConfig::default()
    };
    let mut s = open_durable(
        "p(X) :- r(X).\npair(X, Y) :- p(X), p(Y).",
        config,
        dir.path(),
        Default::default(),
    );
    s.assert_fact("r", &["a"]).unwrap();
    s.assert_fact("r", &["b"]).unwrap();
    let records_before_run = s.durable_records().unwrap();
    assert!(s.run().is_err());
    assert!(s.is_poisoned());
    s.recover().unwrap();
    assert!(!s.is_poisoned());
    assert_eq!(
        s.durable_records().unwrap(),
        records_before_run,
        "the failing Run record must be truncated away"
    );
    // Both asserts survive as pending facts.
    assert_eq!(s.query("r").len(), 2);
}

#[test]
fn recover_on_a_non_durable_session_is_an_error() {
    let mut e = Engine::new();
    let p = e.parse_program(SRC).unwrap();
    let mut s = e.into_session(&p, EvalConfig::default()).unwrap();
    assert!(matches!(
        s.recover(),
        Err(EvalError::Recovery(RecoveryError::Mismatch { .. }))
    ));
}

#[test]
fn budget_refused_assert_is_compensated_and_replays_as_a_noop() {
    let dir = TempDir::new("abort");
    let config = EvalConfig {
        max_seq_len: 4,
        ..EvalConfig::default()
    };
    let mut s = open_durable(SRC, config, dir.path(), Default::default());
    s.assert_fact("r", &["ab"]).unwrap();
    // Every route checks lengths and ids before logging, so a SeqLen
    // refusal never reaches the log; a Facts refusal is the one that
    // happens after the record is appended.
    let config2 = EvalConfig {
        max_facts: 1,
        ..EvalConfig::default()
    };
    *s.config_mut() = config2;
    let records_before = s.durable_records().unwrap();
    assert!(matches!(
        s.assert_fact("r", &["cd"]),
        Err(EvalError::Budget { .. })
    ));
    assert!(!s.is_poisoned(), "budget refusal must not poison");
    assert_eq!(
        s.durable_records().unwrap(),
        records_before + 2,
        "refused assert leaves record + Abort compensation"
    );
    let live = state(&s);
    drop(s);
    let recovered = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    assert_eq!(state(&recovered), live);
    assert_eq!(
        recovered.query("r").len(),
        1,
        "refused fact must not replay"
    );
}

#[test]
fn checkpoint_and_compact_preserve_state_and_bound_the_log() {
    let dir = TempDir::new("compact");
    let opts = DurabilityOptions {
        snapshot_every: 0, // manual checkpoints only
        ..Default::default()
    };
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), opts.clone());
    for w in ["ab", "bc", "cab"] {
        s.assert_fact("r", &[w]).unwrap();
    }
    s.run().unwrap();
    s.checkpoint().unwrap();
    let records = s.durable_records().unwrap();
    assert!(s.wal_len().unwrap() > WAL_HEADER_LEN);
    s.compact().unwrap();
    assert_eq!(
        s.wal_len().unwrap(),
        WAL_HEADER_LEN,
        "compaction empties the log"
    );
    assert_eq!(s.durable_records().unwrap(), records);
    let live = state(&s);
    // Post-compaction mutations land in the fresh log...
    s.assert_fact("r", &["cc"]).unwrap();
    s.run().unwrap();
    let after = state(&s);
    assert_ne!(after, live);
    drop(s);
    // ...and recovery over snapshot + compacted log reproduces everything.
    let recovered = open_durable(SRC, EvalConfig::default(), dir.path(), opts);
    assert_eq!(state(&recovered), after);
}

#[test]
fn clone_detaches_durability() {
    let dir = TempDir::new("clone");
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    s.assert_fact("r", &["ab"]).unwrap();
    let mut c = s.clone();
    assert!(!c.is_durable(), "clones must not share the log");
    assert!(s.is_durable());
    let len_before = s.wal_len().unwrap();
    c.assert_fact("r", &["zz"]).unwrap(); // clone mutations are not logged
    assert_eq!(s.wal_len().unwrap(), len_before);
    s.assert_fact("r", &["cd"]).unwrap(); // original keeps logging
    assert!(s.wal_len().unwrap() > len_before);
}

#[test]
fn make_durable_refuses_an_existing_log_and_double_attachment() {
    let dir = TempDir::new("attach");
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    assert!(matches!(
        s.make_durable(dir.path(), Default::default()),
        Err(EvalError::Recovery(RecoveryError::Mismatch { .. }))
    ));
    drop(s);
    let mut e = Engine::new();
    let p = e.parse_program(SRC).unwrap();
    let mut fresh = e.into_session(&p, EvalConfig::default()).unwrap();
    assert!(matches!(
        fresh.make_durable(dir.path(), Default::default()),
        Err(EvalError::Recovery(RecoveryError::Mismatch { .. }))
    ));
}

#[test]
fn recovery_against_a_mismatched_program_is_refused() {
    // The persisted predicate table must extend the opening program's; a
    // directory written under a different program is rejected, not mangled.
    let dir = TempDir::new("mismatch");
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    s.assert_fact("r", &["ab"]).unwrap();
    s.run().unwrap();
    drop(s);
    let other = "zzz(X, Y) :- qqq(X), qqq(Y).";
    match try_open_durable(other, EvalConfig::default(), dir.path(), Default::default()) {
        Err(EvalError::Recovery(RecoveryError::Mismatch { .. })) => {}
        other => panic!(
            "expected Mismatch, got {:?}",
            other.map(|_| "a recovered session")
        ),
    }
}

#[test]
fn ids_route_asserts_and_retracts_replay_identically() {
    // assert_seq is interner-only (not logged); the ids-route assert and
    // retract must log logical records that replay to the same state.
    let dir = TempDir::new("ids");
    let mut s = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    let id = s.assert_seq("abca").unwrap();
    s.assert_fact_ids("r", &[id]).unwrap();
    let id2 = s.assert_seq("bb").unwrap();
    s.assert_fact_ids("r", &[id2]).unwrap();
    s.run().unwrap();
    s.retract_fact_ids("r", &[id2]).unwrap();
    let live = state(&s);
    drop(s);
    let recovered = open_durable(SRC, EvalConfig::default(), dir.path(), Default::default());
    assert_eq!(state(&recovered), live);
    let ids_log = fs::read(dir.path().join(WAL_FILE)).unwrap();

    // The string route and the batch routes of the same facts, one fact per
    // call, log byte-identical records: the log holds facts, not routes.
    let text = TempDir::new("ids-text");
    let mut s = open_durable(SRC, EvalConfig::default(), text.path(), Default::default());
    s.assert_fact("r", &["abca"]).unwrap();
    s.assert_fact("r", &["bb"]).unwrap();
    s.run().unwrap();
    s.retract_fact("r", &["bb"]).unwrap();
    assert_eq!(state(&s), live);
    drop(s);
    let batch = TempDir::new("ids-batch");
    let mut s = open_durable(SRC, EvalConfig::default(), batch.path(), Default::default());
    s.assert_facts(&[("r", &["abca"])]).unwrap();
    let mut db = Database::new();
    db.add("r", vec![s.assert_seq("bb").unwrap()]);
    s.assert_db(&db).unwrap();
    s.run().unwrap();
    s.retract_db(&db).unwrap();
    assert_eq!(state(&s), live);
    drop(s);
    let header = WAL_HEADER_LEN as usize;
    assert!(ids_log.len() > header);
    for other in [&text, &batch] {
        let log = fs::read(other.path().join(WAL_FILE)).unwrap();
        assert_eq!(log[header..], ids_log[header..]);
    }
}
