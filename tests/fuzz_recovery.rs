//! Crash-injected recovery fuzzing: **recovered ≡ replay of the surviving
//! log**, at every kill point, at every thread count.
//!
//! `seqlog_testkit` executes generated assert/retract interleavings (the
//! PR 4 generator, ground-domain-sensitive shape forced in) inside a
//! durable session, tracing the write-ahead log's record boundaries and
//! every snapshot ever written. The harness then simulates `kill -9` at
//! fuzzed byte offsets — record boundaries *and* mid-record torn tails —
//! by materializing the directory a crash at that offset would leave, and
//! demands:
//!
//! * recovery **succeeds** at every kill point at or past the log header
//!   (an offset inside the header models a crash during `make_durable` and
//!   must fail cleanly — pinned in `crates/core/tests/durability.rs`);
//! * the recovered session is **bit-for-bit equal** (extents in insertion
//!   order, cumulative stats) to a fresh in-memory session replaying the
//!   surviving log — at threads 1 and at a rotating choice of {2, 4, 8};
//! * after a settling `run`, the recovered session equals a fresh **batch
//!   evaluation of the surviving base facts** extracted from the log, for
//!   every thread count in {1, 2, 4, 8} — the Definition 4 oracle: the
//!   least fixpoint is a function of the database, crashes included;
//! * under tightened budgets (refused asserts leaving `Abort` compensation
//!   pairs, runs that poison the session mid-commit), every kill point —
//!   including one cutting between a refused batch and its compensation —
//!   still recovers to a state consistent with the surviving log;
//! * random **bit flips** over the log and snapshot bytes yield a clean
//!   `RecoveryError` or a state equal to a valid logged prefix — never a
//!   panic, out-of-bounds access, or silently wrong model.
//!
//! The harness itself is mutation-tested at the bottom of this file: a
//! reader that skips checksum verification, skips torn-tail truncation, or
//! restores stale watermarks is caught by these oracles.
//!
//! Seeds are pinned by construction (the proptest shim derives its RNG from
//! the test name), so failures reproduce by rerunning the same test.

use proptest::prelude::*;
use seqlog_testkit::{
    crash_at, durable_run, interleaved_cases_with_gd, kill_offsets, recover_session,
    session_outcome, wal_replay_outcome, wal_surviving_batch_outcome, InterleavedCase, Op,
};
use sequence_datalog::core::wal::WAL_FILE;
use sequence_datalog::core::{DurabilityOptions, EvalConfig, EvalError, RecoveryError};
use std::fs;

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// Snapshot cadence 2 exercises both recover-from-snapshot and
/// replay-a-tail at most kill points; unbounded retention lets the crash
/// simulator reconstruct any point in time.
fn fuzz_opts() -> DurabilityOptions {
    DurabilityOptions {
        snapshot_every: 2,
        snapshots_kept: 1 << 20,
        ..Default::default()
    }
}

/// At most `n` of `offsets`, evenly spaced, endpoints always included —
/// bounds per-case work while still hitting the interesting extremes.
fn sample_offsets(offsets: &[u64], n: usize) -> Vec<u64> {
    if offsets.len() <= n {
        return offsets.to_vec();
    }
    let mut out: Vec<u64> = (0..n)
        .map(|i| offsets[i * (offsets.len() - 1) / (n - 1)])
        .collect();
    out.dedup();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The core crash-injection oracle: at every sampled kill offset the
    /// recovered session must be bit-for-bit equal to a fresh in-memory
    /// replay of the log that survived the crash.
    #[test]
    fn recovery_at_every_kill_point_matches_fresh_replay(case in interleaved_cases_with_gd()) {
        let opts = fuzz_opts();
        let run = durable_run(&case, &EvalConfig::with_threads(1), &opts);
        let offsets = kill_offsets(&run);
        prop_assert!(!offsets.is_empty(), "a durable run always has kill points\n{}", case);
        for (i, offset) in sample_offsets(&offsets, 8).into_iter().enumerate() {
            let crashed = crash_at(&run, offset);
            let recovered = recover_session(
                &case.program, crashed.path(), &EvalConfig::with_threads(1), &opts,
            ).unwrap_or_else(|e| panic!("recovery at offset {offset} must succeed: {e}\n{case}"));
            // Fresh replay AFTER recovery: recovery may have truncated a
            // torn tail, and the oracle is defined over the surviving log.
            let fresh = wal_replay_outcome(
                &case.program, crashed.path(), &EvalConfig::with_threads(1),
            );
            prop_assert_eq!(
                session_outcome(&recovered).bitwise_view(),
                fresh.bitwise_view(),
                "recovered state at offset {} differs from fresh replay\n{}",
                offset, case
            );
            // Thread determinism survives recovery: a rotating choice of
            // {2, 4, 8} must reproduce the threads=1 state bit-for-bit.
            let t = [2usize, 4, 8][i % 3];
            let recovered_t = recover_session(
                &case.program, crashed.path(), &EvalConfig::with_threads(t), &opts,
            ).unwrap_or_else(|e| panic!("recovery at threads={t} must succeed: {e}\n{case}"));
            prop_assert_eq!(
                session_outcome(&recovered_t).bitwise_view(),
                fresh.bitwise_view(),
                "recovery at threads={} is not bit-for-bit identical (offset {})\n{}",
                t, offset, case
            );
        }
    }

    /// The settled oracle at full thread coverage: recover at the final
    /// kill point (and one interior point), settle with `run`, and compare
    /// against a fresh batch evaluation of the log's surviving base facts —
    /// for every thread count in {1, 2, 4, 8}.
    #[test]
    fn recovered_then_settled_equals_batch_of_survivors(case in interleaved_cases_with_gd()) {
        let opts = fuzz_opts();
        let run = durable_run(&case, &EvalConfig::with_threads(1), &opts);
        let offsets = kill_offsets(&run);
        for offset in [offsets[offsets.len() / 2], *offsets.last().unwrap()] {
            let oracle_dir = crash_at(&run, offset);
            let oracle = wal_surviving_batch_outcome(
                &case.program, oracle_dir.path(), &EvalConfig::with_threads(1),
            );
            let expected = oracle.extents_sorted_nonempty()
                .unwrap_or_else(|| panic!("default budgets must fit generated cases:\n{case}"));
            for t in THREADS {
                // A fresh crash image per thread: a recovered session is
                // durable, so its settling run appends to the image it
                // recovered from.
                let crashed = crash_at(&run, offset);
                let mut recovered = recover_session(
                    &case.program, crashed.path(), &EvalConfig::with_threads(t), &opts,
                ).unwrap_or_else(|e| panic!("recovery at threads={t} must succeed: {e}\n{case}"));
                recovered.run().unwrap_or_else(|e| panic!("settling run must succeed: {e}\n{case}"));
                prop_assert_eq!(
                    session_outcome(&recovered).extents_sorted_nonempty().as_ref(),
                    Some(&expected),
                    "recovered+settled at threads={} (offset {}) differs from a fresh \
                     batch evaluation of the surviving base facts\n{}",
                    t, offset, case
                );
            }
        }
    }

    /// The sharded-commit matrix under crash injection: generated cases
    /// are small, so the sweeps above reach the multi-worker machinery
    /// only through its dispatch decision. Here both the durable run that
    /// *writes* the log and every recovery that *replays* it are forced
    /// through the multi-worker match at threads 1/2/4/8 — WAL bytes and
    /// recovered state must stay bit-for-bit identical to the sequential
    /// reference at every kill point.
    #[test]
    fn sharded_commit_recovery_is_bit_for_bit(case in interleaved_cases_with_gd()) {
        let opts = fuzz_opts();
        let sharded = |threads: usize| EvalConfig {
            threads,
            danger_force_parallel: true,
            ..EvalConfig::default()
        };
        let reference_run = durable_run(&case, &EvalConfig::with_threads(1), &opts);
        // The log a forced-sharded multi-worker session writes is the
        // byte-identical log the sequential session writes.
        let sharded_run = durable_run(&case, &sharded(8), &opts);
        prop_assert_eq!(
            fs::read(sharded_run.dir.path().join(WAL_FILE)).expect("read sharded wal"),
            fs::read(reference_run.dir.path().join(WAL_FILE)).expect("read reference wal"),
            "sharded-commit session wrote different WAL bytes\n{}", case
        );
        let offsets = kill_offsets(&reference_run);
        for offset in sample_offsets(&offsets, 3) {
            let crashed = crash_at(&reference_run, offset);
            let fresh = wal_replay_outcome(
                &case.program, crashed.path(), &EvalConfig::with_threads(1),
            );
            for t in THREADS {
                let recovered = recover_session(
                    &case.program, crashed.path(), &sharded(t), &opts,
                ).unwrap_or_else(|e| panic!(
                    "sharded recovery at threads={t} offset {offset} must succeed: {e}\n{case}"
                ));
                prop_assert_eq!(
                    session_outcome(&recovered).bitwise_view(),
                    fresh.bitwise_view(),
                    "sharded recovery at threads={} (offset {}) is not bit-for-bit \
                     identical to the sequential replay\n{}",
                    t, offset, case
                );
            }
        }
    }

    /// Tightened budgets put `Abort` compensation pairs and poisoned run
    /// tails into the log; every kill point — including between a refused
    /// batch and its compensation — must still recover consistently.
    #[test]
    fn recovery_with_budget_refusals_and_poisoned_tails(case in interleaved_cases_with_gd()) {
        let config = EvalConfig {
            threads: 1,
            max_facts: 12,
            ..EvalConfig::default()
        };
        let opts = fuzz_opts();
        let run = durable_run(&case, &config, &opts);
        for offset in sample_offsets(&kill_offsets(&run), 8) {
            let crashed = crash_at(&run, offset);
            let recovered = recover_session(&case.program, crashed.path(), &config, &opts)
                .unwrap_or_else(|e| panic!("recovery at offset {offset} must succeed: {e}\n{case}"));
            let fresh = wal_replay_outcome(&case.program, crashed.path(), &config);
            prop_assert_eq!(
                session_outcome(&recovered).bitwise_view(),
                fresh.bitwise_view(),
                "tight-budget recovery at offset {} differs from fresh replay\n{}",
                offset, case
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Bit-flip corruption fuzzing (satellite: corruption must be loud)
// ---------------------------------------------------------------------------

/// A fixed, history-rich case for the corruption and mutant tests below.
fn pinned_case() -> InterleavedCase {
    let assert = |pred: &str, word: &str| Op::Assert {
        pred: pred.into(),
        word: word.into(),
    };
    let retract = |pred: &str, word: &str| Op::Retract {
        pred: pred.into(),
        word: word.into(),
    };
    InterleavedCase {
        program: "t0(X) :- r0(X).\nt0(X[2:end]) :- t0(X), X != \"\".\ngd0(X, X) :- true.\n".into(),
        steps: vec![
            vec![assert("r0", "abc"), assert("r1", "ba")],
            vec![retract("r0", "abc"), assert("r0", "cab")],
            vec![assert("r0", "b")],
        ],
    }
}

/// Flipping any single bit in the log or a snapshot must produce either a
/// clean `RecoveryError` or a recovered state equal to a **valid logged
/// prefix** (the flip was behind a truncated tail) — never a panic and
/// never a silently different model.
#[test]
fn bit_flips_are_loud_or_harmless() {
    let case = pinned_case();
    let opts = fuzz_opts();
    let config = EvalConfig::with_threads(1);
    let run = durable_run(&case, &config, &opts);
    let original_wal = fs::read(run.dir.path().join(WAL_FILE)).expect("read live wal");

    // Targets: every 7th byte of the log, every 13th byte of the newest
    // snapshot — enough density to hit headers, length fields, checksums,
    // and payload content of each record kind.
    let newest_snap = run
        .snapshots
        .last()
        .expect("durable runs write snapshots")
        .name
        .clone();
    let mut checked = 0usize;
    for (file, stride) in [(WAL_FILE.to_string(), 7usize), (newest_snap, 13usize)] {
        let full = crash_at(&run, run.final_len);
        let len = fs::metadata(full.path().join(&file))
            .expect("target exists")
            .len() as usize;
        for offset in (0..len).step_by(stride) {
            let crashed = crash_at(&run, run.final_len);
            let target = crashed.path().join(&file);
            let mut bytes = fs::read(&target).unwrap();
            bytes[offset] ^= 1 << (offset % 8);
            fs::write(&target, &bytes).unwrap();
            checked += 1;
            match recover_session(&case.program, crashed.path(), &config, &opts) {
                Err(EvalError::Recovery(_)) => {} // loud and clean
                Err(other) => {
                    panic!("flip at {file}:{offset} leaked a non-recovery error: {other}")
                }
                Ok(recovered) => {
                    // Harmless only if the surviving (possibly truncated)
                    // log is a byte-prefix of the original — i.e. the flip
                    // was truncated away or hit a snapshot the reader
                    // rejected or never needed.
                    let survived = fs::read(crashed.path().join(WAL_FILE)).unwrap();
                    assert!(
                        original_wal.starts_with(&survived),
                        "flip at {file}:{offset} survived into the recovered log"
                    );
                    let fresh = wal_replay_outcome(&case.program, crashed.path(), &config);
                    assert_eq!(
                        session_outcome(&recovered).bitwise_view(),
                        fresh.bitwise_view(),
                        "flip at {file}:{offset} recovered to a wrong model"
                    );
                }
            }
        }
    }
    assert!(checked > 50, "corruption sweep too small: {checked} flips");
}

// ---------------------------------------------------------------------------
// Harness mutation tests: weakened readers must be caught by the oracles
// ---------------------------------------------------------------------------

/// Mutant 1: a reader that treats a torn tail as ordinary data (no
/// truncation). The torn-tail kill points above must fail loudly under it —
/// proving the truncation path is what makes those cases pass.
#[test]
fn mutant_skipping_tail_truncation_is_caught() {
    let case = pinned_case();
    let opts = fuzz_opts();
    let config = EvalConfig::with_threads(1);
    let run = durable_run(&case, &config, &opts);
    let offsets = kill_offsets(&run);
    let mid_record = offsets
        .iter()
        .copied()
        .find(|o| !run.boundaries.contains(o) && *o != run.final_len)
        .expect("kill_offsets includes mid-record torn tails");
    let crashed = crash_at(&run, mid_record);
    let mutant = DurabilityOptions {
        danger_skip_tail_truncation: true,
        ..fuzz_opts()
    };
    match recover_session(&case.program, crashed.path(), &config, &mutant) {
        Err(EvalError::Recovery(RecoveryError::Corrupt { .. })) => {}
        Err(other) => panic!("mutant failed with the wrong error: {other}"),
        Ok(_) => panic!("a reader without tail truncation must not recover a torn log"),
    }
    // The real reader recovers the same directory fine.
    recover_session(&case.program, crashed.path(), &config, &fuzz_opts())
        .expect("the real reader truncates the torn tail and recovers");
}

/// Mutant 2: a reader that skips CRC verification. A content flip that
/// preserves record framing must slide through it and produce a *different
/// model* — exactly what the bit-flip oracle rejects — while the real
/// reader reports corruption.
#[test]
fn mutant_skipping_crc_verification_is_caught() {
    let case = pinned_case();
    // Only the attach-time snapshot: recovery must replay the whole log, so
    // the corrupted record actually flows into the recovered state.
    let opts = DurabilityOptions {
        snapshot_every: 0,
        ..Default::default()
    };
    let config = EvalConfig::with_threads(1);
    let run = durable_run(&case, &config, &opts);
    let truth = run.outcome.bitwise_view().expect("run settles");

    let crashed = crash_at(&run, run.final_len);
    let wal = crashed.path().join(WAL_FILE);
    let mut bytes = fs::read(&wal).unwrap();
    // Flip 'a' → 'c' in the first assert record's payload ("abc" → "cbc"):
    // framing intact, content changed. The record is interior (many records
    // follow), so this cannot be mistaken for a torn tail.
    let pos = bytes
        .iter()
        .position(|&b| b == b'a')
        .expect("the word abc is in the log");
    bytes[pos] ^= 0x02;
    fs::write(&wal, &bytes).unwrap();

    match recover_session(&case.program, crashed.path(), &config, &opts) {
        Err(EvalError::Recovery(RecoveryError::Corrupt { .. })) => {}
        Err(other) => panic!("real reader failed with the wrong error: {other}"),
        Ok(_) => panic!("the real reader must reject an interior content flip"),
    }

    let mutant = DurabilityOptions {
        snapshot_every: 0,
        danger_skip_crc: true,
        ..Default::default()
    };
    match recover_session(&case.program, crashed.path(), &config, &mutant) {
        Ok(recovered) => {
            assert_ne!(
                session_outcome(&recovered).bitwise_view().as_ref(),
                Some(&truth),
                "a checksum-free reader silently accepted the flip — the \
                 bit-flip oracle would miss real corruption"
            );
        }
        // Decode may also fail structurally; either way the mutant's
        // behavior differs observably from the real reader's Corrupt.
        Err(EvalError::Recovery(_)) => {}
        Err(other) => panic!("mutant leaked a non-recovery error: {other}"),
    }
}

/// Mutant 3: restoring snapshots with stale (fully caught-up) watermarks.
/// A snapshot taken between an assert and its run then "forgets" the
/// pending fact is still the next run's semi-naive delta: the settled
/// state misses derivations and the surviving-batch oracle catches it.
#[test]
fn mutant_stale_watermarks_are_caught() {
    let assert = |pred: &str, word: &str| Op::Assert {
        pred: pred.into(),
        word: word.into(),
    };
    let case = InterleavedCase {
        program: "t0(X) :- r0(X).\n".into(),
        steps: vec![vec![assert("r0", "ab")]],
    };
    let opts = DurabilityOptions {
        snapshot_every: 1, // snapshot right after the assert record
        snapshots_kept: 1 << 20,
        ..Default::default()
    };
    let config = EvalConfig::with_threads(1);

    // Kill after the assert record but before the Run record: boundary 0
    // is the post-attach header length, boundary 1 the post-assert length.
    // With `snapshot_every: 1` the auto-checkpoint covering the assert has
    // already been written by then, so recovery restores from it with an
    // empty log tail — exactly the situation where watermarks matter.
    let run = durable_run(&case, &config, &opts);
    let offset = run.boundaries[1];
    // Two independent crash images: a recovered session is itself durable,
    // so the healthy recovery's settling run would otherwise append to the
    // log and snapshot the settled state — which the mutant recovery would
    // then happily restore.
    let crashed = crash_at(&run, offset);
    let crashed_mutant = crash_at(&run, offset);

    let expected = wal_surviving_batch_outcome(&case.program, crashed.path(), &config)
        .extents_sorted_nonempty()
        .expect("oracle settles");
    assert!(
        expected.contains_key("t0"),
        "the pending fact must derive t0"
    );

    let mut healthy =
        recover_session(&case.program, crashed.path(), &config, &opts).expect("recovery succeeds");
    healthy.run().expect("settling run succeeds");
    assert_eq!(
        session_outcome(&healthy).extents_sorted_nonempty().as_ref(),
        Some(&expected),
        "the real reader resumes the pending fact through the watermarks"
    );

    let mutant = DurabilityOptions {
        danger_stale_watermarks: true,
        ..opts
    };
    let mut stale = recover_session(&case.program, crashed_mutant.path(), &config, &mutant)
        .expect("the mutant recovers without error — that is its danger");
    stale.run().expect("settling run succeeds");
    assert_ne!(
        session_outcome(&stale).extents_sorted_nonempty().as_ref(),
        Some(&expected),
        "stale watermarks must lose the pending delta — otherwise the \
         fuzz oracle could not catch a watermark-persistence bug"
    );
}
