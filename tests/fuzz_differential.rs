//! Property-based differential fuzzing: **batch ≡ incremental ≡ parallel**.
//!
//! `seqlog_testkit` generates safe (terminating-by-construction) programs
//! composed of shapes the evaluator treats differently — delta-driven
//! joins, domain-sensitive clauses, constructive heads, equality literals —
//! plus base-fact batches modeling arrival order. For every case and every
//! thread count in {1, 2, 4, 8} these properties demand:
//!
//! * batch evaluation is **bit-for-bit** identical across thread counts
//!   (extents in insertion order *and* `EvalStats`);
//! * incremental evaluation (a session asserting one batch at a time,
//!   resuming after each) is bit-for-bit identical across thread counts;
//! * batch and incremental agree **extensionally** (same relations as
//!   sets; insertion order may differ because facts settle in arrival
//!   order);
//! * under a tightened `max_facts`, both routes fail with the same budget
//!   kind at every thread count;
//! * the naive strategy agrees with all of the above.
//!
//! The **retraction oracle** (Delete-and-Rederive correctness): for
//! generated assert/retract interleavings, after every history the session
//! must equal a fresh batch evaluation of the *surviving* base facts —
//! extent-wise against the oracle, bit-for-bit across thread counts along
//! the session route, and deterministically (same outcome at every thread
//! count, correct extents on success) under tightened budgets. A dedicated
//! generator variant forces the ground-domain-sensitive shape
//! `gd(X, X) :- true.` into every program, so retractions that *shrink the
//! extended active domain* — the fragment-sensitive trap where a deleted
//! fact takes its sequences' windows (and the integers they pinned) out of
//! every domain enumeration — are guaranteed coverage.
//!
//! The **sharded-commit matrix** (the name predates the two-phase
//! rounds): generated cases are small, so the plain thread-count sweep
//! above exercises the multi-worker code only through its dispatch
//! decision (rounds under the parallelism threshold run inline). The
//! `sharded_` properties force the multi-worker match for every case at
//! threads 1/2/4/8 and demand the same bit-for-bit agreement with the
//! single-worker reference, on the batch, incremental, and retraction
//! routes — so a commit that consumed the match buffers in worker
//! completion order instead of task order would be caught here.
//! `scripts/ci_check.sh` runs this matrix as an explicit step.
//!
//! The generator is deterministic per test name (the shim's `TestRng`), so
//! the seed is pinned: a CI failure reproduces locally by running the same
//! test, and `scripts/ci_check.sh` runs this suite on every check.

use proptest::prelude::*;
use seqlog_testkit::interleaved_outcome;
use seqlog_testkit::{
    batch_outcome, cases, incremental_outcome, interleaved_cases, interleaved_cases_with_gd,
    surviving_batch_outcome, Outcome,
};
use sequence_datalog::core::{EvalConfig, Strategy as EvalStrategy};

const THREADS: [usize; 4] = [1, 2, 4, 8];

/// A config that forces the multi-worker match regardless of round size —
/// the only way small generated cases reach the multi-worker machinery at
/// all.
fn sharded(threads: usize) -> EvalConfig {
    EvalConfig {
        threads,
        parallel_threshold: 0,
        ..EvalConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn batch_equals_incremental_at_every_thread_count(case in cases()) {
        let reference = batch_outcome(&case, &EvalConfig::with_threads(1));
        let expected = reference
            .extents_sorted()
            .unwrap_or_else(|| panic!("default budgets must fit generated cases:\n{case}"));
        let incremental_reference = incremental_outcome(&case, &EvalConfig::with_threads(1));
        prop_assert_eq!(
            incremental_reference.extents_sorted().as_ref(),
            Some(&expected),
            "incremental differs extensionally from batch\n{}",
            case
        );
        for t in [2usize, 4, 8] {
            let cfg = EvalConfig::with_threads(t);
            // Batch: bit-for-bit (insertion order + stats) across threads.
            prop_assert_eq!(
                &batch_outcome(&case, &cfg),
                &reference,
                "batch at threads={} is not bit-for-bit identical\n{}",
                t,
                case
            );
            // Incremental: bit-for-bit across threads too.
            prop_assert_eq!(
                &incremental_outcome(&case, &cfg),
                &incremental_reference,
                "incremental at threads={} is not bit-for-bit identical\n{}",
                t,
                case
            );
        }
    }

    #[test]
    fn budget_errors_agree_between_batch_and_incremental(case in cases()) {
        let reference = batch_outcome(&case, &EvalConfig::default());
        let Outcome::Model { stats, .. } = &reference else {
            panic!("default budgets must fit generated cases:\n{case}");
        };
        // Tighten max_facts below the known fixpoint size: every route must
        // now exhaust the Facts budget, at every thread count. (Cases whose
        // fixpoint is tiny can't be made to fail this way; skip them.)
        if stats.facts >= 4 {
            let max_facts = stats.facts / 2;
            for t in THREADS {
                let cfg = EvalConfig {
                    threads: t,
                    max_facts,
                    ..EvalConfig::default()
                };
                prop_assert_eq!(
                    batch_outcome(&case, &cfg).failure(),
                    Some("budget:Facts"),
                    "batch at threads={} must exhaust the Facts budget\n{}",
                    t,
                    case
                );
                prop_assert_eq!(
                    incremental_outcome(&case, &cfg).failure(),
                    Some("budget:Facts"),
                    "incremental at threads={} must exhaust the Facts budget\n{}",
                    t,
                    case
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn retraction_equals_fresh_batch_of_survivors(case in interleaved_cases()) {
        let reference = surviving_batch_outcome(&case, &EvalConfig::with_threads(1));
        let expected = reference
            .extents_sorted_nonempty()
            .unwrap_or_else(|| panic!("default budgets must fit generated cases:\n{case}"));
        let session_reference = interleaved_outcome(&case, &EvalConfig::with_threads(1));
        prop_assert_eq!(
            session_reference.extents_sorted_nonempty().as_ref(),
            Some(&expected),
            "session after retractions differs from a fresh batch evaluation \
             of the surviving base facts\n{}",
            case
        );
        // The session route itself is bit-for-bit deterministic (extents in
        // insertion order AND stats) at every thread count.
        for t in [2usize, 4, 8] {
            prop_assert_eq!(
                &interleaved_outcome(&case, &EvalConfig::with_threads(t)),
                &session_reference,
                "interleaved session at threads={} is not bit-for-bit identical\n{}",
                t,
                case
            );
        }
    }

    #[test]
    fn retraction_shrinks_domains_correctly_on_gd_cases(case in interleaved_cases_with_gd()) {
        // Every case carries `gd(X, X) :- true.`: the ground
        // domain-sensitive shape whose extent IS the extended active
        // domain (squared onto the diagonal). Any effective retraction
        // must shrink it exactly to the survivors' domain.
        let expected = surviving_batch_outcome(&case, &EvalConfig::with_threads(1))
            .extents_sorted_nonempty()
            .unwrap_or_else(|| panic!("default budgets must fit generated cases:\n{case}"));
        let session = interleaved_outcome(&case, &EvalConfig::with_threads(1));
        prop_assert_eq!(
            session.extents_sorted_nonempty().as_ref(),
            Some(&expected),
            "domain-sensitive extents diverged after retraction\n{}",
            case
        );
    }

    #[test]
    fn retraction_under_tightened_budgets_stays_deterministic(case in interleaved_cases()) {
        let reference = surviving_batch_outcome(&case, &EvalConfig::default());
        let Outcome::Model { stats, .. } = &reference else {
            panic!("default budgets must fit generated cases:\n{case}");
        };
        // Tighten max_facts below the surviving fixpoint size (cases whose
        // fixpoint is tiny can't be tightened meaningfully; skip them).
        // The session route's *peak* state (before retractions) is at
        // least as large, so it may fail at an assert, a resume, or a
        // maintenance pass — whatever happens must be identical at every
        // thread count, and a success must still produce the oracle
        // extents.
        if stats.facts >= 4 {
            let tight = EvalConfig {
                max_facts: stats.facts / 2,
                ..EvalConfig::default()
            };
            let at1 = interleaved_outcome(&case, &EvalConfig { threads: 1, ..tight });
            for t in [2usize, 4, 8] {
                prop_assert_eq!(
                    &interleaved_outcome(&case, &EvalConfig { threads: t, ..tight }),
                    &at1,
                    "tight-budget interleaved route diverged at threads={}\n{}",
                    t,
                    case
                );
            }
            if let Some(extents) = at1.extents_sorted_nonempty() {
                prop_assert_eq!(
                    Some(&extents),
                    reference.extents_sorted_nonempty().as_ref(),
                    "a tight-budget success must still match the oracle\n{}",
                    case
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// The sharded-commit matrix: every case, forced through the parallel
    /// dispatch path, at every thread count, on the batch and incremental
    /// routes — bit-for-bit against the plain sequential reference.
    #[test]
    fn sharded_commit_is_bit_for_bit_at_every_thread_count(case in cases()) {
        let reference = batch_outcome(&case, &EvalConfig::with_threads(1));
        prop_assert!(
            reference.failure().is_none(),
            "default budgets must fit generated cases:\n{}", case
        );
        let incremental_reference = incremental_outcome(&case, &EvalConfig::with_threads(1));
        for t in THREADS {
            prop_assert_eq!(
                &batch_outcome(&case, &sharded(t)),
                &reference,
                "sharded batch at threads={} is not bit-for-bit identical\n{}",
                t,
                case
            );
            prop_assert_eq!(
                &incremental_outcome(&case, &sharded(t)),
                &incremental_reference,
                "sharded incremental at threads={} is not bit-for-bit identical\n{}",
                t,
                case
            );
        }
    }

    /// The sharded-commit matrix on the retraction route: forced-parallel
    /// sessions running assert/retract interleavings (Delete-and-Rederive
    /// maintenance included) must be bit-for-bit identical to the plain
    /// sequential session at every thread count.
    #[test]
    fn sharded_commit_retraction_route_is_bit_for_bit(case in interleaved_cases_with_gd()) {
        let session_reference = interleaved_outcome(&case, &EvalConfig::with_threads(1));
        for t in THREADS {
            prop_assert_eq!(
                &interleaved_outcome(&case, &sharded(t)),
                &session_reference,
                "sharded interleaved session at threads={} is not bit-for-bit identical\n{}",
                t,
                case
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(50))]

    #[test]
    fn naive_strategy_agrees_on_generated_cases(case in cases()) {
        let expected = batch_outcome(&case, &EvalConfig::default())
            .extents_sorted()
            .unwrap_or_else(|| panic!("default budgets must fit generated cases:\n{case}"));
        let naive_cfg = EvalConfig {
            strategy: EvalStrategy::Naive,
            ..EvalConfig::default()
        };
        prop_assert_eq!(
            batch_outcome(&case, &naive_cfg).extents_sorted().as_ref(),
            Some(&expected),
            "naive batch differs\n{}",
            case
        );
        prop_assert_eq!(
            incremental_outcome(&case, &naive_cfg).extents_sorted().as_ref(),
            Some(&expected),
            "naive incremental differs\n{}",
            case
        );
    }
}
