//! Property-based fuzzing of demand-driven (bound-argument) queries:
//! **`query_bound` ≡ filter of the batch fixpoint**.
//!
//! For every generated case (the same terminating-by-construction shape
//! grammar as the differential suite — including the constructive,
//! domain-sensitive, and mutually recursive shapes that exercise the
//! magic transformation's fallback gates), every populated predicate of
//! arity ≤ 3, and **every** bound/free adornment of that arity (plus an
//! all-bound miss probe), the demand route must return exactly the
//! sorted filter of the batch model's extent on three session arms
//! ([`DemandArm`]): unsettled (the scratch evaluation derives everything
//! itself), settled (the session probes its own relation), and
//! mid-stream (settled batches plus one pending batch, which the scratch
//! evaluates from the session's facts). The route taken is checked too:
//! a derivable goal is evaluated exactly when the session holds pending
//! asserts, so the settled arm never runs the scratch.
//!
//! Thread determinism: the demand route is **bit-for-bit** identical
//! (answers *and* scratch `EvalStats`) at threads 1/2/4/8, on every arm.
//!
//! The harness is mutation-tested at the bottom of this file:
//!
//! * `danger_drop_magic_guard` (guarded clause variants lose their magic
//!   guard) keeps answers correct — guards only *restrict* evaluation,
//!   so dropping them over-approximates back toward the batch fixpoint —
//!   but must be caught by the selectivity oracle (scratch fact count).
//! * `danger_skip_fallback` (the domain-sensitive full-fallback gate is
//!   bypassed) *under*-approximates: a predicate whose extent depends on
//!   domain growth from outside its cone silently loses answers, the
//!   exact bug class the gate exists to prevent — caught extent-wise.

use proptest::prelude::*;
use seqlog_testkit::{
    batch_outcome, cases, demand_outcome, demand_probes, filtered_extent, Bind, DemandArm,
    FuzzCase, MagicOptions, DEMAND_ARMS,
};
use sequence_datalog::core::{EngineSession, EvalConfig};

const THREADS: [usize; 4] = [1, 2, 4, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn demand_equals_filtered_batch_for_every_adornment(case in cases()) {
        let extents = batch_outcome(&case, &EvalConfig::with_threads(1))
            .extents_sorted()
            .unwrap_or_else(|| panic!("default budgets must fit generated cases:\n{case}"));
        let config = EvalConfig::with_threads(1);
        for (pred, pattern) in demand_probes(&extents) {
            let expected = filtered_extent(&extents, &pred, &pattern);
            for arm in DEMAND_ARMS {
                let got = demand_outcome(&case, &config, &pred, &pattern, arm, &MagicOptions::default())
                    .unwrap_or_else(|err| panic!("demand route failed ({err}):\n{case}"));
                prop_assert_eq!(
                    &got.answer.answers,
                    &expected,
                    "query_bound({}, {:?}) on the {:?} arm diverged from the filtered batch extent\n{}",
                    pred,
                    pattern,
                    arm,
                    case
                );
                prop_assert_eq!(
                    got.answer.evaluated,
                    got.expect_evaluated,
                    "query_bound({}, {:?}) on the {:?} arm took the wrong route\n{}",
                    pred,
                    pattern,
                    arm,
                    case
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(25))]

    #[test]
    fn demand_is_bit_for_bit_across_thread_counts(case in cases()) {
        let extents = batch_outcome(&case, &EvalConfig::with_threads(1))
            .extents_sorted()
            .unwrap_or_else(|| panic!("default budgets must fit generated cases:\n{case}"));
        for (pred, pattern) in demand_probes(&extents) {
            for arm in DEMAND_ARMS {
                let run = |t: usize| {
                    demand_outcome(&case, &EvalConfig::with_threads(t), &pred, &pattern, arm, &MagicOptions::default())
                        .unwrap_or_else(|err| panic!("demand route failed ({err}):\n{case}"))
                };
                let reference = run(1);
                for t in THREADS {
                    prop_assert_eq!(
                        &run(t),
                        &reference,
                        "query_bound({}, {:?}) on the {:?} arm at threads={} is not bit-for-bit identical\n{}",
                        pred,
                        pattern,
                        arm,
                        t,
                        case
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pinned shape cases: the fallback-sensitive fragments, held still
// ---------------------------------------------------------------------------

/// Ground-domain-sensitive goal (`gd0(X, X) :- true.`) composed with a
/// constructive clause *outside* its cone: demand must fall back to the
/// full fixpoint or it misses the diagonal pair over the constructed word.
#[test]
fn pinned_gd_with_outside_cone_construction() {
    let case = FuzzCase {
        program: "dbl0(X ++ X) :- r0(X).\ngd0(X, X) :- true.\n".into(),
        batches: vec![vec![("r0".into(), "ab".into())]],
    };
    let extents = batch_outcome(&case, &EvalConfig::with_threads(1))
        .extents_sorted()
        .unwrap();
    let pattern = vec![None, None];
    let expected = filtered_extent(&extents, "gd0", &pattern);
    let got = demand_outcome(
        &case,
        &EvalConfig::with_threads(1),
        "gd0",
        &pattern,
        DemandArm::Unsettled,
        &MagicOptions::default(),
    )
    .unwrap()
    .answer;
    assert_eq!(got.answers, expected);
    assert!(got
        .answers
        .contains(&vec!["abab".to_string(), "abab".to_string()]));
}

/// Mutual recursion through two predicates (shape 8): the demand cone
/// must traverse both directions of the cycle.
#[test]
fn pinned_mutual_recursion_demand() {
    let case = FuzzCase {
        program: "m0p(X) :- r0(X).\nm0p(X[2:end]) :- m0q(X), X != \"\".\nm0q(X) :- m0p(X).\n"
            .into(),
        batches: vec![vec![("r0".into(), "abc".into()), ("r0".into(), "c".into())]],
    };
    let extents = batch_outcome(&case, &EvalConfig::with_threads(1))
        .extents_sorted()
        .unwrap();
    for (pred, pattern) in demand_probes(&extents) {
        let expected = filtered_extent(&extents, &pred, &pattern);
        let got = demand_outcome(
            &case,
            &EvalConfig::with_threads(1),
            &pred,
            &pattern,
            DemandArm::Unsettled,
            &MagicOptions::default(),
        )
        .unwrap()
        .answer;
        assert_eq!(got.answers, expected, "probe {pred} {pattern:?}");
    }
}

// ---------------------------------------------------------------------------
// Harness mutation tests: a broken transformation must be caught above
// ---------------------------------------------------------------------------

/// Two disjoint ancestor chains; the bound query touches only the short
/// one, so a healthy demand evaluation stays well under the full
/// fixpoint's fact count.
fn two_chain_session(threads: usize) -> EngineSession {
    let mut e = sequence_datalog::core::Engine::new();
    let program = e
        .parse_program("anc(X, Y) :- edge(X, Y).\nanc(X, Z) :- anc(X, Y), edge(Y, Z).")
        .unwrap();
    let mut s = e
        .into_session(&program, EvalConfig::with_threads(threads))
        .unwrap();
    for (x, y) in [
        ("a", "b"),
        ("b", "c"),
        ("c", "d"),
        ("d", "e"),
        ("p", "q"),
        ("q", "r"),
    ] {
        s.assert_fact("edge", &[x, y]).unwrap();
    }
    s
}

/// Mutant 1: dropping the magic guard from the rewritten clause variants.
/// Every original clause then runs unrestricted, so the scratch converges
/// to (a superset of) the batch fixpoint: answers stay **correct** —
/// over-approximation is the safe direction — but the selectivity that
/// justifies the whole transformation is gone, and the scratch fact
/// count gives it away. This is the oracle that pins demand evaluation
/// to actually *being* demand-driven.
#[test]
fn mutant_dropped_magic_guard_is_caught_by_selectivity() {
    let pattern = [Bind::Bound("p"), Bind::Free];
    let healthy = two_chain_session(1)
        .query_bound_instrumented("anc", &pattern, &MagicOptions::default())
        .unwrap();
    let mutant_opts = MagicOptions {
        danger_drop_magic_guard: true,
        ..MagicOptions::default()
    };
    let mutant = two_chain_session(1)
        .query_bound_instrumented("anc", &pattern, &mutant_opts)
        .unwrap();
    // Over-approximation: the answers themselves survive the mutation.
    assert_eq!(mutant.answers, healthy.answers);
    assert_eq!(healthy.answers.len(), 2); // p->q, p->r
                                          // ...but the selectivity oracle catches it: the healthy scratch stays
                                          // strictly below the mutant's (which derives both chains in full).
    assert!(
        healthy.stats.facts < mutant.stats.facts,
        "healthy demand ({}) must stay below the unguarded scratch ({})",
        healthy.stats.facts,
        mutant.stats.facts
    );
}

/// Mutant 2: skipping the domain-sensitive full-fallback gate. The goal's
/// cone no longer includes the constructive clause that grows the domain,
/// so the demand route *loses* answers — the unsound direction, caught
/// extent-wise by the differential property above. Pinned here so the
/// gate cannot rot even if the generator's shape mix drifts.
#[test]
fn mutant_skipped_fallback_is_caught_by_extents() {
    let case = FuzzCase {
        program: "dbl0(X ++ X) :- r0(X).\ngd0(X, X) :- true.\n".into(),
        batches: vec![vec![("r0".into(), "ab".into())]],
    };
    let extents = batch_outcome(&case, &EvalConfig::with_threads(1))
        .extents_sorted()
        .unwrap();
    let pattern = vec![None, None];
    let expected = filtered_extent(&extents, "gd0", &pattern);
    let mutant_opts = MagicOptions {
        danger_skip_fallback: true,
        ..MagicOptions::default()
    };
    let mutant = demand_outcome(
        &case,
        &EvalConfig::with_threads(1),
        "gd0",
        &pattern,
        DemandArm::Unsettled,
        &mutant_opts,
    )
    .unwrap()
    .answer;
    assert_ne!(
        mutant.answers, expected,
        "bypassing the fallback gate must lose answers — otherwise the \
         extent oracle could not catch an under-approximation bug"
    );
    // Specifically the diagonal pair over the *constructed* word is gone.
    assert!(!mutant
        .answers
        .contains(&vec!["abab".to_string(), "abab".to_string()]));
    assert!(expected.contains(&vec!["abab".to_string(), "abab".to_string()]));
}
