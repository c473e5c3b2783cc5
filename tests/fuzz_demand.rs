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
//! Two pinned cases are the named checks of `scripts/mutation_check.sh`:
//!
//! * `scripts/mutants/drop_magic_guard.patch` (guarded clause variants
//!   lose their magic guard) keeps answers correct — guards only
//!   *restrict* evaluation, so dropping them over-approximates back
//!   toward the batch fixpoint — but the two-chain scratch's pinned fact
//!   count catches it (`demand_scratch_stays_in_the_goal_cone`).
//! * `scripts/mutants/skip_fallback.patch` (the domain-sensitive
//!   full-fallback gate is bypassed) *under*-approximates: a predicate
//!   whose extent depends on domain growth from outside its cone silently
//!   loses answers, the exact bug class the gate exists to prevent —
//!   caught extent-wise (`pinned_gd_with_outside_cone_construction`;
//!   `mutant_skipped_fallback_is_caught_by_extents` checks that the gate
//!   fires there and that the cone alone loses the answer).

use proptest::prelude::*;
use seqlog_testkit::{
    batch_outcome, cases, demand_outcome, demand_probes, filtered_extent, Bind, DemandArm,
    FuzzCase, DEMAND_ARMS,
};
use sequence_datalog::core::analysis::magic::magic_transform;
use sequence_datalog::core::analysis::Adornment;
use sequence_datalog::core::compile::compile;
use sequence_datalog::core::EvalConfig;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn demand_equals_filtered_batch_for_every_adornment(case in cases()) {
        let config = EvalConfig::default();
        let extents = batch_outcome(&case, &config)
            .extents_sorted()
            .unwrap_or_else(|| panic!("default budgets must fit generated cases:\n{case}"));
        for (pred, pattern) in demand_probes(&extents) {
            let expected = filtered_extent(&extents, &pred, &pattern);
            for arm in DEMAND_ARMS {
                let got = demand_outcome(&case, &config, &pred, &pattern, arm)
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

// ---------------------------------------------------------------------------
// Pinned shape cases: the fallback-sensitive fragments, held still
// ---------------------------------------------------------------------------

/// Ground-domain-sensitive goal (`gd0(X, X) :- true.`) composed with a
/// constructive clause *outside* its cone: demand must fall back to the
/// full fixpoint or it misses the diagonal pair over the constructed word.
/// Fails under `skip_fallback.patch`.
#[test]
fn pinned_gd_with_outside_cone_construction() {
    let case = FuzzCase {
        program: "dbl0(X ++ X) :- r0(X).\ngd0(X, X) :- true.\n".into(),
        batches: vec![vec![("r0".into(), "ab".into())]],
    };
    let extents = batch_outcome(&case, &EvalConfig::default())
        .extents_sorted()
        .unwrap();
    let pattern = vec![None, None];
    let expected = filtered_extent(&extents, "gd0", &pattern);
    let got = demand_outcome(
        &case,
        &EvalConfig::default(),
        "gd0",
        &pattern,
        DemandArm::Unsettled,
    )
    .unwrap()
    .answer;
    assert_eq!(got.answers, expected);
    assert!(got
        .answers
        .contains(&vec!["abab".to_string(), "abab".to_string()]));
}

/// The catch power behind `pinned_gd_with_outside_cone_construction`:
/// the gate fires for this goal, and what a bypassed gate computes — the
/// goal's cone alone, without the constructive clause that grows the
/// domain — *loses* the diagonal pair over the constructed word. So the
/// extent oracle sees the under-approximation that
/// `skip_fallback.patch` introduces.
#[test]
fn mutant_skipped_fallback_is_caught_by_extents() {
    let program = "dbl0(X ++ X) :- r0(X).\ngd0(X, X) :- true.\n";
    let mut e = sequence_datalog::core::Engine::new();
    let compiled = compile(&e.parse_program(program).unwrap()).unwrap();
    let goal = compiled.preds.lookup("gd0").unwrap();
    let magic = magic_transform(&compiled, goal, &Adornment::from_mask(&[false, false]));
    assert!(
        magic.full_fallback,
        "the domain-sensitive cone must fall back"
    );

    let batches = vec![vec![("r0".to_string(), "ab".to_string())]];
    let full = FuzzCase {
        program: program.into(),
        batches: batches.clone(),
    };
    let cone_only = FuzzCase {
        program: "gd0(X, X) :- true.\n".into(),
        batches,
    };
    let pattern = vec![None, None];
    let config = EvalConfig::default();
    let expected = filtered_extent(
        &batch_outcome(&full, &config).extents_sorted().unwrap(),
        "gd0",
        &pattern,
    );
    let bypassed = filtered_extent(
        &batch_outcome(&cone_only, &config).extents_sorted().unwrap(),
        "gd0",
        &pattern,
    );
    let diagonal = vec!["abab".to_string(), "abab".to_string()];
    assert!(expected.contains(&diagonal));
    assert!(
        !bypassed.contains(&diagonal),
        "bypassing the fallback gate must lose answers — otherwise the \
         extent oracle could not catch an under-approximation bug"
    );
    assert_ne!(bypassed, expected);
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
    let extents = batch_outcome(&case, &EvalConfig::default())
        .extents_sorted()
        .unwrap();
    for (pred, pattern) in demand_probes(&extents) {
        let expected = filtered_extent(&extents, &pred, &pattern);
        let got = demand_outcome(
            &case,
            &EvalConfig::default(),
            &pred,
            &pattern,
            DemandArm::Unsettled,
        )
        .unwrap()
        .answer;
        assert_eq!(got.answers, expected, "probe {pred} {pattern:?}");
    }
}

// ---------------------------------------------------------------------------
// Selectivity: demand evaluation stays inside the goal's cone
// ---------------------------------------------------------------------------

/// `anc(p, _)` over two disjoint ancestor chains: the scratch holds the
/// six edges, the one magic seed and the two answers, and never the other
/// chain's ancestors. The fact count is pinned exactly, like the other
/// `EvalStats` pins. Fails under `drop_magic_guard.patch`, whose
/// unguarded clause variants derive both chains in full while the
/// answers stay the same.
#[test]
fn demand_scratch_stays_in_the_goal_cone() {
    let mut e = sequence_datalog::core::Engine::new();
    let program = e
        .parse_program("anc(X, Y) :- edge(X, Y).\nanc(X, Z) :- anc(X, Y), edge(Y, Z).")
        .unwrap();
    let mut s = e.into_session(&program, EvalConfig::default()).unwrap();
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
    let got = s
        .query_bound_instrumented("anc", &[Bind::Bound("p"), Bind::Free])
        .unwrap();
    assert!(got.evaluated);
    assert_eq!(got.answers, [["p", "q"], ["p", "r"]]);
    assert_eq!(got.stats.facts, 9);
}
