//! Property-based soundness checks for the compile-time analysis
//! subsystem (`seqlog_core::analysis`) against live evaluation, over the
//! same generated case family as `fuzz_differential.rs`:
//!
//! * **Schedule soundness** — semi-naive rounds over the SCC-stratified
//!   schedule (the default) and naive evaluation (the literal T-operator:
//!   every clause in full, every round) compute the same model as a set of
//!   relations, for every generated case.
//! * **Dead-clause soundness** — a clause the closed-world report flags
//!   `SL003 dead-clause` never contributes a tuple: deleting every flagged
//!   clause leaves the model unchanged.
//! * **Undefined-body soundness** — a body atom over a predicate flagged
//!   `SL004 undefined-body-predicate` (never a head, never asserted) can
//!   never match, so a clause carrying one derives nothing and the rest of
//!   the model is unaffected.
//!
//! Seeds are pinned by the proptest shim (deterministic per test name);
//! each property runs 200 cases.

use proptest::prelude::*;
use seqlog_testkit::{batch_outcome, cases, FuzzCase};
use sequence_datalog::core::analysis::{LintCode, ProgramReport};
use sequence_datalog::core::ast::Program;
use sequence_datalog::core::compile::{compile, PredId};
use sequence_datalog::core::{Database, Engine, EvalConfig, Strategy};
use std::collections::BTreeMap;

type Extents = BTreeMap<String, Vec<Vec<String>>>;

/// Evaluate an already-parsed program over the case's union facts with
/// the engine that interned its constants; extents as sets with empty
/// relations dropped (clause deletion may remove a predicate entirely —
/// absent vs present-but-empty is unobservable).
fn eval_ast(e: &mut Engine, program: &Program, case: &FuzzCase) -> Extents {
    let mut db = Database::new();
    for (pred, word) in case.union_facts() {
        e.add_fact(&mut db, pred, &[word]);
    }
    let m = e
        .evaluate_with(program, &db, &EvalConfig::default())
        .expect("default budgets fit generated cases");
    let mut out = Extents::new();
    for pred in m.facts.predicates() {
        let mut rows = e.rendered_tuples(&m, pred);
        rows.sort();
        if !rows.is_empty() {
            out.insert(pred.to_string(), rows);
        }
    }
    out
}

/// Parse-and-evaluate convenience for source-level variants.
fn eval_extents(src: &str, case: &FuzzCase) -> Extents {
    let mut e = Engine::new();
    let program = e.parse_program(src).expect("generated programs parse");
    eval_ast(&mut e, &program, case)
}

/// The closed-world report for a case: the database predicates are
/// exactly the predicates the case asserts facts for.
fn closed_world_report(src: &str, case: &FuzzCase) -> ProgramReport {
    let mut e = Engine::new();
    let program = e.parse_program(src).expect("generated programs parse");
    let compiled = compile(&program).expect("generated programs compile");
    let edb: Vec<PredId> = case
        .union_facts()
        .filter_map(|(pred, _)| compiled.preds.lookup(pred))
        .collect();
    ProgramReport::analyze_with_edb(&compiled, &edb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn stratified_and_naive_agree_on_extents(case in cases()) {
        let stratified = batch_outcome(&case, &EvalConfig::default())
            .extents_sorted()
            .unwrap_or_else(|| panic!("default budgets must fit generated cases:\n{case}"));
        let naive_cfg = EvalConfig {
            strategy: Strategy::Naive,
            ..EvalConfig::default()
        };
        let naive = batch_outcome(&case, &naive_cfg)
            .extents_sorted()
            .unwrap_or_else(|| panic!("naive evaluation must also settle:\n{case}"));
        prop_assert_eq!(
            stratified,
            naive,
            "stratified semi-naive and naive evaluation disagree extensionally\n{}",
            case
        );
    }

    #[test]
    fn dead_flagged_clauses_never_contribute_a_tuple(case in cases()) {
        let report = closed_world_report(&case.program, &case);
        let dead: Vec<usize> = report
            .with_code(LintCode::DeadClause)
            .filter_map(|d| d.clause)
            .collect();
        // Deleting every SL003-flagged clause must leave the model intact.
        let mut e = Engine::new();
        let full = e.parse_program(&case.program).expect("generated programs parse");
        let mut reduced = full.clone();
        let mut idx = 0usize;
        reduced.clauses.retain(|_| {
            let keep = !dead.contains(&idx);
            idx += 1;
            keep
        });
        let full_extents = eval_ast(&mut e, &full, &case);
        let reduced_extents = eval_ast(&mut e, &reduced, &case);
        prop_assert_eq!(
            full_extents,
            reduced_extents,
            "an SL003-flagged clause contributed tuples (flagged: {:?})\n{}",
            &dead,
            case
        );
    }

    #[test]
    fn undefined_body_predicates_never_match(case in cases()) {
        // Splice in a clause whose body reads a predicate that heads no
        // clause and is never asserted: SL004 must flag it, and the clause
        // must derive nothing while leaving the rest of the model alone.
        let augmented = format!("{}\n__sl4(X) :- r0(X), __undef(X).", case.program.trim_end());
        let report = closed_world_report(&augmented, &case);
        prop_assert!(
            report
                .with_code(LintCode::UndefinedBodyPredicate)
                .any(|d| d.pred.as_deref() == Some("__undef")),
            "closed-world report must flag `__undef` as SL004\n{}",
            case
        );
        let base = eval_extents(&case.program, &case);
        let with_undef = eval_extents(&augmented, &case);
        prop_assert!(
            !with_undef.contains_key("__sl4"),
            "a clause reading an undefined predicate derived tuples\n{}",
            case
        );
        prop_assert_eq!(
            base,
            with_undef,
            "the SL004 clause perturbed the rest of the model\n{}",
            case
        );
    }
}
