//! Differential fuzzing of compile-time transducer fusion: **fusion on ≡
//! fusion off**, bit-for-bit.
//!
//! The fusion pass (`seqlog_core::analysis::fuse`) collapses chains of
//! 1-input transducer calls in clause heads into one composed, trimmed,
//! determinized, minimized machine. It is a *pure rewrite*: the fused
//! machine computes exactly the composed sequence function, so the
//! evaluation extent — per-relation tuples in insertion order, not just
//! as sets — must be identical with the pass enabled (the default) and
//! disabled (`EvalConfig::fusion: false`, the staged reference arm this
//! suite drives).
//!
//! Two case sources:
//!
//! * every generated `seqlog_testkit` shape, extended with 2- and
//!   3-machine chain clauses over the base predicates
//!   ([`seqlog_testkit::with_chain_clauses`]);
//! * the paper-example programs that call transducers (Examples 1.6 and
//!   7.1), plus a nested-chain variant of the DNA → RNA → protein
//!   pipeline.
//!
//! Across modes the extents must be bit-for-bit identical.
//! `EvalStats::transducer_calls/steps` legitimately differ across modes
//! (one fused run replaces a chain of stage runs), which is why the
//! comparison is extent-level.

use proptest::prelude::*;
use seqlog_testkit::{cases, chained_batch_outcome, with_chain_clauses, Extents, Outcome};
use sequence_datalog::core::{Database, Engine, EvalConfig};
use sequence_datalog::transducer::library;
use std::collections::BTreeMap;

fn config(fusion: bool) -> EvalConfig {
    EvalConfig {
        fusion,
        ..EvalConfig::default()
    }
}

/// Insertion-order extents of a settled outcome (panics on failure — every
/// case in this suite fits the default budgets).
fn extents(out: &Outcome) -> Extents {
    match out {
        Outcome::Model { extents, .. } => extents.clone(),
        Outcome::Failed(f) => panic!("route failed unexpectedly: {f}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(120))]

    #[test]
    fn fusion_on_equals_fusion_off_for_generated_chains(case in cases()) {
        let case = with_chain_clauses(case);
        let on = chained_batch_outcome(&case, &config(true));
        let off = chained_batch_outcome(&case, &config(false));
        prop_assert_eq!(
            extents(&on),
            extents(&off),
            "fusion on/off extents differ\n{}",
            case
        );
    }
}

// ── paper-example programs with transducer calls ─────────────────────────

type Setup = fn(&mut Engine);
type Facts = &'static [(&'static str, &'static [&'static str])];

fn genome_setup(e: &mut Engine) {
    let transcribe = library::transcribe(&mut e.alphabet);
    let translate = library::translate(&mut e.alphabet);
    e.register_transducer("transcribe", transcribe);
    e.register_transducer("translate", translate);
}

fn echo_setup(e: &mut Engine) {
    let syms: Vec<_> = "ab".chars().map(|c| e.alphabet.intern_char(c)).collect();
    let echo = library::echo(&mut e.alphabet, &syms);
    e.register_transducer("echo", echo);
}

/// Evaluate `src` over `facts` and render every program predicate's extent
/// in insertion order.
fn run(
    src: &str,
    facts: &[(&str, &[&str])],
    setup: Setup,
    cfg: &EvalConfig,
) -> BTreeMap<String, Vec<Vec<String>>> {
    let mut e = Engine::new();
    setup(&mut e);
    let program = e.parse_program(src).unwrap();
    let mut db = Database::new();
    for (pred, args) in facts {
        e.add_fact(&mut db, pred, args);
    }
    let model = e.evaluate_with(&program, &db, cfg).unwrap();
    program
        .predicates()
        .into_iter()
        .map(|pred| {
            let rows = e.rendered_tuples(&model, &pred);
            (pred, rows)
        })
        .collect()
}

#[test]
fn paper_transducer_programs_agree_with_fusion_on_and_off() {
    let dna_facts: Facts = &[("dnaseq", &["acgtacgt"]), ("dnaseq", &["ttaa"])];
    let cases: &[(&str, Facts, Setup)] = &[
        // Example 1.6 (safe half) — a 2-input transducer call (no chain;
        // fusion must leave it alone).
        (
            "answer(X, @echo(X, X)) :- rel(X).",
            &[("rel", &["ab"]), ("rel", &["ba"])],
            echo_setup,
        ),
        // Example 7.1 — DNA → RNA → protein, staged through a predicate.
        (
            "rnaseq(D, @transcribe(D)) :- dnaseq(D).\n\
             proteinseq(D, @translate(R)) :- rnaseq(D, R).",
            dna_facts,
            genome_setup,
        ),
        // Example 7.1, nested: the chain shape the fusion pass rewrites.
        (
            "protein(@translate(@transcribe(D))) :- dnaseq(D).",
            dna_facts,
            genome_setup,
        ),
    ];
    for (src, facts, setup) in cases {
        let on = run(src, facts, *setup, &config(true));
        let off = run(src, facts, *setup, &config(false));
        assert_eq!(on, off, "fusion on/off extents differ for:\n{src}");
    }
}

/// The chain clauses must actually exercise the fused path: with fusion on
/// the chained case performs fewer transducer calls than with fusion off
/// (one fused run per derived tuple instead of one per stage). This pins
/// the differential against a vacuous pass that never fuses anything.
#[test]
fn fusion_actually_reduces_transducer_calls() {
    let case = with_chain_clauses(seqlog_testkit::FuzzCase {
        program: String::new(),
        batches: vec![vec![
            ("r0".to_string(), "abc".to_string()),
            ("r1".to_string(), "cab".to_string()),
        ]],
    });
    let stats = |out: &Outcome| match out {
        Outcome::Model { stats, .. } => *stats,
        Outcome::Failed(f) => panic!("route failed: {f}"),
    };
    let on = stats(&chained_batch_outcome(&case, &config(true)));
    let off = stats(&chained_batch_outcome(&case, &config(false)));
    assert!(
        on.transducer_calls < off.transducer_calls,
        "fusion did not reduce transducer calls: {} (on) vs {} (off)",
        on.transducer_calls,
        off.transducer_calls
    );
}
