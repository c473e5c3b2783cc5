//! Pinned golden renderings of the magic-set transformation.
//!
//! These tests freeze the *exact* transformed program for three
//! representative shapes: linear recursion with a bound first argument,
//! suffix recursion whose SIP loses the binding (deriving a free-pattern
//! demand and a domain-sensitive magic rule), and a constructive
//! predicate that must be exempted from guarding (the F-closure
//! fallback).  Any change to adornment order, SIP choice, guard
//! placement, or fallback scoping shows up here as a readable diff.

use seqlog_core::analysis::magic::{magic_transform, MagicProgram};
use seqlog_core::analysis::Adornment;
use seqlog_core::compile::compile;
use seqlog_core::engine::Engine;

fn transform(src: &str, goal: &str, mask: &[bool]) -> MagicProgram {
    let mut e = Engine::new();
    let program = e.parse_program(src).unwrap();
    let compiled = compile(&program).unwrap();
    let g = compiled.preds.lookup(goal).unwrap();
    magic_transform(&compiled, g, &Adornment::from_mask(mask))
}

fn rendering(m: &MagicProgram) -> String {
    // None of the golden programs contain sequence constants, so the
    // constant renderer is never consulted.
    m.render(&|id| format!("#{}", id.0))
}

#[test]
fn golden_ancestor_bound_first_argument() {
    let m = transform(
        "anc(X, Y) :- edge(X, Y).\nanc(X, Z) :- anc(X, Y), edge(Y, Z).",
        "anc",
        &[true, false],
    );
    assert!(!m.full_fallback);
    assert!(m.fallback_names().is_empty());
    assert_eq!(
        rendering(&m),
        "anc(X, Y) :- magic[anc:bf](X), edge(X, Y).\n\
         anc(X, Z) :- magic[anc:bf](X), anc(X, Y), edge(Y, Z).\n\
         magic[anc:bf](X) :- magic[anc:bf](X).\n"
    );
}

#[test]
fn golden_suffix_recursion_loses_binding() {
    // The recursive clause's head is `suf(X[2:end])`: knowing the head
    // value does not bind X, so the recursive demand degrades to the
    // all-free adornment "f" — and the demand rule that performs the
    // degradation is domain-sensitive (X occurs only inside an indexed
    // term), which the evaluator re-fires on domain growth.
    let m = transform(
        "suf(X) :- base(X).\nsuf(X[2:end]) :- suf(X).",
        "suf",
        &[true],
    );
    assert!(!m.full_fallback);
    assert!(m.fallback_names().is_empty());
    assert_eq!(
        rendering(&m),
        "suf(X) :- magic[suf:b](X), base(X).\n\
         suf(X[2:end]) :- magic[suf:b](X[2:end]), suf(X).\n\
         magic[suf:f]() :- magic[suf:b](X[2:end]).\n\
         suf(X) :- magic[suf:f](), base(X).\n\
         suf(X[2:end]) :- magic[suf:f](), suf(X).\n\
         magic[suf:f]() :- magic[suf:f]().\n"
    );
    let ds: Vec<bool> = m
        .program
        .clauses
        .iter()
        .map(|c| c.domain_sensitive)
        .collect();
    assert_eq!(ds, [false, false, true, false, false, false]);
}

#[test]
fn golden_constructive_stratum_falls_back_unguarded() {
    // dbl's head is constructive (`X ++ X`); guarding it could starve
    // derivations the extended-active-domain semantics requires, so its
    // downward closure is emitted unguarded and only the goal stratum
    // keeps its magic guard.
    let m = transform("dbl(X ++ X) :- r(X).\nout(X) :- dbl(X).", "out", &[true]);
    assert!(!m.full_fallback);
    assert_eq!(m.fallback_names(), vec!["dbl".to_string()]);
    assert_eq!(
        rendering(&m),
        "dbl(X ++ X) :- r(X).\n\
         out(X) :- magic[out:b](X), dbl(X).\n"
    );
}

#[test]
fn golden_magic_rules_compact_variable_slots() {
    // The demand rule derived from `anc(X, Z) :- anc(X, Y), edge(Y, Z).`
    // under the "fb" adornment mentions only Y and Z; the source
    // clause's X slot must be compacted away or the matcher plans a
    // binding for a variable with no occurrence.
    let m = transform(
        "anc(X, Y) :- edge(X, Y).\nanc(X, Z) :- anc(X, Y), edge(Y, Z).",
        "anc",
        &[false, true],
    );
    let magic_rule = m
        .program
        .clauses
        .iter()
        .find(|c| c.body.len() == 2 && c.head.args.len() == 1)
        .expect("demand rule present");
    assert_eq!(magic_rule.n_seq, 2);
    assert_eq!(magic_rule.seq_names, ["Y", "Z"]);
}
