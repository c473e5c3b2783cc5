//! Reproduces Fig. 3 / Example 8.1: the predicate dependency graphs of
//! programs P1, P2, P3 and their strong-safety verdicts, plus the verdicts
//! for the other programs discussed in the paper.
//!
//! Run with: `cargo run --example safety_audit`

use sequence_datalog::core::analysis::DepEdge;
use sequence_datalog::core::Engine;

fn audit(engine: &mut Engine, name: &str, src: &str, expect_safe: bool) {
    let program = engine.parse_program(src).expect("parses");
    let report = engine.analyze(&program).expect("compiles");
    let named = |e: &DepEdge| (report.pred_name(e.from), report.pred_name(e.to));
    println!("── {name} ──");
    let mut edges: Vec<_> = report
        .graph
        .edges()
        .iter()
        .map(|e| (named(e), e.constructive))
        .collect();
    edges.sort_unstable();
    for ((from, to), constructive) in edges {
        let marker = if constructive { " [constructive]" } else { "" };
        println!("    {from} → {to}{marker}");
    }
    let verdict = if report.strongly_safe {
        "strongly safe"
    } else {
        "NOT strongly safe"
    };
    println!("    ⇒ {verdict}");
    for v in report.graph.constructive_cycle_edges(&report.condensation) {
        let (from, to) = named(&v);
        println!("      constructive cycle through {from} → {to}");
    }
    println!();
    assert_eq!(report.strongly_safe, expect_safe, "{name}");
}

fn main() {
    let mut e = Engine::new();

    // Example 8.1 / Fig. 3. P1: the constructive edge r→a is not on a cycle.
    audit(
        &mut e,
        "P1 (Example 8.1)",
        "p(X) :- r(X, Y), q(Y).\n\
         q(X) :- r(X, Y), p(Y).\n\
         r(@t1(X), @t2(Y)) :- a(X, Y).",
        true,
    );
    // P2: a constructive self-loop.
    audit(&mut e, "P2 (Example 8.1)", "p(@t(X)) :- p(X).", false);
    // P3: the constructive edge r→p lies on the cycle q→r→p→q.
    audit(
        &mut e,
        "P3 (Example 8.1)",
        "q(X) :- r(X).\n\
         r(@t(X)) :- p(X).\n\
         p(X) :- q(X).",
        false,
    );

    // Example 5.1: stratified construction — constructive edges between
    // strata, no cycles.
    audit(
        &mut e,
        "Example 5.1 (double/quadruple)",
        "double(X ++ X) :- r(X).\n\
         quadruple(X ++ X) :- double(X).",
        true,
    );

    // Example 1.5: structural vs constructive repeats.
    audit(
        &mut e,
        "rep1 (structural recursion)",
        "rep1(X, X) :- true.\n\
         rep1(X, X[1:N]) :- rep1(X[N+1:end], X[1:N]).",
        true,
    );
    audit(
        &mut e,
        "rep2 (constructive recursion)",
        "rep2(X, X) :- true.\n\
         rep2(X ++ Y, Y) :- rep2(X, Y).",
        false,
    );

    // Example 7.1: the genome pipeline is non-recursive, hence safe.
    audit(
        &mut e,
        "Example 7.1 (DNA→RNA→protein)",
        "rnaseq(D, @transcribe(D)) :- dnaseq(D).\n\
         proteinseq(D, @translate(R)) :- rnaseq(D, R).",
        true,
    );

    println!("all verdicts match the paper ✓");
}
