//! Quickstart: parse a Sequence Datalog program, evaluate it, inspect the
//! answers and the safety report.
//!
//! Run with: `cargo run --example quickstart`

use sequence_datalog::core::{Database, Engine};

fn main() {
    let mut engine = Engine::new();

    // Example 1.1 (suffixes) and Example 1.2 (concatenations) from the
    // paper, in the concrete syntax: `++` is the paper's `•`, `X[N:end]`
    // extracts a contiguous subsequence.
    let program = engine
        .parse_program(
            r#"
            % Every suffix of every sequence in r (structural recursion).
            suffix(X[N:end]) :- r(X).

            % Every pairwise concatenation (constructive, but not recursive
            % through construction -- strongly safe).
            answer(X ++ Y) :- r(X), r(Y).
            "#,
        )
        .expect("parses");

    // Static analysis before running: dependency graph, constructive
    // cycles, guardedness, program order (Sections 5 and 8).
    let report = engine.analyze(&program).expect("compiles");
    println!("strongly safe: {}", report.strongly_safe);
    println!("non-constructive fragment: {}", report.non_constructive);

    // A database is a set of ground facts.
    let mut db = Database::new();
    engine.add_fact(&mut db, "r", &["abc"]);
    engine.add_fact(&mut db, "r", &["de"]);

    // Evaluate to the least fixpoint of the T-operator (Section 3.3).
    let model = engine
        .evaluate(&program, &db)
        .expect("finite least fixpoint");

    let mut suffixes = engine.answers(&model, "suffix");
    suffixes.sort_by_key(|s| (s.len(), s.clone()));
    println!("suffixes: {suffixes:?}");

    let mut cats = engine.answers(&model, "answer");
    cats.sort();
    println!("concatenations: {cats:?}");

    println!(
        "fixpoint: {} facts, extended active domain {} sequences, {} rounds",
        model.stats.facts, model.stats.domain_size, model.stats.rounds
    );

    assert!(suffixes.contains(&"bc".to_string()));
    assert!(cats.contains(&"abcde".to_string()));
    assert!(cats.contains(&"deabc".to_string()));
}
