//! Pattern matching and the safe/unsafe recursion boundary (Examples 1.3,
//! 1.5 and 1.6).
//!
//! * `abcn` retrieves sequences of the non-context-free form aⁿbⁿcⁿ using
//!   pure structural recursion (Theorem 3: PTIME).
//! * `rep1` recognizes repeats Yⁿ structurally — finite semantics.
//! * `rep2` builds repeats constructively — infinite least fixpoint, caught
//!   by the evaluator's budgets (finiteness is undecidable, Theorem 2).
//!
//! Run with: `cargo run --release --example pattern_matching`

use sequence_datalog::core::{Database, Engine, EvalConfig, EvalError};

fn main() {
    let mut engine = Engine::new();

    // ---- Example 1.3: aⁿbⁿcⁿ ------------------------------------------
    let abcn = engine
        .parse_program(
            r#"
            answer(X) :- r(X), abcn(X[1:N1], X[N1+1:N2], X[N2+1:end]).
            abcn("", "", "") :- true.
            abcn(X, Y, Z) :- X[1] = "a", Y[1] = "b", Z[1] = "c",
                             abcn(X[2:end], Y[2:end], Z[2:end]).
            "#,
        )
        .expect("parses");

    let mut db = Database::new();
    for s in ["abc", "aabbcc", "aaabbbccc", "aabbc", "abcabc", "cba", ""] {
        engine.add_fact(&mut db, "r", &[s]);
    }
    let model = engine
        .evaluate(&abcn, &db)
        .expect("non-constructive ⇒ finite");
    let mut hits = engine.answers(&model, "answer");
    hits.sort_by_key(String::len);
    println!("aⁿbⁿcⁿ members: {hits:?}");
    assert_eq!(hits, vec!["", "abc", "aabbcc", "aaabbbccc"]);

    // ---- Example 1.5: rep1 (structural) vs rep2 (constructive) ---------
    // The paper's rep1, verbatim: the base case ranges over the whole
    // extended active domain ("retrieve all sequences … that fit the
    // pattern Yⁿ").
    let rep1 = engine
        .parse_program(
            r#"
            rep1(X, X) :- true.
            rep1(X, X[1:N]) :- rep1(X[N+1:end], X[1:N]).
            answer(X) :- seq(X), rep1(X, Y), Y != X, Y != "".
            "#,
        )
        .expect("parses");
    let mut db2 = Database::new();
    for s in ["abcdabcdabcd", "abab", "abc"] {
        engine.add_fact(&mut db2, "seq", &[s]);
    }
    let m1 = engine
        .evaluate(&rep1, &db2)
        .expect("structural recursion is safe");
    let mut repeats = engine.answers(&m1, "answer");
    repeats.sort();
    println!("proper repeats Yⁿ (n ≥ 2): {repeats:?}");
    assert!(repeats.contains(&"abab".to_string()));
    assert!(repeats.contains(&"abcdabcdabcd".to_string()));
    assert!(!repeats.contains(&"abc".to_string()));

    // rep2 generates Yⁿ constructively: its least fixpoint is infinite.
    let rep2 = engine
        .parse_program(
            r#"
            rep2(X, X) :- seq(X).
            rep2(X ++ Y, Y) :- rep2(X, Y).
            "#,
        )
        .expect("parses");
    let report = engine.analyze(&rep2).expect("compiles");
    assert!(!report.strongly_safe, "rep2 has a constructive cycle");
    println!(
        "rep2 constructive-cycle edges: {:?}",
        report
            .graph
            .constructive_cycle_edges(&report.condensation)
            .iter()
            .map(|e| format!("{}→{}", report.pred_name(e.from), report.pred_name(e.to)))
            .collect::<Vec<_>>()
    );
    match engine.evaluate_with(&rep2, &db2, &EvalConfig::probe()) {
        Err(EvalError::Budget { kind, stats }) => {
            println!(
                "rep2 diverges as predicted: {kind:?} budget hit after {} rounds / {} facts",
                stats.rounds, stats.facts
            );
        }
        other => panic!("expected divergence, got {other:?}"),
    }

    // ---- Example 1.6: echo sequences -----------------------------------
    // The infinite-fixpoint program from the paper; the finite *query* is
    // recovered by the strongly safe Transducer Datalog echo in the genome
    // example.
    let echo = engine
        .parse_program(
            r#"
            answer2(X, Y) :- rel(X), echo(X, Y).
            echo("", "") :- true.
            echo(X, X[1] ++ X[1] ++ Z) :- echo(X[2:end], Z).
            "#,
        )
        .expect("parses");
    let report = engine.analyze(&echo).expect("compiles");
    println!(
        "Example 1.6 echo program strongly safe? {}",
        report.strongly_safe
    );
    assert!(!report.strongly_safe);
}
