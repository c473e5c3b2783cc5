//! End-to-end reproductions of every worked example in the paper.

use sequence_datalog::core::prelude::*;
use sequence_datalog::core::EvalError;
use sequence_datalog::transducer::library;

fn engine_with_db(facts: &[(&str, &[&str])]) -> (Engine, Database) {
    let mut e = Engine::new();
    let mut db = Database::new();
    for (pred, args) in facts {
        e.add_fact(&mut db, pred, args);
    }
    (e, db)
}

#[test]
fn example_1_1_suffixes() {
    let (mut e, db) = engine_with_db(&[("r", &["abcd"])]);
    let p = e.parse_program("suffix(X[N:end]) :- r(X).").unwrap();
    let m = e.evaluate(&p, &db).unwrap();
    let mut got = e.answers(&m, "suffix");
    got.sort_by_key(|s| (s.len(), s.clone()));
    assert_eq!(got, vec!["", "d", "cd", "bcd", "abcd"]);
}

#[test]
fn example_1_2_concatenations() {
    let (mut e, db) = engine_with_db(&[("r", &["ab"]), ("r", &["c"])]);
    let p = e.parse_program("answer(X ++ Y) :- r(X), r(Y).").unwrap();
    let m = e.evaluate(&p, &db).unwrap();
    let mut got = e.answers(&m, "answer");
    got.sort();
    assert_eq!(got, vec!["abab", "abc", "cab", "cc"]);
    // The new sequences (and their subsequences) joined the extended
    // active domain.
    let abab = e.seq("abab");
    assert!(m.domain.contains(abab));
    let ba = e.seq("ba");
    assert!(m.domain.contains(ba), "subsequence of a created sequence");
}

#[test]
fn example_1_3_anbncn() {
    let (mut e, db) = engine_with_db(&[
        ("r", &["abc"]),
        ("r", &["aaabbbccc"]),
        ("r", &["aabbbcc"]),
        ("r", &["abcabc"]),
        ("r", &[""]),
    ]);
    let p = e
        .parse_program(
            r#"
            answer(X) :- r(X), abcn(X[1:N1], X[N1+1:N2], X[N2+1:end]).
            abcn("", "", "") :- true.
            abcn(X, Y, Z) :- X[1] = "a", Y[1] = "b", Z[1] = "c",
                             abcn(X[2:end], Y[2:end], Z[2:end]).
            "#,
        )
        .unwrap();
    let report = e.analyze(&p).unwrap();
    assert!(
        report.non_constructive,
        "pattern matching needs no construction"
    );
    let m = e.evaluate(&p, &db).unwrap();
    let mut got = e.answers(&m, "answer");
    got.sort_by_key(String::len);
    assert_eq!(got, vec!["", "abc", "aaabbbccc"]);
}

#[test]
fn example_1_4_reverse() {
    // The paper's reverse program, including its worked instance:
    // reverse of 110000 is 000011.
    let (mut e, db) = engine_with_db(&[("r", &["110000"]), ("r", &["10"])]);
    let p = e
        .parse_program(
            r#"
            answer(Y) :- r(X), rev(X, Y).
            rev("", "") :- true.
            rev(X[1:N+1], X[N+1] ++ Y) :- r(X), rev(X[1:N], Y).
            "#,
        )
        .unwrap();
    let m = e.evaluate(&p, &db).unwrap();
    let rev_tuples = e.rendered_tuples(&m, "rev");
    assert!(rev_tuples
        .iter()
        .any(|t| t[0] == "110000" && t[1] == "000011"));
    let got = e.answers(&m, "answer");
    assert!(got.contains(&"000011".to_string()));
    assert!(got.contains(&"01".to_string()));
}

#[test]
fn example_1_5_rep1_structural_is_finite() {
    let (mut e, db) = engine_with_db(&[("seq", &["abcdabcdabcd"])]);
    let p = e
        .parse_program(
            r#"
            rep1(X, X) :- true.
            rep1(X, X[1:N]) :- rep1(X[N+1:end], X[1:N]).
            "#,
        )
        .unwrap();
    let m = e.evaluate(&p, &db).unwrap();
    // abcdabcdabcd = (abcd)^3: rep1 holds for the abcd period.
    let tuples = e.rendered_tuples(&m, "rep1");
    assert!(tuples
        .iter()
        .any(|t| t[0] == "abcdabcdabcd" && t[1] == "abcd"));
    // Structural recursion never leaves the extended active domain.
    assert_eq!(m.domain.max_len(), 12);
}

#[test]
fn example_1_5_rep2_constructive_diverges() {
    let (mut e, db) = engine_with_db(&[("seq", &["ab"])]);
    let p = e
        .parse_program(
            r#"
            rep2(X, X) :- seq(X).
            rep2(X ++ Y, Y) :- rep2(X, Y).
            "#,
        )
        .unwrap();
    assert!(!e.analyze(&p).unwrap().strongly_safe);
    match e.evaluate_with(&p, &db, &EvalConfig::probe()) {
        Err(EvalError::Budget { .. }) => {}
        other => panic!("rep2 must exhaust a budget, got {other:?}"),
    }
}

#[test]
fn example_1_6_echo_program_diverges_but_query_is_finite() {
    let (mut e, db) = engine_with_db(&[("rel", &["ab"])]);
    let p = e
        .parse_program(
            r#"
            answer(X, Y) :- rel(X), echo(X, Y).
            echo("", "") :- true.
            echo(X, X[1] ++ X[1] ++ Z) :- echo(X[2:end], Z).
            "#,
        )
        .unwrap();
    // The least fixpoint is infinite…
    match e.evaluate_with(&p, &db, &EvalConfig::probe()) {
        Err(EvalError::Budget { .. }) => {}
        other => panic!("echo must exhaust a budget, got {other:?}"),
    }
    // …but the strongly safe transducer version computes the query.
    let mut e2 = Engine::new();
    let syms: Vec<_> = "ab".chars().map(|c| e2.alphabet.intern_char(c)).collect();
    let echo = library::echo(&mut e2.alphabet, &syms);
    e2.register_transducer("echo", echo);
    let p2 = e2
        .parse_program("answer(X, @echo(X, X)) :- rel(X).")
        .unwrap();
    assert!(e2.analyze(&p2).unwrap().strongly_safe);
    let mut db2 = Database::new();
    e2.add_fact(&mut db2, "rel", &["ab"]);
    let m = e2.evaluate(&p2, &db2).unwrap();
    let rows = e2.rendered_tuples(&m, "answer");
    assert_eq!(rows, vec![vec!["ab".to_string(), "aabb".to_string()]]);
}

#[test]
fn example_5_1_stratified_construction() {
    let (mut e, db) = engine_with_db(&[("r", &["xy"])]);
    let p = e
        .parse_program(
            r#"
            double(X ++ X) :- r(X).
            quadruple(X ++ X) :- double(X).
            "#,
        )
        .unwrap();
    assert!(e.analyze(&p).unwrap().strongly_safe);
    let m = e.evaluate(&p, &db).unwrap();
    assert_eq!(e.answers(&m, "double"), vec!["xyxy"]);
    assert_eq!(e.answers(&m, "quadruple"), vec!["xyxyxyxy"]);
}

#[test]
fn example_7_1_dna_rna_protein() {
    let mut e = Engine::new();
    let transcribe = library::transcribe(&mut e.alphabet);
    let translate = library::translate(&mut e.alphabet);
    e.register_transducer("transcribe", transcribe);
    e.register_transducer("translate", translate);
    let p = e
        .parse_program(
            r#"
            rnaseq(D, @transcribe(D)) :- dnaseq(D).
            proteinseq(D, @translate(R)) :- rnaseq(D, R).
            "#,
        )
        .unwrap();
    let mut db = Database::new();
    // The paper's transcription example: acgtacgt ↦ ugcaugca.
    e.add_fact(&mut db, "dnaseq", &["acgtacgt"]);
    let m = e.evaluate(&p, &db).unwrap();
    let rna = e.rendered_tuples(&m, "rnaseq");
    assert_eq!(
        rna,
        vec![vec!["acgtacgt".to_string(), "ugcaugca".to_string()]]
    );
    // ugcaugca = ugc(C) aug(M) + partial tail "ca".
    let protein = e.rendered_tuples(&m, "proteinseq");
    assert_eq!(
        protein,
        vec![vec!["acgtacgt".to_string(), "CM".to_string()]]
    );
}

#[test]
fn example_7_2_hand_written_transcription_in_sequence_datalog() {
    // The paper's Example 7.2: simulating T_transcribe with plain rules.
    let (mut e, db) = engine_with_db(&[("dnaseq", &["acgtacgt"]), ("dnaseq", &["ttaa"])]);
    let p = e
        .parse_program(
            r#"
            rnaseq(D, R) :- dnaseq(D), transcribe(D, R).
            transcribe("", "") :- true.
            transcribe(D[1:N+1], R ++ T) :- dnaseq(D), transcribe(D[1:N], R),
                                            trans(D[N+1], T).
            trans("a", "u").
            trans("t", "a").
            trans("c", "g").
            trans("g", "c").
            "#,
        )
        .unwrap();
    let m = e.evaluate(&p, &db).unwrap();
    let rows = e.rendered_tuples(&m, "rnaseq");
    assert!(rows
        .iter()
        .any(|t| t[0] == "acgtacgt" && t[1] == "ugcaugca"));
    assert!(rows.iter().any(|t| t[0] == "ttaa" && t[1] == "aauu"));
}

#[test]
fn example_8_1_and_fig_3_safety_verdicts() {
    let mut e = Engine::new();
    let p1 = e
        .parse_program(
            "p(X) :- r(X, Y), q(Y).\n\
             q(X) :- r(X, Y), p(Y).\n\
             r(@t1(X), @t2(Y)) :- a(X, Y).",
        )
        .unwrap();
    let p2 = e.parse_program("p(@t(X)) :- p(X).").unwrap();
    let p3 = e
        .parse_program(
            "q(X) :- r(X).\n\
             r(@t(X)) :- p(X).\n\
             p(X) :- q(X).",
        )
        .unwrap();
    assert!(e.analyze(&p1).unwrap().strongly_safe);
    assert!(!e.analyze(&p2).unwrap().strongly_safe);
    assert!(!e.analyze(&p3).unwrap().strongly_safe);
}

#[test]
fn section_2_1_subsequence_count() {
    // "for each sequence of length k over Σ, there are at most
    // k(k+1)/2 + 1 different contiguous subsequences"
    let mut e = Engine::new();
    let mut db = Database::new();
    e.add_fact(&mut db, "r", &["abcdefg"]);
    let p = e.parse_program("member(X) :- r(X).").unwrap();
    let m = e.evaluate(&p, &db).unwrap();
    assert_eq!(m.domain.len(), 7 * 8 / 2 + 1);
}

// ---------------------------------------------------------------------------
// Incremental coverage: every paper program above is also run through the
// session path — facts asserted one batch at a time, with a resume after
// each — and the final extents must equal the one-shot model's. This closes
// the gap where paper fidelity was only checked in batch mode.
// ---------------------------------------------------------------------------

type Setup = fn(&mut Engine);

fn no_setup(_: &mut Engine) {}

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

/// Evaluate `src` once over all `facts`, then again through a session
/// asserting one fact per batch; the extents of every program predicate
/// must agree (as sets — insertion order legitimately differs because
/// facts settle in arrival order).
fn assert_incremental_matches_batch(src: &str, facts: &[(&str, &[&str])], setup: Setup) {
    let mut e1 = Engine::new();
    setup(&mut e1);
    let p1 = e1.parse_program(src).unwrap();
    let mut db = Database::new();
    for (pred, args) in facts {
        e1.add_fact(&mut db, pred, args);
    }
    let batch = e1.evaluate(&p1, &db).unwrap();

    let mut e2 = Engine::new();
    setup(&mut e2);
    let p2 = e2.parse_program(src).unwrap();
    // One Database per batch (here: per fact), interned against the store
    // the session is about to take over — the assert_db arrival path.
    let batch_dbs: Vec<Database> = facts
        .iter()
        .map(|(pred, args)| {
            let mut db = Database::new();
            e2.add_fact(&mut db, pred, args);
            db
        })
        .collect();
    let mut session = e2.into_session(&p2, EvalConfig::default()).unwrap();
    // Settle the ground program clauses before any base fact arrives.
    session.run().unwrap();
    for db in &batch_dbs {
        session.assert_db(db).unwrap();
        session.run().unwrap();
    }

    for pred in p1.predicates() {
        let mut a = e1.rendered_tuples(&batch, &pred);
        let mut b = session.query(&pred);
        a.sort();
        b.sort();
        assert_eq!(
            a, b,
            "extent of {pred} differs between batch and incremental for:\n{src}"
        );
    }
}

/// One incremental-coverage case: program source, facts, engine setup.
type PaperCase = (
    &'static str,
    &'static [(&'static str, &'static [&'static str])],
    Setup,
);

#[test]
fn paper_programs_incremental_equals_batch() {
    let abc_facts: &[(&str, &[&str])] = &[
        ("r", &["abc"]),
        ("r", &["aaabbbccc"]),
        ("r", &["aabbcc"]),
        ("r", &["abcabc"]),
        ("r", &[""]),
    ];
    let cases: &[PaperCase] = &[
        // Example 1.1 — suffixes.
        (
            "suffix(X[N:end]) :- r(X).",
            &[("r", &["abcd"]), ("r", &["xy"])],
            no_setup,
        ),
        // Example 1.2 — concatenations.
        (
            "answer(X ++ Y) :- r(X), r(Y).",
            &[("r", &["ab"]), ("r", &["c"])],
            no_setup,
        ),
        // Example 1.3 — a^n b^n c^n pattern matching.
        (
            r#"
            answer(X) :- r(X), abcn(X[1:N1], X[N1+1:N2], X[N2+1:end]).
            abcn("", "", "") :- true.
            abcn(X, Y, Z) :- X[1] = "a", Y[1] = "b", Z[1] = "c",
                             abcn(X[2:end], Y[2:end], Z[2:end]).
            "#,
            abc_facts,
            no_setup,
        ),
        // Example 1.4 — reverse.
        (
            r#"
            answer(Y) :- r(X), rev(X, Y).
            rev("", "") :- true.
            rev(X[1:N+1], X[N+1] ++ Y) :- r(X), rev(X[1:N], Y).
            "#,
            &[("r", &["110000"]), ("r", &["10"])],
            no_setup,
        ),
        // Example 1.5 — rep1 (structural, finite).
        (
            r#"
            rep1(X, X) :- true.
            rep1(X, X[1:N]) :- rep1(X[N+1:end], X[1:N]).
            "#,
            &[("seq", &["abcdabcdabcd"])],
            no_setup,
        ),
        // Example 5.1 — stratified construction.
        (
            "double(X ++ X) :- r(X).\nquadruple(X ++ X) :- double(X).",
            &[("r", &["xy"]), ("r", &["z"])],
            no_setup,
        ),
        // Example 1.6 (safe half) — transducer echo.
        (
            "answer(X, @echo(X, X)) :- rel(X).",
            &[("rel", &["ab"]), ("rel", &["ba"])],
            echo_setup,
        ),
        // Example 7.1 — DNA → RNA → protein via transducers.
        (
            "rnaseq(D, @transcribe(D)) :- dnaseq(D).\n\
             proteinseq(D, @translate(R)) :- rnaseq(D, R).",
            &[("dnaseq", &["acgtacgt"]), ("dnaseq", &["ttaa"])],
            genome_setup,
        ),
        // Example 7.2 — hand-written transcription in Sequence Datalog.
        (
            r#"
            rnaseq(D, R) :- dnaseq(D), transcribe(D, R).
            transcribe("", "") :- true.
            transcribe(D[1:N+1], R ++ T) :- dnaseq(D), transcribe(D[1:N], R),
                                            trans(D[N+1], T).
            trans("a", "u").
            trans("t", "a").
            trans("c", "g").
            trans("g", "c").
            "#,
            &[("dnaseq", &["acgtacgt"]), ("dnaseq", &["ttaa"])],
            no_setup,
        ),
        // Section 2.1 — subsequence count.
        ("member(X) :- r(X).", &[("r", &["abcdefg"])], no_setup),
        // Definition 5 — the complement function convention.
        (
            r#"
            output(Y) :- comp(X, Y), input(X).
            comp("", "") :- true.
            comp(X[1:N+1], Y ++ B) :- input(X), comp(X[1:N], Y), flip(X[N+1], B).
            flip("0", "1").
            flip("1", "0").
            "#,
            &[("input", &["1100"])],
            no_setup,
        ),
    ];
    for (src, facts, setup) in cases {
        assert_incremental_matches_batch(src, facts, *setup);
    }
}

#[test]
fn diverging_paper_programs_also_exhaust_budgets_incrementally() {
    // Example 1.5 rep2 and Example 1.6 echo have infinite least fixpoints:
    // the session route must fail with a budget error just like batch
    // evaluation, and the failure must poison the session.
    let cases: &[(&str, (&str, &[&str]))] = &[
        (
            "rep2(X, X) :- seq(X).\nrep2(X ++ Y, Y) :- rep2(X, Y).",
            ("seq", &["ab"]),
        ),
        (
            r#"
            answer(X, Y) :- rel(X), echo(X, Y).
            echo("", "") :- true.
            echo(X, X[1] ++ X[1] ++ Z) :- echo(X[2:end], Z).
            "#,
            ("rel", &["ab"]),
        ),
    ];
    for (src, (pred, args)) in cases {
        let mut e = Engine::new();
        let p = e.parse_program(src).unwrap();
        let mut session = e.into_session(&p, EvalConfig::probe()).unwrap();
        session.run().unwrap();
        session.assert_fact(pred, args).unwrap();
        match session.run() {
            Err(EvalError::Budget { .. }) => {}
            other => panic!("incremental evaluation must exhaust a budget, got {other:?}"),
        }
        assert!(session.is_poisoned());
        assert!(matches!(
            session.assert_fact(pred, &["x"]),
            Err(EvalError::Poisoned { .. })
        ));
    }
}

#[test]
fn definition_5_sequence_function_convention() {
    // A program expresses a function via db = {input(x)} and the output
    // predicate (Definition 5): here f = complement.
    let (mut e, db) = engine_with_db(&[("input", &["1100"])]);
    let p = e
        .parse_program(
            r#"
            output(Y) :- comp(X, Y), input(X).
            comp("", "") :- true.
            comp(X[1:N+1], Y ++ B) :- input(X), comp(X[1:N], Y), flip(X[N+1], B).
            flip("0", "1").
            flip("1", "0").
            "#,
        )
        .unwrap();
    let m = e.evaluate(&p, &db).unwrap();
    assert_eq!(e.answers(&m, "output"), vec!["0011"]);
}
