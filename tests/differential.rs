//! Differential tests: independent execution routes must agree.
//!
//! * naive T-operator iteration ≡ semi-naive evaluation (same least
//!   fixpoint, Section 3.3);
//! * Transducer Datalog ≡ its Theorem 7 translation to Sequence Datalog;
//! * direct Turing-machine runs ≡ Theorem 1 Datalog simulation ≡ Theorem 5
//!   order-2 network simulation;
//! * unguarded programs ≡ their Theorem 10 guarding.

use sequence_datalog::core::prelude::*;
use sequence_datalog::core::EvalError;
use sequence_datalog::transducer::library;
use sequence_datalog::turing::{
    samples, strip_trailing_blanks, tm_to_network, tm_to_seqlog, NetworkOptions,
};

/// Evaluate under both strategies and compare every predicate's extent.
fn assert_strategies_agree(e: &mut Engine, program: &Program, db: &Database) {
    let naive = e
        .evaluate_with(
            program,
            db,
            &EvalConfig {
                strategy: Strategy::Naive,
                ..Default::default()
            },
        )
        .expect("naive evaluation terminates");
    let semi = e
        .evaluate_with(
            program,
            db,
            &EvalConfig {
                strategy: Strategy::SemiNaive,
                ..Default::default()
            },
        )
        .expect("semi-naive evaluation terminates");
    assert_eq!(
        naive.facts.total_facts(),
        semi.facts.total_facts(),
        "fact counts differ"
    );
    for pred in program.predicates() {
        let mut a = e.rendered_tuples(&naive, &pred);
        let mut b = e.rendered_tuples(&semi, &pred);
        a.sort();
        b.sort();
        assert_eq!(a, b, "extent of {pred} differs between strategies");
    }
}

#[test]
fn strategies_agree_on_paper_programs() {
    let programs: &[&str] = &[
        "suffix(X[N:end]) :- r(X).",
        "answer(X ++ Y) :- r(X), r(Y).",
        r#"
        answer(X) :- r(X), abcn(X[1:N1], X[N1+1:N2], X[N2+1:end]).
        abcn("", "", "") :- true.
        abcn(X, Y, Z) :- X[1] = "a", Y[1] = "b", Z[1] = "c",
                         abcn(X[2:end], Y[2:end], Z[2:end]).
        "#,
        r#"
        answer(Y) :- r(X), rev(X, Y).
        rev("", "") :- true.
        rev(X[1:N+1], X[N+1] ++ Y) :- r(X), rev(X[1:N], Y).
        "#,
        r#"
        rep1(X, X) :- true.
        rep1(X, X[1:N]) :- rep1(X[N+1:end], X[1:N]).
        "#,
        "double(X ++ X) :- r(X).\nquadruple(X ++ X) :- double(X).",
        // Mutual recursion with inequality.
        "p(X) :- r(X).\np(X[2:end]) :- q(X), X != \"\".\nq(X) :- p(X).",
    ];
    for src in programs {
        let mut e = Engine::new();
        let mut db = Database::new();
        for s in ["abc", "aabbcc", "abab", "110", ""] {
            e.add_fact(&mut db, "r", &[s]);
        }
        let p = e.parse_program(src).unwrap();
        assert_strategies_agree(&mut e, &p, &db);
    }
}

#[test]
fn strategies_agree_on_large_mutual_recursion() {
    // A three-clause mutually recursive chain (chain0 → chain1 → chain2 →
    // chain0, each step trimming one symbol) plus a product predicate, over
    // enough seed words that the least fixpoint holds well over 5k facts.
    // This drives the semi-naive delta ranges across *multiple predicates
    // simultaneously* and across many round boundaries (one chain hop per
    // round), which is exactly the bookkeeping the PredId-indexed size
    // snapshots have to get right.
    let mut e = Engine::new();
    let (p, db) = chain_workload(&mut e);
    let semi = e
        .evaluate_with(
            &p,
            &db,
            &EvalConfig {
                strategy: Strategy::SemiNaive,
                ..Default::default()
            },
        )
        .expect("semi-naive evaluation terminates");
    assert!(
        semi.stats.facts >= 5_000,
        "workload too small to exercise delta ranges: {} facts",
        semi.stats.facts
    );
    // Rounds must actually progress through the chain (≥ one hop per
    // trimmed symbol), so deltas cross many round boundaries.
    assert!(
        semi.stats.rounds >= 33,
        "expected ≥33 rounds, got {}",
        semi.stats.rounds
    );
    assert_strategies_agree(&mut e, &p, &db);
}

/// Evaluate the same program at `threads ∈ {1, 2, 4, 8}` and demand
/// bit-for-bit agreement: identical per-relation tuple *insertion order*
/// (not just set equality), identical [`EvalStats`], and — via the caller —
/// identical error variants on failing programs.
fn assert_thread_counts_agree(
    e: &mut Engine,
    program: &Program,
    db: &Database,
    base: &EvalConfig,
) -> Result<sequence_datalog::core::Model, EvalError> {
    let mut reference: Option<(usize, sequence_datalog::core::Model)> = None;
    let mut reference_err: Option<(usize, EvalError)> = None;
    for threads in [1usize, 2, 4, 8] {
        let cfg = EvalConfig { threads, ..*base };
        match e.evaluate_with(program, db, &cfg) {
            Ok(model) => match &reference {
                None => {
                    assert!(
                        reference_err.is_none(),
                        "threads={threads} succeeded, earlier failed"
                    );
                    reference = Some((threads, model));
                }
                Some((t0, m0)) => {
                    assert_eq!(
                        m0.stats, model.stats,
                        "stats differ between threads={t0} and threads={threads}"
                    );
                    for pred in program.predicates() {
                        // Unsorted: insertion order itself must agree.
                        assert_eq!(
                            e.rendered_tuples(m0, &pred),
                            e.rendered_tuples(&model, &pred),
                            "insertion order of {pred} differs between threads={t0} and threads={threads}"
                        );
                    }
                }
            },
            Err(err) => match &reference_err {
                None => {
                    assert!(
                        reference.is_none(),
                        "threads={threads} failed, earlier succeeded"
                    );
                    reference_err = Some((threads, err));
                }
                Some((t0, e0)) => {
                    assert_eq!(
                        std::mem::discriminant(e0),
                        std::mem::discriminant(&err),
                        "error variant differs between threads={t0} and threads={threads}"
                    );
                    if let (
                        EvalError::Budget {
                            kind: k0,
                            stats: s0,
                        },
                        EvalError::Budget {
                            kind: k1,
                            stats: s1,
                        },
                    ) = (e0, &err)
                    {
                        assert_eq!(k0, k1, "budget kind differs at threads={threads}");
                        assert_eq!(
                            s0.facts, s1.facts,
                            "stats.facts at error differ at threads={threads}"
                        );
                    }
                }
            },
        }
    }
    match (reference, reference_err) {
        (Some((_, m)), None) => Ok(m),
        (None, Some((_, e))) => Err(e),
        _ => unreachable!("each run either succeeds or fails"),
    }
}

/// The shared ≥5k-fact mutual-recursion workload. Deterministic seed
/// words, each ending in a letter unique to it, so no two words share any
/// non-empty suffix — the chain relations grow to their full,
/// collision-free size.
fn chain_workload(e: &mut Engine) -> (Program, Database) {
    let src = r#"
        chain1(X[2:end]) :- chain0(X), X != "".
        chain2(X[2:end]) :- chain1(X), X != "".
        chain0(X[2:end]) :- chain2(X), X != "".
        pairs(X, Y) :- chain0(X), chain2(Y).
    "#;
    let mut db = Database::new();
    for i in 0..8usize {
        let mut word: String = (0..32)
            .map(|j| char::from(b'a' + ((i * 7 + j * 5 + i * j) % 3) as u8))
            .collect();
        word.push(char::from(b's' + i as u8));
        e.add_fact(&mut db, "chain0", &[&word]);
    }
    let p = e.parse_program(src).unwrap();
    (p, db)
}

#[test]
fn thread_counts_agree_on_large_mutual_recursion() {
    // Naive ≡ semi-naive ≡ parallel semi-naive at 1/2/4/8 threads on the
    // 5k-fact chain workload: identical models, identical insertion order
    // and stats across thread counts.
    let mut e = Engine::new();
    let (p, db) = chain_workload(&mut e);
    let parallel = assert_thread_counts_agree(&mut e, &p, &db, &EvalConfig::default())
        .expect("chain workload terminates");
    assert!(parallel.stats.facts >= 5_000, "workload too small");
    let naive = e
        .evaluate_with(
            &p,
            &db,
            &EvalConfig {
                strategy: Strategy::Naive,
                ..Default::default()
            },
        )
        .unwrap();
    assert_eq!(naive.facts.total_facts(), parallel.facts.total_facts());
    for pred in p.predicates() {
        let mut a = e.rendered_tuples(&naive, &pred);
        let mut b = e.rendered_tuples(&parallel, &pred);
        a.sort();
        b.sort();
        assert_eq!(a, b, "extent of {pred} differs from naive");
    }
}

#[test]
fn thread_counts_agree_on_transducer_heads() {
    // Transducer calls run in the sequential commit phase; sharding the
    // match phase must not reorder or duplicate them.
    let mut e = Engine::new();
    let t1 = library::transcribe(&mut e.alphabet);
    let t2 = library::translate(&mut e.alphabet);
    e.register_transducer("transcribe", t1);
    e.register_transducer("translate", t2);
    let p = e
        .parse_program(
            "rnaseq(D, @transcribe(D)) :- dnaseq(D).\n\
             proteinseq(D, @translate(R)) :- rnaseq(D, R).\n\
             tagged(D ++ P) :- proteinseq(D, P).",
        )
        .unwrap();
    let mut db = Database::new();
    for w in ["ctactg", "acg", "ctactgaaggtg", "tgcatgca"] {
        e.add_fact(&mut db, "dnaseq", &[w]);
    }
    let m = assert_thread_counts_agree(&mut e, &p, &db, &EvalConfig::default())
        .expect("genome program terminates");
    assert!(m.stats.transducer_calls > 0);
}

#[test]
fn thread_counts_agree_on_budget_errors() {
    // A fact-budget blowup must fail with the same EvalError variant, the
    // same BudgetKind, and the same stats.facts at every thread count (and
    // under both strategies): incremental enforcement stops all of them at
    // max_facts + 1.
    let mut e = Engine::new();
    let p = e.parse_program("pair(X, Y) :- s(X), s(Y).").unwrap();
    let mut db = Database::new();
    for i in 0..80 {
        e.add_fact(&mut db, "s", &[&format!("w{i}")]);
    }
    for strategy in [Strategy::SemiNaive, Strategy::Naive] {
        let base = EvalConfig {
            strategy,
            max_facts: 200,
            ..EvalConfig::default()
        };
        match assert_thread_counts_agree(&mut e, &p, &db, &base) {
            Err(EvalError::Budget { kind, stats }) => {
                assert_eq!(kind, sequence_datalog::core::BudgetKind::Facts);
                assert_eq!(stats.facts, 201, "{strategy:?}");
            }
            other => panic!("expected Facts budget error, got {other:?}"),
        }
    }
}

#[test]
fn theorem_7_roundtrip_on_the_genome_program() {
    let mut e = Engine::new();
    let t1 = library::transcribe(&mut e.alphabet);
    let t2 = library::translate(&mut e.alphabet);
    e.register_transducer("transcribe", t1);
    e.register_transducer("translate", t2);
    let td = e
        .parse_program(
            "rnaseq(D, @transcribe(D)) :- dnaseq(D).\n\
             proteinseq(D, @translate(R)) :- rnaseq(D, R).",
        )
        .unwrap();
    let sd = translate_program(&td, &e.registry, &mut e.alphabet, &mut e.store).unwrap();
    // The translation is pure Sequence Datalog.
    assert!(sd.transducer_names().is_empty());
    // And it preserves the original predicates' extents.
    let mut db = Database::new();
    e.add_fact(&mut db, "dnaseq", &["ctactg"]);
    e.add_fact(&mut db, "dnaseq", &["acg"]);
    let m_td = e.evaluate(&td, &db).unwrap();
    let m_sd = e.evaluate(&sd, &db).unwrap();
    for pred in ["rnaseq", "proteinseq"] {
        let mut a = e.rendered_tuples(&m_td, pred);
        let mut b = e.rendered_tuples(&m_sd, pred);
        a.sort();
        b.sort();
        assert_eq!(a, b, "{pred}");
    }
}

#[test]
fn theorem_7_preserves_finiteness_failures() {
    // A TD program with a constructive cycle diverges; so must its
    // translation (Theorem 7 preserves finiteness in both directions).
    let mut e = Engine::new();
    let syms: Vec<_> = "ab".chars().map(|c| e.alphabet.intern_char(c)).collect();
    let app = library::append(&mut e.alphabet, &syms);
    e.register_transducer("append", app);
    let td = e
        .parse_program("p(X) :- r(X).\np(@append(X, X)) :- p(X).")
        .unwrap();
    let sd = translate_program(&td, &e.registry, &mut e.alphabet, &mut e.store).unwrap();
    let mut db = Database::new();
    e.add_fact(&mut db, "r", &["ab"]);
    let cfg = EvalConfig::probe();
    assert!(matches!(
        e.evaluate_with(&td, &db, &cfg),
        Err(EvalError::Budget { .. })
    ));
    assert!(matches!(
        e.evaluate_with(&sd, &db, &cfg),
        Err(EvalError::Budget { .. })
    ));
}

#[test]
fn turing_three_routes_agree() {
    // Direct ≡ Theorem 1 Datalog ≡ Theorem 5 network, for every sample
    // machine on several inputs.
    type Case = (
        fn(&mut Alphabet) -> sequence_datalog::turing::TuringMachine,
        &'static [&'static str],
        usize,
    );
    let cases: &[Case] = &[
        (samples::complement_tm, &["0", "10", "1100"], 1),
        (samples::increment_tm, &["1", "011", "111"], 1),
        (samples::parity_tm, &["1", "110", "1011"], 1),
        (samples::sort_bits_tm, &["10", "101"], 2),
    ];
    for &(build, inputs, squarings) in cases {
        let mut e = Engine::new();
        let tm = build(&mut e.alphabet);
        let program = tm_to_seqlog(&tm, &mut e.alphabet, &mut e.store);
        let net = tm_to_network(
            &tm,
            &mut e.alphabet,
            NetworkOptions {
                counter_squarings: squarings,
            },
        );
        for input in inputs {
            let direct = {
                let syms = e.alphabet.seq_of_str(input);
                let run = tm.run(&syms, 1_000_000).unwrap();
                e.alphabet
                    .render(&strip_trailing_blanks(run.output, tm.blank))
            };
            // Theorem 1 route.
            let mut db = Database::new();
            e.add_fact(&mut db, "input", &[input]);
            let m = e.evaluate(&program, &db).unwrap();
            let sd_out = {
                let rows = e.rendered_tuples(&m, "output");
                let mut s = rows[0][0].clone();
                while s.ends_with('␣') {
                    s.pop();
                }
                s
            };
            assert_eq!(sd_out, direct, "{}: Theorem 1 route on {input}", tm.name);
            // Theorem 5 route.
            let syms = e.alphabet.seq_of_str(input);
            let net_out = e.alphabet.render(&net.run_simple(&[&syms]).unwrap());
            assert_eq!(net_out, direct, "{}: Theorem 5 route on {input}", tm.name);
        }
    }
}

#[test]
fn theorem_10_guarding_preserves_answers() {
    let sources: &[&str] = &[
        "p(X) :- q(X[1]).",
        "p(X) :- q(X[2:end]).",
        // Unguarded head variable: Y ranges over the domain.
        "pair(X, Y) :- q(X).",
        // rep1 has an unguarded base clause.
        "rep1(X, X) :- true.\nrep1(X, X[1:N]) :- rep1(X[N+1:end], X[1:N]).",
    ];
    for src in sources {
        let mut e = Engine::new();
        let p = e.parse_program(src).unwrap();
        let g = guard_program(&p, &[("seed".into(), 1)]);
        let mut db = Database::new();
        e.add_fact(&mut db, "seed", &["abc"]);
        e.add_fact(&mut db, "q", &["a"]);
        let m1 = e.evaluate(&p, &db).unwrap();
        let m2 = e.evaluate(&g, &db).unwrap();
        for pred in p.predicates() {
            let mut a = e.rendered_tuples(&m1, &pred);
            let mut b = e.rendered_tuples(&m2, &pred);
            a.sort();
            b.sort();
            assert_eq!(a, b, "{src}: extent of {pred}");
        }
    }
}

#[test]
fn theorem_10_guarded_programs_are_guarded() {
    let mut e = Engine::new();
    let p = e
        .parse_program("p(X) :- q(X[1]).\npair(X, Y) :- q(X).")
        .unwrap();
    assert!(!e.analyze(&p).unwrap().guarded);
    let g = guard_program(&p, &[]);
    assert!(e.analyze(&g).unwrap().guarded);
}

#[test]
fn transducer_datalog_concat_equals_append_machine() {
    // Section 7.1: `p(X ++ Y)` and `p(@append(X, Y))` are interchangeable.
    let mut e = Engine::new();
    let syms: Vec<_> = "abc".chars().map(|c| e.alphabet.intern_char(c)).collect();
    let app = library::append(&mut e.alphabet, &syms);
    e.register_transducer("append", app);
    let p_concat = e.parse_program("p(X ++ Y) :- q(X), q(Y).").unwrap();
    let p_machine = e.parse_program("p(@append(X, Y)) :- q(X), q(Y).").unwrap();
    let mut db = Database::new();
    for s in ["a", "bc", ""] {
        e.add_fact(&mut db, "q", &[s]);
    }
    let m1 = e.evaluate(&p_concat, &db).unwrap();
    let m2 = e.evaluate(&p_machine, &db).unwrap();
    let mut a = e.answers(&m1, "p");
    let mut b = e.answers(&m2, "p");
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn head_transducer_composition_matches_network() {
    // @translate(@transcribe(D)) in a head ≡ the serial network.
    let mut e = Engine::new();
    let t1 = library::transcribe(&mut e.alphabet);
    let t2 = library::translate(&mut e.alphabet);
    let net = Network::chain("pipe", vec![t1.clone(), t2.clone()]);
    e.register_transducer("transcribe", t1);
    e.register_transducer("translate", t2);
    let p = e
        .parse_program("protein(@translate(@transcribe(D))) :- dnaseq(D).")
        .unwrap();
    let mut db = Database::new();
    e.add_fact(&mut db, "dnaseq", &["ctactgaaggtg"]);
    let m = e.evaluate(&p, &db).unwrap();
    let got = e.answers(&m, "protein");
    let dna = e.seq("ctactgaaggtg");
    let expected = e
        .alphabet
        .render(&net.run_simple(&[e.store.get(dna)]).unwrap());
    assert_eq!(got, vec![expected]);
}
