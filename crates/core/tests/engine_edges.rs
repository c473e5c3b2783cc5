//! Edge-case and failure-injection tests for the engine.

use seqlog_core::analysis::Bind;
use seqlog_core::database::Database;
use seqlog_core::engine::Engine;
use seqlog_core::eval::{BudgetKind, EvalConfig, EvalError};

fn db1(e: &mut Engine, pred: &str, w: &str) -> Database {
    let mut db = Database::new();
    e.add_fact(&mut db, pred, &[w]);
    db
}

#[test]
fn empty_program_yields_the_database() {
    let mut e = Engine::new();
    let p = e.parse_program("").unwrap();
    let db = db1(&mut e, "r", "abc");
    let m = e.evaluate(&p, &db).unwrap();
    assert_eq!(m.facts.total_facts(), 1);
    assert_eq!(m.domain.len(), 7); // closure of "abc"
}

#[test]
fn empty_database_yields_only_ground_facts() {
    let mut e = Engine::new();
    let p = e.parse_program("p(\"ab\").\nq(X) :- r(X).").unwrap();
    let m = e.evaluate(&p, &Database::new()).unwrap();
    assert_eq!(e.answers(&m, "p"), vec!["ab"]);
    assert!(m.tuples("q").is_empty());
}

#[test]
fn unknown_transducer_is_an_eval_error() {
    let mut e = Engine::new();
    let p = e.parse_program("p(@nope(X)) :- r(X).").unwrap();
    let db = db1(&mut e, "r", "a");
    match e.evaluate(&p, &db) {
        Err(EvalError::UnknownTransducer(name)) => assert_eq!(name, "nope"),
        other => panic!("expected UnknownTransducer, got {other:?}"),
    }
}

#[test]
fn each_budget_kind_can_fire() {
    let mut e = Engine::new();
    // A program that doubles a sequence every round.
    let p = e.parse_program("r(X ++ X) :- r(X).").unwrap();
    let db = db1(&mut e, "r", "ab");

    let rounds = EvalConfig {
        max_rounds: 3,
        ..EvalConfig::default()
    };
    match e.evaluate_with(&p, &db, &rounds) {
        Err(EvalError::Budget {
            kind: BudgetKind::Rounds,
            ..
        }) => {}
        other => panic!("expected Rounds, got {other:?}"),
    }

    let seqlen = EvalConfig {
        max_seq_len: 16,
        ..EvalConfig::default()
    };
    match e.evaluate_with(&p, &db, &seqlen) {
        Err(EvalError::Budget {
            kind: BudgetKind::SeqLen,
            ..
        }) => {}
        other => panic!("expected SeqLen, got {other:?}"),
    }

    let dom = EvalConfig {
        max_domain: 40,
        ..EvalConfig::default()
    };
    match e.evaluate_with(&p, &db, &dom) {
        Err(EvalError::Budget {
            kind: BudgetKind::DomainSize,
            ..
        }) => {}
        other => panic!("expected DomainSize, got {other:?}"),
    }

    // Facts budget needs a program that multiplies facts instead.
    let p2 = e.parse_program("pair(X, Y) :- s(X), s(Y).").unwrap();
    let mut db2 = Database::new();
    for w in ["a", "b", "c", "d", "e"] {
        e.add_fact(&mut db2, "s", &[w]);
    }
    let facts = EvalConfig {
        max_facts: 10,
        ..EvalConfig::default()
    };
    match e.evaluate_with(&p2, &db2, &facts) {
        Err(EvalError::Budget {
            kind: BudgetKind::Facts,
            ..
        }) => {}
        other => panic!("expected Facts, got {other:?}"),
    }
}

#[test]
fn facts_budget_cannot_overshoot_mid_round() {
    // One T-operator round can attempt far more head instantiations than
    // `max_facts`. Budgets are enforced incrementally as the commit phase
    // inserts, so the interpretation stops at `max_facts + 1` facts instead
    // of committing the whole round (previously a single wide round could
    // overshoot arbitrarily — here by ~10,000 pairs).
    let mut e = Engine::new();
    let p = e.parse_program("pair(X, Y) :- s(X), s(Y).").unwrap();
    let mut db = Database::new();
    for i in 0..100 {
        e.add_fact(&mut db, "s", &[&format!("w{i}")]);
    }
    let cfg = EvalConfig {
        max_facts: 150,
        ..EvalConfig::default()
    };
    match e.evaluate_with(&p, &db, &cfg) {
        Err(EvalError::Budget {
            kind: BudgetKind::Facts,
            stats,
        }) => {
            assert_eq!(
                stats.facts, 151,
                "a single wide round must not exceed max_facts + 1"
            );
        }
        other => panic!("expected Facts budget error, got {other:?}"),
    }
}

#[test]
fn adversarial_index_constants_evaluate_to_undefined() {
    // i64-overflowing index arithmetic in a head term: the term is
    // undefined (no fact), not a panic (debug) or a wrapped index
    // (release).
    let mut e = Engine::new();
    let p = e
        .parse_program(&format!("p(X[N + {} : end]) :- r(X).", i64::MAX))
        .unwrap();
    let db = db1(&mut e, "r", "abc");
    let m = e.evaluate(&p, &db).unwrap();
    assert!(m.tuples("p").is_empty());
    // And in a body literal.
    let p = e
        .parse_program(&format!("p(X) :- r(X), X[N + {} : end] = \"a\".", i64::MAX))
        .unwrap();
    let m = e.evaluate(&p, &db).unwrap();
    assert!(m.tuples("p").is_empty());
}

#[test]
fn self_join_derives_each_new_pair_once() {
    // Semi-naive with a clause mentioning the same grown predicate twice:
    // the firing for each literal occurrence restricts occurrences before
    // it to the pre-round prefix, so every ordered pair is derived exactly
    // once across firings. With `k` seed words of length `L` and pairwise
    // distinct suffixes, p reaches k·L + 1 facts and the expected
    // derivation count is exactly |p|² (each q pair once) + |p| - 1 (each
    // non-empty p fact extends once). The earlier per-literal scheme
    // re-derived every new–new pair once per occurrence.
    let (k, l) = (6usize, 8usize);
    let mut e = Engine::new();
    let p = e
        .parse_program("q(X, Y) :- p(X), p(Y).\np(X[2:end]) :- p(X), X != \"\".")
        .unwrap();
    let mut db = Database::new();
    for i in 0..k {
        let mut word: String = (0..l - 1)
            .map(|j| char::from(b'a' + ((i * 7 + j * 5 + i * j) % 3) as u8))
            .collect();
        word.push(char::from(b's' + i as u8)); // unique tail: disjoint suffixes
        e.add_fact(&mut db, "p", &[&word]);
    }
    let semi = e.evaluate(&p, &db).unwrap();
    let p_total = k * l + 1;
    assert_eq!(semi.tuples("p").len(), p_total);
    assert_eq!(semi.tuples("q").len(), p_total * p_total);
    assert_eq!(
        semi.stats.derivations,
        (p_total * p_total + p_total - 1) as u64,
        "each new-new pair must be derived exactly once"
    );
    // The model is unchanged with respect to the naive reference.
    let naive = e
        .evaluate_with(
            &p,
            &db,
            &EvalConfig {
                strategy: seqlog_core::eval::Strategy::Naive,
                ..EvalConfig::default()
            },
        )
        .unwrap();
    assert_eq!(naive.facts.total_facts(), semi.facts.total_facts());
}

#[test]
fn undefined_index_terms_fail_silently_in_heads() {
    // X[5:6] is undefined for short sequences: no fact derived, no error
    // (θ is simply not defined at the clause, Section 3.2).
    let mut e = Engine::new();
    let p = e.parse_program("p(X[5:6]) :- r(X).").unwrap();
    let db = db1(&mut e, "r", "abc");
    let m = e.evaluate(&p, &db).unwrap();
    assert!(m.tuples("p").is_empty());
}

#[test]
fn index_arithmetic_with_two_variables_enumerates() {
    // N+M = 3 has several solutions over the domain integers; each yields
    // the same window here, deduplicated by the fact store.
    let mut e = Engine::new();
    let p = e
        .parse_program("p(X[1:N+M]) :- r(X), X[N:M] = \"b\".")
        .unwrap();
    let db = db1(&mut e, "r", "abc");
    let m = e.evaluate(&p, &db).unwrap();
    // X[N:M] = "b" forces N = M = 2, so X[1:4] is undefined and nothing
    // else matches… except N=2, M=2 gives X[1:4]: undefined. So p is empty.
    assert!(m.tuples("p").is_empty());

    // A satisfiable variant: X[N:M] = "bc" forces N=2, M=3 ⇒ X[1:5]
    // undefined; X[N:M] = "a" forces N=M=1 ⇒ X[1:2] = "ab".
    let p2 = e
        .parse_program("p(X[1:N+M]) :- r(X), X[N:M] = \"a\".")
        .unwrap();
    let m2 = e.evaluate(&p2, &db).unwrap();
    assert_eq!(e.answers(&m2, "p"), vec!["ab"]);
}

#[test]
fn paper_term_shapes_parse_and_evaluate() {
    // Section 3.1's example terms: 3, N+3, N-M, end-5, end-5+M; and
    // ccgt ++ S1[1:end-3] ++ S2.
    let mut e = Engine::new();
    let p = e
        .parse_program(
            r#"
            tail5(X[end-5+M:end]) :- r(X).
            spliced("ccgt" ++ X[1:end-3] ++ Y) :- r(X), r(Y).
            "#,
        )
        .unwrap();
    // M occurs only in the head: it is enumerated over the domain integers,
    // and the head is defined only where end-5+M is a valid index.
    let mut db = Database::new();
    e.add_fact(&mut db, "r", &["acgtacgt"]);
    let m = e.evaluate(&p, &db).unwrap();
    assert!(!m.tuples("tail5").is_empty());
    let spliced = e.answers(&m, "spliced");
    // ccgt + acgta + acgtacgt
    assert!(spliced.contains(&"ccgtacgtaacgtacgt".to_string()));
}

#[test]
fn inequality_requires_definedness() {
    // X[9] != "a" is undefined for short X: the substitution is not
    // defined at the clause, so it contributes nothing.
    let mut e = Engine::new();
    let p = e.parse_program("p(X) :- r(X), X[9] != \"a\".").unwrap();
    let db = db1(&mut e, "r", "abc");
    let m = e.evaluate(&p, &db).unwrap();
    assert!(m.tuples("p").is_empty());
}

#[test]
fn zero_arity_predicates_work_end_to_end() {
    let mut e = Engine::new();
    let p = e
        .parse_program("go :- r(X), X[1] = \"a\".\nyes(X) :- go, r(X).")
        .unwrap();
    let db = db1(&mut e, "r", "abc");
    let m = e.evaluate(&p, &db).unwrap();
    assert!(m.contains("go", &[]));
    assert_eq!(e.answers(&m, "yes"), vec!["abc"]);
}

#[test]
fn duplicate_facts_are_idempotent() {
    let mut e = Engine::new();
    let p = e.parse_program("p(X) :- r(X).").unwrap();
    let mut db = Database::new();
    e.add_fact(&mut db, "r", &["ab"]);
    e.add_fact(&mut db, "r", &["ab"]);
    let m = e.evaluate(&p, &db).unwrap();
    assert_eq!(m.facts.total_facts(), 2); // r(ab), p(ab)
}

#[test]
fn stats_track_transducer_work() {
    let mut e = Engine::new();
    let syms: Vec<_> = "ab".chars().map(|c| e.alphabet.intern_char(c)).collect();
    let t = seqlog_transducer::library::copy(&mut e.alphabet, &syms);
    e.register_transducer("copy", t);
    let p = e.parse_program("c(@copy(X)) :- r(X).").unwrap();
    let db = db1(&mut e, "r", "abab");
    let m = e.evaluate(&p, &db).unwrap();
    assert_eq!(m.stats.transducer_calls, 1);
    assert_eq!(m.stats.transducer_steps, 4);
}

#[test]
fn ground_domain_sensitive_clauses_refire_on_late_domain_growth() {
    // Regression (found by the incremental paper-example coverage):
    // `pair(X, X) :- true.` has an empty body but is domain-sensitive —
    // its free head variable ranges over the extended active domain.
    // Semi-naive planning used to skip body-empty clauses *before* the
    // domain-growth check, losing instantiations over sequences first
    // created in later rounds (here `abab`, built by the `++` rule after
    // round 1), while naive evaluation derived them.
    let mut e = Engine::new();
    let p = e
        .parse_program("pair(X, X) :- true.\ngrown(Y ++ Y) :- r(Y).")
        .unwrap();
    let db = db1(&mut e, "r", "ab");
    let semi = e.evaluate(&p, &db).unwrap();
    let naive = e
        .evaluate_with(
            &p,
            &db,
            &EvalConfig {
                strategy: seqlog_core::eval::Strategy::Naive,
                ..EvalConfig::default()
            },
        )
        .unwrap();
    let abab = e.seq("abab");
    assert!(
        semi.contains("pair", &[abab, abab]),
        "late domain member must reach the ground domain-sensitive clause"
    );
    assert_eq!(naive.facts.total_facts(), semi.facts.total_facts());
    for pred in ["pair", "grown", "r"] {
        let mut a = e.rendered_tuples(&naive, pred);
        let mut b = e.rendered_tuples(&semi, pred);
        a.sort();
        b.sort();
        assert_eq!(a, b, "{pred}");
    }
}

#[test]
fn fixpoint_retry_after_budget_error_recovers_the_least_fixpoint() {
    // Driving the resumable Fixpoint directly (below the session layer,
    // which poisons instead): a mid-commit Facts-budget error must not
    // advance the round watermarks, so re-running with a larger budget
    // re-derives the interrupted round and converges to the same model a
    // from-scratch evaluation computes.
    use seqlog_core::compile::compile;
    use seqlog_core::eval::Fixpoint;
    use seqlog_core::model::closed_under_tp;

    let mut e = Engine::new();
    let p = e.parse_program("pair(X, Y) :- s(X), s(Y).").unwrap();
    let compiled = compile(&p).unwrap();
    let mut fx = Fixpoint::new(&compiled);
    let mut pid = None;
    for i in 0..10 {
        let id = e.seq(&format!("w{i}"));
        let pred = *pid.get_or_insert_with(|| fx.pred_id("s"));
        assert!(fx.assert_fact(&mut e.store, pred, vec![id].into()));
    }

    let tight = EvalConfig {
        max_facts: 50,
        ..EvalConfig::default()
    };
    match fx.run(&compiled, &mut e.store, &e.registry, &tight) {
        Err(EvalError::Budget { kind, stats }) => {
            assert_eq!(kind, BudgetKind::Facts);
            assert_eq!(stats.facts, 51, "commit stops at max_facts + 1");
        }
        other => panic!("expected Facts budget, got {other:?}"),
    }

    // Retry with room: must reach the full fixpoint (10 + 100 facts) and
    // be closed under the T-operator.
    fx.run(&compiled, &mut e.store, &e.registry, &EvalConfig::default())
        .expect("retry succeeds");
    let model = fx.snapshot();
    assert_eq!(model.stats.facts, 110);
    assert!(closed_under_tp(
        &compiled,
        &model.facts,
        &model.domain,
        &mut e.store,
        &e.registry,
        &EvalConfig::default(),
    )
    .unwrap());

    // And it matches a from-scratch evaluation extensionally.
    let mut db = Database::new();
    for i in 0..10 {
        e.add_fact(&mut db, "s", &[&format!("w{i}")]);
    }
    let batch = e.evaluate(&p, &db).unwrap();
    assert_eq!(batch.stats.facts, model.stats.facts);
    let mut a = e.rendered_tuples(&batch, "pair");
    let mut b: Vec<Vec<String>> = model
        .tuples("pair")
        .into_iter()
        .map(|t| t.iter().map(|&id| e.render(id)).collect())
        .collect();
    a.sort();
    b.sort();
    assert_eq!(a, b);
}

#[test]
fn wide_round_landing_exactly_on_the_facts_budget_succeeds_at_every_thread_count() {
    // 8 base words derive 64 pairs: 72 facts total. A budget of exactly 72
    // must succeed — the incremental check fires only when the total
    // *exceeds* the budget — and a budget of 71 must fail having admitted
    // exactly one fact past it (stats.facts == 72), identically on the
    // inline path, the threaded path, and the forced multi-worker path.
    let mut e = Engine::new();
    let p = e.parse_program("pair(X, Y) :- s(X), s(Y).").unwrap();
    let mut db = Database::new();
    for i in 0..8 {
        e.add_fact(&mut db, "s", &[&format!("w{i}")]);
    }
    let configs = |max_facts: usize| {
        [1usize, 2, 4, 8].into_iter().flat_map(move |threads| {
            [false, true].into_iter().map(move |force| EvalConfig {
                threads,
                max_facts,
                danger_force_parallel: force,
                ..EvalConfig::default()
            })
        })
    };

    let reference = e
        .evaluate_with(
            &p,
            &db,
            &EvalConfig {
                max_facts: 72,
                ..EvalConfig::default()
            },
        )
        .expect("landing exactly on the budget is not an overshoot");
    assert_eq!(reference.stats.facts, 72);
    for cfg in configs(72) {
        let m = e
            .evaluate_with(&p, &db, &cfg)
            .unwrap_or_else(|err| panic!("exact-budget round failed under {cfg:?}: {err}"));
        assert_eq!(m.stats, reference.stats, "stats diverged under {cfg:?}");
        assert_eq!(
            m.tuples("pair"),
            reference.tuples("pair"),
            "insertion order diverged under {cfg:?}"
        );
    }

    for cfg in configs(71) {
        match e.evaluate_with(&p, &db, &cfg) {
            Err(EvalError::Budget {
                kind: BudgetKind::Facts,
                stats,
            }) => assert_eq!(
                stats.facts, 72,
                "refuse-before-apply bound violated under {cfg:?}"
            ),
            other => panic!("expected Facts budget error under {cfg:?}, got {other:?}"),
        }
    }
}

/// An engine with two swap/collapse machines `f` and `g` registered, and
/// a program whose head chains them (`@f(@g(X))`), which the compile-time
/// fusion pass collapses into one synthesized `fused$…` machine.
fn fused_chain_engine() -> (Engine, seqlog_core::ast::Program) {
    use seqlog_transducer::library;
    let mut e = Engine::new();
    let s: Vec<_> = "ab".chars().map(|c| e.alphabet.intern_char(c)).collect();
    let f = library::mapper(&mut e.alphabet, "f", &[(s[0], s[1]), (s[1], s[0])]);
    let g = library::mapper(&mut e.alphabet, "g", &[(s[0], s[0]), (s[1], s[0])]);
    e.register_transducer("f", f);
    e.register_transducer("g", g);
    let p = e.parse_program("p(X, @f(@g(X))) :- r(X).").unwrap();
    assert!(
        e.analyze(&p).unwrap().fusion.iter().any(|d| d.applied),
        "the chain must actually fuse for these pins to mean anything"
    );
    (e, p)
}

fn registered(e: &Engine) -> Vec<String> {
    let mut names: Vec<String> = e.registry.names().map(str::to_string).collect();
    names.sort();
    names
}

#[test]
fn evaluate_hands_back_the_registry_without_fused_machines() {
    let (mut e, p) = fused_chain_engine();
    let before = registered(&e);
    let mut db = Database::new();
    for w in ["ab", "ba"] {
        e.add_fact(&mut db, "r", &[w]);
    }
    let m = e.evaluate_with(&p, &db, &EvalConfig::default()).unwrap();
    assert_eq!(m.tuples("p").len(), 2);
    assert_eq!(
        registered(&e),
        before,
        "fused machines leaked into the engine"
    );
    // And again with fusion off: nothing is registered or dropped either.
    let off = EvalConfig {
        danger_disable_fusion: true,
        ..EvalConfig::default()
    };
    e.evaluate_with(&p, &db, &off).unwrap();
    assert_eq!(registered(&e), before);
}

#[test]
fn failed_evaluate_leaves_the_engine_usable() {
    let mut e = Engine::new();
    let early = e.seq("early");
    let p = e.parse_program("pair(X, Y) :- s(X), s(Y).").unwrap();
    let mut db = Database::new();
    for w in ["a", "b", "c", "d"] {
        e.add_fact(&mut db, "s", &[w]);
    }
    let tight = EvalConfig {
        max_facts: 5,
        ..EvalConfig::default()
    };
    assert!(matches!(
        e.evaluate_with(&p, &db, &tight),
        Err(EvalError::Budget {
            kind: BudgetKind::Facts,
            ..
        })
    ));
    // The interners came back: earlier ids still render, and the engine
    // parses and evaluates as before.
    assert_eq!(e.render(early), "early");
    let p2 = e.parse_program("q(X) :- s(X).").unwrap();
    let m = e.evaluate(&p2, &db).unwrap();
    assert_eq!(e.answers(&m, "q"), ["a", "b", "c", "d"]);
    let m = e.evaluate(&p, &db).unwrap();
    assert_eq!(m.tuples("pair").len(), 16);
}

#[test]
fn query_bound_on_a_fused_chain_equals_the_filtered_evaluation() {
    let (mut e, p) = fused_chain_engine();
    let before = registered(&e);
    let mut db = Database::new();
    for w in ["ab", "ba", "abba", "b"] {
        e.add_fact(&mut db, "r", &[w]);
    }
    let m = e.evaluate(&p, &db).unwrap();
    for key in ["ab", "abba", "zz"] {
        let mut want: Vec<Vec<String>> = e
            .rendered_tuples(&m, "p")
            .into_iter()
            .filter(|t| t[0] == key)
            .collect();
        want.sort();
        want.dedup();
        let got = e
            .query_bound(&p, &db, "p", &[Bind::Bound(key), Bind::Free])
            .unwrap();
        assert_eq!(got, want, "query_bound p({key}, _)");
    }
    assert_eq!(registered(&e), before);
}
