//! Regression tests for [`seqlog_core::session::EngineSession`]: the
//! success path (resume ≡ batch, stats accumulation), the error path
//! (budget exhaustion mid-session poisons), and the per-run `max_rounds`
//! semantics.

use seqlog_core::database::Database;
use seqlog_core::engine::Engine;
use seqlog_core::eval::{BudgetKind, EvalConfig, EvalError};
use seqlog_core::session::EngineSession;

const CHAIN_SRC: &str = r#"
    chain1(X[2:end]) :- chain0(X), X != "".
    chain2(X[2:end]) :- chain1(X), X != "".
    chain0(X[2:end]) :- chain2(X), X != "".
    pairs(X, Y) :- chain0(X), chain2(Y).
"#;

fn session(src: &str, config: EvalConfig) -> EngineSession {
    let mut e = Engine::new();
    let p = e.parse_program(src).unwrap();
    e.into_session(&p, config).unwrap()
}

/// Batch-evaluate `src` over string facts and return sorted extents of
/// `preds` — the oracle sessions are compared against.
fn batch_extents(src: &str, facts: &[(&str, &str)], preds: &[&str]) -> Vec<Vec<Vec<String>>> {
    let mut e = Engine::new();
    let p = e.parse_program(src).unwrap();
    let mut db = Database::new();
    for (pred, w) in facts {
        e.add_fact(&mut db, pred, &[w]);
    }
    let m = e.evaluate(&p, &db).unwrap();
    preds
        .iter()
        .map(|pred| {
            let mut rows = e.rendered_tuples(&m, pred);
            rows.sort();
            rows
        })
        .collect()
}

fn session_extents(s: &EngineSession, preds: &[&str]) -> Vec<Vec<Vec<String>>> {
    preds
        .iter()
        .map(|pred| {
            let mut rows = s.query(pred);
            rows.sort();
            rows
        })
        .collect()
}

#[test]
fn resume_matches_batch_and_stats_accumulate() {
    let preds = ["chain0", "chain1", "chain2", "pairs"];
    let facts = [
        ("chain0", "abcabs"),
        ("chain0", "bbat"),
        ("chain0", "cacacu"),
    ];
    let mut s = session(CHAIN_SRC, EvalConfig::default());

    // Batch 1: first two facts.
    assert!(s.assert_fact("chain0", &["abcabs"]).unwrap());
    assert!(s.assert_fact("chain0", &["bbat"]).unwrap());
    let stats1 = s.run().unwrap();
    assert!(stats1.rounds >= 2, "chain needs several rounds");
    let mid = session_extents(&s, &preds);
    assert_eq!(
        mid,
        batch_extents(CHAIN_SRC, &facts[..2], &preds),
        "settled prefix must equal batch over the prefix"
    );

    // Batch 2: one more fact resumes from the delta.
    assert!(s.assert_fact("chain0", &["cacacu"]).unwrap());
    let stats2 = s.run().unwrap();
    assert_eq!(
        session_extents(&s, &preds),
        batch_extents(CHAIN_SRC, &facts, &preds),
        "resumed model must equal batch re-evaluation from scratch"
    );

    // Stats accumulate across resumes: rounds strictly grow, fact count is
    // the cumulative model size, and the second run resumed rather than
    // restarting (it needed fewer new rounds than a from-scratch run).
    assert!(stats2.rounds > stats1.rounds);
    assert!(stats2.facts > stats1.facts);
    assert!(stats2.derivations > stats1.derivations);
    let fresh = {
        let mut e = Engine::new();
        let p = e.parse_program(CHAIN_SRC).unwrap();
        let mut db = Database::new();
        for (pred, w) in &facts {
            e.add_fact(&mut db, pred, &[w]);
        }
        e.evaluate(&p, &db).unwrap().stats
    };
    assert_eq!(stats2.facts, fresh.facts);
    assert!(
        stats2.derivations - stats1.derivations < fresh.derivations,
        "resume must not redo the settled prefix's derivation work"
    );
}

#[test]
fn settled_run_costs_one_quiescence_round() {
    let mut s = session("p(X) :- r(X).", EvalConfig::default());
    s.assert_fact("r", &["ab"]).unwrap();
    let s1 = s.run().unwrap();
    let s2 = s.run().unwrap();
    assert_eq!(s2.rounds, s1.rounds + 1, "one quiescence-check round");
    assert_eq!(s2.facts, s1.facts);
    assert_eq!(s2.derivations, s1.derivations);
}

#[test]
fn duplicate_asserts_are_noops() {
    let mut s = session("p(X) :- r(X).", EvalConfig::default());
    assert!(s.assert_fact("r", &["ab"]).unwrap());
    s.run().unwrap();
    assert!(!s.assert_fact("r", &["ab"]).unwrap());
    let before = s.stats();
    s.run().unwrap();
    assert_eq!(s.stats().facts, before.facts);
    assert_eq!(s.query("p"), vec![vec!["ab".to_string()]]);
}

#[test]
fn assert_seq_and_ids_round_trip() {
    let mut s = session("suffix(X[N:end]) :- r(X).", EvalConfig::default());
    let id = s.assert_seq("abc").unwrap();
    assert_eq!(s.render(id), "abc");
    assert!(s.assert_fact_ids("r", &[id]).unwrap());
    s.run().unwrap();
    assert_eq!(s.answers("suffix"), ["", "abc", "bc", "c"]);
}

#[test]
fn budget_error_mid_session_poisons() {
    // First fixpoint settles comfortably; the second batch blows the
    // cumulative fact budget mid-resume.
    let config = EvalConfig {
        max_facts: 120,
        ..EvalConfig::default()
    };
    let mut s = session("pair(X, Y) :- s(X), s(Y).", config);
    for i in 0..5 {
        s.assert_fact("s", &[&format!("a{i}")]).unwrap();
    }
    let stats1 = s.run().unwrap();
    assert_eq!(stats1.facts, 5 + 25);

    for i in 0..10 {
        s.assert_fact("s", &[&format!("b{i}")]).unwrap();
    }
    let err = s.run().unwrap_err();
    let EvalError::Budget { kind, stats } = &err else {
        panic!("expected Budget error, got {err:?}");
    };
    assert_eq!(*kind, BudgetKind::Facts);
    // Incremental enforcement stops exactly at max_facts + 1, and the
    // error stats are cumulative (they include the first run's rounds).
    assert_eq!(stats.facts, 121);
    assert!(stats.rounds > stats1.rounds);

    // The session is poisoned: every further mutation is refused with the
    // original error attached…
    assert!(s.is_poisoned());
    match s.assert_fact("s", &["c"]) {
        Err(EvalError::Poisoned { original }) => {
            assert!(matches!(*original, EvalError::Budget { .. }));
        }
        other => panic!("expected Poisoned, got {other:?}"),
    }
    assert!(matches!(s.run(), Err(EvalError::Poisoned { .. })));
    assert!(matches!(
        s.assert_seq("zz"),
        Err(EvalError::Poisoned { .. })
    ));
    assert!(matches!(s.poison(), Some(EvalError::Budget { .. })));

    // …while the read API stays available, and the partial state is a
    // sound under-approximation of the full fixpoint: every committed pair
    // is a genuine derivation over the grown database.
    let partial = s.query("pair");
    assert!(!partial.is_empty());
    let snapshot = s.snapshot();
    assert_eq!(snapshot.stats.facts, 121);
    let mut e2 = Engine::new();
    let p2 = e2.parse_program("pair(X, Y) :- s(X), s(Y).").unwrap();
    let mut db2 = Database::new();
    for i in 0..5 {
        e2.add_fact(&mut db2, "s", &[&format!("a{i}")]);
    }
    for i in 0..10 {
        e2.add_fact(&mut db2, "s", &[&format!("b{i}")]);
    }
    let full2 = e2.evaluate(&p2, &db2).unwrap();
    let full_set: std::collections::BTreeSet<Vec<String>> =
        e2.rendered_tuples(&full2, "pair").into_iter().collect();
    for row in &partial {
        assert!(
            full_set.contains(row),
            "partial state contains an underivable fact: {row:?}"
        );
    }
}

#[test]
fn max_rounds_is_a_per_run_budget() {
    // A trimming chain needs ~len rounds per word. With max_rounds = 8,
    // two successive runs of ~6 rounds each must BOTH succeed (cumulative
    // rounds exceed 8), because the budget applies per run…
    let config = EvalConfig {
        max_rounds: 8,
        ..EvalConfig::default()
    };
    let src = "p(X[2:end]) :- p(X), X != \"\".";
    let mut s = session(src, config);
    s.assert_fact("p", &["aaaa"]).unwrap();
    let s1 = s.run().unwrap();
    s.assert_fact("p", &["bbbbb"]).unwrap();
    let s2 = s.run().unwrap();
    assert!(
        s2.rounds > 8,
        "cumulative rounds ({}) exceed the per-run budget — sessions are \
         not starved by uptime",
        s2.rounds
    );
    assert!(s2.rounds > s1.rounds);

    // …while a single delta needing more than max_rounds still fails.
    s.assert_fact("p", &["cccccccccccc"]).unwrap();
    let err = s.run().unwrap_err();
    match err {
        EvalError::Budget { kind, .. } => assert_eq!(kind, BudgetKind::Rounds),
        other => panic!("expected Rounds budget, got {other:?}"),
    }
    assert!(s.is_poisoned());
}

/// Oracle: after any retraction, the session must equal a fresh batch
/// evaluation of the surviving base facts.
fn assert_retract_matches_batch(
    s: &EngineSession,
    src: &str,
    survivors: &[(&str, &str)],
    preds: &[&str],
) {
    assert_eq!(
        session_extents(s, preds),
        batch_extents(src, survivors, preds),
        "retract ≢ fresh batch evaluation of the survivors"
    );
}

#[test]
fn retract_removes_unsupported_derivations() {
    let preds = ["chain0", "chain1", "chain2", "pairs"];
    let mut s = session(CHAIN_SRC, EvalConfig::default());
    s.assert_fact("chain0", &["abcabs"]).unwrap();
    s.assert_fact("chain0", &["bbat"]).unwrap();
    s.run().unwrap();

    assert!(s.retract_fact("chain0", &["abcabs"]).unwrap());
    assert_retract_matches_batch(&s, CHAIN_SRC, &[("chain0", "bbat")], &preds);
    assert!(!s.is_poisoned());

    // Retracting the last base fact empties the model entirely.
    assert!(s.retract_fact("chain0", &["bbat"]).unwrap());
    assert_retract_matches_batch(&s, CHAIN_SRC, &[], &preds);
    assert_eq!(s.stats().facts, 0);
    assert_eq!(s.stats().domain_size, 0, "domain shrinks with the facts");

    // The emptied session keeps serving.
    s.assert_fact("chain0", &["cacacu"]).unwrap();
    s.run().unwrap();
    assert_retract_matches_batch(&s, CHAIN_SRC, &[("chain0", "cacacu")], &preds);
}

#[test]
fn retract_preserves_alternative_derivations() {
    // p is derivable from either feed; retracting one base fact must keep
    // every fact the other still supports (the re-derive half of DRed).
    let src = r#"
        p(X) :- r(X).
        p(X) :- s(X).
        q(X[2:end]) :- p(X), X != "".
    "#;
    let mut s = session(src, EvalConfig::default());
    s.assert_fact("r", &["abc"]).unwrap();
    s.assert_fact("s", &["abc"]).unwrap();
    s.assert_fact("r", &["xyz"]).unwrap();
    s.run().unwrap();

    assert!(s.retract_fact("r", &["abc"]).unwrap());
    // p("abc") — and its whole derived chain — survives via s("abc").
    assert_retract_matches_batch(
        &s,
        src,
        &[("s", "abc"), ("r", "xyz")],
        &["p", "q", "r", "s"],
    );

    assert!(s.retract_fact("s", &["abc"]).unwrap());
    assert_retract_matches_batch(&s, src, &[("r", "xyz")], &["p", "q", "r", "s"]);
}

#[test]
fn retract_of_asserted_and_derived_fact_keeps_the_derivation() {
    // A fact both asserted as base AND derivable by a rule: retracting the
    // base record must leave the derived fact in place (it still has
    // support), matching batch evaluation of the survivors.
    let src = "p(X) :- r(X).";
    let mut s = session(src, EvalConfig::default());
    s.assert_fact("r", &["ab"]).unwrap();
    s.assert_fact("p", &["ab"]).unwrap(); // also derivable from r("ab")
    s.run().unwrap();
    assert!(s.is_base_fact("p", &["ab"]));

    assert!(s.retract_fact("p", &["ab"]).unwrap());
    assert!(!s.is_base_fact("p", &["ab"]));
    assert_retract_matches_batch(&s, src, &[("r", "ab")], &["p", "r"]);
    assert_eq!(s.query("p"), vec![vec!["ab".to_string()]], "still derived");

    // And the reverse order: retracting the supporting base fact while the
    // head stays asserted keeps p("ab") but drops r("ab").
    let mut s2 = session(src, EvalConfig::default());
    s2.assert_fact("r", &["ab"]).unwrap();
    s2.assert_fact("p", &["ab"]).unwrap();
    s2.run().unwrap();
    assert!(s2.retract_fact("r", &["ab"]).unwrap());
    assert_retract_matches_batch(&s2, src, &[("p", "ab")], &["p", "r"]);
}

#[test]
fn retract_shrinks_the_extended_domain_for_domain_sensitive_clauses() {
    // The Expressiveness-fragment trap: `pair(X, X) :- true.` instantiates
    // over the extended active domain itself. When the only fact that
    // introduced "ab" (and its windows) is retracted, those pair facts
    // must vanish even though no clause body mentions r0 — the domain
    // shrinkage pass of DRed, not atom propagation, has to catch it.
    let src = "pair(X, X) :- true.\nsuf(X[N:end]) :- r0(X).";
    let preds = ["pair", "r0", "suf"];
    let mut s = session(src, EvalConfig::default());
    s.assert_fact("r0", &["ab"]).unwrap();
    s.assert_fact("r0", &["c"]).unwrap();
    s.run().unwrap();
    let domain_before = s.stats().domain_size;
    // Domain: ε, a, b, ab, c → pair has 5 facts.
    assert_eq!(s.query("pair").len(), 5);

    assert!(s.retract_fact("r0", &["ab"]).unwrap());
    assert!(
        s.stats().domain_size < domain_before,
        "retraction must shrink the extended domain"
    );
    // Domain now: ε, c → pair(ε,ε), pair(c,c) only; suffixes of "ab" gone.
    assert_retract_matches_batch(&s, src, &[("r0", "c")], &preds);
    assert_eq!(s.query("pair").len(), 2);
}

#[test]
fn retracting_the_longest_sequence_shrinks_the_integer_range() {
    // Definition 2, item 3: the extended domain's integers are 0..=lmax+1,
    // and `X[N:end]` enumerates its index variable over them. Retracting
    // the only long sequence must lower lmax, so the clause sees the
    // smaller range from then on — exactly as a session that never held
    // the long sequence does.
    let src = "suf(X[N:end]) :- r0(X).";
    let mut s = session(src, EvalConfig::default());
    s.assert_fact("r0", &["ab"]).unwrap();
    s.assert_fact("long", &["abcdefgh"]).unwrap();
    s.run().unwrap();
    assert_eq!(s.snapshot().domain.int_upper(), 9);

    assert!(s.retract_fact("long", &["abcdefgh"]).unwrap());
    let model = s.snapshot();
    assert_eq!(model.domain.max_len(), 2);
    assert_eq!(model.domain.int_upper(), 3);
    assert_retract_matches_batch(&s, src, &[("r0", "ab")], &["long", "r0", "suf"]);

    let mut fresh = session(src, EvalConfig::default());
    fresh.assert_fact("r0", &["ab"]).unwrap();
    fresh.run().unwrap();
    let update_cost = |x: &mut EngineSession| {
        let before = x.stats().derivations;
        x.assert_fact("r0", &["ba"]).unwrap();
        x.run().unwrap();
        x.stats().derivations - before
    };
    let retracted = update_cost(&mut s);
    assert_eq!(retracted, update_cost(&mut fresh));
    assert_eq!(retracted, 8, "two bases × N ∈ 0..=3");
}

#[test]
fn retract_noops_do_not_touch_state_or_intern() {
    let mut s = session("p(X) :- r(X).", EvalConfig::default());
    s.assert_fact("r", &["ab"]).unwrap();
    s.run().unwrap();
    let stats = s.stats();

    // Unknown predicate: no-op, and the predicate is NOT interned.
    assert!(!s.retract_fact("nosuch", &["ab"]).unwrap());
    assert!(s.pred_id("nosuch").is_none(), "read path must not intern");
    // Known predicate, never-asserted word: no-op.
    assert!(!s.retract_fact("r", &["zz"]).unwrap());
    // Derived-only fact: no-op (p("ab") has no base record).
    assert!(!s.retract_fact("p", &["ab"]).unwrap());
    assert!(!s.is_base_fact("p", &["ab"]));
    assert_eq!(s.stats(), stats, "no-op retractions leave stats untouched");
    assert_eq!(s.query("p"), vec![vec!["ab".to_string()]]);

    // A no-op retraction is NOT an implicit run: a pending assert stays
    // pending through it (only an *effective* retraction settles).
    s.assert_fact("r", &["cd"]).unwrap();
    assert!(!s.retract_fact("r", &["never-there"]).unwrap());
    assert_eq!(s.query("p").len(), 1, "pending delta not yet derived");
    s.run().unwrap();
    assert_eq!(s.answers("p"), ["ab", "cd"], "next run settles it");
}

#[test]
fn retract_with_pending_asserts_settles_the_union() {
    // Retraction settles eagerly: pending (un-run) asserts are processed
    // by the same maintenance pass, and a pending assert can itself be
    // retracted before it was ever run.
    let preds = ["chain0", "chain1", "chain2", "pairs"];
    let mut s = session(CHAIN_SRC, EvalConfig::default());
    s.assert_fact("chain0", &["abcabs"]).unwrap();
    s.run().unwrap();
    s.assert_fact("chain0", &["bbat"]).unwrap(); // pending
    s.assert_fact("chain0", &["cacacu"]).unwrap(); // pending
    assert!(s.retract_fact("chain0", &["cacacu"]).unwrap());
    assert_retract_matches_batch(
        &s,
        CHAIN_SRC,
        &[("chain0", "abcabs"), ("chain0", "bbat")],
        &preds,
    );

    // Retract before the very first run (virgin fixpoint).
    let mut v = session(CHAIN_SRC, EvalConfig::default());
    v.assert_fact("chain0", &["abcabs"]).unwrap();
    v.assert_fact("chain0", &["bbat"]).unwrap();
    assert!(v.retract_fact("chain0", &["abcabs"]).unwrap());
    assert_retract_matches_batch(&v, CHAIN_SRC, &[("chain0", "bbat")], &preds);
}

#[test]
fn retract_db_batches_one_maintenance_pass() {
    let preds = ["chain0", "chain1", "chain2", "pairs"];
    let mut e = Engine::new();
    let p = e.parse_program(CHAIN_SRC).unwrap();
    let mut keep = Database::new();
    e.add_fact(&mut keep, "chain0", &["cacacu"]);
    let mut drop2 = Database::new();
    e.add_fact(&mut drop2, "chain0", &["abcabs"]);
    e.add_fact(&mut drop2, "chain0", &["bbat"]);
    let mut never = Database::new();
    e.add_fact(&mut never, "nosuch", &["zz"]); // never asserted
    let mut s = e.into_session(&p, EvalConfig::default()).unwrap();
    s.assert_db(&keep).unwrap();
    s.assert_db(&drop2).unwrap();
    s.run().unwrap();

    // Retracting facts that were never asserted — unknown predicate
    // included — is a no-op pass.
    let stats_before = s.stats();
    assert_eq!(s.retract_db(&never).unwrap(), 0);
    assert_eq!(s.stats(), stats_before);
    assert!(
        s.pred_id("nosuch").is_none(),
        "retract path must not intern"
    );

    let rounds_before = s.stats().rounds;
    assert_eq!(s.retract_db(&drop2).unwrap(), 2);
    let maintenance_rounds = s.stats().rounds - rounds_before;
    assert_retract_matches_batch(&s, CHAIN_SRC, &[("chain0", "cacacu")], &preds);
    // Both retractions shared one DRed pass: one targeted re-derive round
    // plus the resumed loop — far fewer than two full maintenance runs.
    assert!(
        maintenance_rounds <= 4,
        "batched retraction used {maintenance_rounds} rounds"
    );
}

#[test]
fn retract_frees_budget_headroom() {
    // Budgets are cumulative state bounds; retraction shrinks the state,
    // so a full session regains capacity — important for long-lived
    // serving processes cycling through tenants.
    let config = EvalConfig {
        max_facts: 4,
        ..EvalConfig::default()
    };
    let mut s = session("p(X) :- r(X).", config);
    s.assert_fact("r", &["a"]).unwrap();
    s.assert_fact("r", &["b"]).unwrap();
    s.run().unwrap(); // 2 base + 2 derived = 4 = max_facts
    assert!(matches!(
        s.assert_fact("r", &["c"]),
        Err(EvalError::Budget { .. })
    ));
    assert!(s.retract_fact("r", &["a"]).unwrap()); // frees r(a), p(a)
    assert!(s.assert_fact("r", &["c"]).unwrap(), "headroom regained");
    s.run().unwrap();
    assert_eq!(s.answers("p"), ["b", "c"]);
    assert!(!s.is_poisoned());
}

#[test]
fn retract_is_bit_for_bit_deterministic_across_threads() {
    let src = r#"
        p(X) :- r(X).
        p(X) :- s(X).
        pairs(X, Y) :- p(X), p(Y).
    "#;
    let run_at = |threads: usize| {
        let mut s = session(src, EvalConfig::with_threads(threads));
        for w in ["abc", "de", "f", "gh"] {
            s.assert_fact("r", &[w]).unwrap();
        }
        s.assert_fact("s", &["abc"]).unwrap();
        s.run().unwrap();
        s.retract_fact("r", &["abc"]).unwrap();
        s.retract_fact("r", &["f"]).unwrap();
        let extents: Vec<Vec<Vec<String>>> = ["p", "pairs", "r", "s"]
            .iter()
            .map(|p| s.query(p)) // insertion order, NOT sorted: bit-for-bit
            .collect();
        (extents, s.stats())
    };
    let reference = run_at(1);
    for t in [2, 4, 8] {
        assert_eq!(run_at(t), reference, "threads={t} diverged");
    }
}

#[test]
fn check_model_confirms_settled_sessions() {
    let mut s = session(CHAIN_SRC, EvalConfig::default());
    s.assert_fact("chain0", &["abcabc"]).unwrap();
    s.run().unwrap();
    assert!(s.check_model().unwrap(), "a settled session is a model");
    // A fresh unsettled delta is not yet a model (the chain rule applies).
    s.assert_fact("chain0", &["bcabca"]).unwrap();
    assert!(!s.check_model().unwrap(), "pending delta: not closed yet");
    s.run().unwrap();
    assert!(s.check_model().unwrap());
}

#[test]
fn clone_forks_independent_sessions() {
    let mut s = session("p(X) :- r(X).", EvalConfig::default());
    s.assert_fact("r", &["ab"]).unwrap();
    s.run().unwrap();
    let mut fork = s.clone();
    fork.assert_fact("r", &["cd"]).unwrap();
    fork.run().unwrap();
    assert_eq!(s.answers("p"), ["ab"], "original unaffected by the fork");
    assert_eq!(fork.answers("p"), ["ab", "cd"]);
}

#[test]
fn oversized_asserts_are_rejected_eagerly_without_poisoning() {
    // Domain closure interns O(len²) windows, so the assert path enforces
    // max_seq_len *before* closure. Rejection leaves the interpretation
    // untouched and the session healthy.
    let config = EvalConfig {
        max_seq_len: 8,
        ..EvalConfig::default()
    };
    let mut s = session("p(X) :- r(X).", config);
    let long = "a".repeat(9);
    match s.assert_fact("r", &[&long]) {
        Err(EvalError::Budget { kind, .. }) => assert_eq!(kind, BudgetKind::SeqLen),
        other => panic!("expected SeqLen budget rejection, got {other:?}"),
    }
    assert!(matches!(s.assert_seq(&long), Err(EvalError::Budget { .. })));
    assert!(!s.is_poisoned(), "eager rejection must not poison");
    assert_eq!(s.stats().facts, 0, "no fact entered the interpretation");
    // The session keeps serving within budget.
    s.assert_fact("r", &["ab"]).unwrap();
    s.run().unwrap();
    assert_eq!(s.query("p"), vec![vec!["ab".to_string()]]);
}

#[test]
fn assert_floods_are_stopped_exactly_at_the_budget() {
    // The size budgets bite on the assert path with *exact* enforcement:
    // an assert that would push the state past max_facts is refused before
    // it applies — no overshoot, no waiting for the next run(), and no
    // poisoning. Crucially, the asserts and the run-entry budget check now
    // agree: a session filled to the brim by asserts still runs.
    let config = EvalConfig {
        max_facts: 3,
        ..EvalConfig::default()
    };
    let mut s = session("q(X) :- r(X), s(X).", config);
    let mut accepted = 0;
    let mut refused = 0;
    for i in 0..10 {
        match s.assert_fact("r", &[&format!("w{i}")]) {
            Ok(true) => accepted += 1,
            Ok(false) => unreachable!("all words distinct"),
            Err(EvalError::Budget { kind, stats }) => {
                assert_eq!(kind, BudgetKind::Facts);
                assert_eq!(stats.facts, 4, "error reports the would-be stats");
                refused += 1;
            }
            Err(other) => panic!("unexpected error {other:?}"),
        }
    }
    assert_eq!(accepted, 3, "exactly max_facts accepted, zero overshoot");
    assert_eq!(refused, 7);
    assert!(!s.is_poisoned(), "budget refusal must not poison");
    assert_eq!(s.stats().facts, 3);
    // Duplicate asserts are no-growth and stay admissible at the brim.
    assert!(!s.assert_fact("r", &["w0"]).unwrap());
    // The accepted asserts can never make the next run fail its entry
    // budget check (the join derives nothing: s is empty).
    s.run().expect("a full-to-the-budget session still runs");
    assert!(!s.is_poisoned());
}

#[test]
fn domain_budget_is_exact_on_the_assert_path() {
    // A word whose window closure would blow max_domain is refused with
    // the domain rolled back to exactly its pre-call state; smaller words
    // still fit afterwards.
    let config = EvalConfig {
        max_domain: 12,
        ..EvalConfig::default()
    };
    let mut s = session("p(X) :- r(X).", config);
    s.assert_fact("r", &["ab"]).unwrap(); // ε, a, b, ab → 4 members
    let before = s.stats();
    // "cdefg" alone closes to 5·6/2 = 15 windows ≫ the remaining headroom.
    match s.assert_fact("r", &["cdefg"]) {
        Err(EvalError::Budget { kind, stats }) => {
            assert_eq!(kind, BudgetKind::DomainSize);
            assert!(stats.domain_size > 12, "peak stats show what tripped");
        }
        other => panic!("expected DomainSize refusal, got {other:?}"),
    }
    assert!(!s.is_poisoned());
    let after = s.stats();
    assert_eq!(after.facts, before.facts, "fact rolled back");
    assert_eq!(after.domain_size, before.domain_size, "closure rolled back");
    // Headroom still serves smaller facts, and the session still runs.
    assert!(s.assert_fact("r", &["cd"]).unwrap());
    s.run().unwrap();
    assert_eq!(s.answers("p"), ["ab", "cd"]);
}

#[test]
fn batch_asserts_are_failure_atomic() {
    let config = EvalConfig {
        max_facts: 4,
        ..EvalConfig::default()
    };
    let mut s = session("p(X) :- r(X).", config);
    s.assert_fact("r", &["keep"]).unwrap();
    s.run().unwrap();
    let stats_before = s.stats();
    let rows_before = s.query("r");

    // Settled: r(keep) + p(keep) = 2 facts. a1, a2 fill to the budget of
    // 4; the duplicate is admissible (no growth); a3 trips — and then the
    // whole batch, duplicate's base record included, must roll back.
    let err = s
        .assert_facts(&[
            ("r", &["a1"] as &[&str]),
            ("r", &["a2"]),
            ("r", &["keep"]), // duplicate mid-batch: no growth, base-only
            ("r", &["a3"]),   // refused: would be fact 5 > 4
            ("r", &["a4"]),
        ])
        .unwrap_err();
    let EvalError::Budget { kind, .. } = &err else {
        panic!("expected Budget, got {err:?}");
    };
    assert_eq!(*kind, BudgetKind::Facts);
    assert!(!s.is_poisoned(), "batch refusal must not poison");
    assert_eq!(s.stats().facts, stats_before.facts, "no fact survived");
    assert_eq!(
        s.stats().domain_size,
        stats_before.domain_size,
        "no closure survived"
    );
    assert_eq!(s.query("r"), rows_before, "extents exactly restored");
    // The rolled-back batch left the session fully serviceable.
    assert_eq!(s.assert_facts(&[("r", &["b1"] as &[&str])]).unwrap(), 1);
    s.run().unwrap();
    assert_eq!(s.answers("p"), ["b1", "keep"]);
}

#[test]
fn batch_asserts_on_poisoned_sessions_apply_nothing() {
    let config = EvalConfig {
        max_rounds: 2,
        ..EvalConfig::default()
    };
    let mut s = session("p(X[2:end]) :- p(X), X != \"\".", config);
    let dir = std::env::temp_dir().join(format!("seqlog-poisoned-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    s.make_durable(&dir, Default::default()).unwrap();
    s.assert_fact("p", &["aaaaaaaa"]).unwrap();
    let id = s.assert_seq("zz").unwrap();
    assert!(s.run().is_err(), "the chain needs more than 2 rounds");
    assert!(s.is_poisoned());
    let facts_before = s.stats().facts;
    let records_before = s.durable_records();
    match s.assert_facts(&[("p", &["zz"] as &[&str]), ("p", &["yy"])]) {
        Err(EvalError::Poisoned { .. }) => {}
        other => panic!("expected Poisoned, got {other:?}"),
    }
    let mut db = Database::new();
    db.add("p", vec![id]);
    let refusals = [
        s.assert_fact("p", &["zz"]).map(drop),
        s.assert_fact_ids("p", &[id]).map(drop),
        s.assert_db(&db).map(drop),
        s.retract_fact("p", &["aaaaaaaa"]).map(drop),
        s.retract_fact_ids("p", &[id]).map(drop),
        s.retract_db(&db).map(drop),
    ];
    for r in refusals {
        assert!(matches!(r, Err(EvalError::Poisoned { .. })), "{r:?}");
    }
    assert_eq!(s.stats().facts, facts_before, "nothing applied");
    assert_eq!(s.durable_records(), records_before, "nothing logged");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every dispatch configuration the sharded-commit matrix cares about:
/// thread counts 1/2/4/8 crossed with the default parallel threshold and
/// threshold 0 (which pushes even small rounds through the multi-worker
/// match).
fn dispatch_matrix() -> Vec<EvalConfig> {
    let mut out = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        for parallel_threshold in [EvalConfig::default().parallel_threshold, 0] {
            out.push(EvalConfig {
                threads,
                parallel_threshold,
                ..EvalConfig::default()
            });
        }
    }
    out
}

#[test]
fn threshold_straddling_runs_are_bit_for_bit_across_dispatch_paths() {
    // Two runs of a quadratic join, sized so the first (virgin) run's
    // full-round estimate sits far below the default parallel threshold while the second
    // run's delta round estimates far above it: within one session some
    // rounds dispatch inline and others through the multi-worker match. Both
    // paths must produce identical insertion order and EvalStats, so the
    // whole matrix is compared bit-for-bit against the sequential session.
    let src = "pair(X, Y) :- w(X), w(Y).";
    let run = |config: EvalConfig| {
        let mut s = session(src, config);
        for i in 0..60 {
            s.assert_fact("w", &[&format!("a{i}")]).unwrap();
        }
        s.run().unwrap();
        for i in 0..60 {
            s.assert_fact("w", &[&format!("b{i}")]).unwrap();
        }
        s.run().unwrap();
        (s.query("pair"), s.query("w"), s.stats())
    };

    let reference = run(EvalConfig::default());
    assert_eq!(reference.0.len(), 120 * 120);
    for config in dispatch_matrix() {
        let got = run(config);
        assert_eq!(
            got, reference,
            "insertion order or stats diverged under {config:?}"
        );
    }
}

#[test]
fn parallel_asserts_into_a_compacted_relation_are_bit_for_bit() {
    // Adversarial index-probe scenario: settle a quadratic join, retract
    // scattered base words (tombstoning mid-relation dedupe slots), force
    // a compaction, then drive a wide forced-parallel round straight into
    // the rebuilt index. The result must equal a fresh batch over the
    // survivors and stay bit-for-bit identical across the dispatch matrix.
    let src = "pair(X, Y) :- w(X), w(Y).";
    let retracted = ["a3", "a17", "a29"];
    let run = |config: EvalConfig| {
        let mut s = session(src, config);
        for i in 0..40 {
            s.assert_fact("w", &[&format!("a{i}")]).unwrap();
        }
        s.run().unwrap();
        // Each effective retraction runs Delete-and-Rederive, which removes
        // tombstoned mid-relation slots and rebuilds the index.
        for w in retracted {
            assert!(s.retract_fact("w", &[w]).unwrap());
        }
        for i in 0..60 {
            s.assert_fact("w", &[&format!("b{i}")]).unwrap();
        }
        s.run().unwrap();
        s
    };

    let survivors: Vec<(&str, String)> = (0..40)
        .map(|i| format!("a{i}"))
        .filter(|w| !retracted.contains(&w.as_str()))
        .chain((0..60).map(|i| format!("b{i}")))
        .map(|w| ("w", w))
        .collect();
    let survivor_refs: Vec<(&str, &str)> =
        survivors.iter().map(|(p, w)| (*p, w.as_str())).collect();

    let reference = run(EvalConfig::default());
    assert_eq!(
        session_extents(&reference, &["pair", "w"]),
        batch_extents(src, &survivor_refs, &["pair", "w"]),
        "compacted session ≢ fresh batch over the survivors"
    );

    let reference = (
        reference.query("pair"),
        reference.query("w"),
        reference.stats(),
    );
    for config in dispatch_matrix() {
        let s = run(config);
        let got = (s.query("pair"), s.query("w"), s.stats());
        assert_eq!(
            got, reference,
            "compacted-relation round diverged under {config:?}"
        );
    }
}
