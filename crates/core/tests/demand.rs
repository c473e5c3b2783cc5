//! Demand-driven (bound-argument) query API: session and engine routes,
//! fallback behavior, cache reuse, short-circuit paths, the settled index
//! probe (after runs, retractions and recovery, and under budgets the
//! scratch route would exceed), and the byte-identity pin between
//! demand-mode and batch-mode renderings.

use seqlog_core::analysis::Bind;
use seqlog_core::database::Database;
use seqlog_core::engine::Engine;
use seqlog_core::eval::{BudgetKind, EvalConfig, EvalError};
use seqlog_core::session::{DemandAnswer, EngineSession};

const ANC: &str = "anc(X, Y) :- edge(X, Y).\nanc(X, Z) :- anc(X, Y), edge(Y, Z).";

/// Two disjoint chains a->b->c->d and p->q->r.
fn chain_session() -> seqlog_core::session::EngineSession {
    let mut e = Engine::new();
    let program = e.parse_program(ANC).unwrap();
    let mut s = e.into_session(&program, EvalConfig::default()).unwrap();
    for (x, y) in [("a", "b"), ("b", "c"), ("c", "d"), ("p", "q"), ("q", "r")] {
        s.assert_fact("edge", &[x, y]).unwrap();
    }
    s
}

/// The oracle: full run, then filter + sort the batch rendering.
fn filtered_batch(
    s: &mut seqlog_core::session::EngineSession,
    pred: &str,
    pos: usize,
    val: &str,
) -> Vec<Vec<String>> {
    s.run().unwrap();
    let mut out: Vec<Vec<String>> = s
        .query(pred)
        .into_iter()
        .filter(|t| t[pos] == val)
        .collect();
    out.sort();
    out.dedup();
    out
}

#[test]
fn session_point_query_matches_filtered_batch() {
    let mut s = chain_session();
    let demand = s
        .query_bound("anc", &[Bind::Bound("a"), Bind::Free])
        .unwrap();
    let oracle = filtered_batch(&mut s.clone(), "anc", 0, "a");
    assert_eq!(demand, oracle);
    assert_eq!(demand.len(), 3); // a->b, a->c, a->d
                                 // Second argument bound instead.
    let demand = s
        .query_bound("anc", &[Bind::Free, Bind::Bound("d")])
        .unwrap();
    let oracle = filtered_batch(&mut s.clone(), "anc", 1, "d");
    assert_eq!(demand, oracle);
    assert_eq!(demand.len(), 3); // a,b,c -> d
                                 // Fully free pattern = the whole (sorted) extent.
    let demand = s.query_bound("anc", &[Bind::Free, Bind::Free]).unwrap();
    let mut oracle = {
        let mut c = s.clone();
        c.run().unwrap();
        c.query("anc")
    };
    oracle.sort();
    oracle.dedup();
    assert_eq!(demand, oracle);
}

#[test]
fn demand_never_mutates_session_state() {
    let mut s = chain_session();
    let facts_before = s.stats().facts;
    s.query_bound("anc", &[Bind::Bound("a"), Bind::Free])
        .unwrap();
    assert_eq!(s.stats().facts, facts_before);
    // The session still settles to exactly the batch model afterwards.
    s.run().unwrap();
    assert_eq!(s.query("anc").len(), 9);
}

#[test]
fn demand_is_selective_on_the_chain() {
    let mut s = chain_session();
    let r = s
        .query_bound_instrumented("anc", &[Bind::Bound("p"), Bind::Free])
        .unwrap();
    assert!(r.evaluated);
    assert_eq!(r.answers.len(), 2); // p->q, p->r
                                    // Full fixpoint has 5 base + 9 derived = 14 facts; the demand cone
                                    // from "p" must stay well under that (5 base + 2 anc + magic facts).
    let full = {
        let mut c = s.clone();
        c.run().unwrap();
        c.stats().facts
    };
    assert!(
        r.stats.facts < full,
        "demand facts {} not below full {}",
        r.stats.facts,
        full
    );
}

#[test]
fn engine_route_matches_session_route() {
    let mut e = Engine::new();
    let program = e.parse_program(ANC).unwrap();
    let mut db = Database::new();
    for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
        e.add_fact(&mut db, "edge", &[x, y]);
    }
    let engine_ans = e
        .query_bound(&program, &db, "anc", &[Bind::Bound("a"), Bind::Free])
        .unwrap();
    let mut e2 = Engine::new();
    let program2 = e2.parse_program(ANC).unwrap();
    let mut s = e2.into_session(&program2, EvalConfig::default()).unwrap();
    for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
        s.assert_fact("edge", &[x, y]).unwrap();
    }
    let session_ans = s
        .query_bound("anc", &[Bind::Bound("a"), Bind::Free])
        .unwrap();
    assert_eq!(engine_ans, session_ans);
    assert_eq!(engine_ans.len(), 3);
}

#[test]
fn demand_and_batch_renderings_are_byte_identical() {
    // The rendering-unification pin: Engine::rendered_tuples/answers,
    // EngineSession::query/answers, and query_bound must all format
    // through one helper. Compare every route on the same model.
    let src = "out(X[N:end]) :- r(X).";
    let mut e = Engine::new();
    let program = e.parse_program(src).unwrap();
    let mut db = Database::new();
    e.add_fact(&mut db, "r", &["ab"]);
    let model = e.evaluate(&program, &db).unwrap();
    let mut batch_tuples = e.rendered_tuples(&model, "out");
    batch_tuples.sort();
    batch_tuples.dedup();
    let batch_answers = e.answers(&model, "out");

    let mut e2 = Engine::new();
    let program2 = e2.parse_program(src).unwrap();
    let mut s = e2.into_session(&program2, EvalConfig::default()).unwrap();
    s.assert_fact("r", &["ab"]).unwrap();
    s.run().unwrap();
    let mut session_tuples = s.query("out");
    session_tuples.sort();
    session_tuples.dedup();
    assert_eq!(session_tuples, batch_tuples);
    assert_eq!(s.answers("out"), batch_answers);

    let demand = s.query_bound("out", &[Bind::Free]).unwrap();
    assert_eq!(demand, batch_tuples);
    let singles: Vec<String> = demand.into_iter().map(|mut t| t.remove(0)).collect();
    assert_eq!(singles, batch_answers);
}

#[test]
fn constructive_fallback_still_answers_unsettled() {
    // dbl's stratum is constructive: it must fall back to full
    // evaluation inside the scratch, or "abab" never enters the
    // scratch store and gd misses it. The session is deliberately
    // *unsettled* (no run) so the scratch derives everything itself.
    let src = "dbl(X ++ X) :- r(X).\nout(X) :- dbl(X).";
    let mut e = Engine::new();
    let program = e.parse_program(src).unwrap();
    let mut s = e.into_session(&program, EvalConfig::default()).unwrap();
    s.assert_fact("r", &["ab"]).unwrap();
    // Note "abab" was never interned; the query must still find it.
    let demand = s.query_bound("out", &[Bind::Bound("abab")]).unwrap();
    assert_eq!(demand, vec![vec!["abab".to_string()]]);
}

#[test]
fn domain_sensitive_goal_full_fallback() {
    // gd(X, X) :- true. is domain-sensitive: demand must degenerate to
    // the batch fixpoint (full fallback), including domain growth from
    // the constructive clause *outside* gd's cone.
    let src = "dbl(X ++ X) :- r(X).\ngd(X, X) :- true.";
    let mut e = Engine::new();
    let program = e.parse_program(src).unwrap();
    let mut s = e.into_session(&program, EvalConfig::default()).unwrap();
    s.assert_fact("r", &["ab"]).unwrap();
    let demand = s.query_bound("gd", &[Bind::Free, Bind::Free]).unwrap();
    let mut oracle: Vec<Vec<String>> = {
        let mut c = s.clone();
        c.run().unwrap();
        c.query("gd")
    };
    oracle.sort();
    oracle.dedup();
    assert_eq!(demand, oracle);
    // The oracle contains ("abab", "abab"): only domain growth from dbl
    // justifies it.
    assert!(demand.contains(&vec!["abab".to_string(), "abab".to_string()]));
}

#[test]
fn bound_query_value_outside_model_is_empty_not_error() {
    let mut s = chain_session();
    let demand = s
        .query_bound("anc", &[Bind::Bound("zz"), Bind::Free])
        .unwrap();
    assert!(demand.is_empty());
    // And the session is still healthy.
    s.run().unwrap();
}

#[test]
fn asserted_only_and_unknown_predicates_short_circuit() {
    let mut s = chain_session();
    s.assert_fact("extra", &["u", "v"]).unwrap();
    let r = s
        .query_bound_instrumented("extra", &[Bind::Bound("u"), Bind::Free])
        .unwrap();
    assert!(!r.evaluated);
    assert_eq!(r.answers, vec![vec!["u".to_string(), "v".to_string()]]);
    // edge heads no clause: also a direct filter, no evaluation.
    let r = s
        .query_bound_instrumented("edge", &[Bind::Bound("a"), Bind::Free])
        .unwrap();
    assert!(!r.evaluated);
    assert_eq!(r.answers, vec![vec!["a".to_string(), "b".to_string()]]);
    // Entirely unknown predicate: empty, no error.
    assert!(s.query_bound("nope", &[Bind::Free]).unwrap().is_empty());
}

#[test]
fn adornment_cache_reuses_transform_and_stays_correct() {
    let mut s = chain_session();
    let a1 = s
        .query_bound("anc", &[Bind::Bound("a"), Bind::Free])
        .unwrap();
    // Same adornment, different value: cache hit must not leak the old
    // binding.
    let a2 = s
        .query_bound("anc", &[Bind::Bound("p"), Bind::Free])
        .unwrap();
    assert_eq!(a1.len(), 3);
    assert_eq!(a2.len(), 2);
    // Repeat the first query bit-for-bit.
    let a1again = s
        .query_bound("anc", &[Bind::Bound("a"), Bind::Free])
        .unwrap();
    assert_eq!(a1, a1again);
}

#[test]
fn poisoned_session_refuses_query_bound() {
    let mut e = Engine::new();
    let program = e.parse_program(ANC).unwrap();
    let config = EvalConfig {
        max_facts: 3,
        ..EvalConfig::default()
    };
    let mut s = e.into_session(&program, config).unwrap();
    for (x, y) in [("a", "b"), ("b", "c"), ("c", "d")] {
        s.assert_fact("edge", &[x, y]).unwrap();
    }
    assert!(s.run().is_err());
    match s.query_bound("anc", &[Bind::Bound("a"), Bind::Free]) {
        Err(EvalError::Poisoned { .. }) => {}
        other => panic!("expected Poisoned, got {other:?}"),
    }
}

#[test]
fn demand_works_on_unsettled_and_mid_stream_sessions() {
    let mut s = chain_session();
    // Unsettled: facts asserted, never run.
    let demand = s
        .query_bound("anc", &[Bind::Bound("a"), Bind::Free])
        .unwrap();
    assert_eq!(demand.len(), 3);
    // Settle, then extend with a pending (un-run) assert: the pending
    // fact must be visible to demand.
    s.run().unwrap();
    s.assert_fact("edge", &[("d"), ("e")]).unwrap();
    let demand = s
        .query_bound("anc", &[Bind::Bound("a"), Bind::Free])
        .unwrap();
    assert_eq!(demand.len(), 4); // b, c, d, e
                                 // And the session's own state is still the settled-plus-pending one.
    s.run().unwrap();
    // a->b->c->d->e contributes 4+3+2+1 = 10 pairs, p->q->r contributes 3.
    assert_eq!(s.query("anc").len(), 13);
}

// ---------------------------------------------------------------------------
// Settled sessions: an index probe of the session's own relation
// ---------------------------------------------------------------------------

fn probe(s: &mut EngineSession, key: &str) -> DemandAnswer {
    s.query_bound_instrumented("anc", &[Bind::Bound(key), Bind::Free])
        .unwrap()
}

/// The settled route's contract: no scratch evaluation, and exactly the
/// filtered settled `query`.
fn assert_probe_answers(s: &mut EngineSession, key: &str) {
    assert!(s.is_settled());
    let r = probe(s, key);
    assert!(
        !r.evaluated,
        "settled session ran the scratch for anc({key}, _)"
    );
    assert_eq!(r.stats, Default::default());
    let mut want: Vec<Vec<String>> = s.query("anc").into_iter().filter(|t| t[0] == key).collect();
    want.sort();
    assert_eq!(r.answers, want);
}

#[test]
fn fresh_session_runs_its_ground_clauses_before_answering() {
    // Nothing asserted, nothing pending — but no round has run, so the
    // relations do not hold the fixpoint yet.
    let mut e = Engine::new();
    let program = e.parse_program("seed(\"ab\") :- true.").unwrap();
    let mut s = e.into_session(&program, EvalConfig::default()).unwrap();
    assert!(!s.is_settled());
    let r = s.query_bound_instrumented("seed", &[Bind::Free]).unwrap();
    assert!(r.evaluated);
    assert_eq!(r.answers, vec![vec!["ab".to_string()]]);
}

#[test]
fn retraction_and_recovery_leave_the_session_settled() {
    let dir = std::env::temp_dir().join(format!("seqlog-demand-settled-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let open = |dir: &std::path::Path| {
        let mut e = Engine::new();
        let program = e.parse_program(ANC).unwrap();
        EngineSession::open_durable(e, &program, EvalConfig::default(), dir, Default::default())
            .unwrap()
    };
    let mut s = open(&dir);
    for (x, y) in [("a", "b"), ("b", "c"), ("c", "d"), ("p", "q"), ("q", "r")] {
        s.assert_fact("edge", &[x, y]).unwrap();
    }
    s.run().unwrap();
    assert_probe_answers(&mut s, "a");
    // An effective retraction settles eagerly.
    assert!(s.retract_fact("edge", &["b", "c"]).unwrap());
    assert_probe_answers(&mut s, "a");
    assert_eq!(probe(&mut s, "a").answers.len(), 1);
    drop(s);
    // Recovery by log replay, then from a checkpoint alone.
    let mut s = open(&dir);
    assert_probe_answers(&mut s, "a");
    assert_probe_answers(&mut s, "p");
    s.checkpoint().unwrap();
    drop(s);
    let mut s = open(&dir);
    assert_probe_answers(&mut s, "p");
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn settled_session_answers_under_a_one_round_budget() {
    let mut s = chain_session();
    s.run().unwrap();
    s.config_mut().max_rounds = 1;
    assert_probe_answers(&mut s, "a");
    assert_eq!(probe(&mut s, "a").answers.len(), 3);
    // The same budget stops the scratch on an unsettled session.
    s.assert_fact("edge", &["d", "e"]).unwrap();
    match s.query_bound("anc", &[Bind::Bound("a"), Bind::Free]) {
        Err(EvalError::Budget {
            kind: BudgetKind::Rounds,
            ..
        }) => {}
        other => panic!("expected a rounds budget error, got {other:?}"),
    }
    assert!(!s.is_poisoned());
}

#[test]
fn unsettled_query_over_budget_refuses_without_poisoning() {
    let mut s = chain_session();
    // Five edges fit; the scratch's magic and anc facts do not.
    s.config_mut().max_facts = 8;
    let before = s.stats();
    match s.query_bound("anc", &[Bind::Bound("a"), Bind::Free]) {
        Err(EvalError::Budget {
            kind: BudgetKind::Facts,
            ..
        }) => {}
        other => panic!("expected a facts budget error, got {other:?}"),
    }
    assert!(!s.is_poisoned());
    assert_eq!(s.stats(), before);
    s.config_mut().max_facts = EvalConfig::default().max_facts;
    s.run().unwrap();
    assert_eq!(s.query("anc").len(), 9);
    assert_probe_answers(&mut s, "a");
}
