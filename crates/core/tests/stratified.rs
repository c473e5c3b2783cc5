//! Pinned behavior of the one round loop: the SCC-stratified evaluation
//! schedule ([`seqlog_core::analysis::Schedule`], walked by the default
//! semi-naive strategy) and the naive strategy (the same loop over one
//! all-clause stratum). Pins extent equality against naive, naive's full
//! stats, the downstream-cone property for session delta updates (an
//! assert that feeds only a late stratum never pays rounds for settled
//! upstream strata), domain-feedback re-arming of domain-sensitive strata,
//! and the one-quiescence-round contract under both strategies.

use seqlog_core::database::Database;
use seqlog_core::engine::Engine;
use seqlog_core::eval::{EvalConfig, EvalStats, Model, Strategy};
use seqlog_core::session::EngineSession;

/// One differential case: program source, base facts, observed predicates.
type Case = (
    &'static str,
    &'static [(&'static str, &'static str)],
    &'static [&'static str],
);

/// Representative programs spanning the evaluator's clause classes:
/// structural recursion, multi-stratum chains, constructive heads,
/// domain-sensitive enumeration, equality literals, and cross-stratum
/// joins.
const PROGRAMS: &[Case] = &[
    (
        // Example 1.1 — all suffixes.
        "suffix(X[N:end]) :- r(X).",
        &[("r", "abc"), ("r", "dd")],
        &["suffix"],
    ),
    (
        // Three-stratum chain with a cross-stratum join on top.
        "s1(X[2:end]) :- s0(X), X != \"\".\n\
         s2(X[2:end]) :- s1(X), X != \"\".\n\
         s3(X[2:end]) :- s2(X), X != \"\".\n\
         pairs(X, Y) :- s0(X), s3(Y).",
        &[("s0", "abcdef"), ("s0", "xyz")],
        &["s1", "s2", "s3", "pairs"],
    ),
    (
        // Constructive stratum grows the domain; the ground
        // domain-sensitive stratum must re-arm and enumerate the new
        // members (outer-pass feedback).
        "gd(X, X) :- true.\n\
         app(X ++ \"a\") :- r(X).\n\
         app2(X ++ Y) :- app(X), r(Y).",
        &[("r", "ab"), ("r", "c")],
        &["gd", "app", "app2"],
    ),
    (
        // Mutually recursive SCC between two predicates plus a consumer.
        "even(X[2:end]) :- odd(X), X != \"\".\n\
         odd(X[2:end]) :- even(X), X != \"\".\n\
         out(X) :- even(X).",
        &[("even", "aaaaaa")],
        &["even", "odd", "out"],
    ),
];

/// Naive-strategy fixtures whose full [`EvalStats`] are pinned: a
/// self-join, a ground domain-sensitive clause fed by late constructive
/// domain growth, and a four-stratum constructive chain.
const NAIVE_PINS: &[(&str, &[(&str, &str)])] = &[
    (
        "q(X, Y) :- p(X), p(Y).\n\
         p(X[2:end]) :- p(X), X != \"\".",
        &[("p", "abc"), ("p", "xy")],
    ),
    (
        "pair(X, X) :- true.\n\
         grown(Y ++ Y) :- r(Y).",
        &[("r", "ab")],
    ),
    (
        "s1(X ++ \"a\") :- s0(X).\n\
         s2(X ++ \"b\") :- s1(X).\n\
         s3(X ++ \"c\") :- s2(X).\n\
         s4(X ++ \"d\") :- s3(X).",
        &[("s0", "x"), ("s0", "yz")],
    ),
];

fn eval(src: &str, facts: &[(&str, &str)], config: &EvalConfig) -> (Engine, Model) {
    let mut e = Engine::new();
    let p = e.parse_program(src).unwrap();
    let mut db = Database::new();
    for (pred, w) in facts {
        e.add_fact(&mut db, pred, &[w]);
    }
    let m = e.evaluate_with(&p, &db, config).unwrap();
    (e, m)
}

/// Extents of `preds` as sets — the extensional shape.
fn extents_sorted(e: &Engine, m: &Model, preds: &[&str]) -> Vec<Vec<Vec<String>>> {
    preds
        .iter()
        .map(|p| {
            let mut rows = e.rendered_tuples(m, p);
            rows.sort();
            rows
        })
        .collect()
}

fn naive() -> EvalConfig {
    EvalConfig {
        strategy: Strategy::Naive,
        ..EvalConfig::default()
    }
}

#[test]
fn stratified_matches_naive_extensionally() {
    for (src, facts, preds) in PROGRAMS {
        let (es, ms) = eval(src, facts, &EvalConfig::default());
        let (en, mn) = eval(src, facts, &naive());
        assert_eq!(
            extents_sorted(&es, &ms, preds),
            extents_sorted(&en, &mn, preds),
            "stratified and naive models differ as sets for\n{src}"
        );
    }
}

/// The naive strategy is the one round loop over a single all-clause
/// stratum, every clause planned in full every round. Its full stats are
/// pinned to the values of the dedicated global loop it replaced: the
/// single-stratum pass adds no extra quiescence round, and the last round
/// (which derives nothing new) is the only quiescence round paid.
#[test]
fn naive_stats_are_pinned() {
    let expected = [
        EvalStats {
            rounds: 4,
            facts: 42,
            domain_size: 10,
            max_seq_len: 3,
            derivations: 108,
            ..EvalStats::default()
        },
        EvalStats {
            rounds: 3,
            facts: 10,
            domain_size: 8,
            max_seq_len: 4,
            derivations: 23,
            ..EvalStats::default()
        },
        EvalStats {
            rounds: 5,
            facts: 10,
            domain_size: 27,
            max_seq_len: 6,
            derivations: 28,
            ..EvalStats::default()
        },
    ];
    for ((src, facts), want) in NAIVE_PINS.iter().zip(expected) {
        let (_, m) = eval(src, facts, &naive());
        assert_eq!(m.stats, want, "naive stats for\n{src}");
    }
}

fn session(src: &str, config: EvalConfig) -> EngineSession {
    let mut e = Engine::new();
    let p = e.parse_program(src).unwrap();
    e.into_session(&p, config).unwrap()
}

/// The downstream-cone property: after the model settles, an assert that
/// feeds only the *last* stratum re-runs that stratum alone — every
/// settled upstream stratum plans an empty delta and is skipped without
/// paying a round.
#[test]
fn assert_feeding_late_stratum_skips_settled_upstream_strata() {
    // `late` joins the chain's final output with its own feed predicate,
    // so `late`'s stratum is downstream of everything.
    let src = "s1(X[2:end]) :- s0(X), X != \"\".\n\
               s2(X[2:end]) :- s1(X), X != \"\".\n\
               s3(X[2:end]) :- s2(X), X != \"\".\n\
               late(X, Y) :- feed(X), s3(Y).";
    let mut s = session(src, EvalConfig::default());
    s.assert_fact("s0", &["abcdefgh"]).unwrap();
    s.run().unwrap();
    let after_chain = s.stats().rounds;
    // Populating the whole chain pays at least one round per stratum.
    assert!(after_chain >= 4, "chain run paid {after_chain} rounds");

    // A fact feeding only the final stratum: exactly one round — the
    // settled chain strata all plan empty deltas.
    s.assert_fact("feed", &["k"]).unwrap();
    s.run().unwrap();
    assert_eq!(
        s.stats().rounds - after_chain,
        1,
        "late-stratum assert must re-run only the downstream cone"
    );
    assert_eq!(s.query("late").len(), s.query("s3").len());

    // A fact at the chain's source re-runs the full cone again.
    let before = s.stats().rounds;
    s.assert_fact("s0", &["zzzzzz"]).unwrap();
    s.run().unwrap();
    assert!(
        s.stats().rounds - before >= 4,
        "source assert must re-run the whole chain"
    );
}

/// Quiescence contract, both strategies: a run over a settled model still
/// pays exactly one round (synthetic under semi-naive, whose strata all
/// plan empty; a full round deriving nothing under naive).
#[test]
fn settled_run_costs_one_quiescence_round_in_both_modes() {
    for strategy in [Strategy::SemiNaive, Strategy::Naive] {
        let config = EvalConfig {
            strategy,
            ..EvalConfig::default()
        };
        let mut s = session("suffix(X[N:end]) :- r(X).", config);
        s.assert_fact("r", &["abc"]).unwrap();
        s.run().unwrap();
        let settled = s.stats().rounds;
        s.run().unwrap();
        assert_eq!(
            s.stats().rounds,
            settled + 1,
            "settled run must cost one quiescence round under {strategy:?}"
        );
    }
}

/// Domain feedback across strata: a constructive stratum grows the
/// extended active domain *after* the ground domain-sensitive stratum
/// first ran, so the outer pass loop must re-arm it.
#[test]
fn domain_sensitive_stratum_rearms_after_downstream_domain_growth() {
    let src = "gd(X, X) :- true.\n\
               app(X ++ \"!\") :- r(X).";
    let mut s = session(src, EvalConfig::default());
    s.assert_fact("r", &["ab"]).unwrap();
    s.run().unwrap();
    let gd: Vec<String> = s.query("gd").into_iter().map(|t| t[0].clone()).collect();
    // "ab!" exists only because `app` created it; `gd` enumerating it
    // proves the earlier stratum re-armed on domain growth.
    assert!(
        gd.iter().any(|w| w == "ab!"),
        "gd must enumerate constructive results: {gd:?}"
    );
}

/// The session-level closed-world lint report: a self-recursive predicate
/// with no base facts is provably empty (`SL003`), and asserting a base
/// fact for it revives the clause in the next report.
#[test]
fn session_report_tracks_asserted_base_facts() {
    use seqlog_core::analysis::LintCode;
    let mut s = session("p(X[2:end]) :- p(X), X != \"\".", EvalConfig::default());
    let report = s.report();
    assert_eq!(report.with_code(LintCode::DeadClause).count(), 1);
    s.assert_fact("p", &["abc"]).unwrap();
    s.run().unwrap();
    let report = s.report();
    assert_eq!(report.with_code(LintCode::DeadClause).count(), 0);
    assert!(!report.has_errors());
}
