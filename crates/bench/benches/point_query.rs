//! Demand-driven point query vs full fixpoint evaluation: the headline
//! claim of the magic-set transformation. A recursive ancestor closure
//! over ~100k edge facts (20k disjoint chains) answers a single
//! bound-first-argument query; the demand route evaluates only the one
//! chain the binding reaches, the full route materializes every chain's
//! closure (~300k derived facts) and filters afterwards.
//!
//! A third, `settled` arm asks the same probe of the session after
//! `run()`: a settled session already holds the fixpoint, so the query is
//! an index probe of its `anc` relation instead of a scratch evaluation.
//!
//! All routes are differentially pinned before timing (same answers for
//! the probe), and a one-shot wall-clock comparison asserts the ≥10×
//! separation the transformation exists to deliver — the criterion
//! numbers then quantify it.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use seqlog_core::analysis::Bind;
use seqlog_core::{Database, Engine, EvalConfig};
use std::time::Instant;

const ANC_SRC: &str = "anc(X, Y) :- edge(X, Y).\nanc(X, Z) :- anc(X, Y), edge(Y, Z).";

/// Chains and edges-per-chain: 20_000 × 5 = 100_000 edge facts; the full
/// closure adds 15 anc tuples per chain (~300k derived facts).
const CHAINS: usize = 20_000;
const CHAIN_LEN: usize = 5;

fn node(chain: usize, pos: usize) -> String {
    format!("c{chain}n{pos}")
}

fn edge_facts() -> Vec<(String, String)> {
    let mut edges = Vec::with_capacity(CHAINS * CHAIN_LEN);
    for c in 0..CHAINS {
        for p in 0..CHAIN_LEN {
            edges.push((node(c, p), node(c, p + 1)));
        }
    }
    edges
}

fn demand_session(edges: &[(String, String)]) -> seqlog_core::EngineSession {
    let mut e = Engine::new();
    let program = e.parse_program(ANC_SRC).unwrap();
    let mut s = e.into_session(&program, EvalConfig::default()).unwrap();
    for (x, y) in edges {
        s.assert_fact("edge", &[x, y]).unwrap();
    }
    s
}

fn full_setup(edges: &[(String, String)]) -> (Engine, seqlog_core::Program, Database) {
    let mut e = Engine::new();
    let program = e.parse_program(ANC_SRC).unwrap();
    let mut db = Database::new();
    for (x, y) in edges {
        e.add_fact(&mut db, "edge", &[x, y]);
    }
    (e, program, db)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("point_query");
    group.sample_size(10);

    let edges = edge_facts();
    let probe = node(0, 0);
    let pattern = [Bind::Bound(probe.as_str()), Bind::Free];

    // Differential pin: the demand route must return exactly the filter
    // of the full model's extent for the probe.
    let mut session = demand_session(&edges);
    let t_demand = Instant::now();
    let demand_answers = session.query_bound("anc", &pattern).unwrap();
    let demand_elapsed = t_demand.elapsed();
    let (full_facts, full_answers, full_elapsed) = {
        let (mut e, p, db) = full_setup(&edges);
        let t_full = Instant::now();
        let model = e.evaluate(&p, &db).expect("full workload settles");
        let elapsed = t_full.elapsed();
        let mut answers: Vec<Vec<String>> = e
            .rendered_tuples(&model, "anc")
            .into_iter()
            .filter(|t| t[0] == probe)
            .collect();
        answers.sort();
        answers.dedup();
        (model.stats.facts, answers, elapsed)
    };
    assert_eq!(demand_answers, full_answers, "demand ≠ filtered batch");
    let mut settled = demand_session(&edges);
    settled.run().expect("full workload settles");
    assert!(settled.is_settled());
    assert_eq!(
        settled.query_bound("anc", &pattern).unwrap(),
        demand_answers,
        "settled probe ≠ unsettled demand"
    );
    assert_eq!(
        demand_answers.len(),
        CHAIN_LEN,
        "probe reaches its whole chain"
    );
    assert!(
        full_facts >= 4 * CHAINS * CHAIN_LEN,
        "full closure too small for the claim: {full_facts} facts"
    );
    // The separation the transformation exists for: well over 10× here
    // (one chain's cone vs ~300k derived facts).
    assert!(
        full_elapsed >= 10 * demand_elapsed,
        "demand route not ≥10x faster: demand {demand_elapsed:?} vs full {full_elapsed:?}"
    );

    group.bench_with_input(
        BenchmarkId::from_parameter(format!("demand_1_of_{CHAINS}_chains")),
        &(),
        |b, ()| {
            // One reused session: query_bound never mutates logical
            // session state, and the cached magic program is the
            // steady-state the API is designed around.
            b.iter(|| {
                let answers = session.query_bound("anc", &pattern).unwrap();
                assert_eq!(answers.len(), CHAIN_LEN);
                answers.len()
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::from_parameter(format!("settled_1_of_{CHAINS}_chains")),
        &(),
        |b, ()| {
            b.iter(|| {
                let answers = settled.query_bound("anc", &pattern).unwrap();
                assert_eq!(answers.len(), CHAIN_LEN);
                answers.len()
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::from_parameter(format!("full_closure_{full_facts}facts")),
        &edges,
        |b, edges| {
            b.iter_batched(
                || full_setup(edges),
                |(mut e, p, db)| {
                    let m = e.evaluate(&p, &db).unwrap();
                    assert_eq!(m.stats.facts, full_facts);
                    m.stats.facts
                },
                BatchSize::LargeInput,
            )
        },
    );

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
