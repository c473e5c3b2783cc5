//! SCC-stratified semi-naive evaluation on the workload the scheduler
//! exists for: a deep constructive chain (every stratum grows the extended
//! active domain) alongside a ground domain-sensitive clause
//! (`gd(X, X) :- true.`).
//!
//! A loop that scanned every clause in every round would re-arm the
//! domain-sensitive clause in *every* round the domain grew — and a
//! K-stratum constructive chain grows the domain for K consecutive rounds,
//! so `gd` would re-enumerate the whole domain K times. The stratified
//! schedule settles the chain in one topological pass and re-arms `gd`
//! once per outer pass (two passes total), so the enumeration cost is paid
//! O(1) times instead of O(K).
//!
//! The model is pinned against naive evaluation before timing: identical
//! fact counts and domain sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seqlog_bench::{distinct_suffix_words, setup_rel};
use seqlog_core::{EvalConfig, Strategy};

/// Chain depth — one stratum per predicate `s1..s{DEPTH}`.
const DEPTH: usize = 24;

/// The benchmark program: `gd` enumerates the domain, the chain grows it
/// for `DEPTH` rounds.
fn chain_program(depth: usize) -> String {
    let mut src = String::from("gd(X, X) :- true.\n");
    for i in 1..=depth {
        let prev = i - 1;
        src.push_str(&format!("s{i}(X ++ \"x\") :- s{prev}(X).\n"));
    }
    src
}

fn config(strategy: Strategy) -> EvalConfig {
    EvalConfig {
        strategy,
        ..EvalConfig::default()
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("stratified_eval");
    group.sample_size(10);

    let words = distinct_suffix_words(16, 5);
    let src = chain_program(DEPTH);

    // Differential pin: stratified semi-naive computes the naive model.
    let pinned = {
        let (mut e, p, db) = setup_rel(&src, "s0", &words);
        let m = e
            .evaluate_with(&p, &db, &config(Strategy::SemiNaive))
            .unwrap();
        let (mut e2, p2, db2) = setup_rel(&src, "s0", &words);
        let m2 = e2
            .evaluate_with(&p2, &db2, &config(Strategy::Naive))
            .unwrap();
        assert_eq!(m.stats.facts, m2.stats.facts, "stratified ≠ naive");
        assert_eq!(m.stats.domain_size, m2.stats.domain_size);
        m.stats.facts
    };

    group.bench_with_input(
        BenchmarkId::new("stratified", format!("depth{DEPTH}_{pinned}facts")),
        &(),
        |b, ()| {
            b.iter_batched(
                || setup_rel(&src, "s0", &words),
                |(mut e, p, db)| {
                    let m = e
                        .evaluate_with(&p, &db, &config(Strategy::SemiNaive))
                        .unwrap();
                    assert_eq!(m.stats.facts, pinned);
                    m.stats.facts
                },
                criterion::BatchSize::LargeInput,
            )
        },
    );

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
