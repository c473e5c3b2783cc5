//! Round thread scaling: the same workloads swept over
//! `EvalConfig::threads ∈ {1, 2, 4, 8}`.
//!
//! Three shapes: the `pairs` self-join (wide per-round deltas — the case
//! whose match phase runs on several workers), the Theorem 3 `abcn`
//! pattern workload (small rounds that stay below the parallel dispatch
//! threshold — the sweep documents that thread count is free there), and
//! `delta1M` (a settled session resumed with a batch whose semi-naive
//! delta commits ~one million facts in a single round — a wide parallel
//! match followed by a million-insert sequential commit, so it shows how
//! much of a round the serial commit takes). Results are bit-for-bit
//! identical across thread counts by construction; each iteration asserts
//! the fact count to pin that down.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use seqlog_bench::{
    abc_database, distinct_suffix_words, rng, settle_session, setup, setup_rel, ABCN_SRC, PAIRS_SRC,
};
use seqlog_core::eval::EvalConfig;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_scaling");
    group.sample_size(10);

    let words = distinct_suffix_words(16, 32);
    let mut expected_facts: Option<usize> = None;
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("pairs_16x32_t{threads}")),
            &words,
            |b, words| {
                b.iter_batched(
                    || setup_rel(PAIRS_SRC, "grow", words),
                    |(mut e, p, db)| {
                        let cfg = EvalConfig {
                            threads,
                            ..EvalConfig::default()
                        };
                        let m = e.evaluate_with(&p, &db, &cfg).unwrap();
                        match expected_facts {
                            None => expected_facts = Some(m.stats.facts),
                            Some(f) => assert_eq!(f, m.stats.facts, "threads={threads}"),
                        }
                        m.stats.facts
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }

    // Million-fact delta: settle one 41-symbol seed (41 `grow` suffixes,
    // 1 681 `pairs`), then assert the other 25 seeds in one batch. The
    // resumed fixpoint's delta rounds commit ~1.14M facts — wide enough
    // that every `pairs` round matches on several workers.
    let words = distinct_suffix_words(26, 41);
    let mut expected_facts: Option<usize> = None;
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("delta1M_t{threads}")),
            &words,
            |b, words| {
                let cfg = EvalConfig {
                    threads,
                    max_facts: 4_000_000,
                    max_domain: 4_000_000,
                    ..EvalConfig::default()
                };
                b.iter_batched(
                    || {
                        let mut s = settle_session(PAIRS_SRC, "grow", &words[..1], cfg);
                        for w in &words[1..] {
                            s.assert_fact("grow", &[w]).unwrap();
                        }
                        s
                    },
                    |mut s| {
                        s.run().unwrap();
                        let facts = s.stats().facts;
                        // 26 seeds × 41 suffixes + the shared empty word.
                        let grow = 26 * 41 + 1;
                        assert_eq!(
                            facts,
                            grow * grow + grow,
                            "delta must settle to ~1.1M pairs"
                        );
                        match expected_facts {
                            None => expected_facts = Some(facts),
                            Some(f) => assert_eq!(f, facts, "threads={threads}"),
                        }
                        facts
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }

    let words = abc_database(&mut rng(), 8, 8);
    let mut expected_facts: Option<usize> = None;
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("abcn_8seqs_n8_t{threads}")),
            &words,
            |b, words| {
                b.iter_batched(
                    || setup(ABCN_SRC, words),
                    |(mut e, p, db)| {
                        let cfg = EvalConfig {
                            threads,
                            ..EvalConfig::default()
                        };
                        let m = e.evaluate_with(&p, &db, &cfg).unwrap();
                        assert!(!m.tuples("answer").is_empty());
                        match expected_facts {
                            None => expected_facts = Some(m.stats.facts),
                            Some(f) => assert_eq!(f, m.stats.facts, "threads={threads}"),
                        }
                        m.stats.facts
                    },
                    criterion::BatchSize::SmallInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
