//! Compile-time transducer fusion vs staged chain execution: the headline
//! claim of the fusion pass. A clause whose head nests three 1-state
//! letter mappers, `out(T, @m1(@m2(@m3(X)))) :- r(X), tick(T).`, is
//! evaluated with the pass enabled (the default — the chain is composed,
//! trimmed, determinized, and minimized into one machine at compile time)
//! and disabled (`EvalConfig::fusion: false`).
//!
//! The workload is shaped so per-derivation head construction dominates:
//! the `tick` join fans each word out into thousands of derivations, and
//! every one of them re-runs the head chain — three machine passes, three
//! tape copies, and three interned sequences per tuple on the chained
//! route versus one of each on the fused route. Word lengths stay modest
//! because the evaluator closes the extended active domain over every
//! base/derived word's windows (O(len²) per word, identical in both
//! modes); long words would measure domain closure, not the pipeline.
//!
//! Both routes are differentially pinned before timing (identical `out`
//! extents), and a one-shot wall-clock comparison asserts the ≥2×
//! separation the pass exists to deliver — the criterion numbers then
//! quantify it.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use seqlog_bench::{abc_database, rng};
use seqlog_core::{Database, Engine, EvalConfig, Program};
use seqlog_transducer::library;
use std::time::Instant;

const SRC: &str = "out(T, @m1(@m2(@m3(X)))) :- r(X), tick(T).";
const WORDS: usize = 8;
const TICKS: usize = 2_048;

/// The three chain stages: functional 1-state letter mappers over
/// `a`/`b`/`c` (rotate, collapse, swap — they do not commute).
fn register_mappers(e: &mut Engine) {
    let s: Vec<_> = "abc".chars().map(|c| e.alphabet.intern_char(c)).collect();
    let m1 = library::mapper(
        &mut e.alphabet,
        "m1",
        &[(s[0], s[1]), (s[1], s[2]), (s[2], s[0])],
    );
    let m2 = library::mapper(
        &mut e.alphabet,
        "m2",
        &[(s[0], s[0]), (s[1], s[0]), (s[2], s[1])],
    );
    let m3 = library::mapper(
        &mut e.alphabet,
        "m3",
        &[(s[0], s[2]), (s[1], s[1]), (s[2], s[0])],
    );
    e.register_transducer("m1", m1);
    e.register_transducer("m2", m2);
    e.register_transducer("m3", m3);
}

fn setup(words: &[String]) -> (Engine, Program, Database) {
    let mut e = Engine::new();
    register_mappers(&mut e);
    let program = e.parse_program(SRC).unwrap();
    let mut db = Database::new();
    for w in words {
        e.add_fact(&mut db, "r", &[w]);
    }
    for t in 0..TICKS {
        e.add_fact(&mut db, "tick", &[&format!("t{t}")]);
    }
    (e, program, db)
}

/// Budgets sized for the workload (tens of thousands of derived facts,
/// a ~100k-window extended domain).
fn fused_config() -> EvalConfig {
    EvalConfig {
        max_domain: 4_000_000,
        max_facts: 1_000_000,
        ..EvalConfig::default()
    }
}

fn chained_config() -> EvalConfig {
    EvalConfig {
        fusion: false,
        ..fused_config()
    }
}

fn run_route(words: &[String], cfg: &EvalConfig) -> (Vec<Vec<String>>, std::time::Duration) {
    let (mut e, p, db) = setup(words);
    let t = Instant::now();
    let model = e.evaluate_with(&p, &db, cfg).expect("pipeline settles");
    let elapsed = t.elapsed();
    let mut rows = e.rendered_tuples(&model, "out");
    rows.sort();
    (rows, elapsed)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("transducer_pipeline");
    group.sample_size(10);

    // Differential pin + separation assert. One warm-up pass per route
    // first, so the comparison isn't skewed by first-touch allocation.
    let pin_words = abc_database(&mut rng(), WORDS, 32);
    run_route(&pin_words, &fused_config());
    run_route(&pin_words, &chained_config());
    let (fused_rows, fused_elapsed) = run_route(&pin_words, &fused_config());
    let (chained_rows, chained_elapsed) = run_route(&pin_words, &chained_config());
    assert_eq!(fused_rows, chained_rows, "fused ≠ chained extent");
    assert!(
        chained_elapsed >= 2 * fused_elapsed,
        "fusion speedup below 2x: fused {fused_elapsed:?} vs chained {chained_elapsed:?}"
    );

    for len in [16usize, 32] {
        let words = abc_database(&mut rng(), WORDS, len);
        group.throughput(Throughput::Elements((WORDS * TICKS) as u64));
        group.bench_with_input(BenchmarkId::new("fused", len), &words, |b, words| {
            b.iter_batched(
                || setup(words),
                |(mut e, p, db)| {
                    e.evaluate_with(&p, &db, &fused_config())
                        .unwrap()
                        .stats
                        .facts
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_with_input(BenchmarkId::new("chained", len), &words, |b, words| {
            b.iter_batched(
                || setup(words),
                |(mut e, p, db)| {
                    e.evaluate_with(&p, &db, &chained_config())
                        .unwrap()
                        .stats
                        .facts
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
