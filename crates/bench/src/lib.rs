//! Shared workload builders for the benchmark harness and the experiment
//! runner.
//!
//! Every figure and quantitative claim of the paper maps to one experiment
//! (see DESIGN.md §3 for the index and EXPERIMENTS.md for recorded
//! results). The builders are deterministic (seeded `StdRng`) so benchmark
//! runs and the printed experiment report see identical workloads.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use seqlog_core::database::Database;
use seqlog_core::engine::Engine;
use seqlog_core::Program;

/// Deterministic RNG for all workloads.
pub fn rng() -> StdRng {
    StdRng::seed_from_u64(0x1995_0525)
}

/// A random word over `alphabet` of length `len`.
pub fn random_word(rng: &mut StdRng, alphabet: &str, len: usize) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    (0..len)
        .map(|_| chars[rng.gen_range(0..chars.len())])
        .collect()
}

/// A word of the form `aⁿbⁿcⁿ` (positive instance of Example 1.3).
pub fn abc_word(n: usize) -> String {
    format!("{}{}{}", "a".repeat(n), "b".repeat(n), "c".repeat(n))
}

/// The Example 1.3 pattern-matching program (non-constructive fragment).
pub const ABCN_SRC: &str = r#"
    answer(X) :- r(X), abcn(X[1:N1], X[N1+1:N2], X[N2+1:end]).
    abcn("", "", "") :- true.
    abcn(X, Y, Z) :- X[1] = "a", Y[1] = "b", Z[1] = "c",
                     abcn(X[2:end], Y[2:end], Z[2:end]).
"#;

/// The Example 1.4 reverse program (stratified-constructive).
pub const REVERSE_SRC: &str = r#"
    answer(Y) :- r(X), rev(X, Y).
    rev("", "") :- true.
    rev(X[1:N+1], X[N+1] ++ Y) :- r(X), rev(X[1:N], Y).
"#;

/// The Example 1.5 structural-repeats program.
pub const REP1_SRC: &str = r#"
    rep1(X, X) :- true.
    rep1(X, X[1:N]) :- rep1(X[N+1:end], X[1:N]).
"#;

/// The Example 1.5 constructive-repeats program (infinite least fixpoint).
pub const REP2_SRC: &str = r#"
    rep2(X, X) :- seq(X).
    rep2(X ++ Y, Y) :- rep2(X, Y).
"#;

/// The parallel-scaling self-join workload: `grow` shrinks every seed one
/// symbol per round (large per-round deltas), and `pairs` squares it — the
/// kind of wide round whose match phase the evaluator spreads across
/// threads (the commit that follows is sequential).
pub const PAIRS_SRC: &str = r#"
    grow(X[2:end]) :- grow(X), X != "".
    pairs(X, Y) :- grow(X), grow(Y).
"#;

/// The incremental-update workload: a three-predicate mutually recursive
/// trimming chain plus a cross product — ~34 chain facts per seed word
/// spread over many rounds, squared by `pairs`. Eight 33-symbol words
/// settle to a ≥5k-fact base; a short extra word is the "small delta".
pub const CHAIN_SRC: &str = r#"
    chain1(X[2:end]) :- chain0(X), X != "".
    chain2(X[2:end]) :- chain1(X), X != "".
    chain0(X[2:end]) :- chain2(X), X != "".
    pairs(X, Y) :- chain0(X), chain2(Y).
"#;

/// Build a settled [`seqlog_core::session::EngineSession`]: parse `src`,
/// assert the words as unary `pred` facts, and run to the fixpoint.
pub fn settle_session(
    src: &str,
    pred: &str,
    words: &[String],
    config: seqlog_core::EvalConfig,
) -> seqlog_core::session::EngineSession {
    let mut e = Engine::new();
    let p = e.parse_program(src).expect("benchmark program parses");
    let mut session = e.into_session(&p, config).expect("program compiles");
    for w in words {
        session.assert_fact(pred, &[w]).expect("fresh session");
    }
    session.run().expect("workload settles");
    session
}

/// `count` (≤ 26) deterministic words of length `len` over a 3-letter
/// alphabet, each with a unique final symbol so no two words share a
/// non-empty suffix (the suffix relations grow to full, collision-free
/// size).
pub fn distinct_suffix_words(count: usize, len: usize) -> Vec<String> {
    assert!(count <= 26, "unique tails limited to one letter each");
    (0..count)
        .map(|i| {
            let mut word: String = (0..len - 1)
                .map(|j| char::from(b'a' + ((i * 7 + j * 5 + i * j) % 3) as u8))
                .collect();
            word.push(char::from(b'A' + i as u8));
            word
        })
        .collect()
}

/// Parse a program into a fresh engine together with a database binding
/// the given words to unary `pred` facts.
pub fn setup_rel(src: &str, pred: &str, words: &[String]) -> (Engine, Program, Database) {
    let mut e = Engine::new();
    let p = e.parse_program(src).expect("benchmark program parses");
    let mut db = Database::new();
    for w in words {
        e.add_fact(&mut db, pred, &[w]);
    }
    (e, p, db)
}

/// Parse a program into a fresh engine together with an `r`-relation
/// database over the given words.
pub fn setup(src: &str, words: &[String]) -> (Engine, Program, Database) {
    setup_rel(src, "r", words)
}

/// A database of `count` aⁿbⁿcⁿ-shaped words, alternating positives and
/// single-symbol-perturbed negatives (Theorem 3 scaling workload).
pub fn abc_database(rng: &mut StdRng, count: usize, n: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let w = abc_word(n);
            if i % 2 == 0 {
                w
            } else {
                let mut chars: Vec<char> = w.chars().collect();
                let pos = rng.gen_range(0..chars.len());
                chars[pos] = if chars[pos] == 'a' { 'b' } else { 'a' };
                chars.into_iter().collect()
            }
        })
        .collect()
}

/// Synthetic DNA sequences for the Example 7.1 workload.
pub fn dna_database(rng: &mut StdRng, count: usize, len: usize) -> Vec<String> {
    (0..count).map(|_| random_word(rng, "acgt", len)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic() {
        let a = dna_database(&mut rng(), 3, 10);
        let b = dna_database(&mut rng(), 3, 10);
        assert_eq!(a, b);
    }

    #[test]
    fn abc_database_alternates_sign() {
        let words = abc_database(&mut rng(), 4, 3);
        assert_eq!(words[0], "aaabbbccc");
        assert_ne!(words[1], "aaabbbccc");
        assert_eq!(words[0].len(), words[1].len());
    }

    #[test]
    fn bench_programs_parse_and_run() {
        for src in [ABCN_SRC, REVERSE_SRC, REP1_SRC] {
            let (mut e, p, db) = setup(src, &[abc_word(2)]);
            e.evaluate(&p, &db).expect("bench program evaluates");
        }
    }
}
