//! `batch-closure`: the grow/pairs self-join over short words.
//!
//! `grow` closes every seed word under "drop the first symbol" and `pairs`
//! squares the result, so a batch evaluation derives |grow|² facts in wide
//! semi-naive rounds. Each word ends in a symbol no other live word ends
//! in, so no two words share a non-empty suffix and the extent sizes are
//! the same for every seed. A cycle is three batch evaluations and one
//! update/retract pair of a fresh word with point queries around it.

use crate::util::{Extent, Rng};
use crate::workload::{Op, Spec};
use crate::Size;

const PROGRAM: &str = "grow(X[2:end]) :- grow(X), X != \"\".\n\
                       pairs(X, Y) :- grow(X), grow(Y).\n";
const BODY: &[u8] = b"abcdefgh";
/// Final symbols of the seed words; update words end in `Z`.
const SEED_ENDS: &[u8] = b"ABCDEFGHIJKLMNOP";

/// Cycles per second of `--seconds`, measured at the commit that defined
/// the benchmark (2-CPU container).
pub const CYCLES_PER_SECOND: f64 = 1.6;

fn suffixes(word: &str) -> impl Iterator<Item = &str> {
    (0..word.len()).map(move |i| &word[i..])
}

/// `pairs(key, _)` over the current `grow` extent.
fn pairs_of(key: &str, grow: &[&str]) -> Extent {
    let mut e = Extent::default();
    if grow.contains(&key) {
        for y in grow {
            e.add(&[key, *y]);
        }
    }
    e
}

pub fn spec(seed: u64, size: Size, cycles: usize) -> Spec {
    let (words, len) = match size {
        Size::Full => (16, 32),
        Size::Tiny => (3, 5),
    };
    let mut rng = Rng::new(seed);
    let seeds: Vec<String> = SEED_ENDS[..words]
        .iter()
        .map(|&end| rng.word(BODY, len - 1) + &char::from(end).to_string())
        .collect();
    let mut grow: Vec<&str> = seeds.iter().flat_map(|w| suffixes(w)).collect();
    grow.push("");
    let g = grow.len();

    let mut grow_ext = Extent::default();
    let mut pairs_ext = Extent::default();
    for x in &grow {
        grow_ext.add(&[x]);
        for y in &grow {
            pairs_ext.add(&[x, y]);
        }
    }
    let settled_facts = g + g * g;

    let mut script = Vec::with_capacity(cycles);
    for c in 0..cycles {
        let word = rng.word(BODY, len - 1) + "Z";
        let seed_word = &seeds[rng.below(words)];
        let key = seed_word[rng.below(len)..].to_string();
        let mut grown = grow.clone();
        grown.extend(suffixes(&word));
        let new_key = word[len / 2..].to_string();
        let g2 = g + len;
        script.push(vec![
            Op::Eval {
                full: c == 0 || c + 1 == cycles,
            },
            Op::Query {
                pred: "pairs",
                expect: pairs_of(&key, &grow),
                key,
            },
            Op::Update {
                facts: vec![("grow", vec![word.clone()])],
                expect_facts: g2 + g2 * g2,
            },
            Op::Query {
                pred: "pairs",
                key: new_key.clone(),
                expect: pairs_of(&new_key, &grown),
            },
            Op::Eval { full: false },
            Op::Retract {
                fact: ("grow", vec![word.clone()]),
                expect_facts: settled_facts,
            },
            Op::Query {
                pred: "pairs",
                key: new_key,
                expect: Extent::default(),
            },
            Op::Eval { full: false },
        ]);
    }

    Spec {
        program: PROGRAM,
        transducers: false,
        warm_query: Op::Query {
            pred: "pairs",
            key: seeds[0].clone(),
            expect: pairs_of(&seeds[0], &grow),
        },
        base: seeds.iter().map(|w| ("grow", vec![w.clone()])).collect(),
        settled: vec![("grow", grow_ext), ("pairs", pairs_ext)],
        settled_facts,
        cycles: script,
        reads: Vec::new(),
        proteins: Vec::new(),
    }
}
