//! `genome-reads`: Transducer Datalog over synthetic DNA reads.
//!
//! The Example 7.1 rules transcribe each read to RNA and translate it to
//! protein; a nested `@translate(@transcribe(D))` head does the same in one
//! term, which the fusion pass collapses into a single machine; a
//! structural rule with indexed terms finds every `taga` motif. A cycle is
//! two batch evaluations and one update/retract pair of a fresh read with
//! point queries around it.
//!
//! The oracle translates reads in plain Rust (the standard genetic code,
//! stop codons skipped, a trailing partial codon dropped) and finds motifs
//! by string search.

use crate::util::{Extent, Rng};
use crate::workload::{Op, Spec};
use crate::Size;
use seqlog_transducer::library::amino_for;
use std::collections::HashSet;

const PROGRAM: &str = "rnaseq(D, @transcribe(D)) :- dnaseq(D).\n\
                       proteinseq(D, @translate(R)) :- rnaseq(D, R).\n\
                       prot(D, @translate(@transcribe(D))) :- dnaseq(D).\n\
                       site(D, D[N:end]) :- dnaseq(D), D[N:N+3] = \"taga\".\n";
const MOTIF: &str = "taga";

/// Cycles per second of `--seconds`, measured at the commit that defined
/// the benchmark (2-CPU container).
pub const CYCLES_PER_SECOND: f64 = 3.3;

fn transcribe(dna: &str) -> String {
    dna.chars()
        .map(|c| match c {
            'a' => 'u',
            'c' => 'g',
            'g' => 'c',
            _ => 'a',
        })
        .collect()
}

fn translate(rna: &str) -> String {
    let b: Vec<char> = rna.chars().collect();
    b.chunks_exact(3)
        .filter_map(|c| amino_for([c[0], c[1], c[2]]))
        .collect()
}

/// Facts one read contributes: the read, its RNA, its protein twice, and
/// one `site` row per motif occurrence.
struct Read {
    dna: String,
    rna: String,
    protein: String,
    sites: Vec<String>,
}

impl Read {
    fn new(dna: String) -> Self {
        let rna = transcribe(&dna);
        let protein = translate(&rna);
        let sites = (0..dna.len().saturating_sub(MOTIF.len() - 1))
            .filter(|&p| dna[p..].starts_with(MOTIF))
            .map(|p| dna[p..].to_string())
            .collect();
        Self {
            dna,
            rna,
            protein,
            sites,
        }
    }

    fn facts(&self) -> usize {
        4 + self.sites.len()
    }

    fn protein_row(&self) -> Extent {
        let mut e = Extent::default();
        e.add(&[&self.dna, &self.protein]);
        e
    }
}

pub fn spec(seed: u64, size: Size, cycles: usize) -> Spec {
    let (count, len) = match size {
        Size::Full => (2000, 16),
        Size::Tiny => (12, 12),
    };
    let mut rng = Rng::new(seed);
    let mut seen = HashSet::new();
    let mut reads = Vec::with_capacity(count);
    while reads.len() < count {
        let dna = rng.word(b"acgt", len);
        if seen.insert(dna.clone()) {
            reads.push(Read::new(dna));
        }
    }

    let mut dnaseq = Extent::default();
    let mut rnaseq = Extent::default();
    let mut proteins = Extent::default();
    let mut site = Extent::default();
    for r in &reads {
        dnaseq.add(&[&r.dna]);
        rnaseq.add(&[&r.dna, &r.rna]);
        proteins.add(&[&r.dna, &r.protein]);
        for s in &r.sites {
            site.add(&[&r.dna, s]);
        }
    }
    let settled_facts: usize = reads.iter().map(Read::facts).sum();

    let mut script = Vec::with_capacity(cycles);
    for _ in 0..cycles {
        let known = &reads[rng.below(count)];
        let fresh = loop {
            let dna = rng.word(b"acgt", len);
            if !seen.contains(&dna) {
                break Read::new(dna);
            }
        };
        script.push(vec![
            Op::Eval { full: true },
            Op::Query {
                pred: "proteinseq",
                key: known.dna.clone(),
                expect: known.protein_row(),
            },
            Op::Update {
                facts: vec![("dnaseq", vec![fresh.dna.clone()])],
                expect_facts: settled_facts + fresh.facts(),
            },
            Op::Query {
                pred: "proteinseq",
                key: fresh.dna.clone(),
                expect: fresh.protein_row(),
            },
            Op::Eval { full: true },
            Op::Retract {
                fact: ("dnaseq", vec![fresh.dna.clone()]),
                expect_facts: settled_facts,
            },
            Op::Query {
                pred: "proteinseq",
                key: fresh.dna,
                expect: Extent::default(),
            },
        ]);
    }

    Spec {
        program: PROGRAM,
        transducers: true,
        warm_query: Op::Query {
            pred: "proteinseq",
            key: reads[0].dna.clone(),
            expect: reads[0].protein_row(),
        },
        base: reads
            .iter()
            .map(|r| ("dnaseq", vec![r.dna.clone()]))
            .collect(),
        settled: vec![
            ("dnaseq", dnaseq),
            ("rnaseq", rnaseq),
            ("proteinseq", proteins),
            ("prot", proteins),
            ("site", site),
        ],
        settled_facts,
        cycles: script,
        proteins: reads.iter().map(|r| r.protein.clone()).collect(),
        reads: reads.into_iter().map(|r| r.dna).collect(),
    }
}
