//! The Example 7.1 genome workload: DNA → RNA → protein, three ways.
//!
//! 1. As a **Transducer Datalog** program (`@transcribe`, `@translate`) over
//!    a synthetic DNA database — the paper's own two-rule program;
//! 2. as a raw **transducer network** (Section 6.2's serial network);
//! 3. through the **Theorem 7 translation**, which compiles the Transducer
//!    Datalog program into pure Sequence Datalog and re-derives the same
//!    relations by structural/constructive recursion alone.
//!
//! Run with: `cargo run --release --example genome_pipeline`

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sequence_datalog::core::prelude::*;
use sequence_datalog::transducer::library;
use sequence_datalog::transducer::Network;

fn synthetic_dna(rng: &mut StdRng, len: usize) -> String {
    const BASES: [char; 4] = ['a', 'c', 'g', 't'];
    (0..len).map(|_| BASES[rng.gen_range(0..4)]).collect()
}

fn main() {
    let mut engine = Engine::new();
    let transcribe = library::transcribe(&mut engine.alphabet);
    let translate = library::translate(&mut engine.alphabet);
    engine.register_transducer("transcribe", transcribe.clone());
    engine.register_transducer("translate", translate.clone());

    // The paper's Example 7.1 program, verbatim modulo syntax.
    let program = engine
        .parse_program(
            r#"
            rnaseq(D, @transcribe(D)) :- dnaseq(D).
            proteinseq(D, @translate(R)) :- rnaseq(D, R).
            "#,
        )
        .expect("parses");

    // Strong safety: no recursion through transducer terms (Section 8).
    let report = engine.analyze(&program).expect("compiles");
    assert!(report.strongly_safe);
    println!("program is strongly safe; order = {}", report.order);

    // A synthetic genome database (the paper's motivating workload; seeded
    // for reproducibility).
    let mut rng = StdRng::seed_from_u64(42);
    let mut db = Database::new();
    for len in [12, 30, 60, 120] {
        let dna = synthetic_dna(&mut rng, len);
        engine.add_fact(&mut db, "dnaseq", &[&dna]);
    }

    // Route 1: native Transducer Datalog evaluation.
    let model = engine
        .evaluate(&program, &db)
        .expect("strongly safe ⇒ finite");
    println!("\nTransducer Datalog results:");
    for row in engine.rendered_tuples(&model, "proteinseq") {
        println!("  {} ↦ {}", &row[0][..12.min(row[0].len())], row[1]);
    }

    // Route 2: the same pipeline as a serial transducer network.
    let net = Network::chain("dna_to_protein", vec![transcribe, translate]);
    println!(
        "\nnetwork: diameter {}, order {}",
        net.diameter(),
        net.order()
    );
    for (pred, tuple) in db.iter() {
        assert_eq!(pred, "dnaseq");
        let dna = tuple[0];
        let out = net.run_simple(&[engine.store.get(dna)]).expect("runs");
        let protein = engine.alphabet.render(&out);
        // The network agrees with the Datalog evaluation.
        let datalog_rows = engine.rendered_tuples(&model, "proteinseq");
        assert!(datalog_rows.iter().any(|r| r[1] == protein));
    }
    println!(
        "network agrees with Transducer Datalog on all {} sequences",
        db.len()
    );

    // Route 3: Theorem 7 — translate to pure Sequence Datalog. (The
    // simulation materializes every intermediate transducer output, so we
    // run it on a smaller database.)
    let mut small = Database::new();
    let dna = synthetic_dna(&mut rng, 9);
    engine.add_fact(&mut small, "dnaseq", &[&dna]);
    let sd = translate_program(
        &program,
        &engine.registry,
        &mut engine.alphabet,
        &mut engine.store,
    )
    .expect("translates");
    println!(
        "\nTheorem 7 translation: {} clauses of pure Sequence Datalog",
        sd.clauses.len()
    );
    let m_td = engine.evaluate(&program, &small).unwrap();
    let m_sd = engine.evaluate(&sd, &small).unwrap();
    let mut a = engine.rendered_tuples(&m_td, "proteinseq");
    let mut b = engine.rendered_tuples(&m_sd, "proteinseq");
    a.sort();
    b.sort();
    assert_eq!(a, b);
    println!("translated program derives the same proteinseq relation: {a:?}");
}
