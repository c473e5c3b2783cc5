//! The expressibility constructions, end to end (Theorems 1 and 5).
//!
//! A binary-complement Turing machine is executed three ways and the
//! outputs compared:
//!
//! 1. directly on the [`sequence_datalog::turing`] substrate;
//! 2. compiled to Sequence Datalog (`conf` rules, Theorem 1) and evaluated
//!    bottom-up — unsafe constructive recursion simulating an unbounded
//!    tape;
//! 3. compiled to an acyclic **order-2 transducer network** (Theorem 5):
//!    pad → counter chain → init → driver(step) → decode.
//!
//! Run with: `cargo run --release --example turing_sim`

use sequence_datalog::core::{Database, Engine};
use sequence_datalog::turing::{
    samples, strip_trailing_blanks, tm_to_network, tm_to_seqlog, NetworkOptions,
};

fn main() {
    let mut engine = Engine::new();
    let tm = samples::complement_tm(&mut engine.alphabet);
    let input = "110010";

    // Route 1: direct execution.
    let direct = {
        let syms = engine.alphabet.seq_of_str(input);
        let run = tm.run(&syms, 1_000_000).expect("halts");
        println!("direct run: {} steps", run.steps);
        let out = strip_trailing_blanks(run.output, tm.blank);
        engine.alphabet.render(&out)
    };
    println!("direct output:   {direct}");

    // Route 2: Theorem 1 — compile to Sequence Datalog.
    let program = tm_to_seqlog(&tm, &mut engine.alphabet, &mut engine.store);
    println!(
        "\nTheorem 1 program: {} clauses (one per transition, plus input/output glue)",
        program.clauses.len()
    );
    let report = engine.analyze(&program).expect("compiles");
    println!(
        "strongly safe? {} (Turing-complete simulations cannot be)",
        report.strongly_safe
    );

    let mut db = Database::new();
    engine.add_fact(&mut db, "input", &[input]);
    let model = engine
        .evaluate(&program, &db)
        .expect("halting machine ⇒ finite fixpoint");
    println!(
        "fixpoint after {} rounds: {} facts, domain {}",
        model.stats.rounds, model.stats.facts, model.stats.domain_size
    );
    let outputs = engine.rendered_tuples(&model, "output");
    let datalog = outputs[0][0].trim_end_matches('␣').to_string();
    println!("Datalog output:  {datalog}");
    assert_eq!(datalog, direct);

    // Route 3: Theorem 5 — compile to an order-2 network.
    let net = tm_to_network(
        &tm,
        &mut engine.alphabet,
        NetworkOptions {
            counter_squarings: 1,
        },
    );
    println!(
        "\nTheorem 5 network: {} machines, diameter {}, order {}",
        net.num_machines(),
        net.diameter(),
        net.order()
    );
    let syms = engine.alphabet.seq_of_str(input);
    let mut stats = sequence_datalog::transducer::ExecStats::default();
    let out = net
        .run(
            &[&syms],
            &sequence_datalog::transducer::ExecLimits::default(),
            &mut stats,
        )
        .expect("network run");
    let network = engine.alphabet.render(&out);
    println!(
        "network output:  {network}   ({} transducer steps, {} subcalls)",
        stats.steps, stats.subcalls
    );
    assert_eq!(network, direct);

    println!("\nall three routes agree ✓");
}
