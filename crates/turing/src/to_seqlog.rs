//! The Theorem 1 compiler: Turing machine → Sequence Datalog program.
//!
//! Machine configurations become facts `conf(state, left, scanned, right)`;
//! one rule per δ entry advances reachable configurations; `input`/`output`
//! glue the simulation to the Definition 5 query convention. The generated
//! program witnesses the paper's completeness theorem: Sequence Datalog
//! expresses every partial recursive sequence function.
//!
//! Faithful details from the proof:
//!
//! * right moves append a blank to the right part (`Xr[2:end] ++ "␣"`), so
//!   the simulated tape is effectively infinite — and, exactly as footnote 4
//!   observes, the simulated tape carries extra trailing blanks relative to
//!   a direct run (tests compare modulo trailing blanks);
//! * a non-halting machine makes the least fixpoint infinite (the heart of
//!   the Theorem 2 undecidability proof), which surfaces here as a budget
//!   error from the evaluator;
//! * we add γ1 blank-padding (`X ++ "␣"`) and a head-on-marker output rule,
//!   two boundary cases the paper's prose glosses over.

use crate::machine::{Move, TuringMachine};
use seqlog_core::ast::{Atom, BodyLit, Clause, IndexTerm, IndexedBase, Program, SeqTerm};
use seqlog_sequence::{Alphabet, SeqStore, Sym};

/// Compile `tm` to a Sequence Datalog program over the `input`/`output`
/// predicates (Definition 5 / Theorem 1).
pub fn tm_to_seqlog(tm: &TuringMachine, alphabet: &mut Alphabet, store: &mut SeqStore) -> Program {
    let mut clauses = Vec::new();

    let state_const = |alphabet: &mut Alphabet, store: &mut SeqStore, q| {
        let sym = alphabet.intern(&format!("q:{}:{}", tm.name, tm.state_name(q)));
        SeqTerm::Const(store.intern(&[sym]))
    };
    let sym_const = |store: &mut SeqStore, s: Sym| SeqTerm::Const(store.intern(&[s]));
    let var = |n: &str| SeqTerm::Var(n.to_string());

    let marker = sym_const(store, tm.left_marker);
    let blank = sym_const(store, tm.blank);
    let empty = SeqTerm::Const(store.empty());

    // γ1: the initial configuration is reachable. We pad one blank so the
    // right part is never empty (the right-move rule keeps it non-empty
    // from then on).
    let q0 = state_const(alphabet, store, tm.initial);
    clauses.push(Clause {
        head: Atom {
            pred: "conf".into(),
            args: vec![
                q0,
                empty.clone(),
                marker.clone(),
                SeqTerm::Concat(Box::new(var("X")), Box::new(blank.clone())),
            ],
        },
        body: vec![BodyLit::Atom(Atom {
            pred: "input".into(),
            args: vec![var("X")],
        })],
    });

    // One rule per transition.
    for (q, read, t) in tm.iter_transitions() {
        let qc = state_const(alphabet, store, q);
        let qn = state_const(alphabet, store, t.next);
        let a = sym_const(store, read);
        let b = sym_const(store, t.write);

        let body = vec![BodyLit::Atom(Atom {
            pred: "conf".into(),
            args: vec![qc, var("Xl"), a, var("Xr")],
        })];

        let head_args = match t.mv {
            // δ(q,a) = (q', b, −): overwrite in place.
            Move::Stay => vec![qn, var("Xl"), b, var("Xr")],
            // δ(q,a) = (q', b, ←): the last symbol of Xl becomes scanned.
            Move::Left => vec![
                qn,
                SeqTerm::Indexed {
                    base: IndexedBase::Var("Xl".into()),
                    lo: IndexTerm::Int(1),
                    hi: IndexTerm::Sub(Box::new(IndexTerm::End), Box::new(IndexTerm::Int(1))),
                },
                SeqTerm::Indexed {
                    base: IndexedBase::Var("Xl".into()),
                    lo: IndexTerm::End,
                    hi: IndexTerm::End,
                },
                SeqTerm::Concat(Box::new(b), Box::new(var("Xr"))),
            ],
            // δ(q,a) = (q', b, →): consume the first symbol of Xr and pad
            // the tape with a fresh blank (footnote 4).
            Move::Right => vec![
                qn,
                SeqTerm::Concat(Box::new(var("Xl")), Box::new(b)),
                SeqTerm::Indexed {
                    base: IndexedBase::Var("Xr".into()),
                    lo: IndexTerm::Int(1),
                    hi: IndexTerm::Int(1),
                },
                SeqTerm::Concat(
                    Box::new(SeqTerm::Indexed {
                        base: IndexedBase::Var("Xr".into()),
                        lo: IndexTerm::Int(2),
                        hi: IndexTerm::End,
                    }),
                    Box::new(blank.clone()),
                ),
            ],
        };
        clauses.push(Clause {
            head: Atom {
                pred: "conf".into(),
                args: head_args,
            },
            body,
        });
    }

    // γ2: extract the tape on halting. The paper's rule handles a head
    // strictly right of the marker (Xl = ▷·…); a second rule covers halting
    // with the head on the marker itself.
    for &qh in &tm.halting {
        let qc = state_const(alphabet, store, qh);
        clauses.push(Clause {
            head: Atom {
                pred: "output".into(),
                args: vec![SeqTerm::Concat(
                    Box::new(SeqTerm::Indexed {
                        base: IndexedBase::Var("Xl".into()),
                        lo: IndexTerm::Int(2),
                        hi: IndexTerm::End,
                    }),
                    Box::new(SeqTerm::Concat(Box::new(var("S")), Box::new(var("Xr")))),
                )],
            },
            body: vec![BodyLit::Atom(Atom {
                pred: "conf".into(),
                args: vec![qc.clone(), var("Xl"), var("S"), var("Xr")],
            })],
        });
        clauses.push(Clause {
            head: Atom {
                pred: "output".into(),
                args: vec![var("Xr")],
            },
            body: vec![BodyLit::Atom(Atom {
                pred: "conf".into(),
                args: vec![qc, empty.clone(), marker.clone(), var("Xr")],
            })],
        });
    }

    Program { clauses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::strip_trailing_blanks;
    use crate::samples;
    use seqlog_core::database::Database;
    use seqlog_core::engine::Engine;
    use seqlog_core::eval::{EvalConfig, EvalError};

    /// Run `tm` on `input` both directly and via the Theorem 1 Datalog
    /// simulation; compare outputs modulo trailing blanks.
    fn differential(tm: &TuringMachine, engine: &mut Engine, input: &str) {
        let program = tm_to_seqlog(tm, &mut engine.alphabet, &mut engine.store);

        let direct = {
            let syms = engine.alphabet.seq_of_str(input);
            let run = tm.run(&syms, 1_000_000).expect("direct run halts");
            let out = strip_trailing_blanks(run.output, tm.blank);
            engine.alphabet.render(&out)
        };

        let mut db = Database::new();
        engine.add_fact(&mut db, "input", &[input]);
        let model = engine
            .evaluate(&program, &db)
            .expect("simulation terminates");
        let outputs = engine.rendered_tuples(&model, "output");
        assert!(!outputs.is_empty(), "no output derived for {input:?}");
        // All derived outputs agree modulo trailing blanks (they differ only
        // in padding).
        let mut stripped: Vec<String> = outputs
            .iter()
            .map(|t| {
                let mut s = t[0].clone();
                while s.ends_with('␣') {
                    s.pop();
                }
                s
            })
            .collect();
        stripped.sort();
        stripped.dedup();
        assert_eq!(
            stripped,
            vec![direct.clone()],
            "Theorem 1 mismatch on {input:?}"
        );
    }

    #[test]
    fn theorem_1_complement() {
        let mut e = Engine::new();
        let tm = samples::complement_tm(&mut e.alphabet);
        for input in ["", "0", "1", "0110", "111000"] {
            differential(&tm, &mut e, input);
        }
    }

    #[test]
    fn theorem_1_increment() {
        let mut e = Engine::new();
        let tm = samples::increment_tm(&mut e.alphabet);
        for input in ["", "0", "1", "11", "1101"] {
            differential(&tm, &mut e, input);
        }
    }

    #[test]
    fn theorem_1_parity() {
        let mut e = Engine::new();
        let tm = samples::parity_tm(&mut e.alphabet);
        for input in ["", "1", "10", "1111", "10101"] {
            differential(&tm, &mut e, input);
        }
    }

    #[test]
    fn theorem_2_nonhalting_machine_exhausts_budget() {
        // A machine that runs right forever: its Datalog simulation has an
        // infinite least fixpoint (the Theorem 2 construction), which the
        // evaluator surfaces as a budget error.
        let mut e = Engine::new();
        let marker = e.alphabet.left_marker();
        let blank = e.alphabet.blank();
        let mut b = crate::machine::TmBuilder::new("tm_runaway", &mut e.alphabet);
        let q0 = b.state("q0");
        let run = b.state("run");
        b.on(q0, marker, run, marker, crate::machine::Move::Right);
        b.on(run, blank, run, blank, crate::machine::Move::Right);
        let tm = b.build();

        let program = tm_to_seqlog(&tm, &mut e.alphabet, &mut e.store);
        let mut db = Database::new();
        e.add_fact(&mut db, "input", &[""]);
        let err = e
            .evaluate_with(&program, &db, &EvalConfig::probe())
            .expect_err("diverging simulation must hit a budget");
        assert!(matches!(err, EvalError::Budget { .. }), "{err}");
    }

    #[test]
    fn generated_program_is_constructively_cyclic() {
        // The simulation recurses through construction (conf → conf with
        // ++ in the head): exactly the unsafe recursion the strongly safe
        // fragment forbids.
        let mut e = Engine::new();
        let tm = samples::complement_tm(&mut e.alphabet);
        let program = tm_to_seqlog(&tm, &mut e.alphabet, &mut e.store);
        let report = e.analyze(&program).unwrap();
        assert!(!report.strongly_safe);
    }
}
