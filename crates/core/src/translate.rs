//! The Theorem 7 translation: Transducer Datalog → Sequence Datalog.
//!
//! Every Transducer Datalog program `P_td` is rewritten into a plain
//! Sequence Datalog program `P_sd` computing the same extents for every
//! predicate of `P_td ∪ db`, preserving finiteness. Following the paper's
//! construction:
//!
//! * each head occurrence of a transducer term `@T(s1,…,sm)` is replaced by
//!   a fresh variable `V`, adding `pt_T(s1,…,sm,V)` to the body (rule γ′)
//!   and emitting `inp_T(s1 ++ "⊣", …, sm ++ "⊣") :- body` (rule γ″) so the
//!   simulation runs **only on inputs the program actually feeds to T** —
//!   this is what preserves finiteness;
//! * per machine, `comp_T(consumed1,…,consumedm, output, state)` simulates
//!   partial computations: γ2 seeds `comp_T(ε,…,ε, ε, q0)`, one rule per δ
//!   entry advances it (consumption is structural recursion on the marked
//!   inputs; emission is constructive recursion on the output — exactly the
//!   Section 1.3 recipe), and γ1 projects the final output into `pt_T` when
//!   every head sits on the end marker;
//! * a subtransducer call becomes a `pt_S` subgoal plus an `inp_S` feeding
//!   rule, recursively for all orders.
//!
//! Deviations from the paper's text: we generate one rule
//! per transition entry instead of joining a reified `delta_T` relation
//! (the specialization the paper itself uses in Theorem 1), we mark
//! every tape exactly once (the paper's γ″/γ′5 as printed would double-mark
//! subtransducer inputs), and `comp_T` carries the **input tuple** alongside
//! the consumed prefixes. The paper keys partial computations by consumed
//! prefix *values* alone, which is sound for one input (a deterministic
//! machine's state and output are functions of the consumed prefix) but
//! unsound for m ≥ 2: two invocations whose inputs share compatible prefixes
//! can cross-contaminate, because head scheduling depends on symbols beyond
//! the consumed prefixes. Carrying `(X1,…,Xm)` in `comp_T` restores the
//! intended per-invocation simulation.
//!
//! Nested transducer terms and constructive transducer *arguments* are
//! lifted first: `@T1(@T2(X))` introduces a fresh variable for the inner
//! call, and `@T(X ++ Y)` routes the concatenation through an auxiliary
//! predicate keyed by the argument's non-constructive leaves (the Theorem 8
//! decomposition, which "can only increase the extended active domain" and
//! never changes the original predicates' extents).

use crate::ast::{Atom, BodyLit, Clause, IndexTerm, IndexedBase, Program, SeqTerm};
use crate::registry::TransducerRegistry;
use seqlog_sequence::{Alphabet, FxHashSet, SeqStore};
use seqlog_transducer::{HeadMove, OutputAction, Transducer};
use std::fmt;

/// Translation failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TranslateError {
    /// A transducer term names a machine absent from the registry.
    UnknownTransducer(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTransducer(n) => write!(f, "unknown transducer @{n}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// Translate a Transducer Datalog program into an equivalent Sequence
/// Datalog program (Theorem 7).
pub fn translate_program(
    program: &Program,
    registry: &TransducerRegistry,
    alphabet: &mut Alphabet,
    store: &mut SeqStore,
) -> Result<Program, TranslateError> {
    let mut tr = Translator {
        registry,
        alphabet,
        store,
        clauses: Vec::new(),
        emitted_machines: FxHashSet::default(),
        existing_preds: program.predicates().into_iter().collect(),
        fresh_var: 0,
        fresh_aux: 0,
    };

    for clause in &program.clauses {
        tr.clause(clause)?;
    }
    Ok(Program {
        clauses: tr.clauses,
    })
}

struct Translator<'a> {
    registry: &'a TransducerRegistry,
    alphabet: &'a mut Alphabet,
    store: &'a mut SeqStore,
    clauses: Vec<Clause>,
    /// Machines whose γ1/γ2/δ rules were already generated (by pred base).
    emitted_machines: FxHashSet<String>,
    existing_preds: FxHashSet<String>,
    fresh_var: usize,
    fresh_aux: usize,
}

impl Translator<'_> {
    fn clause(&mut self, clause: &Clause) -> Result<(), TranslateError> {
        if !clause.head.args.iter().any(SeqTerm::has_transducer) {
            self.clauses.push(clause.clone());
            return Ok(());
        }
        // Rewrite head args bottom-up, accumulating new body literals.
        let mut body = clause.body.clone();
        let mut head_args = Vec::with_capacity(clause.head.args.len());
        for arg in &clause.head.args {
            head_args.push(self.rewrite(arg, &mut body)?);
        }
        self.clauses.push(Clause {
            head: Atom {
                pred: clause.head.pred.clone(),
                args: head_args,
            },
            body,
        });
        Ok(())
    }

    /// Replace transducer nodes in `t` by fresh variables, pushing `pt_T`
    /// subgoals onto `body` and emitting `inp_T` feeding rules.
    fn rewrite(&mut self, t: &SeqTerm, body: &mut Vec<BodyLit>) -> Result<SeqTerm, TranslateError> {
        match t {
            SeqTerm::Const(_) | SeqTerm::Var(_) | SeqTerm::Indexed { .. } => Ok(t.clone()),
            SeqTerm::Concat(a, b) => Ok(SeqTerm::Concat(
                Box::new(self.rewrite(a, body)?),
                Box::new(self.rewrite(b, body)?),
            )),
            SeqTerm::Transducer { name, args } => {
                let machine = self
                    .registry
                    .get(name)
                    .ok_or_else(|| TranslateError::UnknownTransducer(name.clone()))?
                    .clone();
                // Process arguments first (inner transducers, then any
                // remaining constructive structure).
                let mut flat_args = Vec::with_capacity(args.len());
                for a in args {
                    let a = self.rewrite(a, body)?;
                    flat_args.push(if a.is_constructive() {
                        self.lift_constructive(a, body)
                    } else {
                        a
                    });
                }

                let base = self.machine_base(name);
                self.emit_machine_rules(&base, &machine);

                // γ″ — feed the marked inputs to the simulation.
                let marker = self.marker_const(&machine);
                let marked: Vec<SeqTerm> = flat_args
                    .iter()
                    .map(|s| SeqTerm::Concat(Box::new(s.clone()), Box::new(marker.clone())))
                    .collect();
                self.clauses.push(Clause {
                    head: Atom {
                        pred: format!("inp_{base}"),
                        args: marked,
                    },
                    body: body.clone(),
                });

                // γ′ — the rewritten occurrence.
                let v = self.fresh_var();
                let mut pt_args = flat_args;
                pt_args.push(SeqTerm::Var(v.clone()));
                body.push(BodyLit::Atom(Atom {
                    pred: format!("pt_{base}"),
                    args: pt_args,
                }));
                Ok(SeqTerm::Var(v))
            }
        }
    }

    /// Route a constructive, transducer-free term through an auxiliary
    /// predicate keyed by its non-constructive leaves.
    fn lift_constructive(&mut self, t: SeqTerm, body: &mut Vec<BodyLit>) -> SeqTerm {
        fn leaves(t: &SeqTerm, out: &mut Vec<SeqTerm>) {
            match t {
                SeqTerm::Const(_) => {}
                SeqTerm::Var(_) | SeqTerm::Indexed { .. } => {
                    if !out.contains(t) {
                        out.push(t.clone());
                    }
                }
                SeqTerm::Concat(a, b) => {
                    leaves(a, out);
                    leaves(b, out);
                }
                SeqTerm::Transducer { .. } => {
                    unreachable!("inner transducers already rewritten")
                }
            }
        }
        let mut key = Vec::new();
        leaves(&t, &mut key);

        self.fresh_aux += 1;
        let pred = self.unique_pred(&format!("aux_{}", self.fresh_aux));
        let mut head_args = key.clone();
        head_args.push(t);
        self.clauses.push(Clause {
            head: Atom {
                pred: pred.clone(),
                args: head_args,
            },
            body: body.clone(),
        });

        let v = self.fresh_var();
        let mut call_args = key;
        call_args.push(SeqTerm::Var(v.clone()));
        body.push(BodyLit::Atom(Atom {
            pred,
            args: call_args,
        }));
        SeqTerm::Var(v)
    }

    fn fresh_var(&mut self) -> String {
        self.fresh_var += 1;
        format!("Vtr{}", self.fresh_var)
    }

    fn machine_base(&mut self, name: &str) -> String {
        let sanitized: String = name
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        sanitized
    }

    fn unique_pred(&mut self, base: &str) -> String {
        let mut name = base.to_string();
        while self.existing_preds.contains(&name) {
            name.push('_');
        }
        self.existing_preds.insert(name.clone());
        name
    }

    fn marker_const(&mut self, machine: &Transducer) -> SeqTerm {
        let id = self.store.intern(&[machine.end_marker]);
        SeqTerm::Const(id)
    }

    fn state_const(
        &mut self,
        base: &str,
        machine: &Transducer,
        q: seqlog_transducer::StateId,
    ) -> SeqTerm {
        let sym = self
            .alphabet
            .intern(&format!("q:{base}:{}", machine.state_name(q)));
        let id = self.store.intern(&[sym]);
        SeqTerm::Const(id)
    }

    /// Emit γ1, γ2 and the per-transition rules for `machine` (and,
    /// recursively, its subtransducers). Idempotent per predicate base.
    ///
    /// `comp` has arity `2m + 2`: the marked input tuple, the consumed
    /// prefixes, the current output, and the control state (see the module
    /// docs for why the inputs are carried).
    fn emit_machine_rules(&mut self, base: &str, machine: &Transducer) {
        if !self.emitted_machines.insert(base.to_string()) {
            return;
        }
        let m = machine.num_inputs;
        let inp = format!("inp_{base}");
        let comp = format!("comp_{base}");
        let pt = format!("pt_{base}");

        let xvar = |i: usize| SeqTerm::Var(format!("X{i}"));
        let unmarked = |i: usize| SeqTerm::Indexed {
            base: IndexedBase::Var(format!("X{i}")),
            lo: IndexTerm::Int(1),
            hi: IndexTerm::Sub(Box::new(IndexTerm::End), Box::new(IndexTerm::Int(1))),
        };
        let consumed = |i: usize| SeqTerm::Indexed {
            base: IndexedBase::Var(format!("X{i}")),
            lo: IndexTerm::Int(1),
            hi: IndexTerm::Var(format!("N{i}")),
        };
        let inp_atom = BodyLit::Atom(Atom {
            pred: inp.clone(),
            args: (0..m).map(xvar).collect(),
        });

        // γ1: project finished computations (all heads on ⊣) into pt.
        {
            let mut pt_args: Vec<SeqTerm> = (0..m).map(unmarked).collect();
            pt_args.push(SeqTerm::Var("Z".into()));
            let mut comp_args: Vec<SeqTerm> = (0..m).map(xvar).collect();
            comp_args.extend((0..m).map(unmarked));
            comp_args.push(SeqTerm::Var("Z".into()));
            comp_args.push(SeqTerm::Var("Q".into()));
            self.clauses.push(Clause {
                head: Atom {
                    pred: pt.clone(),
                    args: pt_args,
                },
                body: vec![BodyLit::Atom(Atom {
                    pred: comp.clone(),
                    args: comp_args,
                })],
            });
        }

        // γ2: start a simulation for every fed input tuple.
        {
            let eps = SeqTerm::Const(self.store.empty());
            let q0 = self.state_const(base, machine, machine.initial);
            let mut head_args: Vec<SeqTerm> = (0..m).map(xvar).collect();
            head_args.extend((0..m).map(|_| eps.clone()));
            head_args.push(eps.clone());
            head_args.push(q0);
            self.clauses.push(Clause {
                head: Atom {
                    pred: comp.clone(),
                    args: head_args,
                },
                body: vec![inp_atom.clone()],
            });
        }

        // One rule per transition entry.
        let transitions: Vec<_> = machine
            .iter_transitions()
            .map(|(q, read, t)| (q, read.to_vec(), t.clone()))
            .collect();
        for (q, read, tr) in transitions {
            let qc = self.state_const(base, machine, q);
            let qn = self.state_const(base, machine, tr.next);

            // comp(X1, …, Xm, X1[1:N1], …, Z, q)
            let mut comp_args: Vec<SeqTerm> = (0..m).map(xvar).collect();
            comp_args.extend((0..m).map(consumed));
            comp_args.push(SeqTerm::Var("Z".into()));
            comp_args.push(qc);
            let mut body = vec![BodyLit::Atom(Atom {
                pred: comp.clone(),
                args: comp_args,
            })];
            // Symbol checks: Xi[Ni+1] = read_i.
            for (i, &read_sym) in read.iter().enumerate().take(m) {
                let sym_const = SeqTerm::Const(self.store.intern(&[read_sym]));
                body.push(BodyLit::Eq(
                    SeqTerm::Indexed {
                        base: IndexedBase::Var(format!("X{i}")),
                        lo: IndexTerm::Add(
                            Box::new(IndexTerm::Var(format!("N{i}"))),
                            Box::new(IndexTerm::Int(1)),
                        ),
                        hi: IndexTerm::Add(
                            Box::new(IndexTerm::Var(format!("N{i}"))),
                            Box::new(IndexTerm::Int(1)),
                        ),
                    },
                    sym_const,
                ));
            }

            // New consumed prefixes.
            let new_consumed: Vec<SeqTerm> = (0..m)
                .map(|i| {
                    let ni = IndexTerm::Var(format!("N{i}"));
                    let hi = match tr.moves[i] {
                        HeadMove::Consume => {
                            IndexTerm::Add(Box::new(ni), Box::new(IndexTerm::Int(1)))
                        }
                        HeadMove::Stay => ni,
                    };
                    SeqTerm::Indexed {
                        base: IndexedBase::Var(format!("X{i}")),
                        lo: IndexTerm::Int(1),
                        hi,
                    }
                })
                .collect();

            // New output term (and possible subtransducer plumbing).
            let new_output: SeqTerm = match tr.output {
                OutputAction::Epsilon => SeqTerm::Var("Z".into()),
                OutputAction::Emit(c) => {
                    let cc = SeqTerm::Const(self.store.intern(&[c]));
                    SeqTerm::Concat(Box::new(SeqTerm::Var("Z".into())), Box::new(cc))
                }
                OutputAction::Call(si) => {
                    let sub = machine.subtransducers[si].clone();
                    let sub_base = format!("{base}_s{si}");
                    self.emit_machine_rules(&sub_base, &sub);

                    // Feed the subtransducer: caller's (already marked)
                    // inputs plus the freshly marked current output.
                    let marker = self.marker_const(&sub);
                    let mut feed_args: Vec<SeqTerm> = (0..m).map(xvar).collect();
                    feed_args.push(SeqTerm::Concat(
                        Box::new(SeqTerm::Var("Z".into())),
                        Box::new(marker),
                    ));
                    self.clauses.push(Clause {
                        head: Atom {
                            pred: format!("inp_{sub_base}"),
                            args: feed_args,
                        },
                        body: body.clone(),
                    });

                    // pt_sub(unmarked inputs…, Z, Z2) in the body.
                    let mut pt_args: Vec<SeqTerm> = (0..m).map(unmarked).collect();
                    pt_args.push(SeqTerm::Var("Z".into()));
                    pt_args.push(SeqTerm::Var("Z2".into()));
                    body.push(BodyLit::Atom(Atom {
                        pred: format!("pt_{sub_base}"),
                        args: pt_args,
                    }));
                    SeqTerm::Var("Z2".into())
                }
            };

            let mut head_args: Vec<SeqTerm> = (0..m).map(xvar).collect();
            head_args.extend(new_consumed);
            head_args.push(new_output);
            head_args.push(qn);
            self.clauses.push(Clause {
                head: Atom {
                    pred: comp.clone(),
                    args: head_args,
                },
                body,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::engine::Engine;
    use crate::eval::EvalConfig;
    use seqlog_transducer::library;

    /// Evaluate both the TD program (native machines) and its translation
    /// (pure Sequence Datalog) and compare the extent of `pred`.
    fn assert_equivalent(engine: &mut Engine, src: &str, db: &Database, pred: &str) {
        let td = engine.parse_program(src).unwrap();
        let sd = translate_program(
            &td,
            &engine.registry,
            &mut engine.alphabet,
            &mut engine.store,
        )
        .unwrap();
        assert!(
            sd.transducer_names().is_empty(),
            "translation must be pure SD"
        );

        let m_td = engine.evaluate(&td, db).unwrap();
        let m_sd = engine
            .evaluate_with(
                &sd,
                db,
                &EvalConfig {
                    max_rounds: 100_000,
                    ..Default::default()
                },
            )
            .unwrap();

        let mut a = engine.rendered_tuples(&m_td, pred);
        let mut b = engine.rendered_tuples(&m_sd, pred);
        a.sort();
        b.sort();
        a.dedup();
        b.dedup();
        assert_eq!(
            a, b,
            "extent of {pred} differs between TD and translated SD"
        );
    }

    #[test]
    fn order_1_mapper_translates() {
        let mut e = Engine::new();
        let t = library::transcribe(&mut e.alphabet);
        e.register_transducer("transcribe", t);
        let mut db = Database::new();
        e.add_fact(&mut db, "dnaseq", &["acgt"]);
        e.add_fact(&mut db, "dnaseq", &["ttgg"]);
        assert_equivalent(
            &mut e,
            "rnaseq(D, @transcribe(D)) :- dnaseq(D).",
            &db,
            "rnaseq",
        );
    }

    #[test]
    fn order_1_two_input_append_translates() {
        let mut e = Engine::new();
        let syms: Vec<_> = "ab".chars().map(|c| e.alphabet.intern_char(c)).collect();
        let t = library::append(&mut e.alphabet, &syms);
        e.register_transducer("append", t);
        let mut db = Database::new();
        e.add_fact(&mut db, "r", &["a"]);
        e.add_fact(&mut db, "r", &["bb"]);
        assert_equivalent(
            &mut e,
            "cat(X, Y, @append(X, Y)) :- r(X), r(Y).",
            &db,
            "cat",
        );
    }

    #[test]
    fn order_2_square_translates() {
        // Exercises subtransducer plumbing: square calls append at every
        // step.
        let mut e = Engine::new();
        let syms: Vec<_> = "ab".chars().map(|c| e.alphabet.intern_char(c)).collect();
        let t = library::square(&mut e.alphabet, &syms);
        e.register_transducer("square", t);
        let mut db = Database::new();
        e.add_fact(&mut db, "r", &["ab"]);
        assert_equivalent(&mut e, "sq(X, @square(X)) :- r(X).", &db, "sq");
    }

    #[test]
    fn nested_transducer_terms_are_lifted() {
        let mut e = Engine::new();
        let t1 = library::transcribe(&mut e.alphabet);
        let t2 = library::translate(&mut e.alphabet);
        e.register_transducer("transcribe", t1);
        e.register_transducer("translate", t2);
        let mut db = Database::new();
        e.add_fact(&mut db, "dnaseq", &["ctactg"]);
        assert_equivalent(
            &mut e,
            "protein(D, @translate(@transcribe(D))) :- dnaseq(D).",
            &db,
            "protein",
        );
    }

    #[test]
    fn constructive_arguments_are_lifted() {
        let mut e = Engine::new();
        let syms: Vec<_> = "ab".chars().map(|c| e.alphabet.intern_char(c)).collect();
        let t = library::copy(&mut e.alphabet, &syms);
        e.register_transducer("copy", t);
        let mut db = Database::new();
        e.add_fact(&mut db, "r", &["a"]);
        e.add_fact(&mut db, "r", &["b"]);
        assert_equivalent(&mut e, "c(X, Y, @copy(X ++ Y)) :- r(X), r(Y).", &db, "c");
    }

    #[test]
    fn unknown_transducer_is_reported() {
        let mut e = Engine::new();
        let td = e.parse_program("p(@nope(X)) :- q(X).").unwrap();
        let err = translate_program(&td, &e.registry, &mut e.alphabet, &mut e.store).unwrap_err();
        assert_eq!(err, TranslateError::UnknownTransducer("nope".into()));
    }

    #[test]
    fn simulation_only_runs_on_fed_inputs() {
        // Finiteness preservation: the translated program must not simulate
        // the machine on sequences the TD program never feeds it. We check
        // that inp_* contains exactly the fed (marked) inputs.
        let mut e = Engine::new();
        let t = library::transcribe(&mut e.alphabet);
        e.register_transducer("transcribe", t);
        let mut db = Database::new();
        e.add_fact(&mut db, "dnaseq", &["ac"]);
        e.add_fact(&mut db, "other", &["ttttttttt"]);
        let td = e
            .parse_program("rnaseq(D, @transcribe(D)) :- dnaseq(D).")
            .unwrap();
        let sd = translate_program(&td, &e.registry, &mut e.alphabet, &mut e.store).unwrap();
        let m = e.evaluate(&sd, &db).unwrap();
        let inp = e.rendered_tuples(&m, "inp_transcribe");
        assert_eq!(inp.len(), 1);
        assert!(
            inp[0][0].starts_with("ac"),
            "only the fed input is simulated: {inp:?}"
        );
    }
}
