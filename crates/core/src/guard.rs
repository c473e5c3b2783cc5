//! The guarding transformation of Appendix B (Theorem 10).
//!
//! Given a program `P`, build `P^G`:
//!
//! 1. introduce a fresh unary predicate `dom` meaning "X is a sequence in
//!    the extended active domain";
//! 2. replace each clause `head :- body` by
//!    `head :- body, dom(X1), …, dom(Xm)` for its sequence variables
//!    (clause (1) of the construction; we add `dom(X)` only for variables
//!    that are not already guarded, which yields the same guarded semantics
//!    with fewer redundant premises);
//! 3. add the closure clause `dom(X[M:N]) :- dom(X)` (clause (2)); and
//! 4. for every predicate `p` of arity m mentioned in `P` or the database
//!    schema, add `dom(Xi) :- p(X1,…,Xm)` for each position (clauses (3)).
//!
//! `P^G` is guarded, computes the same extents for every predicate of
//! `P ∪ db`, and has a finite semantics iff `P` does (Theorem 10 /
//! Lemmas 5–7).

use crate::ast::{Atom, BodyLit, Clause, IndexTerm, Program, SeqTerm};

/// The reserved predicate name introduced by guarding.
pub const DOM_PRED: &str = "dom";

/// Arities of the predicates mentioned in a program (first-seen arity wins;
/// Sequence Datalog predicates have fixed arity).
fn arities(program: &Program, extra_schema: &[(String, usize)]) -> Vec<(String, usize)> {
    let mut out: Vec<(String, usize)> = Vec::new();
    let mut push = |name: &str, arity: usize| {
        if !out.iter().any(|(n, _)| n == name) {
            out.push((name.to_string(), arity));
        }
    };
    for c in &program.clauses {
        push(&c.head.pred, c.head.args.len());
        for l in &c.body {
            if let BodyLit::Atom(a) = l {
                push(&a.pred, a.args.len());
            }
        }
    }
    for (n, a) in extra_schema {
        push(n, *a);
    }
    out
}

/// The sequence variables of `clause` that no body atom has as a whole
/// argument, sorted and deduplicated: empty exactly when the clause is
/// guarded (Appendix B).
fn unguarded_vars(clause: &Clause) -> Vec<String> {
    let mut seq_vars = Vec::new();
    let mut idx_vars = Vec::new();
    for t in &clause.head.args {
        t.vars(&mut seq_vars, &mut idx_vars);
    }
    for l in &clause.body {
        match l {
            BodyLit::Atom(a) => {
                for t in &a.args {
                    t.vars(&mut seq_vars, &mut idx_vars);
                }
            }
            BodyLit::Eq(a, b) | BodyLit::Neq(a, b) => {
                a.vars(&mut seq_vars, &mut idx_vars);
                b.vars(&mut seq_vars, &mut idx_vars);
            }
        }
    }
    seq_vars.sort();
    seq_vars.dedup();
    seq_vars.retain(|v| {
        !clause.body.iter().any(|l| match l {
            BodyLit::Atom(a) => a
                .args
                .iter()
                .any(|t| matches!(t, SeqTerm::Var(x) if x == v)),
            _ => false,
        })
    });
    seq_vars
}

/// Build the guarded program `P^G` (Theorem 10). `extra_schema` lists base
/// predicates of the database that the program may not mention explicitly.
pub fn guard_program(program: &Program, extra_schema: &[(String, usize)]) -> Program {
    let mut clauses = Vec::with_capacity(program.clauses.len() + 8);

    // (1) Guard every clause; a guarded one passes through unchanged.
    for c in &program.clauses {
        let mut body = c.body.clone();
        body.extend(unguarded_vars(c).into_iter().map(|v| {
            BodyLit::Atom(Atom {
                pred: DOM_PRED.into(),
                args: vec![SeqTerm::Var(v)],
            })
        }));
        clauses.push(Clause {
            head: c.head.clone(),
            body,
        });
    }

    // (2) dom is closed under contiguous subsequences.
    clauses.push(Clause {
        head: Atom {
            pred: DOM_PRED.into(),
            args: vec![SeqTerm::Indexed {
                base: crate::ast::IndexedBase::Var("X".into()),
                lo: IndexTerm::Var("M".into()),
                hi: IndexTerm::Var("N".into()),
            }],
        },
        body: vec![BodyLit::Atom(Atom {
            pred: DOM_PRED.into(),
            args: vec![SeqTerm::Var("X".into())],
        })],
    });

    // (3) dom contains every sequence occurring in any predicate.
    for (pred, arity) in arities(program, extra_schema) {
        if pred == DOM_PRED {
            continue;
        }
        let vars: Vec<SeqTerm> = (0..arity).map(|i| SeqTerm::Var(format!("X{i}"))).collect();
        for i in 0..arity {
            clauses.push(Clause {
                head: Atom {
                    pred: DOM_PRED.into(),
                    args: vec![vars[i].clone()],
                },
                body: vec![BodyLit::Atom(Atom {
                    pred: pred.clone(),
                    args: vars.clone(),
                })],
            });
        }
    }

    Program { clauses }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::engine::Engine;

    fn is_guarded(clause: &Clause) -> bool {
        unguarded_vars(clause).is_empty()
    }

    #[test]
    fn guardedness_examples_from_section_3_1() {
        let mut e = Engine::new();
        let p = e
            .parse_program("p(X[1]) :- q(X).\np(X) :- q(X[1]).")
            .unwrap();
        assert!(is_guarded(&p.clauses[0]));
        assert!(!is_guarded(&p.clauses[1]));
    }

    #[test]
    fn guarded_output_is_guarded() {
        let mut e = Engine::new();
        let p = e.parse_program("p(X) :- q(X[1]).").unwrap();
        assert!(!is_guarded(&p.clauses[0]));
        let g = guard_program(&p, &[]);
        assert!(g.clauses.iter().all(is_guarded), "{g:?}");
        // dom closure clause and projection clauses were added.
        assert!(g.clauses.iter().any(|c| c.head.pred == DOM_PRED));
    }

    #[test]
    fn already_guarded_clauses_pass_through() {
        let mut e = Engine::new();
        let p = e.parse_program("p(X[1]) :- q(X).").unwrap();
        let g = guard_program(&p, &[]);
        assert_eq!(g.clauses[0], p.clauses[0]);
    }

    #[test]
    fn theorem_10_same_answers_on_paper_example() {
        // p(X) :- q(X[1]) asks for domain members whose first symbol is in
        // q. Unguarded and guarded versions must agree on p.
        let mut e = Engine::new();
        let p = e.parse_program("p(X) :- q(X[1]).").unwrap();
        let g = guard_program(&p, &[("seed".into(), 1)]);

        let mut db = Database::new();
        e.add_fact(&mut db, "seed", &["abc"]);
        e.add_fact(&mut db, "q", &["a"]);

        let m1 = e.evaluate(&p, &db).unwrap();
        let m2 = e.evaluate(&g, &db).unwrap();
        let mut a1 = e.answers(&m1, "p");
        let mut a2 = e.answers(&m2, "p");
        a1.sort();
        a2.sort();
        assert_eq!(a1, a2);
        // "a", "ab", "abc" are the domain members starting with 'a'.
        assert_eq!(a1, vec!["a".to_string(), "ab".into(), "abc".into()]);
    }

    #[test]
    fn schema_only_predicates_get_projection_clauses() {
        let mut e = Engine::new();
        let p = e.parse_program("p(X) :- q(X).").unwrap();
        let g = guard_program(&p, &[("base2".into(), 2)]);
        let projections: Vec<&Clause> = g
            .clauses
            .iter()
            .filter(|c| {
                c.head.pred == DOM_PRED
                    && c.body
                        .iter()
                        .any(|l| matches!(l, BodyLit::Atom(a) if a.pred == "base2"))
            })
            .collect();
        assert_eq!(projections.len(), 2);
    }
}
