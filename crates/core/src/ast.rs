//! Abstract syntax of Sequence Datalog and Transducer Datalog (Section 3.1
//! and Section 7.1).
//!
//! The term language has two layers:
//!
//! * **index terms** — integers, index variables, `end`, closed under `+`
//!   and `-`;
//! * **sequence terms** — constant sequences, sequence variables, *indexed
//!   terms* `s[n1:n2]` (where `s` is a variable or constant — nesting like
//!   `(s1•s2)[1:N]` is excluded by the grammar, mirroring the paper),
//!   *constructive terms* `s1 • s2` (written `++` in the concrete syntax)
//!   and, in Transducer Datalog, *transducer terms* `@T(s1,…,sm)`.
//!
//! Constructive and transducer terms are only legal in clause **heads**
//! (enforced by [`crate::compile`]); this is what separates safe structural
//! recursion from unsafe constructive recursion.

use seqlog_sequence::{Alphabet, SeqId, SeqStore};
use std::fmt;

/// An index term (Section 3.1).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum IndexTerm {
    /// A non-negative integer literal.
    Int(i64),
    /// An index variable (`N`, `M`, …).
    Var(String),
    /// The keyword `end` — the length of the enclosing indexed term's base.
    End,
    /// `n1 + n2`.
    Add(Box<IndexTerm>, Box<IndexTerm>),
    /// `n1 - n2`.
    Sub(Box<IndexTerm>, Box<IndexTerm>),
}

impl IndexTerm {
    /// Collect the variable names occurring in this term.
    pub fn vars(&self, out: &mut Vec<String>) {
        match self {
            Self::Int(_) | Self::End => {}
            Self::Var(v) => out.push(v.clone()),
            Self::Add(a, b) | Self::Sub(a, b) => {
                a.vars(out);
                b.vars(out);
            }
        }
    }
}

/// The base of an indexed term: a sequence variable or a constant.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum IndexedBase {
    /// A sequence variable.
    Var(String),
    /// An interned constant sequence.
    Const(SeqId),
}

/// A sequence term (Section 3.1, extended with transducer terms in
/// Section 7.1).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum SeqTerm {
    /// An interned constant sequence (string literal in the syntax).
    Const(SeqId),
    /// A sequence variable (`X`, `Y`, …).
    Var(String),
    /// `base[lo : hi]` — contiguous-subsequence extraction.
    Indexed {
        /// The subject sequence (variable or constant).
        base: IndexedBase,
        /// Start position.
        lo: IndexTerm,
        /// End position.
        hi: IndexTerm,
    },
    /// `s1 ++ s2` — concatenation (constructive; heads only).
    Concat(Box<SeqTerm>, Box<SeqTerm>),
    /// `@name(s1, …, sm)` — a generalized-transducer call (heads only).
    Transducer {
        /// The registered transducer's name.
        name: String,
        /// Input terms.
        args: Vec<SeqTerm>,
    },
}

impl SeqTerm {
    /// True when the term contains a constructive (`++`) or transducer
    /// subterm — i.e. when its evaluation can create new sequences.
    pub fn is_constructive(&self) -> bool {
        match self {
            Self::Const(_) | Self::Var(_) | Self::Indexed { .. } => false,
            Self::Concat(..) | Self::Transducer { .. } => true,
        }
    }

    /// True when the term contains a transducer subterm.
    pub fn has_transducer(&self) -> bool {
        match self {
            Self::Const(_) | Self::Var(_) | Self::Indexed { .. } => false,
            Self::Concat(a, b) => a.has_transducer() || b.has_transducer(),
            Self::Transducer { .. } => true,
        }
    }

    /// Collect sequence-variable names (into `seq`) and index-variable names
    /// (into `idx`) in occurrence order.
    pub fn vars(&self, seq: &mut Vec<String>, idx: &mut Vec<String>) {
        match self {
            Self::Const(_) => {}
            Self::Var(v) => seq.push(v.clone()),
            Self::Indexed { base, lo, hi } => {
                if let IndexedBase::Var(v) = base {
                    seq.push(v.clone());
                }
                lo.vars(idx);
                hi.vars(idx);
            }
            Self::Concat(a, b) => {
                a.vars(seq, idx);
                b.vars(seq, idx);
            }
            Self::Transducer { args, .. } => {
                for a in args {
                    a.vars(seq, idx);
                }
            }
        }
    }
}

/// A predicate atom `p(s1, …, sn)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Atom {
    /// Predicate name.
    pub pred: String,
    /// Argument terms.
    pub args: Vec<SeqTerm>,
}

/// A body literal: an atom, an (in)equality between sequence terms, or the
/// trivially true body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BodyLit {
    /// A positive predicate atom.
    Atom(Atom),
    /// `s1 = s2`.
    Eq(SeqTerm, SeqTerm),
    /// `s1 != s2`.
    Neq(SeqTerm, SeqTerm),
}

/// A clause `head :- body.` (a *fact* when the body is empty; the concrete
/// syntax also accepts `head :- true.`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Clause {
    /// The head atom.
    pub head: Atom,
    /// Body literals (conjunction).
    pub body: Vec<BodyLit>,
}

impl Clause {
    /// True when the head contains a constructive or transducer term
    /// (the paper's *constructive clause*).
    pub fn is_constructive(&self) -> bool {
        self.head.args.iter().any(SeqTerm::is_constructive)
    }

    /// Predicate names occurring in the body.
    pub fn body_preds(&self) -> impl Iterator<Item = &str> {
        self.body.iter().filter_map(|l| match l {
            BodyLit::Atom(a) => Some(a.pred.as_str()),
            _ => None,
        })
    }
}

/// A Sequence Datalog / Transducer Datalog program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Program {
    /// The clauses, in source order.
    pub clauses: Vec<Clause>,
}

impl Program {
    /// All predicate names mentioned anywhere (heads and bodies), deduped,
    /// in first-occurrence order.
    pub fn predicates(&self) -> Vec<String> {
        let mut seen = Vec::new();
        let mut push = |p: &str| {
            if !seen.iter().any(|s| s == p) {
                seen.push(p.to_string());
            }
        };
        for c in &self.clauses {
            push(&c.head.pred);
            for p in c.body_preds() {
                push(p);
            }
        }
        seen
    }

    /// Transducer names mentioned in heads, deduped.
    pub fn transducer_names(&self) -> Vec<String> {
        fn collect(t: &SeqTerm, out: &mut Vec<String>) {
            match t {
                SeqTerm::Transducer { name, args } => {
                    if !out.iter().any(|n| n == name) {
                        out.push(name.clone());
                    }
                    for a in args {
                        collect(a, out);
                    }
                }
                SeqTerm::Concat(a, b) => {
                    collect(a, out);
                    collect(b, out);
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        for c in &self.clauses {
            for a in &c.head.args {
                collect(a, &mut out);
            }
        }
        out
    }
}

/// Pretty-printing of programs back to concrete syntax (used by the guarding
/// and translation transformations so their output can be inspected and
/// re-parsed).
pub struct DisplayProgram<'a> {
    /// Program to render.
    pub program: &'a Program,
    /// Interner for sequence constants.
    pub store: &'a SeqStore,
    /// Interner for symbol names.
    pub alphabet: &'a Alphabet,
}

impl fmt::Display for DisplayProgram<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in &self.program.clauses {
            self.fmt_atom(f, &c.head)?;
            if !c.body.is_empty() {
                write!(f, " :- ")?;
                for (i, l) in c.body.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    match l {
                        BodyLit::Atom(a) => self.fmt_atom(f, a)?,
                        BodyLit::Eq(a, b) => {
                            self.fmt_term(f, a)?;
                            write!(f, " = ")?;
                            self.fmt_term(f, b)?;
                        }
                        BodyLit::Neq(a, b) => {
                            self.fmt_term(f, a)?;
                            write!(f, " != ")?;
                            self.fmt_term(f, b)?;
                        }
                    }
                }
            }
            writeln!(f, ".")?;
        }
        Ok(())
    }
}

impl DisplayProgram<'_> {
    fn fmt_atom(&self, f: &mut fmt::Formatter<'_>, a: &Atom) -> fmt::Result {
        write!(f, "{}", a.pred)?;
        if !a.args.is_empty() {
            write!(f, "(")?;
            for (i, t) in a.args.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                self.fmt_term(f, t)?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }

    fn fmt_term(&self, f: &mut fmt::Formatter<'_>, t: &SeqTerm) -> fmt::Result {
        match t {
            SeqTerm::Const(id) => {
                write!(f, "\"{}\"", self.alphabet.render(self.store.get(*id)))
            }
            SeqTerm::Var(v) => write!(f, "{v}"),
            SeqTerm::Indexed { base, lo, hi } => {
                match base {
                    IndexedBase::Var(v) => write!(f, "{v}")?,
                    IndexedBase::Const(id) => {
                        write!(f, "\"{}\"", self.alphabet.render(self.store.get(*id)))?;
                    }
                }
                write!(f, "[")?;
                fmt_index(f, lo)?;
                write!(f, ":")?;
                fmt_index(f, hi)?;
                write!(f, "]")
            }
            SeqTerm::Concat(a, b) => {
                self.fmt_term(f, a)?;
                write!(f, " ++ ")?;
                self.fmt_term(f, b)
            }
            SeqTerm::Transducer { name, args } => {
                write!(f, "@{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    self.fmt_term(f, a)?;
                }
                write!(f, ")")
            }
        }
    }
}

fn fmt_index(f: &mut fmt::Formatter<'_>, t: &IndexTerm) -> fmt::Result {
    match t {
        IndexTerm::Int(i) => write!(f, "{i}"),
        IndexTerm::Var(v) => write!(f, "{v}"),
        IndexTerm::End => write!(f, "end"),
        IndexTerm::Add(a, b) => {
            fmt_index(f, a)?;
            write!(f, "+")?;
            fmt_index(f, b)
        }
        IndexTerm::Sub(a, b) => {
            fmt_index(f, a)?;
            write!(f, "-")?;
            fmt_index(f, b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var(n: &str) -> SeqTerm {
        SeqTerm::Var(n.into())
    }

    #[test]
    fn constructive_detection() {
        let plain = Clause {
            head: Atom {
                pred: "p".into(),
                args: vec![var("X")],
            },
            body: vec![],
        };
        assert!(!plain.is_constructive());
        let concat = Clause {
            head: Atom {
                pred: "p".into(),
                args: vec![SeqTerm::Concat(Box::new(var("X")), Box::new(var("Y")))],
            },
            body: vec![],
        };
        assert!(concat.is_constructive());
        let trans = Clause {
            head: Atom {
                pred: "p".into(),
                args: vec![SeqTerm::Transducer {
                    name: "t".into(),
                    args: vec![var("X")],
                }],
            },
            body: vec![],
        };
        assert!(trans.is_constructive());
    }

    #[test]
    fn var_collection_separates_kinds() {
        let t = SeqTerm::Indexed {
            base: IndexedBase::Var("X".into()),
            lo: IndexTerm::Var("N".into()),
            hi: IndexTerm::Add(
                Box::new(IndexTerm::Var("N".into())),
                Box::new(IndexTerm::Int(1)),
            ),
        };
        let mut seq = Vec::new();
        let mut idx = Vec::new();
        t.vars(&mut seq, &mut idx);
        assert_eq!(seq, vec!["X"]);
        assert_eq!(idx, vec!["N", "N"]);
    }

    #[test]
    fn program_predicate_listing() {
        let p = Program {
            clauses: vec![Clause {
                head: Atom {
                    pred: "a".into(),
                    args: vec![],
                },
                body: vec![
                    BodyLit::Atom(Atom {
                        pred: "b".into(),
                        args: vec![],
                    }),
                    BodyLit::Atom(Atom {
                        pred: "a".into(),
                        args: vec![],
                    }),
                ],
            }],
        };
        assert_eq!(p.predicates(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn transducer_name_collection_sees_nested_terms() {
        let p = Program {
            clauses: vec![Clause {
                head: Atom {
                    pred: "p".into(),
                    args: vec![SeqTerm::Concat(
                        Box::new(SeqTerm::Transducer {
                            name: "t1".into(),
                            args: vec![var("X")],
                        }),
                        Box::new(SeqTerm::Transducer {
                            name: "t2".into(),
                            args: vec![SeqTerm::Transducer {
                                name: "t1".into(),
                                args: vec![var("Y")],
                            }],
                        }),
                    )],
                },
                body: vec![],
            }],
        };
        assert_eq!(
            p.transducer_names(),
            vec!["t1".to_string(), "t2".to_string()]
        );
    }
}
