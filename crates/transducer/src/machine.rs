//! The generalized sequence transducer model (Definition 7).
//!
//! A generalized m-input transducer of order k is a 4-tuple (K, q0, Σ, δ)
//! where δ maps a control state and the m symbols under the one-way input
//! heads to a successor state, a head-movement command per input (`►` move
//! right / `−` stay), and an output action: append a symbol, append nothing,
//! or invoke a *subtransducer* of order < k on (the caller's inputs, the
//! caller's current output), whose output then **overwrites** the caller's
//! output tape.
//!
//! The paper's well-formedness restrictions (Definition 7, item 5) are
//! enforced by [`Transducer::validate`]:
//!
//! 1. every transition moves at least one input head (guarantees
//!    termination on finite inputs),
//! 2. a head reading the end-of-tape marker `⊣` must stay put,
//! 3. a subtransducer invoked by an m-input machine has exactly m+1 inputs.

use seqlog_sequence::{Alphabet, FxHashMap, Sym};
use std::fmt;

/// A control state of a transducer, local to its machine.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The raw state index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "StateId({})", self.0)
    }
}

/// Head-movement command: `►` consumes one input symbol, `−` stays.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HeadMove {
    /// Move one symbol to the right (consume).
    Consume,
    /// Stay on the current symbol.
    Stay,
}

/// The output action of a transition: `out ∈ Σ ∪ {ε} ∪ T^{k-1}`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OutputAction {
    /// Append nothing (`ε`).
    Epsilon,
    /// Append one alphabet symbol.
    Emit(Sym),
    /// Invoke subtransducer `subs[i]` on (inputs…, current output); its
    /// output overwrites the caller's output tape.
    Call(usize),
}

/// One entry of the transition function δ.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Transition {
    /// Successor control state `q'`.
    pub next: StateId,
    /// One movement command per input head.
    pub moves: Box<[HeadMove]>,
    /// The output action.
    pub output: OutputAction,
}

/// Errors detected by [`Transducer::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MachineError {
    /// A transition's `moves` vector has the wrong arity.
    MoveArity {
        /// Source state name.
        state: String,
        /// Expected arity (the machine's input count).
        expected: usize,
        /// Actual arity found.
        got: usize,
    },
    /// Definition 7(5)(i): no head moves in some transition.
    NoHeadMoves {
        /// Source state name.
        state: String,
    },
    /// Definition 7(5)(ii): a head reading `⊣` is commanded to move.
    MovePastEnd {
        /// Source state name.
        state: String,
        /// Offending head index.
        head: usize,
    },
    /// Definition 7(5)(iii): a subtransducer has the wrong number of inputs.
    SubArity {
        /// Subtransducer name.
        sub: String,
        /// Expected input count (caller's inputs + 1).
        expected: usize,
        /// Actual input count found.
        got: usize,
    },
    /// A transition references a subtransducer index that does not exist.
    UnknownSub {
        /// Source state name.
        state: String,
        /// The dangling subtransducer index.
        index: usize,
    },
    /// A transition emits the reserved end-of-tape marker.
    EmitsEndMarker {
        /// Source state name.
        state: String,
    },
    /// A transition references an undeclared state.
    UnknownState {
        /// The dangling state id.
        state: u32,
    },
    /// The machine has zero inputs (the model requires m ≥ 1).
    NoInputs,
    /// A nested error inside a subtransducer.
    InSub {
        /// Subtransducer name.
        sub: String,
        /// The underlying error.
        error: Box<MachineError>,
    },
}

impl fmt::Display for MachineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MoveArity {
                state,
                expected,
                got,
            } => {
                write!(
                    f,
                    "transition from {state}: {got} move commands, expected {expected}"
                )
            }
            Self::NoHeadMoves { state } => {
                write!(
                    f,
                    "transition from {state} moves no input head (Def 7.5(i))"
                )
            }
            Self::MovePastEnd { state, head } => {
                write!(
                    f,
                    "transition from {state} moves head {head} past ⊣ (Def 7.5(ii))"
                )
            }
            Self::SubArity { sub, expected, got } => {
                write!(
                    f,
                    "subtransducer {sub} has {got} inputs, expected {expected} (Def 7.5(iii))"
                )
            }
            Self::UnknownSub { state, index } => {
                write!(
                    f,
                    "transition from {state} calls unknown subtransducer #{index}"
                )
            }
            Self::EmitsEndMarker { state } => {
                write!(f, "transition from {state} emits the reserved end marker ⊣")
            }
            Self::UnknownState { state } => write!(f, "undeclared state id {state}"),
            Self::NoInputs => write!(f, "transducer must have at least one input"),
            Self::InSub { sub, error } => write!(f, "in subtransducer {sub}: {error}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// A generalized m-input sequence transducer (Definition 7).
///
/// Construct via [`crate::builder::TransducerBuilder`] or
/// [`crate::builder::synthesize`]; run via [`crate::exec::run`].
#[derive(Clone)]
pub struct Transducer {
    /// Human-readable machine name (used in diagnostics and Datalog
    /// translation).
    pub name: String,
    /// Number of input tapes, m ≥ 1.
    pub num_inputs: usize,
    /// State names, indexed by [`StateId`].
    pub state_names: Vec<String>,
    /// The initial state q0.
    pub initial: StateId,
    /// The transition function δ, keyed by (state, symbols under heads).
    pub(crate) transitions: FxHashMap<(StateId, Box<[Sym]>), Transition>,
    /// Subtransducers available to [`OutputAction::Call`]; each has
    /// `num_inputs + 1` inputs.
    pub subtransducers: Vec<Transducer>,
    /// The interned end-of-tape marker `⊣` this machine was built against.
    pub end_marker: Sym,
}

impl Transducer {
    /// The order of the machine: 1 + the maximum order of its
    /// subtransducers; ordinary (base) transducers have order 1 (T¹).
    pub fn order(&self) -> usize {
        1 + self
            .subtransducers
            .iter()
            .map(Transducer::order)
            .max()
            .unwrap_or(0)
    }

    /// Number of explicit transition entries (not counting subtransducers).
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Number of control states.
    pub fn num_states(&self) -> usize {
        self.state_names.len()
    }

    /// Look up δ(state, read).
    pub fn transition(&self, state: StateId, read: &[Sym]) -> Option<&Transition> {
        // Keyed lookup without allocating: FxHashMap<(StateId, Box<[Sym]>)>
        // requires a borrowed key of the same shape; fall back to a probe
        // via raw iteration is O(n), so we allocate a small key instead.
        // Read tuples are tiny (m ≤ 4 in practice).
        let key: (StateId, Box<[Sym]>) = (state, read.into());
        self.transitions.get(&key)
    }

    /// Iterate over all transition entries.
    pub fn iter_transitions(&self) -> impl Iterator<Item = (StateId, &[Sym], &Transition)> + '_ {
        self.transitions
            .iter()
            .map(|((q, read), t)| (*q, read.as_ref(), t))
    }

    /// The name of a control state.
    pub fn state_name(&self, q: StateId) -> &str {
        &self.state_names[q.index()]
    }

    /// Validate the Definition 7 restrictions, recursively including all
    /// subtransducers. Builders call this automatically.
    pub fn validate(&self) -> Result<(), MachineError> {
        if self.num_inputs == 0 {
            return Err(MachineError::NoInputs);
        }
        for ((q, read), t) in &self.transitions {
            let state = self.state_names[q.index()].clone();
            if t.moves.len() != self.num_inputs || read.len() != self.num_inputs {
                return Err(MachineError::MoveArity {
                    state,
                    expected: self.num_inputs,
                    got: t.moves.len(),
                });
            }
            if !t.moves.contains(&HeadMove::Consume) {
                return Err(MachineError::NoHeadMoves { state });
            }
            for (i, (&sym, &mv)) in read.iter().zip(t.moves.iter()).enumerate() {
                if sym == self.end_marker && mv == HeadMove::Consume {
                    return Err(MachineError::MovePastEnd { state, head: i });
                }
            }
            if t.next.index() >= self.state_names.len() {
                return Err(MachineError::UnknownState { state: t.next.0 });
            }
            match t.output {
                OutputAction::Emit(s) if s == self.end_marker => {
                    return Err(MachineError::EmitsEndMarker { state });
                }
                OutputAction::Call(i) => {
                    let sub = self.subtransducers.get(i).ok_or(MachineError::UnknownSub {
                        state: state.clone(),
                        index: i,
                    })?;
                    if sub.num_inputs != self.num_inputs + 1 {
                        return Err(MachineError::SubArity {
                            sub: sub.name.clone(),
                            expected: self.num_inputs + 1,
                            got: sub.num_inputs,
                        });
                    }
                }
                _ => {}
            }
        }
        for sub in &self.subtransducers {
            sub.validate().map_err(|e| MachineError::InSub {
                sub: sub.name.clone(),
                error: Box::new(e),
            })?;
        }
        Ok(())
    }

    /// Pretty-print the transition table (diagnostics / examples).
    pub fn describe(&self, alphabet: &Alphabet) -> String {
        let mut rows: Vec<String> = self
            .iter_transitions()
            .map(|(q, read, t)| {
                let read_s: Vec<&str> = read.iter().map(|&s| alphabet.name(s)).collect();
                let moves: Vec<&str> = t
                    .moves
                    .iter()
                    .map(|m| match m {
                        HeadMove::Consume => "►",
                        HeadMove::Stay => "−",
                    })
                    .collect();
                let out = match t.output {
                    OutputAction::Epsilon => "ε".to_string(),
                    OutputAction::Emit(s) => alphabet.name(s).to_string(),
                    OutputAction::Call(i) => format!("call {}", self.subtransducers[i].name),
                };
                format!(
                    "  δ({}, {}) = ({}, {}, {})",
                    self.state_name(q),
                    read_s.join(","),
                    self.state_name(t.next),
                    moves.join(","),
                    out
                )
            })
            .collect();
        rows.sort();
        format!(
            "{} (inputs={}, order={}, states={})\n{}",
            self.name,
            self.num_inputs,
            self.order(),
            self.num_states(),
            rows.join("\n")
        )
    }
}

impl fmt::Debug for Transducer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Transducer")
            .field("name", &self.name)
            .field("inputs", &self.num_inputs)
            .field("order", &self.order())
            .field("states", &self.state_names.len())
            .field("transitions", &self.transitions.len())
            .field("subtransducers", &self.subtransducers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::TransducerBuilder;
    use seqlog_sequence::Alphabet;

    fn tiny_alphabet() -> (Alphabet, Vec<Sym>, Sym) {
        let mut a = Alphabet::new();
        let syms = vec![a.intern_char('0'), a.intern_char('1')];
        let end = a.end_marker();
        (a, syms, end)
    }

    #[test]
    fn order_of_base_machine_is_one() {
        let (_, syms, end) = tiny_alphabet();
        let mut b = TransducerBuilder::new("id", 1, end);
        let q0 = b.state("q0");
        for &s in &syms {
            b.on(q0, &[s], q0, &[HeadMove::Consume], OutputAction::Emit(s));
        }
        let t = b.build().unwrap();
        assert_eq!(t.order(), 1);
        assert_eq!(t.num_transitions(), 2);
    }

    #[test]
    fn validation_rejects_no_head_moves() {
        let (_, syms, end) = tiny_alphabet();
        let mut b = TransducerBuilder::new("bad", 1, end);
        let q0 = b.state("q0");
        b.on(q0, &[syms[0]], q0, &[HeadMove::Stay], OutputAction::Epsilon);
        assert!(matches!(
            b.build().unwrap_err(),
            MachineError::NoHeadMoves { .. }
        ));
    }

    #[test]
    fn validation_rejects_moving_past_end_marker() {
        let (_, _, end) = tiny_alphabet();
        let mut b = TransducerBuilder::new("bad", 1, end);
        let q0 = b.state("q0");
        b.on(q0, &[end], q0, &[HeadMove::Consume], OutputAction::Epsilon);
        assert!(matches!(
            b.build().unwrap_err(),
            MachineError::MovePastEnd { .. }
        ));
    }

    #[test]
    fn validation_rejects_wrong_sub_arity() {
        let (_, syms, end) = tiny_alphabet();
        // The sub has 1 input, but an m=1 caller requires m+1 = 2.
        let sub = {
            let mut b = TransducerBuilder::new("sub", 1, end);
            let q0 = b.state("q0");
            b.on(
                q0,
                &[syms[0]],
                q0,
                &[HeadMove::Consume],
                OutputAction::Epsilon,
            );
            b.build().unwrap()
        };
        let mut b = TransducerBuilder::new("caller", 1, end);
        let q0 = b.state("q0");
        let si = b.sub(sub);
        b.on(
            q0,
            &[syms[0]],
            q0,
            &[HeadMove::Consume],
            OutputAction::Call(si),
        );
        assert!(matches!(
            b.build().unwrap_err(),
            MachineError::SubArity { .. }
        ));
    }

    #[test]
    fn validation_rejects_emitting_end_marker() {
        let (_, syms, end) = tiny_alphabet();
        let mut b = TransducerBuilder::new("bad", 1, end);
        let q0 = b.state("q0");
        b.on(
            q0,
            &[syms[0]],
            q0,
            &[HeadMove::Consume],
            OutputAction::Emit(end),
        );
        assert!(matches!(
            b.build().unwrap_err(),
            MachineError::EmitsEndMarker { .. }
        ));
    }

    #[test]
    fn order_counts_nesting_depth() {
        let (_, syms, end) = tiny_alphabet();
        // base (order 1)
        let base = {
            let mut b = TransducerBuilder::new("base", 3, end);
            let q0 = b.state("q0");
            b.on(
                q0,
                &[syms[0], syms[0], syms[0]],
                q0,
                &[HeadMove::Consume, HeadMove::Stay, HeadMove::Stay],
                OutputAction::Epsilon,
            );
            b.build().unwrap()
        };
        // middle (order 2) calls base
        let middle = {
            let mut b = TransducerBuilder::new("middle", 2, end);
            let q0 = b.state("q0");
            let si = b.sub(base);
            b.on(
                q0,
                &[syms[0], syms[0]],
                q0,
                &[HeadMove::Consume, HeadMove::Stay],
                OutputAction::Call(si),
            );
            b.build().unwrap()
        };
        // top (order 3) calls middle
        let top = {
            let mut b = TransducerBuilder::new("top", 1, end);
            let q0 = b.state("q0");
            let si = b.sub(middle);
            b.on(
                q0,
                &[syms[0]],
                q0,
                &[HeadMove::Consume],
                OutputAction::Call(si),
            );
            b.build().unwrap()
        };
        assert_eq!(top.order(), 3);
    }
}
