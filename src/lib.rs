//! # sequence-datalog
//!
//! A complete Rust reproduction of Bonner & Mecca, *Sequences, Datalog, and
//! Transducers* (PODS 1995 / JCSS 57, 1998): the Sequence Datalog query
//! language, generalized sequence transducers, Transducer Datalog, the
//! strongly safe fragment, and the Turing-machine constructions used in the
//! paper's expressibility proofs.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`sequence`] — symbols, interned sequences, extended active domains,
//! * [`core`] — the Sequence/Transducer Datalog language and engine,
//! * [`transducer`] — generalized transducers and acyclic networks,
//! * [`turing`] — Turing machines and the Theorem 1 / Theorem 5 compilers.
//!
//! See `README.md` for a quickstart and the system inventory (its "Layout"
//! table and the sections from "Evaluation engine" on), `tests/README.md`
//! for the test taxonomy, and the `experiments` binary
//! (`cargo run -p seqlog-bench --bin experiments --release`) for the
//! reproduced results.

pub use seqlog_core as core;
pub use seqlog_sequence as sequence;
pub use seqlog_transducer as transducer;
pub use seqlog_turing as turing;

pub use seqlog_core::prelude;
