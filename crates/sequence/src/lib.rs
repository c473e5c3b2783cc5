//! Sequence substrate for the Sequence Datalog reproduction.
//!
//! This crate implements the primitives of Section 2.1 of Bonner & Mecca,
//! *Sequences, Datalog, and Transducers* (JCSS 57, 1998):
//!
//! * a finite **alphabet** Σ of interned symbols ([`Alphabet`], [`Sym`]),
//! * **sequences** over Σ, stored hash-consed in a [`SeqStore`] and addressed
//!   by cheap copyable [`SeqId`] handles (term graphs over owned `Vec`s are
//!   painful in Rust; interning gives O(1) equality and removes ownership
//!   friction),
//! * **contiguous subsequences** and the paper's 1-based indexing rules
//!   ([`index_window`], Section 3.2),
//! * the **extended active domain** of an interpretation ([`ExtendedDomain`],
//!   Definitions 2–3): a set of sequences closed under contiguous
//!   subsequences, together with the integer range `0..=lmax+1`.
//!
//! Everything upstream (the Datalog engine, the transducer machinery, the
//! Turing-machine compilers) works in terms of `Sym` and `SeqId`.

pub mod alphabet;
pub mod domain;
pub mod fx;
pub mod store;

pub use alphabet::{Alphabet, Sym};
pub use domain::ExtendedDomain;
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use store::{index_window, SeqId, SeqStore};
