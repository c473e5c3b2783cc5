//! Binary snapshots of a durable session's state.
//!
//! A snapshot captures everything replay would otherwise rebuild from the
//! full log: the alphabet, the sequence interner, the predicate table, the
//! fact relations and base-fact relations (in insertion order — recovery
//! is bit-for-bit, so order is part of the state), the cumulative
//! [`EvalStats`], and the [`Fixpoint`] watermarks. It deliberately does
//! **not** capture the extended active domain's membership: Definition 4
//! makes the domain a function of the interpretation, so
//! [`Fixpoint::restore`] recomputes it by closing over the loaded facts —
//! trusting a serialized domain would let a corrupt file smuggle in
//! members (or drop them) with no fact justifying the difference. What it
//! does capture is the domain's member *order*: a live session inserts
//! members chronologically (asserts and derivation commits interleaved),
//! the recomputation visits them in relation-iteration order, and the
//! order is observable — free-variable clauses enumerate the domain in
//! insertion order, so future derived tuples land in an order that depends
//! on it. Install re-imposes the recorded order only after verifying it is
//! exactly a permutation of the recomputed closure
//! ([`Fixpoint::adopt_domain_order`]), keeping recovery bit-for-bit
//! without ever trusting disk for membership.
//!
//! # File format
//!
//! ```text
//! magic "SQSNAP01" (8 bytes) · crc32(payload) u32 LE · payload
//! payload: version u32 · covered u64
//!        · alphabet names · sequences (as Sym indices, SeqId order)
//!        · predicate names · fact relations · base relations
//!        · EvalStats · sizes_done · virgin u8 · domain_settled u8
//!        · domain member order (SeqIds, insertion order)
//! ```
//!
//! The checksum covers the whole payload; any failed structural check
//! (counts, id bounds, interner misalignment) is a
//! [`RecoveryError::Corrupt`], never a panic. Files are written to a
//! `.tmp` sibling and atomically renamed, so a crash mid-snapshot leaves
//! the previous snapshot intact; `covered` (the absolute count of log
//! records the snapshot includes) is embedded in the file name —
//! `snap-<covered>.bin` — and the two newest snapshots are retained.
//!
//! The watermarks matter: a snapshot taken between an assert and its
//! `run` must restore the assert as pending, or the next run loses its
//! delta. `tests/fuzz_recovery.rs` pins that case, and
//! `scripts/mutants/stale_watermarks.patch` (run by
//! `scripts/mutation_check.sh`) shows a restore that marks every fact as
//! processed fails it.

use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use crate::compile::PredTable;
use crate::eval::interp::{FactStore, Relation};
use crate::eval::{EvalStats, Fixpoint};
use crate::wal::{crc32, put_str, put_u32, put_u64, ByteReader, RecoveryError};
use seqlog_sequence::{Alphabet, SeqId, SeqStore, Sym};

const SNAP_MAGIC: &[u8; 8] = b"SQSNAP01";
const SNAP_VERSION: u32 = 1;

/// File name of the snapshot covering `covered` records (zero-padded so
/// lexicographic and numeric order agree).
pub fn snapshot_file_name(covered: u64) -> String {
    format!("snap-{covered:020}.bin")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("snap-")?.strip_suffix(".bin")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Snapshot files in `dir`, newest (highest `covered`) first.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, RecoveryError> {
    let mut out = Vec::new();
    let entries =
        fs::read_dir(dir).map_err(|e| RecoveryError::io(&format!("list {}", dir.display()), &e))?;
    for entry in entries {
        let entry = entry.map_err(|e| RecoveryError::io("list snapshots", &e))?;
        let name = entry.file_name();
        if let Some(covered) = name.to_str().and_then(parse_snapshot_name) {
            out.push((covered, entry.path()));
        }
    }
    out.sort_by_key(|e| std::cmp::Reverse(e.0));
    Ok(out)
}

/// Delete all but the `keep` newest snapshots in `dir`.
pub fn prune_snapshots(dir: &Path, keep: usize) -> Result<(), RecoveryError> {
    for (_, path) in list_snapshots(dir)?.into_iter().skip(keep) {
        fs::remove_file(&path)
            .map_err(|e| RecoveryError::io(&format!("remove {}", path.display()), &e))?;
    }
    Ok(())
}

/// A decoded (or to-be-written) snapshot. All ids are stored as raw
/// indices; [`SessionSnapshot::install`] re-interns everything in order and
/// verifies the interners reproduce exactly those indices.
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    /// Absolute count of log records this state includes.
    pub covered: u64,
    alphabet: Vec<String>,
    seqs: Vec<Vec<u32>>,
    preds: Vec<String>,
    rels: Vec<Vec<Vec<u32>>>,
    base: Vec<Vec<Vec<u32>>>,
    stats: EvalStats,
    sizes_done: Vec<u64>,
    virgin: bool,
    domain_settled: bool,
    domain_order: Vec<u32>,
}

fn relation_tuples(rel: &Relation) -> Vec<Vec<u32>> {
    rel.iter()
        .map(|t| t.iter().map(|id| id.0).collect())
        .collect()
}

impl SessionSnapshot {
    /// Capture the current state of a session's interners and fixpoint.
    pub fn capture(covered: u64, alphabet: &Alphabet, store: &SeqStore, fx: &Fixpoint) -> Self {
        let alphabet: Vec<String> = alphabet.iter().map(|(_, name)| name.to_string()).collect();
        let seqs: Vec<Vec<u32>> = (0..store.count())
            .map(|i| store.get(SeqId(i as u32)).iter().map(|s| s.0).collect())
            .collect();
        let facts = fx.facts();
        let preds: Vec<String> = facts.preds().iter().map(|(_, n)| n.to_string()).collect();
        let rels: Vec<Vec<Vec<u32>>> = facts.relations().map(|(_, r)| relation_tuples(r)).collect();
        let base: Vec<Vec<Vec<u32>>> = fx.base_relations().iter().map(relation_tuples).collect();
        Self {
            covered,
            alphabet,
            seqs,
            preds,
            rels,
            base,
            // Raw, not finalized: `Fixpoint::stats` latches `max_seq_len`
            // against the current domain into its returned copy, which the
            // live session only adopts at its next run — persisting the
            // latched copy would make the act of checkpointing observable.
            stats: fx.stats_raw(),
            sizes_done: fx.sizes_done().iter().map(|&n| n as u64).collect(),
            virgin: fx.is_virgin(),
            domain_settled: fx.domain_settled(),
            domain_order: fx.domain().iter().map(|id| id.0).collect(),
        }
    }

    fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        put_u32(&mut p, SNAP_VERSION);
        put_u64(&mut p, self.covered);
        put_u32(&mut p, self.alphabet.len() as u32);
        for name in &self.alphabet {
            put_str(&mut p, name);
        }
        put_u32(&mut p, self.seqs.len() as u32);
        for seq in &self.seqs {
            put_u32(&mut p, seq.len() as u32);
            for &s in seq {
                put_u32(&mut p, s);
            }
        }
        put_u32(&mut p, self.preds.len() as u32);
        for name in &self.preds {
            put_str(&mut p, name);
        }
        let put_rels = |p: &mut Vec<u8>, rels: &[Vec<Vec<u32>>]| {
            put_u32(p, rels.len() as u32);
            for rel in rels {
                put_u32(p, rel.len() as u32);
                for tuple in rel {
                    put_u32(p, tuple.len() as u32);
                    for &id in tuple {
                        put_u32(p, id);
                    }
                }
            }
        };
        put_rels(&mut p, &self.rels);
        put_rels(&mut p, &self.base);
        for v in [
            self.stats.rounds as u64,
            self.stats.facts as u64,
            self.stats.domain_size as u64,
            self.stats.max_seq_len as u64,
            self.stats.derivations,
            self.stats.transducer_calls,
            self.stats.transducer_steps,
        ] {
            put_u64(&mut p, v);
        }
        put_u32(&mut p, self.sizes_done.len() as u32);
        for &n in &self.sizes_done {
            put_u64(&mut p, n);
        }
        p.push(u8::from(self.virgin));
        p.push(u8::from(self.domain_settled));
        put_u32(&mut p, self.domain_order.len() as u32);
        for &id in &self.domain_order {
            put_u32(&mut p, id);
        }
        p
    }

    fn decode(payload: &[u8], path: &Path) -> Result<Self, RecoveryError> {
        let bad = |detail: String| RecoveryError::corrupt(path, detail);
        let mut r = ByteReader::new(payload);
        (|| -> Result<Self, String> {
            let version = r.take_u32()?;
            if version != SNAP_VERSION {
                return Err(format!("unsupported snapshot version {version}"));
            }
            let covered = r.take_u64()?;
            let nalpha = r.take_count(4)?;
            let mut alphabet = Vec::with_capacity(nalpha);
            for _ in 0..nalpha {
                alphabet.push(r.take_str()?);
            }
            let nseqs = r.take_count(4)?;
            let mut seqs = Vec::with_capacity(nseqs);
            for _ in 0..nseqs {
                let len = r.take_count(4)?;
                let mut seq = Vec::with_capacity(len);
                for _ in 0..len {
                    seq.push(r.take_u32()?);
                }
                seqs.push(seq);
            }
            let npreds = r.take_count(4)?;
            let mut preds = Vec::with_capacity(npreds);
            for _ in 0..npreds {
                preds.push(r.take_str()?);
            }
            let take_rels = |r: &mut ByteReader<'_>| -> Result<Vec<Vec<Vec<u32>>>, String> {
                let nrels = r.take_count(4)?;
                let mut rels = Vec::with_capacity(nrels);
                for _ in 0..nrels {
                    let ntuples = r.take_count(4)?;
                    let mut rel = Vec::with_capacity(ntuples);
                    for _ in 0..ntuples {
                        let arity = r.take_count(4)?;
                        let mut tuple = Vec::with_capacity(arity);
                        for _ in 0..arity {
                            tuple.push(r.take_u32()?);
                        }
                        rel.push(tuple);
                    }
                    rels.push(rel);
                }
                Ok(rels)
            };
            let rels = take_rels(&mut r)?;
            let base = take_rels(&mut r)?;
            let mut stat = || r.take_u64();
            let stats = EvalStats {
                rounds: stat()? as usize,
                facts: stat()? as usize,
                domain_size: stat()? as usize,
                max_seq_len: stat()? as usize,
                derivations: stat()?,
                transducer_calls: stat()?,
                transducer_steps: stat()?,
            };
            let ndone = r.take_count(8)?;
            let mut sizes_done = Vec::with_capacity(ndone);
            for _ in 0..ndone {
                sizes_done.push(r.take_u64()?);
            }
            let flag = |b: u8| match b {
                0 => Ok(false),
                1 => Ok(true),
                v => Err(format!("invalid flag byte {v}")),
            };
            let virgin = flag(r.take_u8()?)?;
            let domain_settled = flag(r.take_u8()?)?;
            let norder = r.take_count(4)?;
            let mut domain_order = Vec::with_capacity(norder);
            for _ in 0..norder {
                domain_order.push(r.take_u32()?);
            }
            Ok(Self {
                covered,
                alphabet,
                seqs,
                preds,
                rels,
                base,
                stats,
                sizes_done,
                virgin,
                domain_settled,
                domain_order,
            })
        })()
        .and_then(|snap| {
            r.finish()?;
            Ok(snap)
        })
        .map_err(bad)
    }

    /// Write the snapshot into `dir` as `snap-<covered>.bin`, atomically
    /// (`.tmp` then rename), and prune to the `keep` newest.
    pub fn write(&self, dir: &Path, keep: usize) -> Result<PathBuf, RecoveryError> {
        let payload = self.encode();
        let mut bytes = Vec::with_capacity(12 + payload.len());
        bytes.extend_from_slice(SNAP_MAGIC);
        put_u32(&mut bytes, crc32(&payload));
        bytes.extend_from_slice(&payload);
        let final_path = dir.join(snapshot_file_name(self.covered));
        let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(self.covered)));
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)
            .map_err(|e| RecoveryError::io(&format!("create {}", tmp_path.display()), &e))?;
        f.write_all(&bytes)
            .and_then(|()| f.sync_data())
            .map_err(|e| RecoveryError::io(&format!("write {}", tmp_path.display()), &e))?;
        drop(f);
        fs::rename(&tmp_path, &final_path)
            .map_err(|e| RecoveryError::io(&format!("rename to {}", final_path.display()), &e))?;
        // Make the rename itself durable where the platform allows it.
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
        prune_snapshots(dir, keep)?;
        Ok(final_path)
    }

    /// Read and checksum-validate the snapshot at `path`.
    pub fn read(path: &Path) -> Result<Self, RecoveryError> {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| RecoveryError::io(&format!("read {}", path.display()), &e))?;
        if bytes.len() < 12 || &bytes[..8] != SNAP_MAGIC {
            return Err(RecoveryError::corrupt(path, "missing or damaged header"));
        }
        let crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let payload = &bytes[12..];
        if crc32(payload) != crc {
            return Err(RecoveryError::corrupt(path, "checksum failure"));
        }
        Self::decode(payload, path)
    }

    /// Rebuild interners and fixpoint state from the snapshot. Every id is
    /// validated as it is re-interned: symbols must index the loaded
    /// alphabet, tuples must index the loaded store, and the append-only
    /// interners must reproduce exactly the recorded indices — any drift
    /// means the file does not describe a reachable state. The extended
    /// active domain's membership is **rebuilt** from the loaded facts
    /// inside [`Fixpoint::restore`] (never deserialized); the recorded
    /// member order is then re-imposed, but only after verifying it is
    /// exactly a permutation of that rebuilt closure.
    pub fn install(&self, path: &Path) -> Result<(Alphabet, SeqStore, Fixpoint), RecoveryError> {
        let bad = |detail: String| RecoveryError::corrupt(path, detail);
        let mut alphabet = Alphabet::new();
        for (i, name) in self.alphabet.iter().enumerate() {
            let sym = alphabet.intern(name);
            if sym.0 as usize != i {
                return Err(bad(format!("alphabet entry {i} re-interned as {}", sym.0)));
            }
        }
        let mut store = SeqStore::new();
        let nsyms = self.alphabet.len() as u32;
        let mut syms = Vec::new();
        for (i, seq) in self.seqs.iter().enumerate() {
            syms.clear();
            for &s in seq {
                if s >= nsyms {
                    return Err(bad(format!("sequence {i} uses unknown symbol {s}")));
                }
                syms.push(Sym(s));
            }
            let id = store.intern(&syms);
            if id.0 as usize != i {
                return Err(bad(format!("sequence {i} re-interned as {}", id.0)));
            }
        }
        let nseqs = self.seqs.len() as u32;
        let mut preds = PredTable::new();
        for (i, name) in self.preds.iter().enumerate() {
            let pid = preds.intern(name);
            if pid.index() != i {
                return Err(bad(format!("predicate {i} re-interned as {}", pid.index())));
            }
        }
        if self.rels.len() != self.preds.len() {
            return Err(bad(format!(
                "{} relations for {} predicates",
                self.rels.len(),
                self.preds.len()
            )));
        }
        if self.base.len() > self.preds.len() {
            return Err(bad("more base relations than predicates".to_string()));
        }
        let build_rel = |tuples: &[Vec<u32>], what: &str| -> Result<Relation, RecoveryError> {
            let mut rel = Relation::default();
            for tuple in tuples {
                for &id in tuple {
                    if id >= nseqs {
                        return Err(bad(format!("{what} tuple uses unknown sequence {id}")));
                    }
                }
                let boxed: Box<[SeqId]> = tuple.iter().map(|&id| SeqId(id)).collect();
                if !rel.insert(boxed) {
                    return Err(bad(format!("duplicate tuple in {what}")));
                }
            }
            Ok(rel)
        };
        let mut facts = FactStore::with_preds(preds);
        for (i, tuples) in self.rels.iter().enumerate() {
            let pid = crate::compile::PredId(i as u32);
            let rel = build_rel(tuples, &format!("relation {i}"))?;
            for tuple in rel.iter() {
                if !facts.insert(pid, tuple.into()) {
                    return Err(bad(format!("duplicate tuple in relation {i}")));
                }
            }
        }
        let mut base = Vec::with_capacity(self.base.len());
        for (i, tuples) in self.base.iter().enumerate() {
            base.push(build_rel(tuples, &format!("base relation {i}"))?);
        }
        let mut sizes_done = Vec::with_capacity(self.sizes_done.len());
        if self.sizes_done.len() > self.rels.len() {
            return Err(bad("watermarks for more relations than exist".to_string()));
        }
        for (i, &n) in self.sizes_done.iter().enumerate() {
            if n as usize > self.rels[i].len() {
                return Err(bad(format!(
                    "watermark {n} exceeds relation {i}'s {} tuples",
                    self.rels[i].len()
                )));
            }
            sizes_done.push(n as usize);
        }
        let mut fx = Fixpoint::restore(
            &mut store,
            facts,
            base,
            self.stats,
            sizes_done,
            self.virgin,
            self.domain_settled,
        );
        let order: Vec<SeqId> = self.domain_order.iter().map(|&id| SeqId(id)).collect();
        if !fx.adopt_domain_order(&store, &order) {
            return Err(bad(
                "domain order is not a permutation of the rebuilt extended domain".to_string(),
            ));
        }
        Ok((alphabet, store, fx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_names_sort_numerically() {
        assert!(snapshot_file_name(9) < snapshot_file_name(10));
        assert_eq!(parse_snapshot_name(&snapshot_file_name(42)), Some(42));
        assert_eq!(parse_snapshot_name("snap-.bin"), None);
        assert_eq!(parse_snapshot_name("snap-12.tmp"), None);
        assert_eq!(parse_snapshot_name("wal.bin"), None);
    }
}
