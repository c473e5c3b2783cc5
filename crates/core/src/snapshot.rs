//! Binary snapshots of a durable session's state.
//!
//! A snapshot holds everything replay would otherwise rebuild from the
//! full log: the alphabet, the sequence interner, the predicate table, the
//! fact relations and base-fact relations (in insertion order — recovery
//! is bit-for-bit, so order is part of the state), the cumulative
//! [`EvalStats`], and the [`Fixpoint`] watermarks. It deliberately does
//! **not** hold the extended active domain's membership: Definition 4
//! makes the domain a function of the interpretation, so
//! [`Fixpoint::restore`] recomputes it by closing over the loaded facts —
//! trusting a serialized domain would let a corrupt file smuggle in
//! members (or drop them) with no fact justifying the difference. What it
//! does hold is the domain's member *order*: a live session inserts
//! members chronologically (asserts and derivation commits interleaved),
//! the recomputation visits them in relation-iteration order, and the
//! order is observable — free-variable clauses enumerate the domain in
//! insertion order, so future derived tuples land in an order that depends
//! on it. [`Fixpoint::restore`] re-imposes the recorded order only after
//! verifying it is exactly a permutation of the recomputed closure,
//! keeping recovery bit-for-bit without ever trusting disk for membership.
//!
//! Both directions take one pass with no intermediate copy of the state:
//! [`write_snapshot`] encodes straight from the live interners and
//! relations, and [`SessionSnapshot::read`] interns each name and sequence
//! as it is read and inserts each tuple once into the rebuilt relations,
//! whose insert doubles as the duplicate check.
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
//! The checksum covers the whole payload. Every structural check (counts,
//! id bounds) and every content check (interner misalignment, duplicate
//! tuples, a watermark past its relation, a member order that is not a
//! permutation) is a [`RecoveryError::Corrupt`], never a panic, and
//! recovery falls back to an older snapshot on either kind. Files are
//! written to a `.tmp` sibling, synced and atomically renamed, so a crash
//! mid-snapshot leaves the previous snapshot intact; `covered` (the
//! absolute count of log records the snapshot includes) is embedded in
//! the file name — `snap-<covered>.bin`.
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

use crate::compile::{PredId, PredTable};
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

/// Write a session's interners and fixpoint into `dir` as
/// `snap-<covered>.bin`, atomically (`.tmp`, sync, rename), and prune to
/// the `keep` newest.
pub fn write_snapshot(
    dir: &Path,
    keep: usize,
    covered: u64,
    alphabet: &Alphabet,
    store: &SeqStore,
    fx: &Fixpoint,
) -> Result<PathBuf, RecoveryError> {
    let bytes = encode(covered, alphabet, store, fx);
    let final_path = dir.join(snapshot_file_name(covered));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(covered)));
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

/// The whole file: header, then the payload read straight from the live
/// state, then the payload's checksum patched into the header.
fn encode(covered: u64, alphabet: &Alphabet, store: &SeqStore, fx: &Fixpoint) -> Vec<u8> {
    let mut p = SNAP_MAGIC.to_vec();
    put_u32(&mut p, 0);
    put_u32(&mut p, SNAP_VERSION);
    put_u64(&mut p, covered);
    put_u32(&mut p, alphabet.len() as u32);
    for (_, name) in alphabet.iter() {
        put_str(&mut p, name);
    }
    put_u32(&mut p, store.count() as u32);
    for i in 0..store.count() {
        let seq = store.get(SeqId(i as u32));
        put_u32(&mut p, seq.len() as u32);
        for s in seq {
            put_u32(&mut p, s.0);
        }
    }
    let facts = fx.facts();
    put_u32(&mut p, facts.preds().len() as u32);
    for (_, name) in facts.preds().iter() {
        put_str(&mut p, name);
    }
    let put_rels = |p: &mut Vec<u8>, rels: &[&Relation]| {
        put_u32(p, rels.len() as u32);
        for rel in rels {
            put_u32(p, rel.live_len() as u32);
            for tuple in rel.iter() {
                put_u32(p, tuple.len() as u32);
                for id in tuple {
                    put_u32(p, id.0);
                }
            }
        }
    };
    put_rels(
        &mut p,
        &facts.relations().map(|(_, r)| r).collect::<Vec<_>>(),
    );
    put_rels(&mut p, &fx.base_relations().iter().collect::<Vec<_>>());
    // Raw, not finalized: `Fixpoint::stats` latches `max_seq_len` against
    // the current domain into its returned copy, which the live session
    // only adopts at its next run — persisting the latched copy would make
    // the act of checkpointing observable.
    let stats = fx.stats_raw();
    for v in [
        stats.rounds as u64,
        stats.facts as u64,
        stats.domain_size as u64,
        stats.max_seq_len as u64,
        stats.derivations,
        stats.transducer_calls,
        stats.transducer_steps,
    ] {
        put_u64(&mut p, v);
    }
    put_u32(&mut p, fx.sizes_done().len() as u32);
    for &n in fx.sizes_done() {
        put_u64(&mut p, n as u64);
    }
    p.push(u8::from(fx.is_virgin()));
    p.push(u8::from(fx.domain_settled()));
    put_u32(&mut p, fx.domain().len() as u32);
    for id in fx.domain().iter() {
        put_u32(&mut p, id.0);
    }
    let crc = crc32(&p[12..]);
    p[8..12].copy_from_slice(&crc.to_le_bytes());
    p
}

/// A snapshot read back from disk.
pub struct SessionSnapshot {
    /// Absolute count of log records this state includes.
    pub covered: u64,
    /// The interners and fixpoint rebuilt from the file, every id as
    /// recorded and the domain recomputed from the facts.
    pub state: (Alphabet, SeqStore, Fixpoint),
}

impl SessionSnapshot {
    /// Read, checksum-validate and rebuild the snapshot at `path`. Any
    /// failed check is a [`RecoveryError::Corrupt`] naming the file.
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
        Self::decode(payload).map_err(|detail| RecoveryError::corrupt(path, detail))
    }

    /// Rebuild the state in one pass over the payload. Every id is
    /// validated as it is read: symbols must index the loaded alphabet,
    /// tuples must index the loaded store, and the append-only interners
    /// must reproduce exactly the recorded indices — any drift means the
    /// file does not describe a reachable state. The extended active
    /// domain's membership is **rebuilt** from the loaded facts inside
    /// [`Fixpoint::restore`] (never deserialized), which also refuses a
    /// recorded member order that is not a permutation of that closure.
    fn decode(payload: &[u8]) -> Result<Self, String> {
        let mut r = ByteReader::new(payload);
        let version = r.take_u32()?;
        if version != SNAP_VERSION {
            return Err(format!("unsupported snapshot version {version}"));
        }
        let covered = r.take_u64()?;
        let nsyms = r.take_count(4)?;
        let mut alphabet = Alphabet::new();
        for i in 0..nsyms {
            let sym = alphabet.intern(&r.take_str()?);
            if sym.index() != i {
                return Err(format!("alphabet entry {i} re-interned as {}", sym.0));
            }
        }
        let nseqs = r.take_count(4)?;
        let mut store = SeqStore::new();
        let mut syms = Vec::new();
        for i in 0..nseqs {
            syms.clear();
            for _ in 0..r.take_count(4)? {
                let s = r.take_u32()?;
                if s as usize >= nsyms {
                    return Err(format!("sequence {i} uses unknown symbol {s}"));
                }
                syms.push(Sym(s));
            }
            let id = store.intern(&syms);
            if id.index() != i {
                return Err(format!("sequence {i} re-interned as {}", id.0));
            }
        }
        let npreds = r.take_count(4)?;
        let mut preds = PredTable::new();
        for i in 0..npreds {
            let pid = preds.intern(&r.take_str()?);
            if pid.index() != i {
                return Err(format!("predicate {i} re-interned as {}", pid.index()));
            }
        }
        let mut facts = FactStore::with_preds(preds);
        let nrels = r.take_count(4)?;
        if nrels != npreds {
            return Err(format!("{nrels} relations for {npreds} predicates"));
        }
        for i in 0..nrels {
            let pid = PredId(i as u32);
            take_tuples(&mut r, nseqs, |t| facts.insert(pid, t))
                .map_err(|e| format!("relation {i}: {e}"))?;
        }
        let nbase = r.take_count(4)?;
        if nbase > npreds {
            return Err("more base relations than predicates".to_string());
        }
        let mut base = Vec::with_capacity(nbase);
        for i in 0..nbase {
            let mut rel = Relation::default();
            take_tuples(&mut r, nseqs, |t| rel.insert(t))
                .map_err(|e| format!("base relation {i}: {e}"))?;
            base.push(rel);
        }
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
        if ndone > nrels {
            return Err("watermarks for more relations than exist".to_string());
        }
        let mut sizes_done = Vec::with_capacity(ndone);
        for i in 0..ndone {
            let n = r.take_u64()?;
            let len = facts.len_of(PredId(i as u32));
            if n > len as u64 {
                return Err(format!("watermark {n} exceeds relation {i}'s {len} tuples"));
            }
            sizes_done.push(n as usize);
        }
        let flag = |b: u8| match b {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("invalid flag byte {v}")),
        };
        let virgin = flag(r.take_u8()?)?;
        let domain_settled = flag(r.take_u8()?)?;
        let order = (0..r.take_count(4)?)
            .map(|_| r.take_u32().map(SeqId))
            .collect::<Result<Vec<_>, _>>()?;
        r.finish()?;
        let fx = Fixpoint::restore(
            &mut store,
            facts,
            base,
            stats,
            sizes_done,
            virgin,
            domain_settled,
            &order,
        )
        .ok_or("domain order is not a permutation of the rebuilt extended domain")?;
        Ok(Self {
            covered,
            state: (alphabet, store, fx),
        })
    }
}

/// Read one relation's tuples, refusing an id past the `nseqs` loaded
/// sequences, and hand each to `insert`, whose `false` (already present)
/// is the duplicate check.
fn take_tuples(
    r: &mut ByteReader<'_>,
    nseqs: usize,
    mut insert: impl FnMut(Box<[SeqId]>) -> bool,
) -> Result<(), String> {
    for _ in 0..r.take_count(4)? {
        let tuple = (0..r.take_count(4)?)
            .map(|_| match r.take_u32()? {
                id if id as usize >= nseqs => Err(format!("tuple uses unknown sequence {id}")),
                id => Ok(SeqId(id)),
            })
            .collect::<Result<Box<[SeqId]>, String>>()?;
        if !insert(tuple) {
            return Err("duplicate tuple".to_string());
        }
    }
    Ok(())
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
