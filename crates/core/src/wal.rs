//! Write-ahead log for durable [`crate::session::EngineSession`]s.
//!
//! The log is an append-only file of *logical* records: every committed
//! mutation of a durable session — an assert batch, a retract batch, a
//! [`run`](crate::session::EngineSession::run) — is appended **before** the
//! in-memory commit, so the on-disk history is always a superset of any
//! acknowledged state. A session checks every argument of an assert (its
//! length, and that an id was issued by its store) before logging, so the
//! only logged assert batch that can still be refused is a budget refusal,
//! which is followed by an `Abort` record. Records are logical rather than
//! physical: a fact is its predicate *name* plus, per argument, the
//! argument's *symbol names* (not `SeqId`s/`Sym`s), so replay re-interns
//! through the same assert and retract batches the live mutators use, and
//! the append-only interners reproduce identical ids. That is
//! what keeps recovery honest about constructive-clause domain growth: the
//! extended active domain is a function of the interpretation (Definition
//! 4) and is rebuilt by replay, never read from disk.
//!
//! # File format
//!
//! ```text
//! header:  magic "SQLWAL01" (8 bytes) · base_index u64 LE
//! record:  len u32 LE · crc32(payload) u32 LE · payload (len bytes)
//! payload: kind u8 · kind-specific body (length-prefixed strings)
//! ```
//!
//! `base_index` is the absolute index of the first record in the file; a
//! [compaction](crate::session::EngineSession::compact) rewrites the log
//! with a fresh `base_index` equal to the covering snapshot's record count.
//!
//! # Torn tails vs. corruption
//!
//! A crash can tear only the *tail* of an append-only log. On open, an
//! incomplete final frame — or a final frame whose checksum fails — is
//! truncated away and the log is the committed prefix. A checksum or
//! decode failure anywhere *before* the end is not a torn write and
//! surfaces as [`RecoveryError::Corrupt`]: silently dropping interior
//! records would replay a history that never happened.
//!
//! Both rules are pinned in `tests/fuzz_recovery.rs`, and
//! `scripts/mutation_check.sh` shows a reader that breaks either one
//! (`scripts/mutants/skip_tail_truncation.patch`,
//! `scripts/mutants/skip_crc.patch`) fails those tests.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File name of the write-ahead log inside a durability directory.
pub const WAL_FILE: &str = "wal.bin";

const WAL_MAGIC: &[u8; 8] = b"SQLWAL01";
/// Header length: magic + `base_index`.
pub const WAL_HEADER_LEN: u64 = 16;
/// Frame overhead per record: length + checksum.
const FRAME_LEN: usize = 8;
/// Upper bound on a single record's payload, so a corrupted length field
/// can never drive an allocation from garbage bytes.
const MAX_RECORD_LEN: u32 = 1 << 28;

/// Why a durable session could not be rebuilt (or written) from disk.
///
/// Corruption is always reported through this type — never a panic or an
/// out-of-bounds index, which the bit-flip fuzzing in
/// `tests/fuzz_recovery.rs` enforces over both the log and the snapshots.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// An OS-level file operation failed.
    Io {
        /// The operation that failed (e.g. `"append wal.bin"`).
        op: String,
        /// The rendered `std::io::Error`.
        detail: String,
    },
    /// A file decoded to something no writer ever produced: bad magic,
    /// failed checksum away from the tail, truncated structure, or ids
    /// that do not validate against the state being rebuilt.
    Corrupt {
        /// The offending file name.
        file: String,
        /// What failed to validate.
        detail: String,
    },
    /// The on-disk state is internally consistent but does not belong to
    /// the session being opened: wrong program, wrong constants, or a
    /// snapshot that claims records the log never had.
    Mismatch {
        /// The incompatibility.
        detail: String,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { op, detail } => write!(f, "i/o failure during {op}: {detail}"),
            Self::Corrupt { file, detail } => write!(f, "corrupt {file}: {detail}"),
            Self::Mismatch { detail } => write!(f, "state mismatch: {detail}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl RecoveryError {
    pub(crate) fn io(op: &str, e: &std::io::Error) -> Self {
        Self::Io {
            op: op.to_string(),
            detail: e.to_string(),
        }
    }

    pub(crate) fn corrupt(file: &Path, detail: impl Into<String>) -> Self {
        Self::Corrupt {
            file: file.file_name().map_or_else(
                || file.display().to_string(),
                |n| n.to_string_lossy().into_owned(),
            ),
            detail: detail.into(),
        }
    }
}

// --- CRC-32 (IEEE 802.3, the zlib polynomial), std-only ---

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 checksum of `bytes` (IEEE polynomial, as in zlib/PNG).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// --- byte-level encode/decode helpers (shared with the snapshot format) ---

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a decoded payload: every take reports a
/// structural error instead of slicing out of range, which is what turns
/// arbitrary bit flips into clean [`RecoveryError`]s.
pub(crate) struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                format!(
                    "need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                )
            })?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub(crate) fn take_u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn take_u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn take_u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// A length-prefixed UTF-8 string. The length is validated against the
    /// remaining buffer *before* any allocation.
    pub(crate) fn take_str(&mut self) -> Result<String, String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid utf-8 in string".to_string())
    }

    /// A count field that will drive a loop: validated against what the
    /// remaining bytes could possibly hold (each element needs at least
    /// `min_elem_bytes`), so a flipped count cannot drive a huge loop or
    /// allocation.
    pub(crate) fn take_count(&mut self, min_elem_bytes: usize) -> Result<usize, String> {
        let n = self.take_u32()? as usize;
        let left = self.buf.len() - self.pos;
        if n.saturating_mul(min_elem_bytes.max(1)) > left {
            return Err(format!("count {n} exceeds remaining {left} bytes"));
        }
        Ok(n)
    }

    pub(crate) fn finish(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(format!(
                "{} trailing bytes after payload",
                self.buf.len() - self.pos
            ))
        }
    }
}

// --- the logical record model ---

/// One fact as logged: the predicate name plus, per argument, the
/// argument's symbol names. Interner-independent by construction (compound
/// symbol names — transducer states, tape markers — survive the round
/// trip, which a rendered-string encoding would garble).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoggedFact {
    /// Predicate name.
    pub pred: String,
    /// Per-argument symbol-name lists.
    pub args: Vec<Vec<String>>,
}

/// One mutation of a durable session, in commit order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalRecord {
    /// A (failure-atomic) assert batch.
    AssertBatch(Vec<LoggedFact>),
    /// A retract batch (eagerly settled by Delete-and-Rederive).
    RetractBatch(Vec<LoggedFact>),
    /// A [`run`](crate::session::EngineSession::run) boundary. Logged even
    /// for quiescent runs: a run always executes at least one round, so
    /// replaying the boundary is what makes recovered `EvalStats`
    /// bit-for-bit equal to the uncrashed session's.
    Run,
    /// Compensation: the immediately preceding record was refused by a
    /// budget *after* it was logged and rolled back without effect; replay
    /// must skip it (reproducing only its interner growth, which is
    /// unobservable through the query API).
    Abort,
}

const KIND_ASSERT: u8 = 1;
const KIND_RETRACT: u8 = 2;
const KIND_RUN: u8 = 3;
const KIND_ABORT: u8 = 4;

fn put_facts(buf: &mut Vec<u8>, facts: &[LoggedFact]) {
    put_u32(buf, facts.len() as u32);
    for f in facts {
        put_str(buf, &f.pred);
        put_u32(buf, f.args.len() as u32);
        for arg in &f.args {
            put_u32(buf, arg.len() as u32);
            for sym in arg {
                put_str(buf, sym);
            }
        }
    }
}

fn take_facts(r: &mut ByteReader<'_>) -> Result<Vec<LoggedFact>, String> {
    let nfacts = r.take_count(5)?;
    let mut facts = Vec::with_capacity(nfacts);
    for _ in 0..nfacts {
        let pred = r.take_str()?;
        let arity = r.take_count(4)?;
        let mut args = Vec::with_capacity(arity);
        for _ in 0..arity {
            let nsyms = r.take_count(4)?;
            let mut syms = Vec::with_capacity(nsyms);
            for _ in 0..nsyms {
                syms.push(r.take_str()?);
            }
            args.push(syms);
        }
        facts.push(LoggedFact { pred, args });
    }
    Ok(facts)
}

/// Encode a record's payload (the bytes the frame checksum covers).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::new();
    match rec {
        WalRecord::AssertBatch(facts) => {
            buf.push(KIND_ASSERT);
            put_facts(&mut buf, facts);
        }
        WalRecord::RetractBatch(facts) => {
            buf.push(KIND_RETRACT);
            put_facts(&mut buf, facts);
        }
        WalRecord::Run => buf.push(KIND_RUN),
        WalRecord::Abort => buf.push(KIND_ABORT),
    }
    buf
}

/// Decode a record payload. Structural errors come back as strings; the
/// caller attaches the file context.
pub fn decode_record(payload: &[u8]) -> Result<WalRecord, String> {
    let mut r = ByteReader::new(payload);
    let rec = match r.take_u8()? {
        KIND_ASSERT => WalRecord::AssertBatch(take_facts(&mut r)?),
        KIND_RETRACT => WalRecord::RetractBatch(take_facts(&mut r)?),
        KIND_RUN => WalRecord::Run,
        KIND_ABORT => WalRecord::Abort,
        k => return Err(format!("unknown record kind {k}")),
    };
    r.finish()?;
    Ok(rec)
}

// --- reading ---

/// How to read a log. There is nothing to choose today: a reader always
/// verifies every checksum and truncates a torn tail. The type stays so
/// that callers of [`read_wal`] keep one stable signature.
#[derive(Clone, Copy, Debug, Default)]
pub struct WalReadOptions {}

/// One decoded record plus where it sits in the file.
#[derive(Clone, Debug)]
pub struct ReadRecord {
    /// Absolute record index (`base_index` + position in this file).
    pub index: u64,
    /// Byte offset where the record's frame starts.
    pub start_offset: u64,
    /// Byte offset one past the record's frame.
    pub end_offset: u64,
    /// The decoded record.
    pub record: WalRecord,
}

/// Everything a log file contained.
#[derive(Clone, Debug)]
pub struct WalContents {
    /// Absolute index of the first record in this file.
    pub base_index: u64,
    /// The committed records, in order.
    pub records: Vec<ReadRecord>,
    /// When a torn tail was found: the offset the file must be truncated
    /// to before appending again.
    pub truncated_at: Option<u64>,
}

/// Read and validate a log file. A torn tail (incomplete final frame, or a
/// final frame failing its checksum) is reported via
/// [`WalContents::truncated_at`]; any earlier inconsistency is a
/// [`RecoveryError::Corrupt`].
pub fn read_wal(path: &Path, _opts: &WalReadOptions) -> Result<WalContents, RecoveryError> {
    let mut bytes = Vec::new();
    File::open(path)
        .and_then(|mut f| f.read_to_end(&mut bytes))
        .map_err(|e| RecoveryError::io(&format!("read {}", path.display()), &e))?;
    if bytes.len() < WAL_HEADER_LEN as usize || &bytes[..8] != WAL_MAGIC {
        return Err(RecoveryError::corrupt(path, "missing or damaged header"));
    }
    let base_index = u64::from_le_bytes(bytes[8..16].try_into().expect("8 header bytes"));

    let mut records = Vec::new();
    let mut off = WAL_HEADER_LEN as usize;
    let mut truncated_at = None;
    while off < bytes.len() {
        let remaining = bytes.len() - off;
        if remaining < FRAME_LEN {
            // An incomplete frame header.
            truncated_at = Some(off as u64);
            break;
        }
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(bytes[off + 4..off + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN || (len as usize) > remaining - FRAME_LEN {
            // Either a partially written frame or a flipped length field;
            // both leave the record extending past EOF, which only a torn
            // write can produce legitimately.
            truncated_at = Some(off as u64);
            break;
        }
        let start = off;
        let payload = &bytes[off + FRAME_LEN..off + FRAME_LEN + len as usize];
        let end = off + FRAME_LEN + len as usize;
        if crc32(payload) != crc {
            if end == bytes.len() {
                // A final frame whose bytes are all present but whose
                // checksum fails is still a torn write (the frame header
                // landed, part of the payload did not).
                truncated_at = Some(off as u64);
                break;
            }
            return Err(RecoveryError::corrupt(
                path,
                format!("checksum failure at offset {start} (not at tail)"),
            ));
        }
        let record = decode_record(payload).map_err(|detail| {
            RecoveryError::corrupt(path, format!("record at offset {start}: {detail}"))
        })?;
        records.push(ReadRecord {
            index: base_index + records.len() as u64,
            start_offset: start as u64,
            end_offset: end as u64,
            record,
        });
        off = end;
    }
    Ok(WalContents {
        base_index,
        records,
        truncated_at,
    })
}

// --- writing ---

/// Append handle over a log file. Every append writes a complete frame and
/// flushes it to the OS before returning (optionally `fsync`ing, per
/// [`sync_data`](WalWriter)); the in-memory commit the record describes
/// only happens after the append succeeds.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    len: u64,
    next_index: u64,
    base_index: u64,
    sync_data: bool,
}

impl WalWriter {
    /// Create a fresh log at `path` (truncating any existing file) whose
    /// first record will have absolute index `base_index`.
    pub fn create(path: &Path, base_index: u64, sync_data: bool) -> Result<Self, RecoveryError> {
        let mut header = Vec::with_capacity(WAL_HEADER_LEN as usize);
        header.extend_from_slice(WAL_MAGIC);
        put_u64(&mut header, base_index);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| RecoveryError::io(&format!("create {}", path.display()), &e))?;
        file.write_all(&header)
            .and_then(|()| file.sync_data())
            .map_err(|e| RecoveryError::io(&format!("write header {}", path.display()), &e))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            len: WAL_HEADER_LEN,
            next_index: base_index,
            base_index,
            sync_data,
        })
    }

    /// Open an existing log for appending, truncating a torn tail first if
    /// `contents` found one.
    pub fn reopen(
        path: &Path,
        contents: &WalContents,
        sync_data: bool,
    ) -> Result<Self, RecoveryError> {
        let end = contents
            .records
            .last()
            .map_or(WAL_HEADER_LEN, |r| r.end_offset);
        let mut file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| RecoveryError::io(&format!("open {}", path.display()), &e))?;
        if contents.truncated_at.is_some() {
            file.set_len(end)
                .map_err(|e| RecoveryError::io(&format!("truncate {}", path.display()), &e))?;
        }
        file.seek(SeekFrom::Start(end))
            .map_err(|e| RecoveryError::io(&format!("seek {}", path.display()), &e))?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            len: end,
            next_index: contents.base_index + contents.records.len() as u64,
            base_index: contents.base_index,
            sync_data,
        })
    }

    /// Append one record; returns the frame's end offset. On error nothing
    /// is considered committed (the caller refuses the mutation); a partial
    /// frame is rolled back best-effort, and would otherwise be exactly the
    /// torn tail the reader truncates.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, RecoveryError> {
        let payload = encode_record(rec);
        let mut frame = Vec::with_capacity(FRAME_LEN + payload.len());
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        let write = self.file.write_all(&frame).and_then(|()| {
            if self.sync_data {
                self.file.sync_data()
            } else {
                Ok(())
            }
        });
        if let Err(e) = write {
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
            return Err(RecoveryError::io(
                &format!("append {}", self.path.display()),
                &e,
            ));
        }
        self.len += frame.len() as u64;
        self.next_index += 1;
        Ok(self.len)
    }

    /// Truncate the log back to `end_offset` holding `next_index` records
    /// total (recovery uses this to drop a deterministically failing
    /// suffix after replaying the healthy prefix).
    pub fn truncate_to(&mut self, end_offset: u64, next_index: u64) -> Result<(), RecoveryError> {
        self.file
            .set_len(end_offset)
            .and_then(|()| self.file.seek(SeekFrom::Start(end_offset)))
            .and_then(|_| self.file.sync_data())
            .map_err(|e| RecoveryError::io(&format!("truncate {}", self.path.display()), &e))?;
        self.len = end_offset;
        self.next_index = next_index;
        Ok(())
    }

    /// Current file length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.next_index == self.base_index
    }

    /// Absolute index the next appended record will get; equivalently, the
    /// number of records ever logged (across compactions).
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// Absolute index of this file's first record.
    pub fn base_index(&self) -> u64 {
        self.base_index
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("seqlog-wal-test-{}-{tag}.bin", std::process::id()));
        p
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::AssertBatch(vec![LoggedFact {
                pred: "edge".into(),
                args: vec![vec!["a".into(), "b".into()], vec![]],
            }]),
            WalRecord::Run,
            WalRecord::RetractBatch(vec![LoggedFact {
                pred: "edge".into(),
                args: vec![vec!["q0".into()], vec!["▷".into(), "a".into()]],
            }]),
            WalRecord::Abort,
        ]
    }

    #[test]
    fn record_payloads_round_trip() {
        for rec in sample_records() {
            let payload = encode_record(&rec);
            assert_eq!(decode_record(&payload).unwrap(), rec);
        }
    }

    #[test]
    fn append_then_read_round_trips_with_offsets() {
        let path = temp_path("roundtrip");
        let mut w = WalWriter::create(&path, 7, false).unwrap();
        let recs = sample_records();
        let mut ends = Vec::new();
        for r in &recs {
            ends.push(w.append(r).unwrap());
        }
        assert_eq!(w.next_index(), 7 + recs.len() as u64);
        let contents = read_wal(&path, &WalReadOptions::default()).unwrap();
        assert_eq!(contents.base_index, 7);
        assert_eq!(contents.truncated_at, None);
        let got: Vec<_> = contents.records.iter().map(|r| r.record.clone()).collect();
        assert_eq!(got, recs);
        for (i, r) in contents.records.iter().enumerate() {
            assert_eq!(r.index, 7 + i as u64);
            assert_eq!(r.end_offset, ends[i]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_truncates_and_reopen_appends_cleanly() {
        let path = temp_path("torn");
        let mut w = WalWriter::create(&path, 0, false).unwrap();
        let recs = sample_records();
        let mut boundary = 0;
        for r in &recs {
            boundary = w.append(r).unwrap();
        }
        let keep = boundary - 3; // cut into the final record's payload
        drop(w);
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(keep).unwrap();
        drop(f);
        let contents = read_wal(&path, &WalReadOptions::default()).unwrap();
        assert_eq!(contents.records.len(), recs.len() - 1);
        assert!(contents.truncated_at.is_some());
        // Reopening truncates and appends a clean record after the cut.
        let mut w = WalWriter::reopen(&path, &contents, false).unwrap();
        assert_eq!(w.next_index(), recs.len() as u64 - 1);
        w.append(&WalRecord::Run).unwrap();
        let contents = read_wal(&path, &WalReadOptions::default()).unwrap();
        assert_eq!(contents.truncated_at, None);
        assert_eq!(contents.records.len(), recs.len());
        assert_eq!(contents.records.last().unwrap().record, WalRecord::Run);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn interior_corruption_is_an_error_not_a_truncation() {
        let path = temp_path("interior");
        let mut w = WalWriter::create(&path, 0, false).unwrap();
        for r in sample_records() {
            w.append(&r).unwrap();
        }
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the first record's payload (well before EOF).
        let idx = WAL_HEADER_LEN as usize + FRAME_LEN + 2;
        bytes[idx] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_wal(&path, &WalReadOptions::default()),
            Err(RecoveryError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_damage_is_corruption() {
        let path = temp_path("header");
        let w = WalWriter::create(&path, 3, false).unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            read_wal(&path, &WalReadOptions::default()),
            Err(RecoveryError::Corrupt { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }
}
