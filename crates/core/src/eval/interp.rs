//! Interpretations as indexed fact stores.
//!
//! An interpretation is a set of ground atoms over interned sequences
//! (Section 3.3). [`FactStore`] keeps one [`Relation`] per interned
//! predicate ([`PredId`]), addressed by direct vector index — the
//! steady-state evaluation loop never hashes a predicate name. Each
//! relation keeps its tuple list in insertion order (so semi-naive
//! evaluation can address the delta added in a round by index range), an
//! open-addressing tuple index for **single-probe** duplicate detection
//! (one hash + one probe sequence per [`Relation::insert`], no tuple
//! clone), and per-column hash indexes for join candidate selection.

use crate::compile::{PredId, PredTable};
use seqlog_sequence::{FxHashMap, FxHashSet, FxHasher, SeqId};
use std::hash::Hasher;

#[inline]
fn hash_tuple(tuple: &[SeqId]) -> u64 {
    let mut h = FxHasher::default();
    h.write_usize(tuple.len());
    for &id in tuple {
        h.write_u32(id.0);
    }
    h.finish()
}

/// Slot marker for a removed entry. A tombstone keeps the probe chains that
/// ran through the slot intact (an empty slot would cut them short); lookups
/// walk past it, and index rebuilds (growth, compaction) clear them.
const TOMBSTONE: u32 = u32::MAX;

/// Open-addressing index from tuple hash to tuple position: `slots` holds
/// `pos + 1` (0 = empty, [`TOMBSTONE`] = removed) in a power-of-two table
/// with linear probing. Duplicate detection costs exactly one hash
/// computation and one probe walk per insert — no separate `contains` +
/// `insert` pair, and no tuple clone into a side set.
#[derive(Clone, Debug, Default)]
struct TupleIndex {
    slots: Box<[u32]>,
    /// Stored entries.
    entries: usize,
    /// Live tombstone count: buried slots still lengthen probe chains, so
    /// they count toward the load factor until a rebuild clears them.
    tombstones: usize,
}

impl TupleIndex {
    /// Walk the probe sequence for `hash`; `matches(pos)` decides equality.
    /// Returns `Ok(pos)` when an equal tuple exists, `Err(slot)` with the
    /// insertion slot otherwise (reusing the first tombstone on the chain).
    /// The table must be non-empty.
    #[inline]
    fn probe(&self, hash: u64, matches: impl Fn(u32) -> bool) -> Result<u32, usize> {
        debug_assert!(!self.slots.is_empty());
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        let mut reusable: Option<usize> = None;
        loop {
            match self.slots[i] {
                0 => return Err(reusable.unwrap_or(i)),
                TOMBSTONE => reusable = reusable.or(Some(i)),
                stored => {
                    if matches(stored - 1) {
                        return Ok(stored - 1);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// The slot currently holding the position accepted by `matches`, if any.
    #[inline]
    fn find_slot(&self, hash: u64, matches: impl Fn(u32) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            match self.slots[i] {
                0 => return None,
                TOMBSTONE => {}
                stored => {
                    if matches(stored - 1) {
                        return Some(i);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn occupy(&mut self, slot: usize, pos: u32) {
        if self.slots[slot] == TOMBSTONE {
            self.tombstones -= 1;
        }
        self.slots[slot] = pos + 1;
        self.entries += 1;
    }

    /// Tombstone the slot holding position `pos` (found via `hash`).
    fn bury(&mut self, hash: u64, pos: u32) {
        if let Some(slot) = self.find_slot(hash, |p| p == pos) {
            self.slots[slot] = TOMBSTONE;
            self.entries -= 1;
            self.tombstones += 1;
        }
    }

    /// Whether one more entry would push the table past half load
    /// (tombstones count: they lengthen probe chains). Linear probing
    /// slows sharply above that: at 3/4 load, batch-closure rounds walked
    /// about three times as many slots per probe.
    #[inline]
    fn needs_growth(&self) -> bool {
        (self.entries + self.tombstones + 1) * 2 > self.slots.len()
    }

    /// Rebuild from the tuple hashes (position = index into `hashes`),
    /// dropping tombstones, at twice the live size.
    fn rebuild(&mut self, hashes: &[u64]) {
        let cap = (hashes.len() * 2).max(8).next_power_of_two();
        self.slots = vec![0u32; cap].into_boxed_slice();
        self.entries = hashes.len();
        self.tombstones = 0;
        let mask = cap - 1;
        for (pos, &hash) in hashes.iter().enumerate() {
            let mut i = (hash as usize) & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = pos as u32 + 1;
        }
    }
}

/// The tuples of one predicate.
///
/// A relation keeps its tuples in insertion order, one cached hash per
/// tuple, one open-addressing tuple index over those hashes, and one
/// posting list per (column, value). Tuples only ever arrive one at a time
/// through [`Relation::insert`] — a round's sequential commit inserts them
/// in task order — so the insertion order is a function of the round's
/// task list alone. The index grows at half load, and growth and
/// [`Relation::compact`] each rebuild it in one pass over the hashes.
///
/// Removal ([`Relation::remove`]/[`Relation::remove_at`]) is two-phase:
/// removed tuples stay at their positions as *tombstones* (their index slots
/// are buried so probe chains survive, their column-index postings are
/// withdrawn) until [`Relation::compact`] rebuilds the dense representation.
/// Positions are therefore stable across a batch of removals — which is what
/// the retraction machinery relies on — and compaction preserves the
/// relative insertion order of the surviving tuples, so per-relation
/// iteration order stays a function of the history of asserts and
/// retractions.
#[derive(Clone, Debug, Default)]
pub struct Relation {
    tuples: Vec<Box<[SeqId]>>,
    /// Cached tuple hashes, parallel to `tuples` (reused on index growth).
    hashes: Vec<u64>,
    /// Dedupe index (empty until the first insert).
    index: TupleIndex,
    /// `col_index[c][v]` = positions of tuples with value `v` in column `c`.
    col_index: Vec<FxHashMap<SeqId, Vec<u32>>>,
    /// Positions removed but not yet compacted away (normally empty).
    dead: FxHashSet<u32>,
}

impl Relation {
    /// Insert a tuple; returns `true` when it was new. Exactly one hash
    /// computation and one probe walk; the tuple is moved, never cloned.
    pub fn insert(&mut self, tuple: Box<[SeqId]>) -> bool {
        debug_assert!(
            self.dead.is_empty(),
            "insert into a relation with pending tombstones; compact first"
        );
        if self.index.slots.is_empty() {
            self.index.rebuild(&self.hashes);
        }
        let hash = hash_tuple(&tuple);
        let Err(slot) = self.probe_stored(&tuple, hash) else {
            return false;
        };
        let pos = self.tuples.len() as u32;
        if self.col_index.len() < tuple.len() {
            self.col_index.resize_with(tuple.len(), FxHashMap::default);
        }
        for (c, &v) in tuple.iter().enumerate() {
            self.col_index[c].entry(v).or_default().push(pos);
        }
        self.tuples.push(tuple);
        self.hashes.push(hash);
        // Grow at half load so probe chains stay short (tombstones left by
        // a tail-only compaction still occupy chain slots, so they count).
        if self.index.needs_growth() {
            self.index.rebuild(&self.hashes);
        } else {
            self.index.occupy(slot, pos);
        }
        true
    }

    #[inline]
    fn probe_stored(&self, tuple: &[SeqId], hash: u64) -> Result<u32, usize> {
        self.index.probe(hash, |pos| {
            let p = pos as usize;
            self.hashes[p] == hash && self.tuples[p][..] == tuple[..]
        })
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[SeqId]) -> bool {
        self.position_of(tuple).is_some()
    }

    /// Position of `tuple`, if present (and not tombstoned).
    pub fn position_of(&self, tuple: &[SeqId]) -> Option<u32> {
        if self.index.slots.is_empty() {
            return None;
        }
        self.probe_stored(tuple, hash_tuple(tuple)).ok()
    }

    /// Remove the tuple at position `pos`: bury its index slot, withdraw its
    /// column-index postings, and leave a tombstone at the position so that
    /// other positions stay stable until [`Relation::compact`] runs. Returns
    /// `false` when `pos` is already dead.
    pub fn remove_at(&mut self, pos: u32) -> bool {
        let p = pos as usize;
        assert!(p < self.tuples.len(), "remove_at out of bounds");
        if !self.dead.insert(pos) {
            return false;
        }
        let hash = self.hashes[p];
        self.index.bury(hash, pos);
        for c in 0..self.tuples[p].len() {
            let v = self.tuples[p][c];
            if let Some(list) = self.col_index[c].get_mut(&v) {
                // Postings are sorted by position; withdraw exactly one.
                if let Ok(i) = list.binary_search(&pos) {
                    list.remove(i);
                }
            }
        }
        true
    }

    /// Remove `tuple` by value; returns `true` when it was present.
    pub fn remove(&mut self, tuple: &[SeqId]) -> bool {
        match self.position_of(tuple) {
            Some(pos) => self.remove_at(pos),
            None => false,
        }
    }

    /// Drop tombstoned positions: surviving tuples shift down preserving
    /// their relative insertion order, and the tuple index and column
    /// indexes are rebuilt dense. No-op when nothing was removed.
    pub fn compact(&mut self) {
        if self.dead.is_empty() {
            return;
        }
        let dead = std::mem::take(&mut self.dead);
        // Tail-only removals (the assert-rollback shape — every dead
        // position is at the end): postings are already withdrawn and the
        // index slots buried, so truncation suffices. The tombstoned slots
        // stay in the index, counted toward its load factor, and are
        // recycled by later inserts or swept by the next rebuild — no
        // O(relation) column-index rebuild per budget refusal.
        let live_len = self.tuples.len() - dead.len();
        if dead.iter().all(|&p| (p as usize) >= live_len) {
            self.tuples.truncate(live_len);
            self.hashes.truncate(live_len);
            return;
        }
        let mut keep = 0usize;
        for pos in 0..self.tuples.len() {
            if dead.contains(&(pos as u32)) {
                continue;
            }
            if keep != pos {
                self.tuples.swap(keep, pos);
                self.hashes.swap(keep, pos);
            }
            keep += 1;
        }
        self.tuples.truncate(keep);
        self.hashes.truncate(keep);
        for m in &mut self.col_index {
            m.clear();
        }
        for (pos, tuple) in self.tuples.iter().enumerate() {
            for (c, &v) in tuple.iter().enumerate() {
                self.col_index[c].entry(v).or_default().push(pos as u32);
            }
        }
        self.index.rebuild(&self.hashes);
    }

    /// Number of tuple *positions* (including tombstones, which exist only
    /// transiently between a removal batch and its [`Relation::compact`]).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Number of live tuples.
    pub fn live_len(&self) -> usize {
        self.tuples.len() - self.dead.len()
    }

    /// True when the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.live_len() == 0
    }

    /// Tuple at position `i` (insertion order).
    pub fn tuple(&self, i: usize) -> &[SeqId] {
        &self.tuples[i]
    }

    /// All live tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &[SeqId]> {
        let all_live = self.dead.is_empty();
        self.tuples
            .iter()
            .enumerate()
            .filter(move |(i, _)| all_live || !self.dead.contains(&(*i as u32)))
            .map(|(_, t)| t.as_ref())
    }

    /// Positions of tuples whose column `col` holds `v`, restricted to the
    /// half-open position window `from..to` (semi-naive delta chunks).
    pub fn positions_with(&self, col: usize, v: SeqId, from: usize, to: usize) -> &[u32] {
        let list = self
            .col_index
            .get(col)
            .and_then(|m| m.get(&v))
            .map_or(&[][..], Vec::as_slice);
        // Positions are appended in increasing order; binary-search both
        // window edges.
        let start = list.partition_point(|&p| (p as usize) < from);
        let end = list.partition_point(|&p| (p as usize) < to);
        &list[start..end]
    }
}

/// A set of relations indexed by interned predicate id.
///
/// The store owns a [`PredTable`]; the evaluator seeds it from the compiled
/// program's table so compiled `PredId`s index `rels` directly, then extends
/// it with database-only predicates. `&str` lookups remain available at the
/// API boundary ([`FactStore::relation_named`], [`FactStore::contains`],
/// [`FactStore::tuples`]) — they are not used in the evaluation loop.
#[derive(Clone, Debug, Default)]
pub struct FactStore {
    preds: PredTable,
    rels: Vec<Relation>,
    total: usize,
}

impl FactStore {
    /// Create an empty store with an empty predicate table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a store whose relation vector is pre-aligned to `preds`
    /// (compiled `PredId`s then index it directly).
    pub fn with_preds(preds: PredTable) -> Self {
        let mut rels = Vec::new();
        rels.resize_with(preds.len(), Relation::default);
        Self {
            preds,
            rels,
            total: 0,
        }
    }

    /// The store's predicate table.
    pub fn preds(&self) -> &PredTable {
        &self.preds
    }

    /// Intern `name` in this store (growing the relation vector).
    pub fn pred_id(&mut self, name: &str) -> PredId {
        let id = self.preds.intern(name);
        if self.rels.len() < self.preds.len() {
            self.rels.resize_with(self.preds.len(), Relation::default);
        }
        id
    }

    /// Look up a predicate name without interning it.
    pub fn lookup_pred(&self, name: &str) -> Option<PredId> {
        self.preds.lookup(name)
    }

    /// Insert a fact under an interned predicate; returns `true` when new.
    pub fn insert(&mut self, pred: PredId, tuple: Box<[SeqId]>) -> bool {
        let added = self.rels[pred.index()].insert(tuple);
        self.total += usize::from(added);
        added
    }

    /// Remove a fact by value; returns `true` when it was present. The
    /// relation keeps a tombstone at the position until
    /// [`FactStore::compact`] runs (see [`Relation`] for the protocol).
    pub fn remove(&mut self, pred: PredId, tuple: &[SeqId]) -> bool {
        let removed = self
            .rels
            .get_mut(pred.index())
            .is_some_and(|r| r.remove(tuple));
        self.total -= usize::from(removed);
        removed
    }

    /// Remove the fact at `pos` of `pred`'s relation (tombstoning it).
    pub fn remove_at(&mut self, pred: PredId, pos: u32) -> bool {
        let removed = self.rels[pred.index()].remove_at(pos);
        self.total -= usize::from(removed);
        removed
    }

    /// Position of `tuple` in `pred`'s relation, if present.
    pub fn position_of(&self, pred: PredId, tuple: &[SeqId]) -> Option<u32> {
        self.rels
            .get(pred.index())
            .and_then(|r| r.position_of(tuple))
    }

    /// Compact every relation after a removal batch (drop tombstones,
    /// preserving surviving insertion order).
    pub fn compact(&mut self) {
        for r in &mut self.rels {
            r.compact();
        }
    }

    /// Insert a fact by predicate name (boundary convenience).
    pub fn insert_named(&mut self, name: &str, tuple: Box<[SeqId]>) -> bool {
        let id = self.pred_id(name);
        self.insert(id, tuple)
    }

    /// The relation of an interned predicate.
    pub fn relation(&self, pred: PredId) -> &Relation {
        &self.rels[pred.index()]
    }

    /// The relation for `name`, if the predicate is known.
    pub fn relation_named(&self, name: &str) -> Option<&Relation> {
        self.preds.lookup(name).map(|id| &self.rels[id.index()])
    }

    /// Membership test by interned predicate.
    pub fn contains_id(&self, pred: PredId, tuple: &[SeqId]) -> bool {
        self.rels[pred.index()].contains(tuple)
    }

    /// Membership test by predicate name.
    pub fn contains(&self, pred: &str, tuple: &[SeqId]) -> bool {
        self.relation_named(pred).is_some_and(|r| r.contains(tuple))
    }

    /// Tuples of `pred` in insertion order (empty when absent).
    ///
    /// Compatibility wrapper that allocates a `Vec` of references; new code
    /// should iterate [`Relation::iter`] via [`FactStore::relation_named`].
    pub fn tuples(&self, pred: &str) -> Vec<&[SeqId]> {
        self.relation_named(pred)
            .map(|r| r.iter().collect())
            .unwrap_or_default()
    }

    /// Total number of facts across all predicates.
    pub fn total_facts(&self) -> usize {
        self.total
    }

    /// Predicate names present, in id order.
    pub fn predicates(&self) -> impl Iterator<Item = &str> {
        self.preds.iter().map(|(_, n)| n)
    }

    /// Iterate `(PredId, relation)` pairs in id order.
    pub fn relations(&self) -> impl Iterator<Item = (PredId, &Relation)> {
        self.rels
            .iter()
            .enumerate()
            .map(|(i, r)| (PredId(i as u32), r))
    }

    /// Per-relation sizes snapshot, indexed by `PredId` (semi-naive delta
    /// ranges). A plain `Vec<usize>` copy — no map rebuild, no key clones.
    pub fn sizes(&self) -> Vec<usize> {
        self.rels.iter().map(Relation::len).collect()
    }

    /// Number of tuples currently in one predicate's relation (`0` when
    /// the store has no relation for it). The stratified scheduler plans
    /// per-stratum deltas with this instead of allocating a full
    /// [`FactStore::sizes`] snapshot for strata that turn out settled.
    pub fn len_of(&self, pred: PredId) -> usize {
        self.rels.get(pred.index()).map_or(0, Relation::len)
    }

    /// Every sequence id occurring in any fact (with repetitions).
    pub fn all_seq_ids(&self) -> impl Iterator<Item = SeqId> + '_ {
        self.rels
            .iter()
            .flat_map(|r| r.iter().flat_map(|t| t.iter().copied()))
    }

    /// A copy of this store whose `PredId`s are aligned to `preds`
    /// (predicates unknown to `preds` are appended after it). Used by the
    /// cold model-checking path when a caller-supplied interpretation was
    /// not built from the program being checked.
    pub fn realigned_to(&self, preds: &PredTable) -> FactStore {
        let mut out = FactStore::with_preds(preds.clone());
        for (id, name) in self.preds.iter() {
            let new_id = out.pred_id(name);
            let rel = &self.rels[id.index()];
            out.rels[new_id.index()] = rel.clone();
            out.total += rel.len();
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sid(n: u32) -> SeqId {
        SeqId(n)
    }

    #[test]
    fn insert_dedupes() {
        let mut fs = FactStore::new();
        assert!(fs.insert_named("r", vec![sid(1), sid(2)].into()));
        assert!(!fs.insert_named("r", vec![sid(1), sid(2)].into()));
        assert!(fs.insert_named("r", vec![sid(2), sid(1)].into()));
        assert_eq!(fs.total_facts(), 2);
        assert_eq!(fs.relation_named("r").unwrap().len(), 2);
    }

    #[test]
    fn column_index_finds_positions() {
        let mut fs = FactStore::new();
        fs.insert_named("r", vec![sid(1), sid(9)].into());
        fs.insert_named("r", vec![sid(2), sid(9)].into());
        fs.insert_named("r", vec![sid(1), sid(7)].into());
        let r = fs.relation_named("r").unwrap();
        assert_eq!(r.positions_with(0, sid(1), 0, r.len()), &[0, 2]);
        assert_eq!(r.positions_with(1, sid(9), 0, r.len()), &[0, 1]);
        // Delta restriction (lower and upper edges).
        assert_eq!(r.positions_with(0, sid(1), 1, r.len()), &[2]);
        assert_eq!(r.positions_with(0, sid(1), 0, 2), &[0]);
        assert_eq!(r.positions_with(0, sid(1), 1, 2), &[] as &[u32]);
        assert_eq!(r.positions_with(0, sid(3), 0, r.len()), &[] as &[u32]);
    }

    #[test]
    fn missing_predicates_are_empty() {
        let fs = FactStore::new();
        assert!(!fs.contains("nope", &[sid(0)]));
        assert!(fs.tuples("nope").is_empty());
    }

    #[test]
    fn zero_arity_relations_work() {
        let mut fs = FactStore::new();
        assert!(fs.insert_named("halted", Box::new([])));
        assert!(!fs.insert_named("halted", Box::new([])));
        assert!(fs.contains("halted", &[]));
    }

    #[test]
    fn tuple_index_survives_growth() {
        let mut rel = Relation::default();
        for i in 0..1000u32 {
            assert!(rel.insert(vec![sid(i), sid(i / 3)].into()));
        }
        for i in 0..1000u32 {
            assert!(!rel.insert(vec![sid(i), sid(i / 3)].into()), "dup {i}");
            assert!(rel.contains(&[sid(i), sid(i / 3)]));
        }
        assert!(!rel.contains(&[sid(1000), sid(0)]));
        assert_eq!(rel.len(), 1000);
    }

    #[test]
    fn remove_tombstones_then_compact_preserves_order() {
        let mut rel = Relation::default();
        for i in 0..100u32 {
            assert!(rel.insert(vec![sid(i), sid(i % 7)].into()));
        }
        // Tombstone every third tuple: positions stay stable, probe chains
        // survive, col_index postings are withdrawn.
        for i in (0..100u32).step_by(3) {
            assert!(rel.remove(&[sid(i), sid(i % 7)]));
            assert!(!rel.remove(&[sid(i), sid(i % 7)]), "double remove {i}");
        }
        assert_eq!(rel.len(), 100, "positions stable before compaction");
        assert_eq!(rel.live_len(), 100 - 34);
        for i in 0..100u32 {
            let present = i % 3 != 0;
            assert_eq!(rel.contains(&[sid(i), sid(i % 7)]), present, "{i}");
            if present {
                assert_eq!(rel.position_of(&[sid(i), sid(i % 7)]), Some(i));
            } else {
                assert_eq!(rel.position_of(&[sid(i), sid(i % 7)]), None);
                assert!(
                    !rel.positions_with(0, sid(i), 0, rel.len()).contains(&i),
                    "posting for removed tuple {i} must be withdrawn"
                );
            }
        }
        // Iteration skips tombstones in insertion order.
        let live: Vec<u32> = rel.iter().map(|t| t[0].0).collect();
        let expected: Vec<u32> = (0..100).filter(|i| i % 3 != 0).collect();
        assert_eq!(live, expected);

        rel.compact();
        assert_eq!(rel.len(), 66);
        assert_eq!(rel.live_len(), 66);
        let dense: Vec<u32> = rel.iter().map(|t| t[0].0).collect();
        assert_eq!(dense, expected, "compaction preserves insertion order");
        for (pos, &i) in expected.iter().enumerate() {
            assert_eq!(rel.position_of(&[sid(i), sid(i % 7)]), Some(pos as u32));
            assert_eq!(
                rel.positions_with(0, sid(i), 0, rel.len()),
                &[pos as u32],
                "col index rebuilt densely for {i}"
            );
        }
        // Inserts after compaction work (including re-adding removed rows).
        assert!(rel.insert(vec![sid(0), sid(0)].into()));
        assert!(!rel.insert(vec![sid(1), sid(1)].into()), "survivor deduped");
        assert_eq!(rel.len(), 67);
    }

    #[test]
    fn tail_only_compact_keeps_probe_chains_intact() {
        // Tail-only compaction (the assert-rollback shape) truncates and
        // leaves the removed tuples' slots in the index as tombstones.
        let row = |i: u32| vec![sid(i), sid(i % 5)];
        let mut rel = Relation::default();
        for i in 0..200u32 {
            assert!(rel.insert(row(i).into()));
        }
        for i in 150..200u32 {
            assert!(rel.remove(&row(i)));
        }
        rel.compact();
        assert_eq!((rel.len(), rel.live_len()), (150, 150));
        assert!(rel.index.tombstones > 0, "tail-only path keeps tombstones");
        // Every survivor stays reachable through its probe chain and its
        // column postings.
        for i in 0..150u32 {
            assert_eq!(rel.position_of(&row(i)), Some(i), "chain broken at {i}");
            assert!(rel.positions_with(0, sid(i), 0, rel.len()).contains(&i));
            assert!(rel.positions_with(1, sid(i % 5), 0, rel.len()).contains(&i));
        }
        // The removed tuples read as absent, and re-insert at the tail.
        for i in 150..200u32 {
            assert_eq!(rel.position_of(&row(i)), None);
            assert!(rel.positions_with(0, sid(i), 0, rel.len()).is_empty());
            assert!(rel.insert(row(i).into()), "re-insert after compact {i}");
            assert_eq!(rel.position_of(&row(i)), Some(i));
        }
        // Insert past the growth threshold: the rebuilt index (tombstones
        // swept) still finds everything.
        let slots = rel.index.slots.len();
        let mut i = 200u32;
        while rel.index.slots.len() == slots {
            assert!(rel.insert(row(i).into()));
            i += 1;
        }
        assert_eq!(rel.index.tombstones, 0);
        for j in 0..i {
            assert_eq!(rel.position_of(&row(j)), Some(j), "lost {j} after growth");
            assert!(!rel.insert(row(j).into()), "dup {j} after growth");
        }
        assert_eq!(rel.len(), i as usize);
    }

    #[test]
    fn factstore_remove_tracks_total() {
        let mut fs = FactStore::new();
        let r = fs.pred_id("r");
        fs.insert(r, vec![sid(1)].into());
        fs.insert(r, vec![sid(2)].into());
        assert_eq!(fs.total_facts(), 2);
        assert!(fs.remove(r, &[sid(1)]));
        assert!(!fs.remove(r, &[sid(1)]));
        assert_eq!(fs.total_facts(), 1);
        fs.compact();
        assert_eq!(fs.relation(r).len(), 1);
        assert!(fs.contains_id(r, &[sid(2)]));
        assert!(!fs.contains_id(r, &[sid(1)]));
        // Removal of unknown predicates is a no-op, never an index panic.
        assert!(!fs.remove(PredId(99), &[sid(1)]));
        assert_eq!(fs.position_of(PredId(99), &[sid(1)]), None);
    }

    #[test]
    fn with_preds_aligns_ids_and_realign_restores() {
        let mut table = PredTable::new();
        let r = table.intern("r");
        let s = table.intern("s");
        let mut fs = FactStore::with_preds(table.clone());
        fs.insert(s, vec![sid(5)].into());
        fs.insert(r, vec![sid(6)].into());
        assert!(fs.contains("s", &[sid(5)]));

        // A store built in a different interning order realigns correctly.
        let mut other = FactStore::new();
        other.insert_named("s", vec![sid(5)].into());
        other.insert_named("x", vec![sid(7)].into());
        let aligned = other.realigned_to(&table);
        assert_eq!(aligned.preds().lookup("r"), Some(r));
        assert!(aligned.contains_id(s, &[sid(5)]));
        assert!(aligned.contains("x", &[sid(7)]));
        assert_eq!(aligned.total_facts(), 2);
    }
}
