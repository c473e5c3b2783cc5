//! Hash-consed sequence storage.
//!
//! Every sequence value that the engine touches — database constants,
//! subsequences added by extended-active-domain closure (Definition 2), and
//! sequences created by constructive terms or transducer calls — is interned
//! exactly once in a [`SeqStore`] and addressed by a [`SeqId`]. Equality of
//! sequence *values* is then equality of handles, which keeps fact tuples,
//! substitutions and domain sets small and cache-friendly.

use crate::alphabet::Sym;
use crate::fx::FxHashMap;
use std::fmt;
use std::sync::Arc;

/// Handle of an interned sequence inside a [`SeqStore`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqId(pub u32);

impl SeqId {
    /// The raw interner index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for SeqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SeqId({})", self.0)
    }
}

/// Evaluate the paper's 1-based index pair `[n1 : n2]` against a sequence of
/// length `len` (Section 3.2).
///
/// Returns the half-open 0-based window `start..end` when the indexed term is
/// *defined*, i.e. when `1 ≤ n1 ≤ n2 + 1 ≤ len + 1`; `n1 == n2 + 1` denotes
/// the empty sequence. Returns `None` when the term is undefined (out of
/// bounds or crossed by more than one).
///
/// ```
/// use seqlog_sequence::index_window;
/// // The §3.2 table for the length-5 sequence "uvwxy":
/// assert_eq!(index_window(5, 3, 6), None);          // undefined
/// assert_eq!(index_window(5, 3, 5), Some((2, 5)));  // "wxy"
/// assert_eq!(index_window(5, 3, 4), Some((2, 4)));  // "wx"
/// assert_eq!(index_window(5, 3, 3), Some((2, 3)));  // "w"
/// assert_eq!(index_window(5, 3, 2), Some((2, 2)));  // ε
/// assert_eq!(index_window(5, 3, 1), None);          // undefined
/// ```
#[inline]
pub fn index_window(len: usize, n1: i64, n2: i64) -> Option<(usize, usize)> {
    let len = len as i64;
    if 1 <= n1 && n1 <= n2 + 1 && n2 <= len {
        Some((n1 as usize - 1, n2 as usize))
    } else {
        None
    }
}

/// An append-only, hash-consing store of sequences.
#[derive(Default, Clone)]
pub struct SeqStore {
    seqs: Vec<Arc<[Sym]>>,
    ids: FxHashMap<Arc<[Sym]>, SeqId>,
    /// Total symbols stored (for instrumentation).
    total_syms: usize,
    /// Ids already passed to [`SeqStore::close_windows`] (so re-closing a
    /// constant across evaluations costs one set probe, not O(len²)).
    closed: crate::fx::FxHashSet<SeqId>,
}

impl SeqStore {
    /// Create an empty store. The empty sequence ε is interned eagerly so
    /// that [`SeqStore::empty`] never allocates.
    pub fn new() -> Self {
        let mut s = Self::default();
        s.intern(&[]);
        s
    }

    /// Intern a sequence, returning its handle. Idempotent.
    pub fn intern(&mut self, syms: &[Sym]) -> SeqId {
        if let Some(&id) = self.ids.get(syms) {
            return id;
        }
        let arc: Arc<[Sym]> = Arc::from(syms);
        self.insert_arc(arc)
    }

    /// Intern a sequence from an owned vector (avoids one copy when fresh).
    pub fn intern_vec(&mut self, syms: Vec<Sym>) -> SeqId {
        if let Some(&id) = self.ids.get(syms.as_slice()) {
            return id;
        }
        let arc: Arc<[Sym]> = Arc::from(syms);
        self.insert_arc(arc)
    }

    fn insert_arc(&mut self, arc: Arc<[Sym]>) -> SeqId {
        let id = SeqId(u32::try_from(self.seqs.len()).expect("sequence store overflow"));
        self.total_syms += arc.len();
        self.seqs.push(arc.clone());
        self.ids.insert(arc, id);
        id
    }

    /// The handle of the empty sequence ε.
    #[inline]
    pub fn empty(&self) -> SeqId {
        SeqId(0)
    }

    /// The symbols of an interned sequence.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this store.
    #[inline]
    pub fn get(&self, id: SeqId) -> &[Sym] {
        &self.seqs[id.index()]
    }

    /// `len(σ)` — the length of an interned sequence.
    #[inline]
    pub fn len_of(&self, id: SeqId) -> usize {
        self.seqs[id.index()].len()
    }

    /// Look up a sequence value without interning it.
    pub fn lookup(&self, syms: &[Sym]) -> Option<SeqId> {
        self.ids.get(syms).copied()
    }

    /// Intern the concatenation `a · b` (the paper's constructive term
    /// `a • b`).
    pub fn concat(&mut self, a: SeqId, b: SeqId) -> SeqId {
        if self.len_of(a) == 0 {
            return b;
        }
        if self.len_of(b) == 0 {
            return a;
        }
        let mut v = Vec::with_capacity(self.len_of(a) + self.len_of(b));
        v.extend_from_slice(self.get(a));
        v.extend_from_slice(self.get(b));
        self.intern_vec(v)
    }

    /// Intern the single-symbol sequence `⟨s⟩`.
    pub fn singleton(&mut self, s: Sym) -> SeqId {
        self.intern(&[s])
    }

    /// Evaluate the indexed term `id[n1 : n2]` (1-based, inclusive, per
    /// Section 3.2) and intern the result. `None` when undefined.
    pub fn subseq(&mut self, id: SeqId, n1: i64, n2: i64) -> Option<SeqId> {
        let (start, end) = index_window(self.len_of(id), n1, n2)?;
        Some(self.intern_range(id, start, end))
    }

    /// Intern the window `id[start..end]` (0-based, half-open) without
    /// materializing an intermediate `Vec`.
    ///
    /// Fast paths: the full window returns `id` itself, and an
    /// already-interned window costs one hash lookup against the stored
    /// symbols in place. Only a genuinely new window allocates (the new
    /// `Arc<[Sym]>` itself).
    ///
    /// # Panics
    /// Panics if `id` is foreign or `start..end` is out of bounds.
    pub fn intern_range(&mut self, id: SeqId, start: usize, end: usize) -> SeqId {
        let seq = &self.seqs[id.index()];
        if start == 0 && end == seq.len() {
            return id;
        }
        if let Some(&found) = self.ids.get(&seq[start..end]) {
            return found;
        }
        // Miss: clone the Arc handle so the window can be copied out while
        // `self` is mutably borrowed for insertion.
        let seq = seq.clone();
        let arc: Arc<[Sym]> = Arc::from(&seq[start..end]);
        self.insert_arc(arc)
    }

    /// Resolve the window `id[start..end]` (0-based, half-open) to its
    /// interned handle **without interning**: `None` when the window's
    /// content has never been interned in this store.
    ///
    /// This is the read-only counterpart of [`SeqStore::intern_range`]: the
    /// full window is `id` itself, and any other window costs one in-place
    /// hash lookup against the stored symbols.
    ///
    /// # Panics
    /// Panics if `id` is foreign or `start..end` is out of bounds.
    #[inline]
    pub fn lookup_range(&self, id: SeqId, start: usize, end: usize) -> Option<SeqId> {
        let seq = &self.seqs[id.index()];
        if start == 0 && end == seq.len() {
            return Some(id);
        }
        self.ids.get(&seq[start..end]).copied()
    }

    /// Evaluate the indexed term `id[n1 : n2]` (1-based, inclusive, per
    /// Section 3.2) **without interning**.
    ///
    /// * `None` — the indexed term is undefined (out of bounds);
    /// * `Some(None)` — defined, but its value was never interned;
    /// * `Some(Some(w))` — defined with interned handle `w`.
    ///
    /// When the base is *window-closed* (every contiguous window interned —
    /// true for extended-active-domain members by Definition 2's closure
    /// invariant, and for program constants after [`SeqStore::close_windows`])
    /// the middle case cannot occur, which is what lets the matcher run on a
    /// shared `&SeqStore`.
    #[inline]
    pub fn subseq_lookup(&self, id: SeqId, n1: i64, n2: i64) -> Option<Option<SeqId>> {
        let (start, end) = index_window(self.len_of(id), n1, n2)?;
        Some(self.lookup_range(id, start, end))
    }

    /// Intern every contiguous window of `id`, making it *window-closed* so
    /// that [`SeqStore::subseq_lookup`] resolves all of its defined windows.
    /// Used to pre-close program constants before read-only matching (domain
    /// members are already closed by `ExtendedDomain::insert_closed`).
    /// Idempotent, and repeat calls for the same id cost one set probe.
    pub fn close_windows(&mut self, id: SeqId) {
        if !self.closed.insert(id) {
            return;
        }
        let len = self.len_of(id);
        for start in 0..len {
            for end in start + 1..=len {
                self.intern_range(id, start, end);
            }
        }
    }

    /// All start positions (0-based) at which `needle` occurs as a contiguous
    /// subsequence of `hay`. The empty needle occurs at every position
    /// `0..=len(hay)`.
    ///
    /// Scans with a memchr-style first-symbol skip: candidate positions are
    /// found by scanning for the needle's first symbol only, and the
    /// remaining symbols are compared just at those candidates — mismatching
    /// windows cost one symbol comparison instead of a window `==`.
    pub fn occurrences(&self, hay: SeqId, needle: SeqId) -> Vec<usize> {
        let h = self.get(hay);
        let n = self.get(needle);
        if n.is_empty() {
            return (0..=h.len()).collect();
        }
        if n.len() > h.len() {
            return Vec::new();
        }
        let (&first, rest) = n.split_first().expect("needle is non-empty");
        let limit = h.len() - n.len();
        let mut out = Vec::new();
        let mut start = 0;
        while start <= limit {
            // First-symbol prefilter over the remaining candidate window.
            match h[start..=limit].iter().position(|&s| s == first) {
                None => break,
                Some(off) => {
                    let pos = start + off;
                    if &h[pos + 1..pos + n.len()] == rest {
                        out.push(pos);
                    }
                    start = pos + 1;
                }
            }
        }
        out
    }

    /// Number of distinct sequences interned.
    pub fn count(&self) -> usize {
        self.seqs.len()
    }

    /// Total number of symbols across all interned sequences
    /// (instrumentation for the Theorem 8/9 model-size experiments).
    pub fn total_symbols(&self) -> usize {
        self.total_syms
    }
}

impl fmt::Debug for SeqStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeqStore")
            .field("sequences", &self.seqs.len())
            .field("total_symbols", &self.total_syms)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;

    fn setup(text: &str) -> (Alphabet, SeqStore, SeqId) {
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let syms = a.seq_of_str(text);
        let id = st.intern_vec(syms);
        (a, st, id)
    }

    #[test]
    fn interning_dedupes() {
        let (mut a, mut st, id) = setup("abc");
        let again = st.intern_vec(a.seq_of_str("abc"));
        assert_eq!(id, again);
        // ε + "abc"
        assert_eq!(st.count(), 2);
    }

    #[test]
    fn empty_is_preinterned() {
        let st = SeqStore::new();
        assert_eq!(st.len_of(st.empty()), 0);
        assert_eq!(st.lookup(&[]), Some(st.empty()));
    }

    #[test]
    fn concat_matches_paper_semantics() {
        let (mut a, mut st, _) = setup("ab");
        let x = st.intern_vec(a.seq_of_str("ab"));
        let y = st.intern_vec(a.seq_of_str("cd"));
        let xy = st.concat(x, y);
        assert_eq!(a.render(st.get(xy)), "abcd");
        // ε is a two-sided identity.
        let e = st.empty();
        assert_eq!(st.concat(e, x), x);
        assert_eq!(st.concat(x, e), x);
    }

    #[test]
    fn section_3_2_substitution_table() {
        // uvwxy[3:6] ↦ undefined, [3:5] ↦ wxy, [3:4] ↦ wx, [3:3] ↦ w,
        // [3:2] ↦ ε, [3:1] ↦ undefined.
        let (a, mut st, id) = setup("uvwxy");
        assert_eq!(st.subseq(id, 3, 6), None);
        let wxy = st.subseq(id, 3, 5).unwrap();
        assert_eq!(a.render(st.get(wxy)), "wxy");
        let wx = st.subseq(id, 3, 4).unwrap();
        assert_eq!(a.render(st.get(wx)), "wx");
        let w = st.subseq(id, 3, 3).unwrap();
        assert_eq!(a.render(st.get(w)), "w");
        assert_eq!(st.subseq(id, 3, 2), Some(st.empty()));
        assert_eq!(st.subseq(id, 3, 1), None);
    }

    #[test]
    fn subseq_full_range_returns_same_handle() {
        let (_, mut st, id) = setup("abc");
        assert_eq!(st.subseq(id, 1, 3), Some(id));
    }

    #[test]
    fn subseq_rejects_zero_and_negative_indices() {
        let (_, mut st, id) = setup("abc");
        assert_eq!(st.subseq(id, 0, 2), None);
        assert_eq!(st.subseq(id, -1, 2), None);
        // n1 = n2 + 1 is ε even at the right edge: s[4:3] on length 3.
        assert_eq!(st.subseq(id, 4, 3), Some(st.empty()));
        // ...but s[5:4] is undefined (n2 > len).
        assert_eq!(st.subseq(id, 5, 4), None);
    }

    #[test]
    fn occurrences_finds_all_matches() {
        let (mut a, mut st, hay) = setup("abab");
        let ab = st.intern_vec(a.seq_of_str("ab"));
        assert_eq!(st.occurrences(hay, ab), vec![0, 2]);
        let eps = st.empty();
        assert_eq!(st.occurrences(hay, eps), vec![0, 1, 2, 3, 4]);
        let z = st.intern_vec(a.seq_of_str("zz"));
        assert!(st.occurrences(hay, z).is_empty());
    }

    #[test]
    fn occurrences_needle_longer_than_hay() {
        let (mut a, mut st, hay) = setup("ab");
        let long = st.intern_vec(a.seq_of_str("abc"));
        assert!(st.occurrences(hay, long).is_empty());
    }

    #[test]
    fn occurrences_pathological_repeated_symbol() {
        // Worst case for the naive scan: "aaa…a" hay and "aa…a" needle —
        // every position is a first-symbol candidate and almost every
        // window matches. The result must be every offset 0..=hay-needle.
        let (mut a, mut st, hay) = setup(&"a".repeat(512));
        let needle = st.intern_vec(a.seq_of_str(&"a".repeat(256)));
        let occ = st.occurrences(hay, needle);
        assert_eq!(occ.len(), 512 - 256 + 1);
        assert_eq!(occ.first(), Some(&0));
        assert_eq!(occ.last(), Some(&256));
        assert!(occ.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn occurrences_prefilter_rejects_near_misses() {
        // Needles whose first symbol is frequent but whose tail mismatches:
        // the skip loop must still find exactly the true matches.
        let (mut a, mut st, hay) = setup("abaabaaabab");
        let ab = st.intern_vec(a.seq_of_str("ab"));
        assert_eq!(st.occurrences(hay, ab), vec![0, 3, 7, 9]);
        let aab = st.intern_vec(a.seq_of_str("aab"));
        assert_eq!(st.occurrences(hay, aab), vec![2, 6]);
        // No occurrence of a symbol absent from the hay.
        let z = st.intern_vec(a.seq_of_str("zb"));
        assert!(st.occurrences(hay, z).is_empty());
    }

    #[test]
    fn intern_range_matches_slice_interning() {
        let (mut a, mut st, id) = setup("abcabc");
        // Full range is the identity.
        assert_eq!(st.intern_range(id, 0, 6), id);
        // A fresh window interns to the same id as explicit interning.
        let bc = st.intern_range(id, 1, 3);
        assert_eq!(st.lookup(&a.seq_of_str("bc")), Some(bc));
        // A repeated window (second occurrence) hits the fast path and
        // returns the same handle — no duplicate interning.
        assert_eq!(st.intern_range(id, 4, 6), bc);
        // Empty window is ε.
        assert_eq!(st.intern_range(id, 2, 2), st.empty());
    }

    #[test]
    fn lookup_range_never_interns() {
        let (mut a, mut st, id) = setup("abcd");
        let before = st.count();
        // Full window resolves to the base itself.
        assert_eq!(st.lookup_range(id, 0, 4), Some(id));
        // A never-interned window misses without polluting the store.
        assert_eq!(st.lookup_range(id, 1, 3), None);
        assert_eq!(st.count(), before);
        // After interning, the same lookup hits.
        let bc = st.intern_vec(a.seq_of_str("bc"));
        assert_eq!(st.lookup_range(id, 1, 3), Some(bc));
    }

    #[test]
    fn subseq_lookup_matches_subseq_on_closed_bases() {
        let (_, mut st, id) = setup("uvwxy");
        st.close_windows(id);
        let before = st.count();
        for n1 in -1..=7i64 {
            for n2 in -1..=7i64 {
                let looked = st.subseq_lookup(id, n1, n2);
                let interned = st.subseq(id, n1, n2);
                match (looked, interned) {
                    (None, None) => {}
                    (Some(Some(a)), Some(b)) => assert_eq!(a, b, "[{n1}:{n2}]"),
                    other => panic!("closed base disagreed at [{n1}:{n2}]: {other:?}"),
                }
            }
        }
        // Neither route added anything: the base was closed.
        assert_eq!(st.count(), before);
    }

    #[test]
    fn subseq_lookup_reports_uninterned_windows() {
        let (_, st, id) = setup("abcd");
        assert_eq!(st.subseq_lookup(id, 2, 3), Some(None)); // "bc" not interned
        assert_eq!(st.subseq_lookup(id, 0, 2), None); // undefined
        assert_eq!(st.subseq_lookup(id, 1, 4), Some(Some(id))); // full window
    }

    #[test]
    fn index_window_edges() {
        // Whole sequence.
        assert_eq!(index_window(3, 1, 3), Some((0, 3)));
        // Empty at the left edge: s[1:0].
        assert_eq!(index_window(3, 1, 0), Some((0, 0)));
        // Empty sequence: only s[1:0] is defined.
        assert_eq!(index_window(0, 1, 0), Some((0, 0)));
        assert_eq!(index_window(0, 1, 1), None);
    }
}
