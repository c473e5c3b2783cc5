//! Property-based tests for the sequence substrate.
//!
//! These check the algebraic laws the rest of the workspace relies on:
//! interning is a bijection, `index_window` matches the Section 3.2
//! definedness conditions exactly, extended-domain closure satisfies
//! Definition 2 and Lemma 1 (monotonicity under union), and releasing
//! references shrinks the domain to the closure of what is still held.

use proptest::prelude::*;
use seqlog_sequence::{index_window, Alphabet, ExtendedDomain, SeqStore};

/// Strategy: short lowercase strings over a 4-symbol alphabet (repetitions
/// are common, which stresses interner dedup and closure early-outs).
fn word() -> impl Strategy<Value = String> {
    proptest::collection::vec(prop_oneof!["a", "b", "c", "d"], 0..12).prop_map(|v| v.concat())
}

proptest! {
    #[test]
    fn interning_round_trips(text in word()) {
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let syms = a.seq_of_str(&text);
        let id = st.intern_vec(syms.clone());
        prop_assert_eq!(st.get(id), syms.as_slice());
        prop_assert_eq!(a.render(st.get(id)), text);
    }

    #[test]
    fn interning_is_injective(x in word(), y in word()) {
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let xs = a.seq_of_str(&x);
        let ys = a.seq_of_str(&y);
        let ix = st.intern_vec(xs);
        let iy = st.intern_vec(ys);
        prop_assert_eq!(ix == iy, x == y);
    }

    #[test]
    fn concat_length_is_additive(x in word(), y in word()) {
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let ix = st.intern_vec(a.seq_of_str(&x));
        let iy = st.intern_vec(a.seq_of_str(&y));
        let ixy = st.concat(ix, iy);
        prop_assert_eq!(st.len_of(ixy), x.len() + y.len());
        prop_assert_eq!(a.render(st.get(ixy)), format!("{x}{y}"));
    }

    #[test]
    fn concat_is_associative(x in word(), y in word(), z in word()) {
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let (ix, iy, iz) = {
            let ix = st.intern_vec(a.seq_of_str(&x));
            let iy = st.intern_vec(a.seq_of_str(&y));
            let iz = st.intern_vec(a.seq_of_str(&z));
            (ix, iy, iz)
        };
        let left = {
            let xy = st.concat(ix, iy);
            st.concat(xy, iz)
        };
        let right = {
            let yz = st.concat(iy, iz);
            st.concat(ix, yz)
        };
        prop_assert_eq!(left, right);
    }

    #[test]
    fn index_window_matches_definition(len in 0usize..20, n1 in -3i64..25, n2 in -3i64..25) {
        // Section 3.2: s[n1:n2] is defined iff 1 ≤ n1 ≤ n2+1 ≤ len+1.
        let defined = 1 <= n1 && n1 <= n2 + 1 && n2 < len as i64 + 1;
        prop_assert_eq!(index_window(len, n1, n2).is_some(), defined);
        if let Some((s, e)) = index_window(len, n1, n2) {
            prop_assert!(s <= e && e <= len);
            prop_assert_eq!(e.saturating_sub(s) as i64, (n2 - n1 + 1).max(0));
        }
    }

    #[test]
    fn subseq_agrees_with_slicing(text in word(), n1 in 1i64..14, n2 in 0i64..14) {
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let id = st.intern_vec(a.seq_of_str(&text));
        match st.subseq(id, n1, n2) {
            Some(sub) => {
                let expected: String = text
                    .chars()
                    .skip(n1 as usize - 1)
                    .take((n2 - n1 + 1).max(0) as usize)
                    .collect();
                prop_assert_eq!(a.render(st.get(sub)), expected);
            }
            None => {
                prop_assert!(n1 > n2 + 1 || n2 > text.len() as i64);
            }
        }
    }

    #[test]
    fn domain_closure_contains_every_window(text in word()) {
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let mut d = ExtendedDomain::new();
        let id = st.intern_vec(a.seq_of_str(&text));
        d.insert_closed(&mut st, id);
        let syms = st.get(id).to_vec();
        for s in 0..syms.len() {
            for e in s..=syms.len() {
                let w = st.intern(&syms[s..e]);
                prop_assert!(d.contains(w));
            }
        }
        // Counting bound from Section 2.1.
        let k = text.len();
        prop_assert!(d.len() <= k * (k + 1) / 2 + 1);
    }

    #[test]
    fn domain_insertion_is_monotonic(xs in proptest::collection::vec(word(), 1..6)) {
        // Lemma 1: I1 ⊆ I2 implies Dext(I1) ⊆ Dext(I2). We check the
        // incremental analogue: inserting more sequences never removes
        // members, and the result is insertion-order independent as a set.
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let ids: Vec<_> = xs.iter().map(|t| {
            let syms = a.seq_of_str(t);
            st.intern_vec(syms)
        }).collect();

        let mut forward = ExtendedDomain::new();
        let mut snapshots = Vec::new();
        for &id in &ids {
            forward.insert_closed(&mut st, id);
            snapshots.push(forward.len());
        }
        prop_assert!(snapshots.windows(2).all(|w| w[0] <= w[1]));

        let mut backward = ExtendedDomain::new();
        for &id in ids.iter().rev() {
            backward.insert_closed(&mut st, id);
        }
        prop_assert_eq!(forward.len(), backward.len());
        for m in forward.iter() {
            prop_assert!(backward.contains(m));
        }
    }

    #[test]
    fn domain_release_equals_a_fresh_closure_of_the_survivors(
        xs in proptest::collection::vec(word(), 1..8),
        keep in proptest::collection::vec(0u8..2, 8..9),
    ) {
        // Support counting: releasing some references leaves exactly the
        // closure of the rest — same members, same supports, same lmax —
        // and releasing everything empties the domain.
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let ids: Vec<_> = xs.iter().map(|t| {
            let syms = a.seq_of_str(t);
            st.intern_vec(syms)
        }).collect();
        let mut live = ExtendedDomain::new();
        for &id in &ids {
            live.insert_closed(&mut st, id);
        }
        let (kept, gone): (Vec<_>, Vec<_>) =
            ids.iter().enumerate().partition(|&(i, _)| keep[i] == 1);
        live.release(&st, gone.iter().map(|&(_, &id)| id));
        let mut fresh = ExtendedDomain::new();
        for &(_, &id) in &kept {
            fresh.insert_closed(&mut st, id);
        }
        prop_assert_eq!(live.len(), fresh.len());
        prop_assert_eq!(live.max_len(), fresh.max_len());
        for m in fresh.iter() {
            prop_assert_eq!(live.support(m), fresh.support(m));
        }
        live.release(&st, kept.iter().map(|&(_, &id)| id));
        prop_assert!(live.is_empty());
        prop_assert_eq!(live.max_len(), 0);
    }

    #[test]
    fn occurrences_are_exactly_the_matching_offsets(hay in word(), needle in word()) {
        let mut a = Alphabet::new();
        let mut st = SeqStore::new();
        let h = st.intern_vec(a.seq_of_str(&hay));
        let n = st.intern_vec(a.seq_of_str(&needle));
        let got = st.occurrences(h, n);
        let expected: Vec<usize> = (0..=hay.len().saturating_sub(needle.len()))
            .filter(|&i| hay.len() >= needle.len() && hay[i..i + needle.len()] == needle)
            .collect();
        if needle.is_empty() {
            prop_assert_eq!(got.len(), hay.len() + 1);
        } else {
            prop_assert_eq!(got, expected);
        }
    }
}
