//! Property tests: SPINE vs the naive trie/scan oracles.
//!
//! These machine-check the paper's central claims on randomized inputs:
//! no false positives, no false negatives, first-occurrence addressing,
//! structural invariants, prefix partitioning, and reference/compact layout
//! equivalence.

use proptest::prelude::*;
use spine::FallibleSpineOps;
use spine::{CompactSpine, Spine};
use strindex::{Alphabet, Code, MatchingIndex, OnlineIndex, StringIndex};
use suffix_trie::{NaiveIndex, SuffixTrie};

/// Strategy: DNA code strings of bounded length.
fn dna_codes(max_len: usize) -> impl Strategy<Value = Vec<Code>> {
    prop::collection::vec(0u8..4, 0..=max_len)
}

/// Strategy: low-entropy DNA (binary sub-alphabet) — maximizes repeats and
/// therefore rib/extrib density.
fn binary_codes(max_len: usize) -> impl Strategy<Value = Vec<Code>> {
    prop::collection::vec(0u8..2, 0..=max_len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn substring_language_equals_oracle(text in binary_codes(40)) {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &text).unwrap();
        let trie = SuffixTrie::build(a.clone(), &text);
        // Every string up to length 6 over the binary sub-alphabet.
        for len in 1..=6usize {
            for bits in 0..(1u32 << len) {
                let p: Vec<Code> = (0..len).map(|i| ((bits >> i) & 1) as Code).collect();
                prop_assert_eq!(
                    s.contains(&p),
                    trie.contains(&p),
                    "pattern {:?}", p
                );
            }
        }
    }

    #[test]
    fn locate_equals_first_occurrence_end(text in dna_codes(60)) {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &text).unwrap();
        let trie = SuffixTrie::build(a.clone(), &text);
        // Check on every actual substring (sampled: all windows).
        for start in 0..text.len() {
            for end in start + 1..=text.len().min(start + 12) {
                let p = &text[start..end];
                prop_assert_eq!(
                    s.locate(p),
                    trie.first_occurrence_end(p),
                    "window {}..{}", start, end
                );
            }
        }
    }

    #[test]
    fn structural_invariants_hold(text in dna_codes(50)) {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &text).unwrap();
        prop_assert_eq!(s.verify(), vec![]);
    }

    #[test]
    fn find_all_matches_scan(text in binary_codes(50), pat in binary_codes(5)) {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &text).unwrap();
        let naive = NaiveIndex::new(a.clone(), &text);
        if !pat.is_empty() {
            prop_assert_eq!(s.find_all(&pat), naive.find_all(&pat));
        }
    }

    #[test]
    fn matching_statistics_match_naive(
        text in dna_codes(60),
        query in dna_codes(40),
    ) {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &text).unwrap();
        let naive = NaiveIndex::new(a.clone(), &text);
        prop_assert_eq!(s.matching_statistics(&query), naive.matching_statistics(&query));
    }

    #[test]
    fn maximal_matches_match_naive(
        text in binary_codes(50),
        query in binary_codes(30),
        threshold in 1usize..5,
    ) {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &text).unwrap();
        let naive = NaiveIndex::new(a.clone(), &text);
        prop_assert_eq!(
            s.maximal_matches(&query, threshold),
            naive.maximal_matches(&query, threshold)
        );
    }

    #[test]
    fn compact_layout_is_equivalent(text in binary_codes(80)) {
        let a = Alphabet::dna();
        let r = Spine::build(a.clone(), &text).unwrap();
        let c = CompactSpine::build(a.clone(), &text).unwrap();
        prop_assert_eq!(c.recover_text(), r.recover_text());
        for node in 0..=text.len() as u32 {
            if node != 0 {
                prop_assert_eq!(r.try_link_of(node).unwrap(), c.try_link_of(node).unwrap());
            }
            for code in 0..4u8 {
                prop_assert_eq!(r.try_rib_of(node, code).unwrap(), c.try_rib_of(node, code).unwrap());
            }
        }
    }

    #[test]
    fn prefix_view_equals_fresh_build(text in binary_codes(40), cut in 0usize..40) {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &text).unwrap();
        let k = cut.min(text.len());
        let fresh = Spine::build(a.clone(), &text[..k]).unwrap();
        let view = s.prefix(k);
        for len in 1..=4usize {
            for bits in 0..(1u32 << len) {
                let p: Vec<Code> = (0..len).map(|i| ((bits >> i) & 1) as Code).collect();
                prop_assert_eq!(view.contains(&p), fresh.contains(&p), "pattern {:?}", p);
                prop_assert_eq!(view.find_all(&p), fresh.find_all(&p));
            }
        }
    }

    #[test]
    fn online_construction_is_incremental(text in dna_codes(30)) {
        // After each push, the index must already answer correctly for the
        // prefix built so far (the online property).
        let a = Alphabet::dna();
        let mut s = Spine::new(a.clone());
        for (i, &c) in text.iter().enumerate() {
            s.push(c).unwrap();
            let prefix = &text[..=i];
            let naive = NaiveIndex::new(a.clone(), prefix);
            // Check a few windows of the prefix.
            let w = prefix.len().min(4);
            let p = &prefix[prefix.len() - w..];
            prop_assert_eq!(s.find_first(p), naive.find_first(p));
        }
    }

    #[test]
    fn recover_text_round_trips(text in dna_codes(100)) {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &text).unwrap();
        prop_assert_eq!(s.recover_text(), text);
    }
}

/// Brute-force Hamming scan for the approximate-search property.
fn naive_hamming(text: &[Code], pattern: &[Code], k: u32) -> Vec<(usize, u32)> {
    if pattern.is_empty() || pattern.len() > text.len() {
        return Vec::new();
    }
    (0..=text.len() - pattern.len())
        .filter_map(|i| {
            let miss =
                text[i..i + pattern.len()].iter().zip(pattern).filter(|(a, b)| a != b).count()
                    as u32;
            (miss <= k).then_some((i, miss))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hamming_search_matches_naive(
        text in binary_codes(60),
        pattern in binary_codes(8),
        k in 0u32..3,
    ) {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &text).unwrap();
        let got: Vec<(usize, u32)> = s
            .find_all_hamming(&pattern, k)
            .into_iter()
            .map(|m| (m.start, m.mismatches))
            .collect();
        prop_assert_eq!(got, naive_hamming(&text, &pattern, k));
    }

    #[test]
    fn compact_persistence_round_trips(text in dna_codes(120)) {
        let a = Alphabet::dna();
        let c = CompactSpine::build(a.clone(), &text).unwrap();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        let d = CompactSpine::read_from(&mut buf.as_slice()).unwrap();
        prop_assert_eq!(d.recover_text(), text.clone());
        // The loaded index answers like the original on sampled windows.
        for start in (0..text.len()).step_by(7) {
            let end = (start + 6).min(text.len());
            let w = &text[start..end];
            prop_assert_eq!(d.find_all(w), c.find_all(w));
        }
    }

    #[test]
    fn generalized_index_localizes_correctly(
        docs in prop::collection::vec(binary_codes(25), 1..6),
        pat in binary_codes(4),
    ) {
        let a = Alphabet::dna();
        let mut g = spine::GeneralizedSpine::new(a.clone());
        for d in &docs {
            g.add_document(d).unwrap();
        }
        if pat.is_empty() {
            return Ok(());
        }
        let got = g.find_all(&pat);
        // Oracle: scan each document independently.
        let mut want = Vec::new();
        for (di, d) in docs.iter().enumerate() {
            if pat.len() > d.len() {
                continue;
            }
            for off in 0..=d.len() - pat.len() {
                if &d[off..off + pat.len()] == pat.as_slice() {
                    want.push(spine::generalized::DocMatch { doc: di, offset: off });
                }
            }
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn longest_repeated_substring_matches_naive(text in binary_codes(60)) {
        let a = Alphabet::dna();
        let s = Spine::build(a.clone(), &text).unwrap();
        let naive = {
            let mut best = 0usize;
            for i in 0..text.len() {
                for j in i + 1..text.len() {
                    let mut k = 0;
                    while j + k < text.len() && text[i + k] == text[j + k] {
                        k += 1;
                    }
                    best = best.max(k);
                }
            }
            best
        };
        prop_assert_eq!(s.longest_repeated_substring().map_or(0, |m| m.len), naive);
    }

    #[test]
    fn mums_are_unique_and_maximal(
        text in dna_codes(80),
        query in dna_codes(50),
    ) {
        let a = Alphabet::dna();
        let data = Spine::build(a.clone(), &text).unwrap();
        let qidx = Spine::build(a.clone(), &query).unwrap();
        for m in strindex::maximal_unique_matches(&data, &qidx, &query, 2) {
            let w = &query[m.query_start..m.query_start + m.len];
            // Content, uniqueness, and maximality re-checked from scratch.
            prop_assert_eq!(&text[m.data_start..m.data_start + m.len], w);
            prop_assert_eq!(data.find_all(w).len(), 1);
            prop_assert_eq!(qidx.find_all(w).len(), 1);
            if m.query_start > 0 && m.data_start > 0 {
                prop_assert_ne!(query[m.query_start - 1], text[m.data_start - 1]);
            }
            let (qe, de) = (m.query_start + m.len, m.data_start + m.len);
            if qe < query.len() && de < text.len() {
                prop_assert_ne!(query[qe], text[de]);
            }
        }
    }
}
