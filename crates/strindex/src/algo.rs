//! Engine-independent algorithms built on the index traits.
//!
//! These run identically over SPINE, the suffix tree, or any other engine
//! implementing [`MatchingIndex`] / [`StringIndex`]:
//!
//! * [`maximal_unique_matches`] — MUMs, the anchors MUMmer's whole-genome
//!   alignment is named after (the paper's introduction: "searching for
//!   maximal unique matches across the genomic strings");
//! * [`longest_common_substring`] — the longest string shared by the indexed
//!   text and a query.

use crate::alphabet::Code;
use crate::traits::{MatchingIndex, MaximalMatch, StringIndex};

/// All *maximal unique matches* (MUMs) of length ≥ `min_len` between the
/// text behind `data` and the text behind `query_idx` (which must index
/// exactly `query`).
///
/// A MUM is a shared substring that occurs exactly once in each string and
/// cannot be extended on either side. MUMs are computed from the matching
/// statistics: every MUM is the longest match ending at its query position
/// (a longer co-terminal match would contradict left-maximality), so the
/// right-maximal entries are a complete candidate set; uniqueness and
/// left-maximality are then checked directly.
///
/// `query_idx` must be an index over exactly `query` (any engine works —
/// e.g. a second SPINE index).
pub fn maximal_unique_matches<D, Q>(
    data: &D,
    query_idx: &Q,
    query: &[Code],
    min_len: usize,
) -> Vec<MaximalMatch>
where
    D: MatchingIndex + ?Sized,
    Q: StringIndex + ?Sized,
{
    debug_assert_eq!(query_idx.text_len(), query.len(), "query_idx must index `query`");
    let stats = data.matching_statistics(query);
    let mut out = Vec::new();
    for (qs, len, _) in stats.right_maximal(min_len) {
        let w = &query[qs..qs + len];
        let occs_data = data.find_all(w);
        if occs_data.len() != 1 {
            continue;
        }
        if query_idx.find_all(w).len() != 1 {
            continue;
        }
        let ds = occs_data[0];
        // Left-maximality: the preceding characters must differ (or a string
        // boundary must stop the extension).
        if qs > 0 && ds > 0 && query[qs - 1] == data.symbol_at(ds - 1) {
            continue;
        }
        out.push(MaximalMatch { query_start: qs, data_start: ds, len });
    }
    out.sort();
    out
}

/// The longest substring shared by the indexed text and `query` (leftmost
/// in the query on ties); `None` if they share nothing.
pub fn longest_common_substring<D>(data: &D, query: &[Code]) -> Option<MaximalMatch>
where
    D: MatchingIndex + ?Sized,
{
    let stats = data.matching_statistics(query);
    let (e, &len) =
        stats.lengths.iter().enumerate().max_by_key(|&(e, &l)| (l, std::cmp::Reverse(e)))?;
    if len == 0 {
        return None;
    }
    let len = len as usize;
    Some(MaximalMatch { query_start: e - len, data_start: stats.first_end[e] as usize - len, len })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alphabet::Alphabet;
    use crate::traits::MatchingStats;

    /// Minimal brute-force index for testing the generic algorithms without
    /// depending on the engine crates (they depend on us).
    struct Brute {
        alphabet: Alphabet,
        text: Vec<Code>,
    }

    impl Brute {
        fn new(text: &[u8]) -> Self {
            let alphabet = Alphabet::dna();
            let text = alphabet.encode(text).unwrap();
            Brute { alphabet, text }
        }
    }

    impl StringIndex for Brute {
        fn alphabet(&self) -> &Alphabet {
            &self.alphabet
        }
        fn text_len(&self) -> usize {
            self.text.len()
        }
        fn symbol_at(&self, pos: usize) -> Code {
            self.text[pos]
        }
        fn find_first(&self, pattern: &[Code]) -> Option<usize> {
            if pattern.is_empty() || pattern.len() > self.text.len() {
                return if pattern.is_empty() { Some(0) } else { None };
            }
            (0..=self.text.len() - pattern.len())
                .find(|&i| &self.text[i..i + pattern.len()] == pattern)
        }
        fn find_all(&self, pattern: &[Code]) -> Vec<usize> {
            if pattern.len() > self.text.len() {
                return Vec::new();
            }
            (0..=self.text.len() - pattern.len())
                .filter(|&i| &self.text[i..i + pattern.len()] == pattern)
                .collect()
        }
    }

    impl MatchingIndex for Brute {
        fn matching_statistics(&self, query: &[Code]) -> MatchingStats {
            let m = query.len();
            let mut lengths = vec![0u32; m + 1];
            let mut first_end = vec![0u32; m + 1];
            for e in 1..=m {
                for len in (1..=e).rev() {
                    if let Some(s) = self.find_first(&query[e - len..e]) {
                        lengths[e] = len as u32;
                        first_end[e] = (s + len) as u32;
                        break;
                    }
                }
            }
            MatchingStats { lengths, first_end }
        }

        fn maximal_matches(&self, query: &[Code], min_len: usize) -> Vec<MaximalMatch> {
            let stats = self.matching_statistics(query);
            let mut out = Vec::new();
            for (qs, len, _) in stats.right_maximal(min_len) {
                for ds in self.find_all(&query[qs..qs + len]) {
                    out.push(MaximalMatch { query_start: qs, data_start: ds, len });
                }
            }
            out.sort();
            out
        }
    }

    fn enc(s: &[u8]) -> Vec<Code> {
        Alphabet::dna().encode(s).unwrap()
    }

    #[test]
    fn mum_basic() {
        // data:  ACGAACGA TTT GGG
        // query: TTT CCCC GGG
        // "TTT" and "GGG" are unique in both and maximal → MUMs.
        let data = Brute::new(b"ACGAACGATTTGGG");
        let qtext = enc(b"TTTCCCCGGG");
        let qidx = Brute { alphabet: Alphabet::dna(), text: qtext.clone() };
        let mums = maximal_unique_matches(&data, &qidx, &qtext, 3);
        assert_eq!(
            mums,
            vec![
                MaximalMatch { query_start: 0, data_start: 8, len: 3 },
                MaximalMatch { query_start: 7, data_start: 11, len: 3 },
            ]
        );
    }

    #[test]
    fn repeated_match_is_not_unique() {
        // "ACGT" occurs twice in the data → not a MUM even though maximal.
        let data = Brute::new(b"ACGTACGT");
        let qtext = enc(b"ACGT");
        let qidx = Brute { alphabet: Alphabet::dna(), text: qtext.clone() };
        assert!(maximal_unique_matches(&data, &qidx, &qtext, 2).is_empty());
    }

    #[test]
    fn non_left_maximal_is_rejected() {
        // The candidate "CGT" at query position 1 extends left with 'A' on
        // both sides (the full "ACGT" is the real MUM).
        let data = Brute::new(b"TTACGTGG");
        let qtext = enc(b"ACGT");
        let qidx = Brute { alphabet: Alphabet::dna(), text: qtext.clone() };
        let mums = maximal_unique_matches(&data, &qidx, &qtext, 3);
        assert_eq!(mums, vec![MaximalMatch { query_start: 0, data_start: 2, len: 4 }]);
    }

    #[test]
    fn lcs_finds_longest() {
        let data = Brute::new(b"GGGACGTACGGG");
        let q = enc(b"TTTTACGTACTT");
        let m = longest_common_substring(&data, &q).unwrap();
        assert_eq!(m.len, 6); // ACGTAC
        assert_eq!(&q[m.query_start..m.query_start + 6], &enc(b"ACGTAC")[..]);
        assert_eq!(m.data_start, 3);
    }

    #[test]
    fn lcs_none_when_disjoint() {
        let data = Brute::new(b"AAAA");
        assert!(longest_common_substring(&data, &enc(b"GGGG")).is_none());
        assert!(longest_common_substring(&data, &[]).is_none());
    }
}
