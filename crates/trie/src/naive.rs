//! Scan-based oracle: brute-force answers over the raw text.
//!
//! Slow (every query scans the text) but self-evidently correct; the
//! cross-engine equivalence tests hold SPINE, the suffix tree, and the suffix
//! array to this engine's answers on randomly generated inputs.

use strindex::{Alphabet, Code, MatchingIndex, MatchingStats, MaximalMatch, StringIndex};

/// Return all start offsets of `pattern` in `text` by direct scan (the
/// empty pattern occurs at every offset `0..=n`).
pub fn scan_all(text: &[Code], pattern: &[Code]) -> Vec<usize> {
    if pattern.len() > text.len() {
        return Vec::new();
    }
    (0..=text.len() - pattern.len()).filter(|&i| &text[i..i + pattern.len()] == pattern).collect()
}

/// The brute-force reference engine.
pub struct NaiveIndex {
    alphabet: Alphabet,
    text: Vec<Code>,
}

impl NaiveIndex {
    /// Wrap an encoded text.
    pub fn new(alphabet: Alphabet, text: &[Code]) -> Self {
        NaiveIndex { alphabet, text: text.to_vec() }
    }

    /// The indexed text.
    pub fn text(&self) -> &[Code] {
        &self.text
    }

    /// Longest common extension of `query[q..]` and `text[t..]`.
    pub fn lce(&self, query: &[Code], q: usize, t: usize) -> usize {
        query[q..].iter().zip(&self.text[t..]).take_while(|(a, b)| a == b).count()
    }
}

impl StringIndex for NaiveIndex {
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
        if pattern.is_empty() {
            return Some(0);
        }
        if pattern.len() > self.text.len() {
            return None;
        }
        (0..=self.text.len() - pattern.len()).find(|&i| &self.text[i..i + pattern.len()] == pattern)
    }

    fn find_all(&self, pattern: &[Code]) -> Vec<usize> {
        scan_all(&self.text, pattern)
    }
}

impl MatchingIndex for NaiveIndex {
    fn matching_statistics(&self, query: &[Code]) -> MatchingStats {
        let m = query.len();
        let mut lengths = vec![0u32; m + 1];
        let mut first_end = vec![0u32; m + 1];
        for e in 1..=m {
            // Longest suffix of query[..e] occurring in text, by brute force:
            // try lengths from the previous value + 1 downward (ms can grow
            // by at most one per step, so start from lengths[e-1]+1).
            let mut best = 0usize;
            let mut best_end = 0usize;
            let cap = (lengths[e - 1] as usize + 1).min(e);
            for len in (1..=cap).rev() {
                if let Some(start) = self.find_first(&query[e - len..e]) {
                    best = len;
                    best_end = start + len;
                    break;
                }
            }
            lengths[e] = best as u32;
            first_end[e] = best_end as u32;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn dna(s: &str) -> (Alphabet, Vec<Code>) {
        let a = Alphabet::dna();
        let codes = a.encode(s.as_bytes()).unwrap();
        (a, codes)
    }

    #[test]
    fn scan_all_finds_overlapping() {
        let (_, text) = dna("AAAA");
        let (_, pat) = dna("AA");
        assert_eq!(scan_all(&text, &pat), vec![0, 1, 2]);
        assert_eq!(scan_all(&text, &[]), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn find_first_and_all_agree() {
        let (a, text) = dna("ACGTACGTAC");
        let idx = NaiveIndex::new(a.clone(), &text);
        let pat = a.encode(b"AC").unwrap();
        assert_eq!(idx.find_first(&pat), Some(0));
        assert_eq!(idx.find_all(&pat), vec![0, 4, 8]);
        let absent = a.encode(b"GG").unwrap();
        assert_eq!(idx.find_first(&absent), None);
        assert!(idx.find_all(&absent).is_empty());
    }

    #[test]
    fn matching_statistics_small() {
        // text = ACGT, query = CGCA
        let (a, text) = dna("ACGT");
        let idx = NaiveIndex::new(a.clone(), &text);
        let query = a.encode(b"CGCA").unwrap();
        let ms = idx.matching_statistics(&query);
        // e=1: "C" occurs (ends at 2). e=2: "CG" occurs (ends 3).
        // e=3: suffixes of CGC: "GC" no, "C" yes (ends 2).
        // e=4: "CA" no, "A" yes (ends 1).
        assert_eq!(ms.lengths, vec![0, 1, 2, 1, 1]);
        assert_eq!(ms.first_end, vec![0, 2, 3, 2, 1]);
    }

    #[test]
    fn maximal_matches_include_repetitions() {
        let (a, text) = dna("ACACAC");
        let idx = NaiveIndex::new(a.clone(), &text);
        let query = a.encode(b"ACAT").unwrap();
        // Longest match "ACA" (ends at query offset 3, right-maximal since T
        // breaks it); text occurrences of ACA at 0 and 2.
        let mm = idx.maximal_matches(&query, 3);
        assert_eq!(
            mm,
            vec![
                MaximalMatch { query_start: 0, data_start: 0, len: 3 },
                MaximalMatch { query_start: 0, data_start: 2, len: 3 },
            ]
        );
    }

    #[test]
    fn lce_counts_shared_prefix() {
        let (a, text) = dna("ACGTAC");
        let idx = NaiveIndex::new(a, &text);
        let q = idx.text().to_vec();
        assert_eq!(idx.lce(&q, 0, 4), 2); // "AC" == "AC"
        assert_eq!(idx.lce(&q, 0, 0), 6);
        assert_eq!(idx.lce(&q, 1, 0), 0);
    }

    #[test]
    fn empty_pattern_contract() {
        let (a, text) = dna("ACG");
        let idx = NaiveIndex::new(a, &text);
        assert_eq!(idx.find_first(&[]), Some(0));
        assert!(idx.contains(&[]));
    }
}
