//! Binary-search pattern lookup over the suffix array.

use crate::lcp::lcp_kasai;
use crate::sais::suffix_array;
use strindex::{Alphabet, Code, StringIndex};

/// A suffix array bundled with its text and (lazily useful) LCP array,
/// exposing the common [`StringIndex`] query surface.
///
/// ```
/// use suffix_array::SaIndex;
/// use strindex::{Alphabet, StringIndex};
///
/// let alphabet = Alphabet::ascii();
/// let idx = SaIndex::build_from_bytes(alphabet.clone(), b"banana").unwrap();
/// assert_eq!(idx.find_all(&alphabet.encode(b"an").unwrap()), vec![1, 3]);
/// assert_eq!(idx.sa(), &[5, 3, 1, 0, 4, 2]);
/// ```
pub struct SaIndex {
    alphabet: Alphabet,
    text: Vec<Code>,
    sa: Vec<u32>,
    lcp: Vec<u32>,
}

impl SaIndex {
    /// Build the array (SA-IS) and LCP (Kasai) for an encoded text.
    pub fn build(alphabet: Alphabet, text: &[Code]) -> Self {
        let sa = suffix_array(text, alphabet.code_space());
        let lcp = lcp_kasai(text, &sa);
        SaIndex { alphabet, text: text.to_vec(), sa, lcp }
    }

    /// Convenience: encode and build.
    pub fn build_from_bytes(alphabet: Alphabet, text: &[u8]) -> strindex::Result<Self> {
        let codes = alphabet.encode(text)?;
        Ok(Self::build(alphabet, &codes))
    }

    /// The sorted suffix start positions.
    pub fn sa(&self) -> &[u32] {
        &self.sa
    }

    /// The LCP array (Kasai).
    pub fn lcp(&self) -> &[u32] {
        &self.lcp
    }

    /// The indexed text.
    pub fn text(&self) -> &[Code] {
        &self.text
    }

    /// Heap bytes (text + SA + LCP): the ~"6 bytes per char" related-work
    /// figure corresponds to SA-only storage; we keep LCP too.
    pub fn heap_bytes(&self) -> usize {
        self.text.capacity() + (self.sa.capacity() + self.lcp.capacity()) * 4
    }

    /// The `sa` range of suffixes starting with `pattern`.
    pub fn range(&self, pattern: &[Code]) -> std::ops::Range<usize> {
        use std::cmp::Ordering;
        // Ordering of the i-th sorted suffix against the pattern; a suffix
        // with the pattern as a prefix compares Equal.
        let cmp_at = |i: usize| -> Ordering {
            let suf = &self.text[self.sa[i] as usize..];
            let l = suf.len().min(pattern.len());
            match suf[..l].cmp(&pattern[..l]) {
                Ordering::Equal if suf.len() < pattern.len() => Ordering::Less,
                ord => ord,
            }
        };
        let n = self.sa.len();
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cmp_at(mid) == Ordering::Less {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let start = lo;
        hi = n;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if cmp_at(mid) == Ordering::Greater {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        start..lo
    }
}

impl StringIndex for SaIndex {
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
        let r = self.range(pattern);
        self.sa[r].iter().map(|&p| p as usize).min()
    }

    fn find_all(&self, pattern: &[Code]) -> Vec<usize> {
        if pattern.is_empty() {
            // The array holds no entry for the empty suffix at `n`.
            return (0..=self.text.len()).collect();
        }
        let r = self.range(pattern);
        let mut out: Vec<usize> = self.sa[r].iter().map(|&p| p as usize).collect();
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suffix_trie::NaiveIndex;

    fn engines(text: &[u8]) -> (Alphabet, SaIndex, NaiveIndex) {
        let a = Alphabet::dna();
        let codes = a.encode(text).unwrap();
        (a.clone(), SaIndex::build(a.clone(), &codes), NaiveIndex::new(a, &codes))
    }

    /// The load harness serves this index from a worker pool behind a
    /// shared reference; the serving contract is thread-safety plus sorted
    /// occurrence lists.
    #[test]
    fn upholds_the_serving_contract() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SaIndex>();
        let (a, s, _) = engines(b"ACACACACGTACAC");
        let hits = s.find_all(&a.encode(b"AC").unwrap());
        assert!(hits.windows(2).all(|w| w[0] < w[1]), "occurrences must be sorted: {hits:?}");
    }

    #[test]
    fn paper_string_queries() {
        let (a, s, _) = engines(b"AACCACAACA");
        let enc = |p: &[u8]| a.encode(p).unwrap();
        assert_eq!(s.find_all(&enc(b"CA")), vec![3, 5, 8]);
        assert_eq!(s.find_first(&enc(b"AC")), Some(1));
        assert!(!s.contains(&enc(b"ACCAA")));
        assert!(s.contains(&enc(b"ACCA")));
    }

    #[test]
    fn agrees_with_naive() {
        let (_, s, n) = engines(b"ACGGTACGTTACGACCGTAACGT");
        let text = n.text().to_vec();
        let mut pats: Vec<Vec<Code>> = Vec::new();
        for l in 1..=3usize {
            for mut x in 0..(4usize.pow(l as u32)) {
                let mut p = Vec::new();
                for _ in 0..l {
                    p.push((x % 4) as Code);
                    x /= 4;
                }
                pats.push(p);
            }
        }
        for st in 0..text.len() {
            pats.push(text[st..(st + 5).min(text.len())].to_vec());
        }
        for p in pats {
            assert_eq!(s.find_all(&p), n.find_all(&p), "pattern {p:?}");
            assert_eq!(s.find_first(&p), n.find_first(&p), "pattern {p:?}");
        }
    }

    #[test]
    fn range_is_contiguous_prefix_block() {
        let (a, s, _) = engines(b"ACACACAC");
        let r = s.range(&a.encode(b"AC").unwrap());
        assert_eq!(r.len(), 4);
        for i in r {
            let suf = &s.text()[s.sa()[i] as usize..];
            assert!(suf.starts_with(&a.encode(b"AC").unwrap()[..]));
        }
    }

    #[test]
    fn pattern_longer_than_text() {
        let (a, s, _) = engines(b"AC");
        assert!(s.find_all(&a.encode(b"ACGT").unwrap()).is_empty());
    }
}

// ---------------------------------------------------------------------------
// Matching statistics over the array (for the matching experiments).
// ---------------------------------------------------------------------------

use strindex::{MatchingIndex, MatchingStats, MaximalMatch};

impl SaIndex {
    /// Longest prefix of `q` that occurs in the text, by iterative range
    /// narrowing (one binary search per extension character).
    fn longest_prefix_match(&self, q: &[Code]) -> usize {
        let mut len = 0usize;
        while len < q.len() {
            if self.range(&q[..len + 1]).is_empty() {
                break;
            }
            len += 1;
        }
        len
    }
}

impl MatchingIndex for SaIndex {
    /// O(m·L·log n) — fine for the cross-engine tests and the ablation
    /// bench; the paper's point stands that the array lacks the (suffix)
    /// links that make this linear for SPINE and suffix trees.
    fn matching_statistics(&self, query: &[Code]) -> MatchingStats {
        let m = query.len();
        // P[i] = longest prefix of query[i..] occurring in the text.
        let p: Vec<usize> = (0..m).map(|i| self.longest_prefix_match(&query[i..])).collect();
        let mut lengths = vec![0u32; m + 1];
        let mut first_end = vec![0u32; m + 1];
        // ms[e] = max k with P[e-k] ≥ k; grows by at most 1 per step, so a
        // shrinking-candidate sweep is O(m) on top of the P[] table.
        let mut k = 0usize;
        for e in 1..=m {
            k += 1; // candidate carried over from e-1, extended by one
            while k > 0 && p[e - k] < k {
                k -= 1;
            }
            lengths[e] = k as u32;
            first_end[e] = if k > 0 {
                (self.find_first(&query[e - k..e]).expect("match exists") + k) as u32
            } else {
                0
            };
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
mod matching_tests {
    use super::*;
    use strindex::MatchingIndex;
    use suffix_trie::NaiveIndex;

    #[test]
    fn statistics_match_naive() {
        let a = Alphabet::dna();
        let text = a.encode(b"ACACCGACGATACGAGATTACGAGACGAGA").unwrap();
        let idx = SaIndex::build(a.clone(), &text);
        let oracle = NaiveIndex::new(a.clone(), &text);
        for q in [&b"CATAGAGAGACGATTACGAGAAAACGGG"[..], b"TTTT", b"A", b""] {
            let q = a.encode(q).unwrap();
            assert_eq!(idx.matching_statistics(&q), oracle.matching_statistics(&q));
        }
    }

    #[test]
    fn maximal_matches_match_naive() {
        let a = Alphabet::dna();
        let text = a.encode(b"ACACCGACGATACGAGATTACGAGACGAGA").unwrap();
        let idx = SaIndex::build(a.clone(), &text);
        let oracle = NaiveIndex::new(a.clone(), &text);
        let q = a.encode(b"CATAGAGAGACGATTACGAGAAAACGGG").unwrap();
        for t in [1usize, 3, 6] {
            assert_eq!(idx.maximal_matches(&q, t), oracle.maximal_matches(&q, t));
        }
    }
}
