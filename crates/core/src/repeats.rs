//! Repeat analysis straight off the link structure.
//!
//! SPINE's links make some classic suffix-structure queries answerable with
//! a single pass over the Link Table, no tree traversal at all:
//!
//! * the **longest repeated substring** is the maximum LEL — by definition
//!   LEL(i) is the length of the longest suffix of prefix `i` that occurred
//!   earlier, so the global maximum is exactly the longest string with two
//!   occurrences;
//! * the **occurrence count** of a pattern falls out of the usual backbone
//!   scan;
//! * per-position **repeat lengths** (the longest earlier-occurring suffix
//!   ending at each position) are the LEL column itself — the string-level
//!   analogue of a self-matching statistics vector.

use crate::build::Spine;
use strindex::{Code, Match};

impl Spine {
    /// Number of occurrences of `pattern` in the text (0 if absent).
    pub fn occurrence_count(&self, pattern: &[Code]) -> usize {
        if pattern.is_empty() {
            return 0;
        }
        crate::occurrences::find_all_ends(self, pattern).len()
    }

    /// The longest substring that occurs at least twice, as a [`Match`]
    /// locating its *second* occurrence (the first is at
    /// `link(end)` − len). `None` for texts with no repeated symbol.
    pub fn longest_repeated_substring(&self) -> Option<Match> {
        let (mut best_len, mut best_end) = (0u32, 0u32);
        for (i, n) in (0..).zip(&self.nodes).skip(1) {
            if n.lel > best_len {
                best_len = n.lel;
                best_end = i;
            }
        }
        (best_len > 0)
            .then(|| Match { start: (best_end - best_len) as usize, len: best_len as usize })
    }

    /// For every text position `i` (1-based end), the length of the longest
    /// suffix of the length-`i` prefix that also occurs earlier — i.e. the
    /// LEL column. Positions with value 0 end a substring seen nowhere
    /// before.
    pub fn repeat_lengths(&self) -> Vec<u32> {
        self.nodes[1..].iter().map(|n| n.lel).collect()
    }

    /// Length of the shortest prefix of `suffix_of_interest`… more useful
    /// form: the length of the shortest substring starting at `start` that
    /// occurs nowhere else (a *shortest unique substring* anchored at
    /// `start`), or `None` if even the full suffix repeats elsewhere.
    pub fn shortest_unique_at(&self, start: usize) -> Option<usize> {
        let text = self.recover_text();
        let mut lo = 1usize;
        let mut hi = text.len() - start;
        if self.occurrence_count(&text[start..]) > 1 {
            return None;
        }
        // Occurrence count is monotone non-increasing in the length, so
        // binary search for the first unique length.
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.occurrence_count(&text[start..start + mid]) == 1 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strindex::Alphabet;

    fn build(text: &[u8]) -> (Alphabet, Spine) {
        let a = Alphabet::dna();
        (a.clone(), Spine::build_from_bytes(a, text).unwrap())
    }

    /// Longest repeated substring by brute force.
    fn naive_lrs(text: &[u8]) -> usize {
        let mut best = 0;
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
    }

    #[test]
    fn lrs_on_paper_string() {
        let (_, s) = build(b"AACCACAACA");
        let m = s.longest_repeated_substring().unwrap();
        assert_eq!(m.len, naive_lrs(b"AACCACAACA")); // "ACA" / "CA…", len 3
        assert_eq!(m.len, 3);
        // The reported occurrence really does repeat.
        let text = s.recover_text();
        let w = &text[m.start..m.start + m.len];
        assert!(s.occurrence_count(w) >= 2);
    }

    #[test]
    fn lrs_matches_naive_on_many_strings() {
        for t in [&b"ACGT"[..], b"AAAAAA", b"ACACACAC", b"ACGGTACGGTAC", b"AGGTCCGGATCCGGA", b"A"] {
            let (_, s) = build(t);
            let got = s.longest_repeated_substring().map_or(0, |m| m.len);
            assert_eq!(got, naive_lrs(t), "text {:?}", String::from_utf8_lossy(t));
        }
    }

    #[test]
    fn occurrence_counts() {
        let (a, s) = build(b"AACCACAACA");
        assert_eq!(s.occurrence_count(&a.encode(b"CA").unwrap()), 3);
        assert_eq!(s.occurrence_count(&a.encode(b"AACCACAACA").unwrap()), 1);
        assert_eq!(s.occurrence_count(&a.encode(b"G").unwrap()), 0);
        assert_eq!(s.occurrence_count(&[]), 0);
    }

    #[test]
    fn repeat_lengths_is_the_lel_column() {
        let (_, s) = build(b"AACCACAACA");
        assert_eq!(s.repeat_lengths(), vec![0, 1, 0, 1, 1, 2, 2, 2, 3, 3]);
    }

    #[test]
    fn shortest_unique_substrings() {
        let (_, s) = build(b"AACCACAACA");
        let text = s.recover_text();
        for start in 0..text.len() {
            match s.shortest_unique_at(start) {
                Some(len) => {
                    assert_eq!(s.occurrence_count(&text[start..start + len]), 1);
                    if len > 1 {
                        assert!(s.occurrence_count(&text[start..start + len - 1]) > 1);
                    }
                }
                None => {
                    assert!(s.occurrence_count(&text[start..]) > 1, "suffix at {start}");
                }
            }
        }
    }

    #[test]
    fn no_repeats_in_distinct_symbols() {
        let (_, s) = build(b"ACGT");
        assert!(s.longest_repeated_substring().is_none());
    }
}
