//! Behavioural contracts implemented by every index engine in the workspace.
//!
//! The experiments (and the cross-engine equivalence tests) are written
//! against these traits, so SPINE, the suffix tree, the suffix array, and the
//! naive trie oracle are interchangeable.

use crate::alphabet::{Alphabet, Code};
use crate::error::Result;

/// One exact occurrence of a pattern in the indexed text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Match {
    /// Start offset of the occurrence in the indexed text (0-based).
    pub start: usize,
    /// Pattern length.
    pub len: usize,
}

/// One maximal matching substring between a query string and the indexed
/// text (the paper's Section 4 "complex matching operation", used for the
/// Table 5/6/7 experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MaximalMatch {
    /// Start offset in the query (0-based).
    pub query_start: usize,
    /// Start offset of this occurrence in the indexed text (0-based).
    pub data_start: usize,
    /// Match length (≥ the caller's threshold).
    pub len: usize,
}

/// Matching statistics of a query against the indexed text.
///
/// For each query position `e` (0-based, exclusive end), `lengths[e]` is the
/// length of the longest suffix of `query[..e]` that occurs in the text, and
/// `first_end[e]` is the (0-based, exclusive) end offset of the *first*
/// occurrence of that suffix in the text (0 when `lengths[e] == 0`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MatchingStats {
    /// `lengths[e]`: longest match ending at query offset `e` (entry 0 is
    /// always 0, for the empty prefix).
    pub lengths: Vec<u32>,
    /// `first_end[e]`: end offset of the first text occurrence of that match.
    pub first_end: Vec<u32>,
}

impl MatchingStats {
    /// Enumerate right-maximal matches of length ≥ `min_len`.
    ///
    /// A match ending at query offset `e` is *right-maximal* when it cannot
    /// be extended by the next query character (`lengths[e+1] < lengths[e]+1`)
    /// or the query ends at `e`. This is exactly the point at which the
    /// paper's search procedure "reports the length matched till now".
    ///
    /// Returns `(query_start, len, first_text_end)` triples in query order.
    pub fn right_maximal(&self, min_len: usize) -> Vec<(usize, usize, usize)> {
        let m = self.lengths.len();
        let mut out = Vec::new();
        for e in 1..m {
            let len = self.lengths[e] as usize;
            if len < min_len.max(1) {
                continue;
            }
            let extends = e + 1 < m && self.lengths[e + 1] as usize == len + 1;
            if !extends {
                out.push((e - len, len, self.first_end[e] as usize));
            }
        }
        out
    }
}

/// Read-only exact-match queries over one indexed text.
pub trait StringIndex {
    /// The alphabet the text was encoded with.
    fn alphabet(&self) -> &Alphabet;

    /// Length of the indexed text, in symbols.
    fn text_len(&self) -> usize;

    /// The symbol at text position `pos` (0-based). Engines that do not
    /// retain the text (SPINE recovers it from vertebra labels) still answer
    /// this in O(1).
    fn symbol_at(&self, pos: usize) -> Code;

    /// Does `pattern` (already encoded) occur in the text? The empty
    /// pattern always does.
    fn contains(&self, pattern: &[Code]) -> bool {
        self.find_first(pattern).is_some()
    }

    /// Start offset of the first (leftmost) occurrence of `pattern`
    /// (`Some(0)` for the empty pattern).
    fn find_first(&self, pattern: &[Code]) -> Option<usize>;

    /// All occurrence start offsets of `pattern`, sorted ascending.
    ///
    /// The empty pattern occurs at every offset: a text of length `n`
    /// answers `0..=n`, the empty text `[0]`. Every engine in the
    /// workspace gives this answer.
    fn find_all(&self, pattern: &[Code]) -> Vec<usize>;
}

/// Cross-string matching operations (the paper's alignment workload).
pub trait MatchingIndex: StringIndex {
    /// Compute matching statistics of `query` against the indexed text.
    fn matching_statistics(&self, query: &[Code]) -> MatchingStats;

    /// All maximal matching substrings between `query` and the text with
    /// length ≥ `min_len`, *including repetitions* (every text occurrence of
    /// each right-maximal match), as in the paper's Section 4 operation.
    ///
    /// The default implementation combines [`matching_statistics`] with
    /// [`StringIndex::find_all`]-style occurrence expansion; engines override
    /// it with their native batched scans.
    ///
    /// [`matching_statistics`]: MatchingIndex::matching_statistics
    fn maximal_matches(&self, query: &[Code], min_len: usize) -> Vec<MaximalMatch>;
}

/// Engines that support the paper's *online* construction: the index for a
/// prefix of the input is always a valid index.
pub trait OnlineIndex {
    /// Append one symbol to the indexed text.
    fn push(&mut self, code: Code) -> Result<()>;

    /// Append many symbols.
    fn extend_from(&mut self, codes: &[Code]) -> Result<()> {
        for &c in codes {
            self.push(c)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn right_maximal_reports_mismatch_points() {
        // query len 6; matches: lengths grow 1,2,3 then reset to 1,2,3.
        let ms = MatchingStats {
            lengths: vec![0, 1, 2, 3, 1, 2, 3],
            first_end: vec![0, 5, 6, 7, 2, 3, 4],
        };
        let reps = ms.right_maximal(2);
        // Match of length 3 ends at e=3 (start 0), and length 3 at e=6 (start 3).
        assert_eq!(reps, vec![(0, 3, 7), (3, 3, 4)]);
        // With a higher threshold nothing shorter is reported.
        assert_eq!(ms.right_maximal(4), vec![]);
    }

    #[test]
    fn right_maximal_ignores_zero_lengths() {
        let ms = MatchingStats { lengths: vec![0, 0, 0], first_end: vec![0, 0, 0] };
        assert!(ms.right_maximal(0).is_empty());
    }

    #[test]
    fn match_ordering_is_by_position() {
        let a = Match { start: 1, len: 5 };
        let b = Match { start: 2, len: 1 };
        assert!(a < b);
    }
}
