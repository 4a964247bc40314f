//! Matching statistics and maximal matching substrings (Section 4).
//!
//! This is the paper's headline workload: given a data string S1 (indexed)
//! and a query string S2, find **all maximal matching substrings, including
//! repetitions, above a length threshold** — the core of genome alignment
//! tools such as MUMmer.
//!
//! The stream algorithm keeps the current match `(node, pl)`: the longest
//! suffix of the consumed query that is a substring of the data, ending at
//! `node` (its first-occurrence end) with length `pl`. On a mismatch it
//! follows the **link chain** upward; each chain node covers the whole set
//! of suffix lengths terminating there, so one edge check per chain node
//! replaces the suffix-by-suffix hops a suffix tree must make through its
//! suffix links (§4.1 — the source of the Table 6 gap, visible through
//! [`strindex::Counters`]).
//!
//! Occurrence expansion is deferred: all right-maximal matches are first
//! collected, then one batch resolves every repetition
//! ([`crate::occurrences::try_find_all_ends_batch`]: a link-tree walk per
//! match on the in-memory and sealed layouts, *one* backbone scan on the
//! compact layout, the mutable disk layout and prefix views).
//!
//! Written once against [`FallibleSpineOps`]: shared by the reference,
//! compact, and disk representations. Both entry points return `Result`,
//! so a device error on a disk index surfaces as `Err`; the
//! `MatchingIndex` impls `expect` at that boundary.

use crate::build::Spine;
use crate::node::{NodeId, ROOT};
use crate::occurrences::{try_find_all_ends_batch, Target};
use crate::ops::{FallibleSpineOps, INFALLIBLE_BOUNDARY};
use strindex::{Code, MatchingIndex, MatchingStats, MaximalMatch, Result};

/// From `node` with current match length `pl`, find the longest `k ≤ pl`
/// such that the length-`k` suffix of the current match extends by `c`.
/// Returns `(destination, k)`; `None` means no suffix *terminating at this
/// node* extends (the caller then shrinks via the link).
fn step_longest<S: FallibleSpineOps + ?Sized>(
    s: &S,
    node: NodeId,
    pl: u32,
    c: Code,
) -> Result<Option<(NodeId, u32)>> {
    s.ops_counters().count_node_check();
    if s.try_vertebra_out(node)? == Some(c) {
        s.ops_counters().count_edge();
        return Ok(Some((node + 1, pl)));
    }
    let Some((rdest, rpt)) = s.try_rib_of(node, c)? else {
        return Ok(None);
    };
    if rpt >= pl {
        s.ops_counters().count_edge();
        return Ok(Some((rdest, pl)));
    }
    // The rib covers only lengths ≤ its PT; scan the extrib chain for
    // coverage of longer suffixes, keeping the best element seen.
    let prt = rpt;
    let (mut best_dest, mut best_pt) = (rdest, rpt);
    let mut at = rdest;
    loop {
        s.ops_counters().count_extrib();
        match s.try_extrib_of(at, prt)? {
            Some((edest, ept)) if ept >= pl => {
                s.ops_counters().count_edge();
                return Ok(Some((edest, pl)));
            }
            Some((edest, ept)) => {
                best_dest = edest;
                best_pt = ept;
                at = edest;
            }
            None => {
                s.ops_counters().count_edge();
                return Ok(Some((best_dest, best_pt)));
            }
        }
    }
}

/// Longest match ending at every query position, streaming the query once
/// over the index.
pub fn matching_statistics<S: FallibleSpineOps + ?Sized>(
    s: &S,
    query: &[Code],
) -> Result<MatchingStats> {
    let m = query.len();
    let mut lengths = vec![0u32; m + 1];
    let mut first_end = vec![0u32; m + 1];
    let mut node = ROOT;
    let mut pl = 0u32;
    for (e, &c) in query.iter().enumerate() {
        loop {
            if let Some((dest, k)) = step_longest(s, node, pl, c)? {
                node = dest;
                pl = k + 1;
                break;
            }
            if node == ROOT {
                pl = 0;
                break;
            }
            // Shrink to the set of shorter suffixes (one hop covers all
            // lengths ≤ LEL at once).
            let (dest, lel) = s.try_link_of(node)?;
            pl = lel;
            node = dest;
            s.ops_counters().count_link();
        }
        lengths[e + 1] = pl;
        first_end[e + 1] = if pl > 0 { node } else { 0 };
    }
    Ok(MatchingStats { lengths, first_end })
}

/// All maximal matching substrings between `query` and the indexed text
/// with length ≥ `min_len`, including every text occurrence.
pub fn maximal_matches<S: FallibleSpineOps + ?Sized>(
    s: &S,
    query: &[Code],
    min_len: usize,
) -> Result<Vec<MaximalMatch>> {
    let stats = matching_statistics(s, query)?;
    let reports = stats.right_maximal(min_len);
    let targets: Vec<Target> = reports
        .iter()
        .map(|&(_, len, first_end)| Target { first_end: first_end as NodeId, len: len as u32 })
        .collect();
    let occurrences = try_find_all_ends_batch(s, &targets)?;
    let mut out = Vec::new();
    for (&(qs, len, _), t) in reports.iter().zip(&targets) {
        for &end in &occurrences[t] {
            out.push(MaximalMatch { query_start: qs, data_start: end as usize - len, len });
        }
    }
    out.sort();
    Ok(out)
}

impl MatchingIndex for Spine {
    fn matching_statistics(&self, query: &[Code]) -> MatchingStats {
        matching_statistics(self, query).expect(INFALLIBLE_BOUNDARY)
    }

    fn maximal_matches(&self, query: &[Code], min_len: usize) -> Vec<MaximalMatch> {
        maximal_matches(self, query, min_len).expect(INFALLIBLE_BOUNDARY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strindex::Alphabet;
    use suffix_trie::NaiveIndex;

    fn engines(data: &[u8]) -> (Alphabet, Spine, NaiveIndex) {
        let a = Alphabet::dna();
        let codes = a.encode(data).unwrap();
        let s = Spine::build(a.clone(), &codes).unwrap();
        let n = NaiveIndex::new(a.clone(), &codes);
        (a, s, n)
    }

    #[test]
    fn stats_match_naive_on_paper_string() {
        let (a, s, n) = engines(b"AACCACAACA");
        for q in [&b"CACA"[..], b"AACCACAACA", b"GATTACA", b"CCCC", b"ACAACAC"] {
            let q = a.encode(q).unwrap();
            assert_eq!(
                MatchingIndex::matching_statistics(&s, &q),
                n.matching_statistics(&q),
                "query {q:?}"
            );
        }
    }

    #[test]
    fn maximal_matches_match_naive() {
        let (a, s, n) = engines(b"ACACCGACGATACGAGATTACGAGACGAGA");
        let q = a.encode(b"CATAGAGAGACGATTACGAGAAAACGGG").unwrap();
        for t in [1usize, 3, 6, 10] {
            assert_eq!(
                MatchingIndex::maximal_matches(&s, &q, t),
                n.maximal_matches(&q, t),
                "threshold {t}"
            );
        }
    }

    #[test]
    fn full_self_match() {
        // Matching the data against itself: the statistics end at the full
        // length and the longest maximal match covers the string.
        let (a, s, _) = engines(b"ACGTGTACC");
        let q = a.encode(b"ACGTGTACC").unwrap();
        let ms = MatchingIndex::matching_statistics(&s, &q);
        assert_eq!(*ms.lengths.last().unwrap(), 9);
        let mm = MatchingIndex::maximal_matches(&s, &q, 9);
        assert_eq!(mm, vec![MaximalMatch { query_start: 0, data_start: 0, len: 9 }]);
    }

    #[test]
    fn no_shared_symbols() {
        let (a, s, _) = engines(b"AAAA");
        let q = a.encode(b"GGGG").unwrap();
        let ms = MatchingIndex::matching_statistics(&s, &q);
        assert!(ms.lengths.iter().all(|&l| l == 0));
        assert!(MatchingIndex::maximal_matches(&s, &q, 1).is_empty());
    }

    #[test]
    fn empty_query() {
        let (_, s, _) = engines(b"ACGT");
        let ms = MatchingIndex::matching_statistics(&s, &[]);
        assert_eq!(ms.lengths, vec![0]);
        assert!(MatchingIndex::maximal_matches(&s, &[], 1).is_empty());
    }

    #[test]
    fn set_based_chasing_checks_fewer_nodes_than_lengths() {
        // A crude upper bound witnessing the §4.1 claim: the number of node
        // checks during matching must stay O(query length), not O(sum of
        // match lengths).
        let (a, s, _) = engines(b"ACGTACGTACGTACGTACGTACGTACGT");
        let q = a.encode(b"ACGTACGTACGTACGTACGTACGTACG").unwrap();
        s.counters().reset();
        MatchingIndex::matching_statistics(&s, &q);
        assert!(s.counters().nodes_checked() <= 3 * q.len() as u64 + 8);
    }
}
