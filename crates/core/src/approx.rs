//! Approximate (k-mismatch) search over SPINE.
//!
//! The paper lists approximate matching among the suffix-tree
//! functionalities SPINE supports "at a structural level" and as a future
//! avenue; this module implements the Hamming-distance variant: find every
//! occurrence of a pattern with at most `k` substitutions.
//!
//! The algorithm is a depth-first enumeration of valid paths: at each node
//! the traversable edges (the vertebra, plus every rib/extrib chain passing
//! its pathlength-threshold test) are tried, spending one unit of mismatch
//! budget whenever the edge's character differs from the pattern's. Because
//! every valid path ends at the *first occurrence* of its spelled string,
//! each surviving leaf of the DFS identifies one distinct approximate match
//! string; its remaining occurrences come from the usual batched
//! enumeration (link-tree walks, or one backbone scan).
//!
//! Written once against [`FallibleSpineOps`], so it runs on every layout;
//! [`find_all_hamming`] returns `Result`, and the inherent wrappers on
//! [`crate::Spine`] and [`crate::CompactSpine`] `expect` it.
//!
//! The cost is O(σ^k · |p|) paths in the worst case — the standard bound for
//! trie-backtracking k-mismatch search — fine for the small `k` used in
//! seed-and-extend alignment.

use crate::node::{NodeId, ROOT};
use crate::occurrences::{try_find_all_ends_batch, Target};
use crate::ops::{FallibleSpineOps, INFALLIBLE_BOUNDARY};
use strindex::{Code, FxHashMap, Result};

/// One approximate occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ApproxMatch {
    /// Start offset in the text.
    pub start: usize,
    /// Number of mismatching positions (≤ the search's `k`).
    pub mismatches: u32,
}

/// Enumerate the traversable edges out of `node` for a path of length `pl`:
/// `(symbol, destination)` pairs, obeying PT/extrib-chain rules.
fn edges_out<S: FallibleSpineOps + ?Sized>(
    s: &S,
    node: NodeId,
    pl: u32,
    alphabet_codes: usize,
) -> Result<Vec<(Code, NodeId)>> {
    let mut out = Vec::new();
    let vert = s.try_vertebra_out(node)?;
    if let Some(vc) = vert {
        out.push((vc, node + 1));
    }
    for c in 0..alphabet_codes as Code {
        if Some(c) == vert {
            continue; // construction never duplicates the vertebra symbol
        }
        let Some((dest, pt)) = s.try_rib_of(node, c)? else {
            continue;
        };
        if pl <= pt {
            out.push((c, dest));
            continue;
        }
        // Extrib chain.
        let prt = pt;
        let mut at = dest;
        while let Some((edest, ept)) = s.try_extrib_of(at, prt)? {
            if ept >= pl {
                out.push((c, edest));
                break;
            }
            at = edest;
        }
    }
    Ok(out)
}

/// Find all occurrences of `pattern` within Hamming distance `k`,
/// sorted by start offset; each start is reported once with its smallest
/// mismatch count.
pub fn find_all_hamming<S: FallibleSpineOps + ?Sized>(
    s: &S,
    alphabet_codes: usize,
    pattern: &[Code],
    k: u32,
) -> Result<Vec<ApproxMatch>> {
    if pattern.is_empty() {
        return Ok(Vec::new());
    }
    // DFS over valid paths, collecting (end node, mismatches) leaves.
    // Distinct leaves spell distinct strings, but prune revisits of the same
    // (depth, node) state with a no-better budget.
    let mut leaves: FxHashMap<NodeId, u32> = FxHashMap::default();
    let mut best: FxHashMap<(usize, NodeId), u32> = FxHashMap::default();
    let mut stack: Vec<(NodeId, usize, u32)> = vec![(ROOT, 0, 0)];
    while let Some((node, depth, miss)) = stack.pop() {
        if depth == pattern.len() {
            let e = leaves.entry(node).or_insert(u32::MAX);
            *e = (*e).min(miss);
            continue;
        }
        match best.entry((depth, node)) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                if *o.get() <= miss {
                    continue;
                }
                o.insert(miss);
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(miss);
            }
        }
        let want = pattern[depth];
        for (c, dest) in edges_out(s, node, depth as u32, alphabet_codes)? {
            let m = miss + (c != want) as u32;
            if m <= k {
                stack.push((dest, depth + 1, m));
            }
        }
    }
    // Expand every distinct matched string to all its occurrences in one
    // batch.
    let targets: Vec<Target> =
        leaves.keys().map(|&first_end| Target { first_end, len: pattern.len() as u32 }).collect();
    let occs = try_find_all_ends_batch(s, &targets)?;
    let mut out: FxHashMap<usize, u32> = FxHashMap::default();
    for t in &targets {
        let miss = leaves[&t.first_end];
        for &end in &occs[t] {
            let start = end as usize - pattern.len();
            let e = out.entry(start).or_insert(u32::MAX);
            *e = (*e).min(miss);
        }
    }
    let mut v: Vec<ApproxMatch> =
        out.into_iter().map(|(start, mismatches)| ApproxMatch { start, mismatches }).collect();
    v.sort();
    Ok(v)
}

impl crate::Spine {
    /// All occurrences of `pattern` within Hamming distance `k`.
    pub fn find_all_hamming(&self, pattern: &[Code], k: u32) -> Vec<ApproxMatch> {
        let codes = self.alphabet_ref().code_space();
        find_all_hamming(self, codes, pattern, k).expect(INFALLIBLE_BOUNDARY)
    }
}

impl crate::CompactSpine {
    /// All occurrences of `pattern` within Hamming distance `k`.
    pub fn find_all_hamming(&self, pattern: &[Code], k: u32) -> Vec<ApproxMatch> {
        use strindex::StringIndex;
        let codes = self.alphabet().code_space();
        find_all_hamming(self, codes, pattern, k).expect(INFALLIBLE_BOUNDARY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CompactSpine, Spine};
    use strindex::Alphabet;

    /// Brute-force k-mismatch scan.
    fn naive(text: &[Code], pattern: &[Code], k: u32) -> Vec<ApproxMatch> {
        if pattern.is_empty() || pattern.len() > text.len() {
            return Vec::new();
        }
        (0..=text.len() - pattern.len())
            .filter_map(|i| {
                let miss =
                    text[i..i + pattern.len()].iter().zip(pattern).filter(|(a, b)| a != b).count()
                        as u32;
                (miss <= k).then_some(ApproxMatch { start: i, mismatches: miss })
            })
            .collect()
    }

    #[test]
    fn exact_is_k0() {
        let a = Alphabet::dna();
        let text = a.encode(b"AACCACAACA").unwrap();
        let s = Spine::build(a.clone(), &text).unwrap();
        let p = a.encode(b"CA").unwrap();
        let hits = s.find_all_hamming(&p, 0);
        assert_eq!(hits, naive(&text, &p, 0));
        assert_eq!(hits.iter().map(|m| m.start).collect::<Vec<_>>(), vec![3, 5, 8]);
    }

    #[test]
    fn one_mismatch_matches_naive() {
        let a = Alphabet::dna();
        let text = a.encode(b"ACGTACGGTACGTTTACGACGACCAACC").unwrap();
        let s = Spine::build(a.clone(), &text).unwrap();
        for p in [&b"ACGT"[..], b"TTT", b"GACGAC", b"CCCC"] {
            let p = a.encode(p).unwrap();
            for k in 0..=2u32 {
                assert_eq!(s.find_all_hamming(&p, k), naive(&text, &p, k), "{p:?} k={k}");
            }
        }
    }

    #[test]
    fn compact_agrees_with_reference() {
        let a = Alphabet::dna();
        let text = a.encode(b"AACCACAACAGGTTACGACGACCA").unwrap();
        let r = Spine::build(a.clone(), &text).unwrap();
        let c = CompactSpine::build(a.clone(), &text).unwrap();
        let p = a.encode(b"ACGAC").unwrap();
        assert_eq!(r.find_all_hamming(&p, 2), c.find_all_hamming(&p, 2));
    }

    #[test]
    fn pattern_longer_than_text() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AC").unwrap();
        assert!(s.find_all_hamming(&a.encode(b"ACGT").unwrap(), 3).is_empty());
    }

    #[test]
    fn budget_widens_hit_set() {
        let a = Alphabet::dna();
        let text = a.encode(b"ACGTAGGTACCTACGT").unwrap();
        let s = Spine::build(a.clone(), &text).unwrap();
        let p = a.encode(b"ACGT").unwrap();
        let k0 = s.find_all_hamming(&p, 0).len();
        let k1 = s.find_all_hamming(&p, 1).len();
        let k2 = s.find_all_hamming(&p, 2).len();
        assert!(k0 <= k1 && k1 <= k2);
        assert_eq!(naive(&text, &p, 2).len(), k2);
    }
}
