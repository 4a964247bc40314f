//! Exact-match queries over the suffix tree.

use crate::tree::{StNodeId, SuffixTree, ST_ROOT};
use strindex::{Alphabet, Code, StringIndex};

/// A position in the tree: either exactly at `node` (`off == 0`) or `off`
/// characters down the edge into `below`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TreePos {
    pub node: StNodeId,
    pub below: StNodeId,
    pub off: usize,
}

impl TreePos {
    pub(crate) const ROOT: TreePos = TreePos { node: ST_ROOT, below: ST_ROOT, off: 0 };

    /// The root of the subtree containing everything that extends the
    /// matched string.
    pub(crate) fn locus(&self) -> StNodeId {
        if self.off == 0 {
            self.node
        } else {
            self.below
        }
    }
}

impl SuffixTree {
    /// Advance `pos` by one character; `None` on mismatch.
    pub(crate) fn step(&self, pos: TreePos, c: Code) -> Option<TreePos> {
        self.counters.count_node_check();
        if pos.off == 0 {
            let child = self.nodes[pos.node as usize].child(c)?;
            self.counters.count_edge();
            let mut p = TreePos { node: pos.node, below: child, off: 1 };
            if self.edge_len(child) == 1 {
                p = TreePos { node: child, below: child, off: 0 };
            }
            Some(p)
        } else {
            let n = &self.nodes[pos.below as usize];
            if self.text[n.start as usize + pos.off] != c {
                return None;
            }
            self.counters.count_edge();
            let mut p = TreePos { node: pos.node, below: pos.below, off: pos.off + 1 };
            if p.off == self.edge_len(pos.below) {
                p = TreePos { node: pos.below, below: pos.below, off: 0 };
            }
            Some(p)
        }
    }

    /// Walk `pattern` from the root; `None` if it is not a substring.
    pub(crate) fn walk(&self, pattern: &[Code]) -> Option<TreePos> {
        let mut pos = TreePos::ROOT;
        for &c in pattern {
            pos = self.step(pos, c)?;
        }
        Some(pos)
    }

    /// Leaf suffix starts under `node`, unsorted.
    fn leaves_under(&self, node: StNodeId) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.nodes[node as usize].leaf_count as usize);
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            let nd = &self.nodes[n as usize];
            if nd.is_leaf() {
                out.push(nd.suffix_start as usize);
            }
            stack.extend(nd.children.iter().map(|&(_, ch)| ch));
        }
        out
    }
}

impl StringIndex for SuffixTree {
    fn alphabet(&self) -> &Alphabet {
        self.alphabet_ref()
    }

    fn text_len(&self) -> usize {
        self.len()
    }

    fn symbol_at(&self, pos: usize) -> Code {
        self.text[pos]
    }

    fn find_first(&self, pattern: &[Code]) -> Option<usize> {
        assert!(self.is_finished(), "finish() the tree before querying");
        let pos = self.walk(pattern)?;
        Some(self.nodes[pos.locus() as usize].min_start as usize)
    }

    fn find_all(&self, pattern: &[Code]) -> Vec<usize> {
        assert!(self.is_finished(), "finish() the tree before querying");
        if pattern.is_empty() {
            return (0..=self.len()).collect();
        }
        let Some(pos) = self.walk(pattern) else {
            return Vec::new();
        };
        let mut starts = self.leaves_under(pos.locus());
        starts.sort_unstable();
        starts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use suffix_trie::NaiveIndex;

    fn engines(text: &[u8]) -> (Alphabet, SuffixTree, NaiveIndex) {
        let a = Alphabet::dna();
        let codes = a.encode(text).unwrap();
        (a.clone(), SuffixTree::build(a.clone(), &codes).unwrap(), NaiveIndex::new(a, &codes))
    }

    #[test]
    fn paper_string_queries() {
        let (a, t, _) = engines(b"AACCACAACA");
        let enc = |p: &[u8]| a.encode(p).unwrap();
        assert_eq!(t.find_first(&enc(b"CA")), Some(3));
        assert_eq!(t.find_all(&enc(b"CA")), vec![3, 5, 8]);
        assert_eq!(t.find_all(&enc(b"AC")), vec![1, 4, 7]);
        assert!(!t.contains(&enc(b"ACCAA")));
        assert!(t.contains(&enc(b"ACCA")));
        assert_eq!(t.find_first(&enc(b"G")), None);
    }

    #[test]
    fn agrees_with_naive_exhaustively() {
        let (_, t, n) = engines(b"ACGGTACGTTACGACCGTA");
        // All patterns up to length 3 plus all windows.
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
        let text = n.text().to_vec();
        for s in 0..text.len() {
            pats.push(text[s..(s + 6).min(text.len())].to_vec());
        }
        for p in pats {
            assert_eq!(t.find_all(&p), n.find_all(&p), "pattern {p:?}");
            assert_eq!(t.find_first(&p), n.find_first(&p), "pattern {p:?}");
        }
    }

    #[test]
    fn overlapping_matches() {
        let (a, t, _) = engines(b"AAAAAA");
        assert_eq!(t.find_all(&a.encode(b"AAA").unwrap()), vec![0, 1, 2, 3]);
    }

    #[test]
    fn full_text_match() {
        let (a, t, _) = engines(b"ACGT");
        assert_eq!(t.find_all(&a.encode(b"ACGT").unwrap()), vec![0]);
    }
}
