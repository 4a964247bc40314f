//! The preorder index of a sealed segment's link tree (DESIGN.md §16).
//!
//! Links form a tree rooted at [`ROOT`]: every node's link points upstream.
//! Lay the tree out in preorder, each node's link children by ascending
//! LEL, and the ends of a pattern `w` become one contiguous slice. With
//! `f = fo(w)` at position `q`, the children of `f` with LEL below `|w|`
//! come first; skipping each by its subtree end reaches the first accepted
//! child at `p`, and `{f} ∪ order[p..end[q])` are all the ends. Below an
//! accepted child no LEL needs checking: a link child of a non-root node
//! always carries a larger LEL than that node's own link.
//!
//! The index is four `u32` arrays, 16 B per node, built once per sealed
//! segment from its `(link destination, LEL)` pairs and never mutated, so
//! queries read it with no page fetch and no lock. This is Prezza's view
//! of locate in a trie as a preorder range, applied to the link tree.

use crate::node::{NodeId, ROOT};
use strindex::{Error, Result};

/// Preorder layout of a link tree: node ids, subtree ends and LELs by
/// preorder position, plus each node's position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreorderIndex {
    /// Node id at each preorder position; position 0 is the root.
    order: Box<[NodeId]>,
    /// One past the last position of each position's subtree.
    end: Box<[u32]>,
    /// LEL of the link of the node at each position (0 for the root).
    lel: Box<[u32]>,
    /// Preorder position of each node id.
    pre: Box<[u32]>,
}

impl PreorderIndex {
    /// Build from `links[j] = (link destination, LEL)` of node `j`, for
    /// every node `0..links.len()`; the root's entry is ignored. Siblings
    /// run by ascending LEL, ties by ascending id, so the layout depends
    /// only on the links. O(n) plus a sort of each node's children.
    ///
    /// A link that does not point strictly upstream is a corrupt input
    /// and yields [`Error::Parse`].
    pub fn from_links(links: &[(NodeId, u32)]) -> Result<Self> {
        let nodes = links.len().max(1);
        // Children grouped by parent (CSR), each group sorted by (LEL, id).
        let mut start = vec![0u32; nodes + 1];
        for (j, &(dest, _)) in links.iter().enumerate().skip(1) {
            if dest as usize >= j {
                return Err(Error::Parse(format!("node {j} links to {dest}, not upstream")));
            }
            start[dest as usize + 1] += 1;
        }
        for v in 0..nodes {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        let mut kids = vec![0 as NodeId; nodes - 1];
        for (j, &(dest, _)) in links.iter().enumerate().skip(1) {
            kids[fill[dest as usize] as usize] = j as NodeId;
            fill[dest as usize] += 1;
        }
        for v in 0..nodes {
            kids[start[v] as usize..start[v + 1] as usize]
                .sort_unstable_by_key(|&c| (links[c as usize].1, c));
        }
        // Subtree sizes, bottom-up: a link always points to a smaller id.
        let mut size = vec![1u32; nodes];
        for (j, &(dest, _)) in links.iter().enumerate().skip(1).rev() {
            size[dest as usize] += size[j];
        }
        // Positions, top-down: a parent is placed before its children.
        let mut pre = vec![0u32; nodes];
        for v in 0..nodes {
            let mut p = pre[v] + 1;
            for &c in &kids[start[v] as usize..start[v + 1] as usize] {
                pre[c as usize] = p;
                p += size[c as usize];
            }
        }
        let mut order = vec![ROOT; nodes];
        let mut end = vec![0u32; nodes];
        let mut lel = vec![0u32; nodes];
        for v in 0..nodes {
            let p = pre[v] as usize;
            order[p] = v as NodeId;
            end[p] = pre[v] + size[v];
            lel[p] = if v == 0 { 0 } else { links[v].1 };
        }
        Ok(PreorderIndex { order: order.into(), end: end.into(), lel: lel.into(), pre: pre.into() })
    }

    /// Node ids by preorder position.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// One past each position's subtree, by preorder position.
    pub fn ends(&self) -> &[u32] {
        &self.end
    }

    /// Link LELs by preorder position.
    pub fn lels(&self) -> &[u32] {
        &self.lel
    }

    /// Preorder position of every node id.
    pub fn positions(&self) -> &[u32] {
        &self.pre
    }

    /// Heap bytes the four arrays hold: 16 per node.
    pub fn resident_bytes(&self) -> u64 {
        16 * self.order.len() as u64
    }

    /// The ends of the length-`len` string whose first occurrence ends at
    /// `first`, ascending, and the nodes visited to find them: the
    /// rejected children of `first` skipped by their subtree ends, plus
    /// every end after `first`.
    pub fn occurrences(&self, first: NodeId, len: u32) -> (Vec<NodeId>, u64) {
        let q = self.pre[first as usize] as usize;
        let stop = self.end[q] as usize;
        let mut p = q + 1;
        let mut rejected = 0u64;
        while p < stop && self.lel[p] < len {
            p = self.end[p] as usize;
            rejected += 1;
        }
        let mut ends = Vec::with_capacity(1 + stop - p);
        ends.push(first);
        ends.extend_from_slice(&self.order[p..stop]);
        ends.sort_unstable();
        (ends, rejected + (stop - p) as u64)
    }

    /// Check the layout against the `(link destination, LEL)` pairs it
    /// should index (`links[j]` for node `j`, the root's ignored). Returns
    /// one message per violated property:
    /// * every node appears exactly once in `order`, and `pre` inverts it;
    /// * subtree ranges nest, and each node's children tile its range;
    /// * each node's children are exactly its link children, in ascending
    ///   LEL;
    /// * LELs rise below every non-root node.
    pub fn check(&self, links: &[(NodeId, u32)]) -> Vec<String> {
        let n = self.order.len();
        let mut out = Vec::new();
        if links.len().max(1) != n {
            out.push(format!("{n} positions for {} nodes", links.len()));
            return out;
        }
        if self.order[0] != ROOT || self.end[0] as usize != n {
            out.push("position 0 must hold the whole tree under the root".into());
        }
        let mut seen = vec![false; n];
        for (p, &v) in self.order.iter().enumerate() {
            match seen.get_mut(v as usize) {
                Some(s) if !*s => *s = true,
                _ => out.push(format!("node {v} at position {p} is repeated or out of range")),
            }
            if self.pre.get(v as usize) != Some(&(p as u32)) {
                out.push(format!("pre[{v}] does not point back to position {p}"));
            }
        }
        if !out.is_empty() {
            return out; // the checks below index by the ids in `order`
        }
        for p in 0..n {
            let (v, stop) = (self.order[p], self.end[p] as usize);
            if stop <= p || stop > n {
                out.push(format!("node {v}: subtree range {p}..{stop} is empty or too long"));
                continue;
            }
            if v != ROOT && links[v as usize].1 != self.lel[p] {
                out.push(format!(
                    "node {v}: LEL {} but its link says {}",
                    self.lel[p], links[v as usize].1
                ));
            }
            // The children of `v` tile `p + 1..stop` in ascending LEL.
            let mut c = p + 1;
            let mut prev_lel = None;
            while c < stop {
                let (child, child_end) = (self.order[c], self.end[c] as usize);
                if child_end > stop || child_end <= c {
                    out.push(format!("node {child}'s subtree does not nest inside node {v}'s"));
                    break;
                }
                if links[child as usize].0 != v {
                    out.push(format!(
                        "node {child} sits under {v} but links to {}",
                        links[child as usize].0
                    ));
                }
                if prev_lel.is_some_and(|l| self.lel[c] < l) {
                    out.push(format!("child {child} of node {v} breaks ascending LEL order"));
                }
                if v != ROOT && self.lel[c] <= self.lel[p] {
                    out.push(format!(
                        "child {child} LEL {} not above node {v}'s {}",
                        self.lel[c], self.lel[p]
                    ));
                }
                prev_lel = Some(self.lel[c]);
                c = child_end;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Spine;
    use strindex::Alphabet;

    fn links_of(s: &Spine) -> Vec<(NodeId, u32)> {
        s.nodes().iter().map(|n| (n.link, n.lel)).collect()
    }

    #[test]
    fn paper_example_lays_out_and_enumerates() {
        let s = Spine::build_from_bytes(Alphabet::dna(), b"AACCACAACA").unwrap();
        let links = links_of(&s);
        let ix = PreorderIndex::from_links(&links).unwrap();
        assert!(ix.check(&links).is_empty(), "{:?}", ix.check(&links));
        assert_eq!(ix.resident_bytes(), 16 * 11);
        // "AC" first ends at 3; the other ends are 6 and 9 (§4's example).
        assert_eq!(ix.occurrences(3, 2).0, vec![3, 6, 9]);
        // The empty pattern ends everywhere, the whole tree under the root.
        assert_eq!(ix.occurrences(ROOT, 0).0, (0..=10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_node_trees() {
        let ix = PreorderIndex::from_links(&[(ROOT, 0)]).unwrap();
        assert_eq!(ix.occurrences(ROOT, 0), (vec![ROOT], 0));
        let ix = PreorderIndex::from_links(&[]).unwrap();
        assert_eq!(ix.order(), &[ROOT]);
        assert!(ix.check(&[]).is_empty());
    }

    #[test]
    fn downstream_links_are_rejected() {
        let err = PreorderIndex::from_links(&[(ROOT, 0), (ROOT, 0), (2, 1)]).unwrap_err();
        assert!(matches!(err, Error::Parse(_)), "{err:?}");
    }

    #[test]
    fn check_reports_a_doctored_layout() {
        let s = Spine::build_from_bytes(Alphabet::dna(), b"ACGTACGTTACG").unwrap();
        let links = links_of(&s);
        let mut ix = PreorderIndex::from_links(&links).unwrap();
        ix.lel.swap(1, 2);
        assert!(!ix.check(&links).is_empty());
    }
}
