//! Ukkonen's online suffix-tree construction with suffix links.
//!
//! Classic linear-time construction (active point + remainder). A unique
//! terminator (the alphabet's separator code) is appended by
//! [`SuffixTree::finish`], turning the implicit tree explicit so that every
//! suffix ends in a leaf; queries require a finished tree.

use strindex::{Alphabet, Code, Counters, Error, OnlineIndex, Result};

/// Node id inside the tree arena. 0 is the root.
pub type StNodeId = u32;

/// The root node.
pub const ST_ROOT: StNodeId = 0;

/// Sentinel for "leaf edge: grows with the text".
const OPEN_END: u32 = u32::MAX;
/// Sentinel for "not a leaf".
const NOT_LEAF: u32 = u32::MAX;

/// One suffix-tree node. The edge *into* the node is `text[start..end)`.
#[derive(Debug, Clone)]
pub struct StNode {
    /// Edge label start (index into the text).
    pub start: u32,
    /// Edge label end (exclusive); `u32::MAX` (open) while the tree is growing.
    pub end: u32,
    /// Suffix link (internal nodes; root for the rest).
    pub slink: StNodeId,
    /// Children as (first edge character, node), unordered, linear-scanned
    /// (alphabets here are ≤ 21 symbols).
    pub children: Vec<(Code, StNodeId)>,
    /// For leaves: the start position of the suffix this leaf represents;
    /// `u32::MAX` otherwise.
    pub suffix_start: u32,
    /// Smallest suffix start in this node's subtree = start offset of the
    /// first occurrence of the node's path string (filled by `finish`).
    pub min_start: u32,
    /// Number of leaves below (= occurrence count; filled by `finish`).
    pub leaf_count: u32,
}

impl StNode {
    fn new(start: u32, end: u32, suffix_start: u32) -> Self {
        StNode {
            start,
            end,
            slink: ST_ROOT,
            children: Vec::new(),
            suffix_start,
            min_start: u32::MAX,
            leaf_count: 0,
        }
    }

    /// Child whose edge begins with `c`.
    #[inline]
    pub fn child(&self, c: Code) -> Option<StNodeId> {
        self.children.iter().find(|&&(cc, _)| cc == c).map(|&(_, n)| n)
    }

    /// Is this node a leaf?
    pub fn is_leaf(&self) -> bool {
        self.suffix_start != NOT_LEAF
    }
}

/// An online suffix tree over one text.
///
/// ```
/// use suffix_tree::SuffixTree;
/// use strindex::{Alphabet, StringIndex};
///
/// let alphabet = Alphabet::dna();
/// let tree = SuffixTree::build_from_bytes(alphabet.clone(), b"AACCACAACA").unwrap();
/// assert_eq!(tree.find_all(&alphabet.encode(b"CA").unwrap()), vec![3, 5, 8]);
/// ```
pub struct SuffixTree {
    alphabet: Alphabet,
    pub(crate) text: Vec<Code>,
    pub(crate) nodes: Vec<StNode>,
    // Ukkonen state.
    active_node: StNodeId,
    active_edge: usize,
    active_len: usize,
    remainder: usize,
    need_sl: StNodeId,
    finished: bool,
    pub(crate) counters: Counters,
}

impl SuffixTree {
    /// An empty tree over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        SuffixTree {
            alphabet,
            text: Vec::new(),
            nodes: vec![StNode::new(0, 0, NOT_LEAF)],
            active_node: ST_ROOT,
            active_edge: 0,
            active_len: 0,
            remainder: 0,
            need_sl: ST_ROOT,
            finished: false,
            counters: Counters::new(),
        }
    }

    /// Build a finished tree from an encoded text.
    pub fn build(alphabet: Alphabet, text: &[Code]) -> Result<Self> {
        let mut t = SuffixTree::new(alphabet);
        t.extend_from(text)?;
        t.finish();
        Ok(t)
    }

    /// Convenience: encode `text` and build.
    pub fn build_from_bytes(alphabet: Alphabet, text: &[u8]) -> Result<Self> {
        let codes = alphabet.encode(text)?;
        Self::build(alphabet, &codes)
    }

    /// Number of indexed characters (terminator excluded).
    pub fn len(&self) -> usize {
        if self.finished {
            self.text.len() - 1
        } else {
            self.text.len()
        }
    }

    /// Is the indexed text empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The tree's alphabet.
    pub fn alphabet_ref(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Total node count (root, internal nodes, leaves). The paper's
    /// observation: may reach ~2n, vs exactly n+1 for SPINE.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Work counters shared with the search/matching paths.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Has [`finish`](Self::finish) been called?
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Edge length of `node` given the current text end.
    #[inline]
    pub(crate) fn edge_len(&self, node: StNodeId) -> usize {
        let n = &self.nodes[node as usize];
        let end = if n.end == OPEN_END { self.text.len() as u32 } else { n.end };
        (end - n.start) as usize
    }

    fn add_slink(&mut self, to: StNodeId) {
        if self.need_sl != ST_ROOT {
            self.nodes[self.need_sl as usize].slink = to;
        }
        self.need_sl = to;
    }

    /// One Ukkonen phase: extend the tree with `text[pos]` (already pushed).
    fn extend(&mut self, pos: usize) {
        let c = self.text[pos];
        self.need_sl = ST_ROOT;
        self.remainder += 1;
        while self.remainder > 0 {
            if self.active_len == 0 {
                self.active_edge = pos;
            }
            let edge_c = self.text[self.active_edge];
            match self.nodes[self.active_node as usize].child(edge_c) {
                None => {
                    // Rule 2: new leaf hangs off the active node.
                    let suffix_start = (pos + 1 - self.remainder) as u32;
                    let leaf = self.push_node(StNode::new(pos as u32, OPEN_END, suffix_start));
                    self.nodes[self.active_node as usize].children.push((edge_c, leaf));
                    let an = self.active_node;
                    self.add_slink(an);
                }
                Some(nxt) => {
                    // Observation 2: walk down if the active point passes the
                    // whole edge.
                    let el = self.edge_len(nxt);
                    if self.active_len >= el {
                        self.active_edge += el;
                        self.active_len -= el;
                        self.active_node = nxt;
                        continue;
                    }
                    // Observation 1: next character already present.
                    if self.text[self.nodes[nxt as usize].start as usize + self.active_len] == c {
                        self.active_len += 1;
                        let an = self.active_node;
                        self.add_slink(an);
                        break;
                    }
                    // Rule 2 with split.
                    let split_start = self.nodes[nxt as usize].start;
                    let split = self.push_node(StNode::new(
                        split_start,
                        split_start + self.active_len as u32,
                        NOT_LEAF,
                    ));
                    let suffix_start = (pos + 1 - self.remainder) as u32;
                    let leaf = self.push_node(StNode::new(pos as u32, OPEN_END, suffix_start));
                    // Rewire: active_node -> split -> {nxt, leaf}.
                    let slot = self.nodes[self.active_node as usize]
                        .children
                        .iter_mut()
                        .find(|(cc, _)| *cc == edge_c)
                        .expect("child must exist");
                    slot.1 = split;
                    self.nodes[nxt as usize].start += self.active_len as u32;
                    let nxt_c = self.text[self.nodes[nxt as usize].start as usize];
                    self.nodes[split as usize].children.push((nxt_c, nxt));
                    self.nodes[split as usize].children.push((c, leaf));
                    self.add_slink(split);
                }
            }
            self.remainder -= 1;
            if self.active_node == ST_ROOT && self.active_len > 0 {
                // Rule 1.
                self.active_len -= 1;
                self.active_edge = pos - self.remainder + 1;
            } else if self.active_node != ST_ROOT {
                // Rule 3.
                self.active_node = self.nodes[self.active_node as usize].slink;
            }
        }
    }

    fn push_node(&mut self, n: StNode) -> StNodeId {
        self.nodes.push(n);
        (self.nodes.len() - 1) as StNodeId
    }

    /// Append the terminator, close all leaf edges, and annotate nodes with
    /// first-occurrence starts and leaf counts. Idempotent.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        let sep = self.alphabet.separator();
        self.text.push(sep);
        let pos = self.text.len() - 1;
        self.extend(pos);
        self.finished = true;
        let end = self.text.len() as u32;
        for n in &mut self.nodes {
            if n.end == OPEN_END {
                n.end = end;
            }
        }
        self.annotate();
    }

    /// Iterative post-order DFS filling `min_start` and `leaf_count`.
    fn annotate(&mut self) {
        let mut stack: Vec<(StNodeId, bool)> = vec![(ST_ROOT, false)];
        while let Some((node, processed)) = stack.pop() {
            if processed {
                let (mut mn, mut lc) = (u32::MAX, 0u32);
                if self.nodes[node as usize].is_leaf() {
                    mn = self.nodes[node as usize].suffix_start;
                    lc = 1;
                }
                // Children were annotated first (post-order).
                let children = self.nodes[node as usize].children.clone();
                for (_, ch) in children {
                    mn = mn.min(self.nodes[ch as usize].min_start);
                    lc += self.nodes[ch as usize].leaf_count;
                }
                let n = &mut self.nodes[node as usize];
                n.min_start = mn;
                n.leaf_count = lc;
            } else {
                stack.push((node, true));
                for &(_, ch) in &self.nodes[node as usize].children {
                    stack.push((ch, false));
                }
            }
        }
    }

    /// Heap bytes of this representation (node arena + child vectors +
    /// text).
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<StNode>()
            + self
                .nodes
                .iter()
                .map(|n| n.children.capacity() * std::mem::size_of::<(Code, StNodeId)>())
                .sum::<usize>()
            + self.text.capacity()
    }

    /// Bytes per indexed character of a reasonable *packed* suffix-tree
    /// layout: per node, edge start/end (8), suffix link (4), one
    /// first-occurrence annotation (4), plus 5 bytes per child edge and the
    /// text itself (2 bits/char for DNA). This is the figure comparable to
    /// the ≈17 B/char the paper quotes for standard implementations (Kurtz's
    /// engineering gets to 12.5; MUMmer sits higher).
    pub fn layout_bytes_per_char(&self) -> f64 {
        let nodes = self.nodes.len() as f64;
        let edges = (self.nodes.len() - 1) as f64;
        let label_bits = self.alphabet.label_bits() as f64;
        let bytes = nodes * 16.0 + edges * 5.0 + self.text.len() as f64 * label_bits / 8.0;
        bytes / self.len().max(1) as f64
    }
}

impl OnlineIndex for SuffixTree {
    fn push(&mut self, code: Code) -> Result<()> {
        if self.finished {
            return Err(Error::NotFinished); // cannot grow a sealed tree
        }
        if (code as usize) >= self.alphabet.size() {
            return Err(Error::InvalidSymbol { byte: code, pos: self.text.len() });
        }
        self.text.push(code);
        let pos = self.text.len() - 1;
        self.extend(pos);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The load harness serves this tree from a worker pool behind a
    /// shared reference; the serving contract is thread-safety plus sorted
    /// occurrence lists (its work counters are atomics, so `&self` queries
    /// may race freely).
    #[test]
    fn upholds_the_serving_contract() {
        use strindex::StringIndex;
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SuffixTree>();
        let a = Alphabet::dna();
        let text = a.encode(b"ACACACACGTACAC").unwrap();
        let t = SuffixTree::build(a.clone(), &text).unwrap();
        let hits = t.find_all(&a.encode(b"AC").unwrap());
        assert!(hits.windows(2).all(|w| w[0] < w[1]), "occurrences must be sorted: {hits:?}");
    }

    #[test]
    fn node_count_small_example() {
        // Suffix tree of "aaccacaaca$": counted by the paper (Figure 2,
        // without terminator) as 13 nodes; with an explicit terminator the
        // count grows by the leaves the terminator makes explicit.
        let t = SuffixTree::build_from_bytes(Alphabet::dna(), b"AACCACAACA").unwrap();
        assert!(t.is_finished());
        assert_eq!(t.len(), 10);
        // n+1 leaves (each suffix incl. lone terminator) plus internals.
        let leaves = t.nodes.iter().filter(|n| n.is_leaf()).count();
        assert_eq!(leaves, 11);
    }

    #[test]
    fn all_suffixes_are_reachable() {
        let a = Alphabet::dna();
        let text = a.encode(b"ACGTACGTAC").unwrap();
        let t = SuffixTree::build(a, &text).unwrap();
        // Walk each suffix from the root; it must end at a leaf with the
        // right suffix_start.
        for s in 0..text.len() {
            let mut node = ST_ROOT;
            let mut i = s;
            while i < text.len() {
                let ch = t.nodes[node as usize].child(text[i]).expect("edge exists");
                let (es, ee) =
                    (t.nodes[ch as usize].start as usize, t.nodes[ch as usize].end as usize);
                for k in es..ee.min(es + text.len() - i) {
                    if t.text[k] != text[i] {
                        panic!("suffix {s} mismatched at text pos {i}");
                    }
                    i += 1;
                    if i == text.len() {
                        break;
                    }
                }
                node = ch;
            }
        }
    }

    #[test]
    fn annotation_counts_leaves() {
        let a = Alphabet::dna();
        let t = SuffixTree::build_from_bytes(a, b"AAAA").unwrap();
        // Root subtree holds all 5 leaves (4 suffixes + terminator).
        assert_eq!(t.nodes[ST_ROOT as usize].leaf_count, 5);
        assert_eq!(t.nodes[ST_ROOT as usize].min_start, 0);
    }

    #[test]
    fn push_after_finish_fails() {
        let a = Alphabet::dna();
        let mut t = SuffixTree::new(a);
        t.push(0).unwrap();
        t.finish();
        assert!(t.push(1).is_err());
    }

    #[test]
    fn online_growth_matches_batch() {
        let a = Alphabet::dna();
        let text = a.encode(b"ACGGTACGTTACG").unwrap();
        let batch = SuffixTree::build(a.clone(), &text).unwrap();
        let mut online = SuffixTree::new(a);
        online.extend_from(&text).unwrap();
        online.finish();
        assert_eq!(batch.node_count(), online.node_count());
        assert_eq!(batch.nodes[0].leaf_count, online.nodes[0].leaf_count);
    }

    #[test]
    fn empty_text_tree() {
        let t = SuffixTree::build(Alphabet::dna(), &[]).unwrap();
        assert_eq!(t.len(), 0);
        // Just root + terminator leaf.
        assert_eq!(t.node_count(), 2);
    }
}
