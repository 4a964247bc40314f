//! Node and edge records of the reference (explicit) SPINE representation.
//!
//! The reference representation keeps each node's edges inline in small
//! vectors — transparent and easy to verify, at the cost of per-node heap
//! overhead. The paper's space-optimized Link-Table/Rib-Table layout lives
//! in [`crate::compact`]; both representations are built by the same
//! construction algorithm and compared field-for-field by tests.

use strindex::Code;

/// A backbone node identifier. Node `i` represents the length-`i` prefix of
/// the text; ids double as 1-based end positions of first occurrences.
pub type NodeId = u32;

/// The root node (the empty prefix).
pub const ROOT: NodeId = 0;

/// A rib: a downstream edge recording the first-time extension of a set of
/// early-terminating suffixes by one character.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rib {
    /// Character label (CL).
    pub cl: Code,
    /// Destination node.
    pub dest: NodeId,
    /// Pathlength Threshold: a search path of length `pl` may traverse this
    /// rib iff `pl <= pt`.
    pub pt: u32,
}

/// An extrib (extension rib): extends a rib whose PT is too small. Extribs
/// of one rib form a chain; each element covers path lengths
/// `(previous element's PT, this PT]`. The character is implicit (it is the
/// parent rib's CL).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extrib {
    /// Parent Rib Threshold: the PT of the rib whose chain this extrib
    /// belongs to (identifies the chain when several pass through a node).
    pub prt: u32,
    /// Pathlength Threshold: the longest suffix length this extrib extends.
    pub pt: u32,
    /// Destination node.
    pub dest: NodeId,
}

/// One backbone node.
///
/// The outgoing vertebra is implicit: node `i`'s vertebra points to `i + 1`
/// (the paper's "implicit vertebra edge" optimization, valid because
/// creation order and logical order coincide), and its character label is
/// text symbol `i`, which the layout's one label store holds
/// ([`crate::Spine::recover_text`] reads it back).
///
/// Links form a tree rooted at [`ROOT`] (every link points upstream). Each
/// node heads an intrusive list of its *link children* — the nodes whose
/// link points here — threaded through `first_child` / `next_sibling`, so
/// occurrence enumeration can walk the tree downward instead of scanning
/// the backbone (DESIGN.md §16). Edges are exact-length boxed slices: most
/// nodes hold zero to two of each, and a `Vec` would reserve four. The
/// default node is a fresh tail: linked to the root with LEL 0, no edges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Node {
    /// Destination of the upstream link: the first-occurrence end of this
    /// node's longest early-terminating suffix ([`ROOT`] if none).
    pub link: NodeId,
    /// Longest Early-terminating suffix Length — the link's label.
    pub lel: u32,
    /// Newest node whose link points here, or [`NO_CHILD`].
    pub first_child: NodeId,
    /// Next older node sharing this node's link destination, or
    /// [`NO_CHILD`]. Siblings run in descending id order.
    pub next_sibling: NodeId,
    /// Outgoing ribs (unordered; at most `alphabet.size() - 1` of them,
    /// e.g. ≤ 3 for DNA).
    pub ribs: Box<[Rib]>,
    /// Outgoing extribs. Usually empty or a single element; distinct PRTs
    /// when several chains pass through (see DESIGN.md on chain collisions).
    pub extribs: Box<[Extrib]>,
}

/// End of a link-child list. The root is never a link child, so its id is
/// free to mean "none".
pub const NO_CHILD: NodeId = ROOT;

/// Append `item` to an exact-length boxed slice (one reallocation).
fn push_exact<T>(slot: &mut Box<[T]>, item: T) {
    let mut v = std::mem::take(slot).into_vec();
    v.reserve_exact(1);
    v.push(item);
    *slot = v.into_boxed_slice();
}

impl Node {
    pub(crate) fn push_rib(&mut self, rib: Rib) {
        push_exact(&mut self.ribs, rib);
    }

    pub(crate) fn push_extrib(&mut self, extrib: Extrib) {
        push_exact(&mut self.extribs, extrib);
    }

    /// Find this node's rib for character `c`, if any.
    #[inline]
    pub fn rib(&self, c: Code) -> Option<&Rib> {
        self.ribs.iter().find(|r| r.cl == c)
    }

    /// Find this node's extrib belonging to the chain of a parent rib with
    /// PT `prt`, if any.
    #[inline]
    pub fn extrib(&self, prt: u32) -> Option<&Extrib> {
        self.extribs.iter().find(|e| e.prt == prt)
    }

    /// Number of outgoing downstream edges (ribs + extribs) — the fan-out
    /// counted by Table 4 of the paper.
    pub fn fanout(&self) -> usize {
        self.ribs.len() + self.extribs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rib_lookup_by_character() {
        let mut n = Node::default();
        n.push_rib(Rib { cl: 2, dest: 7, pt: 3 });
        n.push_rib(Rib { cl: 1, dest: 9, pt: 1 });
        assert_eq!(n.rib(1).unwrap().dest, 9);
        assert_eq!(n.rib(2).unwrap().pt, 3);
        assert!(n.rib(0).is_none());
        assert_eq!(n.fanout(), 2);
    }

    #[test]
    fn extrib_lookup_by_prt() {
        let mut n = Node::default();
        n.push_extrib(Extrib { prt: 1, pt: 4, dest: 12 });
        assert_eq!(n.extrib(1).unwrap().pt, 4);
        assert!(n.extrib(2).is_none());
        assert_eq!(n.fanout(), 1);
    }

    #[test]
    fn node_is_48_bytes() {
        // Two boxed-slice headers (32 B) plus four `u32` ids; the label
        // lives in the layout's label store.
        assert_eq!(std::mem::size_of::<Node>(), 48);
    }
}
