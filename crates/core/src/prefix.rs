//! Prefix partitioning (Section 2.7).
//!
//! SPINE grows only at the tail and never mutates the labels of existing
//! nodes; every rib/extrib created while appending character `t` points *to*
//! node `t`. Hence the index of a length-`k` prefix of the text is literally
//! the initial fragment of the index: nodes `0..=k` plus exactly those
//! ribs/extribs whose destination is ≤ `k`. (Suffix trees cannot be
//! partitioned this way: a node high in the tree may be created arbitrarily
//! late.)
//!
//! [`PrefixView`] is a zero-copy view implementing that filter over any
//! representation, and answers through the one [`FallibleSpineOps`]
//! search, so a disk index's prefix reports device errors like the index
//! itself. The crate's tests verify it is *structurally identical* to an
//! index freshly built on the prefix.

use crate::build::Spine;
use crate::node::NodeId;
use crate::ops::FallibleSpineOps;
use strindex::{Alphabet, Code, Counters, Result, StringIndex};

impl Spine {
    /// View this index as the index of its length-`len` prefix (see
    /// [`PrefixView`]).
    ///
    /// # Panics
    /// Panics if `len > self.len()`.
    pub fn prefix(&self, len: usize) -> PrefixView<'_, Spine> {
        PrefixView::new(self, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::ROOT;

    #[test]
    fn fragment_is_structurally_a_fresh_build() {
        let a = Alphabet::dna();
        let full_text = a.encode(b"AACCACAACAGGTTACGACGACCA").unwrap();
        let full = Spine::build(a.clone(), &full_text).unwrap();
        for k in 0..=full_text.len() {
            let fresh = Spine::build(a.clone(), &full_text[..k]).unwrap();
            let view = full.prefix(k);
            for node in 0..=k as NodeId {
                let at = |s: &dyn FallibleSpineOps| {
                    let vertebra = s.try_vertebra_out(node).unwrap();
                    let link = (node != ROOT).then(|| s.try_link_of(node).unwrap());
                    (vertebra, link)
                };
                assert_eq!(at(&view), at(&fresh), "vertebra and link at node {node}, prefix {k}");
                for c in 0..a.code_space() as Code {
                    let (got, want) = (view.try_rib_of(node, c), fresh.try_rib_of(node, c));
                    assert_eq!(got.unwrap(), want.unwrap(), "rib {c} at node {node}, prefix {k}");
                }
                // Every chain of the full index's node, so the view's
                // filter must drop exactly the chains the prefix lacks.
                for prt in full.nodes()[node as usize].extribs.iter().map(|e| e.prt) {
                    let (got, want) =
                        (view.try_extrib_of(node, prt), fresh.try_extrib_of(node, prt));
                    assert_eq!(got.unwrap(), want.unwrap(), "chain {prt} at {node}, prefix {k}");
                }
            }
        }
    }

    #[test]
    fn prefix_view_answers_prefix_queries() {
        let a = Alphabet::dna();
        let text = a.encode(b"AACCACAACA").unwrap();
        let s = Spine::build(a.clone(), &text).unwrap();
        let p = s.prefix(5); // "AACCA"
        let ca = a.encode(b"CA").unwrap();
        assert_eq!(p.find_all(&ca), vec![3]); // only the first CA is inside
        assert_eq!(s.find_all(&ca), vec![3, 5, 8]);
        // "ACAA" exists in the full text but not in the prefix.
        let acaa = a.encode(b"ACAA").unwrap();
        assert!(s.contains(&acaa));
        assert!(!p.contains(&acaa));
    }

    #[test]
    fn zero_prefix() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"ACGT").unwrap();
        let p = s.prefix(0);
        assert!(p.is_empty());
        assert!(!p.contains(&a.encode(b"A").unwrap()));
    }

    #[test]
    #[should_panic(expected = "prefix longer")]
    fn prefix_beyond_len_panics() {
        let s = Spine::build_from_bytes(Alphabet::dna(), b"AC").unwrap();
        let _ = s.prefix(3);
    }
}

// ---------------------------------------------------------------------------
// Generic prefix views: the partitioning property holds for every backend.
// ---------------------------------------------------------------------------

/// A prefix view over *any* SPINE representation ([`FallibleSpineOps`]):
/// the §2.7 partitioning property is purely structural — every rib/extrib
/// created while appending character `t` points to node `t`, so
/// restricting to destinations ≤ `len` yields exactly the index of the
/// length-`len` prefix. Works over the reference, compact, and disk
/// layouts alike; the view keeps no link tree, so it enumerates with the
/// §4 scan, and it forwards the inner structure's storage errors. Over an
/// inner [`StringIndex`] it is one too, answering for the prefix.
pub struct PrefixView<'a, S: FallibleSpineOps + ?Sized> {
    inner: &'a S,
    len: NodeId,
}

impl<'a, S: FallibleSpineOps + ?Sized> PrefixView<'a, S> {
    /// View `inner` as the index of its length-`len` prefix.
    ///
    /// # Panics
    /// Panics if `len` exceeds the indexed length.
    pub fn new(inner: &'a S, len: usize) -> Self {
        assert!(len <= inner.text_len(), "prefix longer than the indexed text");
        PrefixView { inner, len: len as NodeId }
    }

    /// Length of the viewed prefix.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Is the viewed prefix empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Walk the valid path for `pattern` within the fragment.
    pub fn locate(&self, pattern: &[Code]) -> Option<NodeId> {
        crate::search::locate(self, pattern)
    }
}

impl<S: FallibleSpineOps + StringIndex + ?Sized> StringIndex for PrefixView<'_, S> {
    fn alphabet(&self) -> &Alphabet {
        self.inner.alphabet()
    }

    fn text_len(&self) -> usize {
        self.len as usize
    }

    fn symbol_at(&self, pos: usize) -> Code {
        assert!(pos < self.len as usize, "position past the prefix");
        self.inner.symbol_at(pos)
    }

    fn find_first(&self, pattern: &[Code]) -> Option<usize> {
        self.locate(pattern).map(|end| end as usize - pattern.len())
    }

    fn find_all(&self, pattern: &[Code]) -> Vec<usize> {
        let ends = crate::occurrences::find_all_ends(self, pattern);
        ends.into_iter().map(|end| end as usize - pattern.len()).collect()
    }
}

impl<S: FallibleSpineOps + ?Sized> FallibleSpineOps for PrefixView<'_, S> {
    fn text_len(&self) -> usize {
        self.len as usize
    }

    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        if node < self.len {
            self.inner.try_vertebra_out(node)
        } else {
            Ok(None)
        }
    }

    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        // Links always point upstream: valid in any prefix containing node.
        self.inner.try_link_of(node)
    }

    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        Ok(self.inner.try_rib_of(node, c)?.filter(|&(dest, _)| dest <= self.len))
    }

    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        // Chain destinations are creation times and increase along the
        // chain, so this filter truncates the chain to a proper prefix.
        Ok(self.inner.try_extrib_of(node, prt)?.filter(|&(dest, _)| dest <= self.len))
    }

    fn ops_counters(&self) -> &Counters {
        self.inner.ops_counters()
    }
}

impl crate::CompactSpine {
    /// View this compact index as the index of its length-`len` prefix
    /// (see [`PrefixView`]).
    pub fn prefix(&self, len: usize) -> PrefixView<'_, crate::CompactSpine> {
        PrefixView::new(self, len)
    }
}

#[cfg(test)]
mod view_tests {
    use super::*;
    use crate::CompactSpine;

    #[test]
    fn compact_prefix_equals_fresh_compact_build() {
        let a = Alphabet::dna();
        let text = a.encode(b"AACCACAACAGGTTACGACGACCA").unwrap();
        let full = CompactSpine::build(a.clone(), &text).unwrap();
        for k in [0usize, 1, 5, 10, 17, 24] {
            let fresh = CompactSpine::build(a.clone(), &text[..k]).unwrap();
            let view = full.prefix(k);
            for len in 1..=4usize {
                for bits in 0..(1u32 << (2 * len)) {
                    let p: Vec<Code> = (0..len).map(|i| ((bits >> (2 * i)) & 3) as Code).collect();
                    assert_eq!(view.find_all(&p), fresh.find_all(&p), "pattern {p:?}, prefix {k}");
                }
            }
        }
    }

    #[test]
    fn disk_prefix_answers_prefix_queries() {
        use pagestore::{Lru, MemDevice};
        let a = Alphabet::dna();
        let text = a.encode(b"AACCACAACA").unwrap();
        let disk = crate::DiskSpine::build(
            a.clone(),
            &text,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        let sealed = crate::SealedSpine::build_sealed(
            a.clone(),
            &text,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        let views: [&dyn StringIndex; 2] = [&disk.prefix(5), &sealed.prefix(5)];
        for view in views {
            assert_eq!(view.find_all(&a.encode(b"CA").unwrap()), vec![3]);
            assert!(!view.contains(&a.encode(b"ACAA").unwrap()));
        }
    }

    #[test]
    #[should_panic(expected = "prefix longer")]
    fn view_beyond_len_panics() {
        let c = CompactSpine::build_from_bytes(Alphabet::dna(), b"AC").unwrap();
        let _ = c.prefix(3);
    }
}
