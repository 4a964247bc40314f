//! The abstract SPINE surface shared by all three physical representations.
//!
//! The reference layout ([`crate::Spine`]), the paper's §5 compact layout
//! ([`crate::CompactSpine`]) and the page-resident engine
//! ([`crate::DiskSpine`]) store the same logical structure. [`SpineOps`]
//! exposes that structure — vertebra labels, links, ribs, extrib chains —
//! and the generic algorithms in [`crate::search`], [`crate::occurrences`]
//! and [`crate::matching`] are written once against it.
//!
//! Storage-backed representations can fail mid-traversal (a page read can
//! error), so there is a second, *fallible* surface: [`FallibleSpineOps`]
//! returns `Result` from every structural accessor. The in-memory engines
//! implement it by wrapping their infallible answers in `Ok`;
//! [`crate::DiskSpine`] implements it by propagating real device errors.
//! The core traversals ([`crate::search::try_locate`],
//! [`crate::occurrences::try_find_all_ends`]) are written once against the
//! fallible surface, and the infallible entry points delegate through the
//! [`Infallible`] adapter.
//!
//! Both surfaces share one optional accessor, `link_tree`, and occurrence
//! enumeration walks whatever it returns instead of scanning the backbone
//! ([`LinkTree`]): the child lists of the in-memory [`crate::Spine`] and
//! [`crate::GeneralizedSpine`], or the preorder index every sealed
//! [`crate::DiskSpine`] keeps in RAM.

use crate::node::{Node, NodeId};
use crate::preorder::PreorderIndex;
use strindex::{Code, Counters, PackedText, Result};

/// A link tree occurrence enumeration can walk ([`SpineOps::link_tree`]).
/// The structure's type picks the walk: online APPEND needs O(1) child-list
/// pushes, and a sealed segment is frozen, so it can afford a preorder
/// layout whose answer is one contiguous slice (DESIGN.md §16).
#[derive(Debug, Clone, Copy)]
pub enum LinkTree<'a> {
    /// All nodes, root first, with their link-child lists
    /// ([`Node::first_child`], [`Node::next_sibling`]).
    Lists(&'a [Node]),
    /// A sealed segment's preorder index.
    Preorder(&'a PreorderIndex),
}

/// Read access to a SPINE structure. Node ids are `0..=text_len()`, with 0
/// the root.
pub trait SpineOps {
    /// Number of indexed characters.
    fn text_len(&self) -> usize;

    /// Character label of the vertebra leaving `node` (text character
    /// `node + 1`), or `None` at the tail.
    fn vertebra_out(&self, node: NodeId) -> Option<Code>;

    /// `(destination, LEL)` of `node`'s upstream link. Undefined for the
    /// root (implementations may return `(0, 0)`).
    fn link_of(&self, node: NodeId) -> (NodeId, u32);

    /// `(destination, PT)` of `node`'s rib labeled `c`, if any.
    fn rib_of(&self, node: NodeId, c: Code) -> Option<(NodeId, u32)>;

    /// `(destination, PT)` of `node`'s extrib belonging to the chain with
    /// parent-rib threshold `prt`, if any.
    fn extrib_of(&self, node: NodeId, prt: u32) -> Option<(NodeId, u32)>;

    /// Work counters (see [`strindex::Counters`]).
    fn ops_counters(&self) -> &Counters;

    /// Bits per symbol of this representation's word-packed backbone
    /// labels, or `None` when only character-at-a-time comparison is
    /// available (byte alphabets, or a packing disabled by a separator
    /// code). `Some(bits)` promises [`label_run`](Self::label_run) compares
    /// word-at-a-time against a pattern packed at the same width.
    fn backbone_packing(&self) -> Option<u32> {
        None
    }

    /// Length of the common run of `pattern[from..]` and the backbone
    /// labels leaving `node` (the text suffix starting at position `node`).
    /// The default walks vertebras one character at a time; packed
    /// representations override it with a word-at-a-time compare. Does not
    /// touch the work counters — the search loop accounts for the run in
    /// bulk so totals match the scalar path exactly.
    fn label_run(&self, node: NodeId, pattern: &PackedText, from: usize) -> usize {
        let mut k = 0;
        while from + k < pattern.len() {
            match self.vertebra_out(node + k as NodeId) {
                Some(c) if c == pattern.get(from + k) => k += 1,
                _ => break,
            }
        }
        k
    }

    /// The link tree, when this structure keeps one in memory: child
    /// lists or a preorder index. Occurrence enumeration then walks it in
    /// O(occ + σ·|w|) ([`crate::occurrences`]); `None`, the default, keeps
    /// the §4 backbone scan.
    fn link_tree(&self) -> Option<LinkTree<'_>> {
        None
    }
}

/// Fallible read access to a SPINE structure: every structural accessor can
/// report a storage error instead of an answer.
///
/// This is the surface the concurrent query engine and the fault-tolerant
/// traversals are written against. In-memory representations cannot fail
/// and implement it with `Ok(...)` wrappers; [`crate::DiskSpine`] surfaces
/// buffer-pool/device errors so an injected storage fault degrades a query
/// to a clean `Err` (and, at the engine level, a `Failed` outcome) instead
/// of a panic.
pub trait FallibleSpineOps {
    /// Number of indexed characters (metadata; never touches storage).
    fn text_len(&self) -> usize;

    /// Fallible [`SpineOps::vertebra_out`].
    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>>;

    /// Fallible [`SpineOps::link_of`].
    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)>;

    /// Fallible [`SpineOps::rib_of`].
    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>>;

    /// Fallible [`SpineOps::extrib_of`].
    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>>;

    /// Work counters (see [`strindex::Counters`]).
    fn ops_counters(&self) -> &Counters;

    /// Cumulative `(hits, misses)` of the backing page cache, when this
    /// representation is page-resident; `None` for in-memory structures.
    /// The traced traversals sample this around each step to attribute
    /// buffer-pool traffic to individual traversal decisions
    /// ([`crate::trace::TraceEvent::PageFetches`]) — and only when a
    /// recording sink is attached, so the untraced paths never pay for it.
    fn storage_counters(&self) -> Option<(u64, u64)> {
        None
    }

    /// Fallible [`SpineOps::backbone_packing`] counterpart (metadata; never
    /// touches storage).
    fn backbone_packing(&self) -> Option<u32> {
        None
    }

    /// Fallible [`SpineOps::label_run`]: page-resident representations read
    /// label pages through the buffer pool, so the compare can fail.
    fn try_label_run(&self, node: NodeId, pattern: &PackedText, from: usize) -> Result<usize> {
        let mut k = 0;
        while from + k < pattern.len() {
            match self.try_vertebra_out(node + k as NodeId)? {
                Some(c) if c == pattern.get(from + k) => k += 1,
                _ => break,
            }
        }
        Ok(k)
    }

    /// The traversal is about to scan the backbone sequentially from node
    /// `from` to the tail (the occurrence scan of §4). The mutable
    /// page-resident layout switches its buffer pool into scan mode here
    /// (scan-resistant eviction); in-memory structures ignore it, and
    /// structures with a [`link_tree`](Self::link_tree) never scan.
    /// Purely advisory: never fails, never changes answers.
    fn scan_begin(&self, _from: NodeId) {}

    /// The sequential scan announced by [`scan_begin`](Self::scan_begin)
    /// ended (including by error — callers pair the two with a guard).
    fn scan_end(&self) {}

    /// [`SpineOps::link_tree`] counterpart: an in-memory link tree, or
    /// `None` (the default) to enumerate with the §4 scan.
    fn link_tree(&self) -> Option<LinkTree<'_>> {
        None
    }
}

/// Adapter viewing any infallible [`SpineOps`] as a [`FallibleSpineOps`]
/// that never errors. Lets the fallible traversals serve as the single
/// implementation of the core algorithms.
pub struct Infallible<'a, S: ?Sized>(pub &'a S);

impl<S: SpineOps + ?Sized> FallibleSpineOps for Infallible<'_, S> {
    #[inline]
    fn text_len(&self) -> usize {
        self.0.text_len()
    }

    #[inline]
    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        Ok(self.0.vertebra_out(node))
    }

    #[inline]
    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        Ok(self.0.link_of(node))
    }

    #[inline]
    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        Ok(self.0.rib_of(node, c))
    }

    #[inline]
    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        Ok(self.0.extrib_of(node, prt))
    }

    #[inline]
    fn ops_counters(&self) -> &Counters {
        self.0.ops_counters()
    }

    #[inline]
    fn backbone_packing(&self) -> Option<u32> {
        self.0.backbone_packing()
    }

    #[inline]
    fn try_label_run(&self, node: NodeId, pattern: &PackedText, from: usize) -> Result<usize> {
        Ok(self.0.label_run(node, pattern, from))
    }

    #[inline]
    fn link_tree(&self) -> Option<LinkTree<'_>> {
        self.0.link_tree()
    }
}

/// Implements [`FallibleSpineOps`] for in-memory representations whose
/// [`SpineOps`] accessors cannot fail.
macro_rules! fallible_from_spine_ops {
    ($($t:ty),* $(,)?) => {$(
        impl FallibleSpineOps for $t {
            #[inline]
            fn text_len(&self) -> usize {
                SpineOps::text_len(self)
            }

            #[inline]
            fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
                Ok(SpineOps::vertebra_out(self, node))
            }

            #[inline]
            fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
                Ok(SpineOps::link_of(self, node))
            }

            #[inline]
            fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
                Ok(SpineOps::rib_of(self, node, c))
            }

            #[inline]
            fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
                Ok(SpineOps::extrib_of(self, node, prt))
            }

            #[inline]
            fn ops_counters(&self) -> &Counters {
                SpineOps::ops_counters(self)
            }

            #[inline]
            fn backbone_packing(&self) -> Option<u32> {
                SpineOps::backbone_packing(self)
            }

            #[inline]
            fn try_label_run(
                &self,
                node: NodeId,
                pattern: &PackedText,
                from: usize,
            ) -> Result<usize> {
                Ok(SpineOps::label_run(self, node, pattern, from))
            }

            #[inline]
            fn link_tree(&self) -> Option<LinkTree<'_>> {
                SpineOps::link_tree(self)
            }
        }
    )*};
}

fallible_from_spine_ops!(
    crate::build::Spine,
    crate::compact::CompactSpine,
    crate::generalized::GeneralizedSpine,
);
