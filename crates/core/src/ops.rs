//! The one abstract SPINE surface, shared by every physical representation.
//!
//! The reference layout ([`crate::Spine`]), the paper's §5 compact layout
//! ([`crate::CompactSpine`]) and the page-resident layouts
//! ([`crate::disk::PagedSpine`]) store the same logical structure.
//! [`FallibleSpineOps`] exposes that structure — vertebra labels, links,
//! ribs, extrib chains — and APPEND ([`crate::build`]), search
//! ([`crate::search`]), occurrence enumeration ([`crate::occurrences`]),
//! matching ([`crate::matching`]) and approximate search
//! ([`crate::approx`]) are written once against it.
//!
//! Every accessor returns `Result`, because a page-resident representation
//! can fail mid-traversal (a page read can error). The in-memory
//! representations answer `Ok(..)`, which the optimizer erases; the
//! page-resident ones propagate real device errors. The plain-valued
//! entry points ([`crate::search::locate`],
//! [`crate::occurrences::find_all_ends`], the `StringIndex` and
//! `MatchingIndex` impls) are one-line `expect`s at that boundary.
//!
//! One optional accessor, [`link_tree`](FallibleSpineOps::link_tree), lets
//! occurrence enumeration walk a link tree instead of scanning the backbone
//! ([`LinkTree`]): the child lists of the in-memory [`crate::Spine`] and
//! [`crate::GeneralizedSpine`], or the preorder index every
//! [`crate::SealedSpine`] keeps in RAM.

use crate::node::{Node, NodeId};
use crate::preorder::PreorderIndex;
use strindex::{Code, Counters, PackedText, Result};

/// The panic message where a plain-valued entry point meets a storage
/// error: its caller opted out of error handling, so a real device error
/// can only panic there. Fault-aware callers use the `try_*` surface.
pub(crate) const INFALLIBLE_BOUNDARY: &str =
    "page device error during infallible traversal (use the try_* surface for fault tolerance)";

/// A link tree occurrence enumeration can walk
/// ([`FallibleSpineOps::link_tree`]). The structure's type picks the walk:
/// online APPEND needs O(1) child-list pushes, and a sealed segment is
/// frozen, so it can afford a preorder layout whose answer is one
/// contiguous slice (DESIGN.md §16).
#[derive(Debug, Clone, Copy)]
pub enum LinkTree<'a> {
    /// All nodes, root first, with their link-child lists
    /// ([`Node::first_child`], [`Node::next_sibling`]).
    Lists(&'a [Node]),
    /// A sealed segment's preorder index.
    Preorder(&'a PreorderIndex),
}

/// Read access to a SPINE structure. Node ids are `0..=text_len()`, with 0
/// the root. Every structural accessor can report a storage error instead
/// of an answer.
///
/// This is the surface the construction, the concurrent query engine and
/// every traversal are written against. In-memory representations cannot
/// fail and implement it with `Ok(..)`; the page-resident
/// [`crate::disk::PagedSpine`] surfaces buffer-pool/device errors so an
/// injected storage fault degrades a query to a clean `Err` (and, at the
/// engine level, a `Failed` outcome) instead of a panic.
pub trait FallibleSpineOps {
    /// Number of indexed characters (metadata; never touches storage).
    fn text_len(&self) -> usize;

    /// Character label of the vertebra leaving `node` (text character
    /// `node + 1`), or `None` at the tail.
    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>>;

    /// `(destination, LEL)` of `node`'s upstream link. Undefined for the
    /// root (implementations may return `(0, 0)`).
    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)>;

    /// `(destination, PT)` of `node`'s rib labeled `c`, if any.
    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>>;

    /// `(destination, PT)` of `node`'s extrib belonging to the chain with
    /// parent-rib threshold `prt`, if any.
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

    /// Bits per symbol of this representation's word-packed backbone
    /// labels, or `None` when it compares one character at a time. Only a
    /// [`crate::SealedSpine`] packs, where a scalar label read is a
    /// locked page access, and only when every label fits the alphabet's
    /// packing (not byte alphabets, not a DNA separator). `Some(bits)`
    /// promises [`try_label_run`](Self::try_label_run) compares
    /// word-at-a-time against a pattern packed at the same width.
    /// Metadata; never touches storage.
    fn backbone_packing(&self) -> Option<u32> {
        None
    }

    /// Length of the common run of `pattern[from..]` and the backbone
    /// labels leaving `node` (the text suffix starting at position `node`).
    /// The default walks vertebras one character at a time; the sealed
    /// layout overrides it with a word-at-a-time compare of its label
    /// pages, so the compare can fail. Does not touch the work counters —
    /// the search loop accounts for the run in bulk so totals match the
    /// scalar path exactly.
    fn try_label_run(&self, node: NodeId, pattern: &PackedText, from: usize) -> Result<usize> {
        scalar_label_run(self, node, pattern, from)
    }

    /// The traversal is about to scan the backbone sequentially from node
    /// `from` to the tail (the occurrence scan of §4). The fixed-record
    /// [`crate::DiskSpine`] switches its buffer pool into scan mode here
    /// (scan-resistant eviction); in-memory structures ignore it, and
    /// structures with a [`link_tree`](Self::link_tree) never scan.
    /// Purely advisory: never fails, never changes answers.
    fn scan_begin(&self, _from: NodeId) {}

    /// The sequential scan announced by [`scan_begin`](Self::scan_begin)
    /// ended (including by error — callers pair the two with a guard).
    fn scan_end(&self) {}

    /// The link tree, when this structure keeps one in memory: child
    /// lists or a preorder index. Occurrence enumeration then walks it in
    /// O(occ + σ·|w|) ([`crate::occurrences`]); `None`, the default, keeps
    /// the §4 backbone scan.
    fn link_tree(&self) -> Option<LinkTree<'_>> {
        None
    }
}

/// [`FallibleSpineOps::try_label_run`] one vertebra at a time: the default,
/// and the fallback of a layout that packs at another width.
pub(crate) fn scalar_label_run<S: FallibleSpineOps + ?Sized>(
    s: &S,
    node: NodeId,
    pattern: &PackedText,
    from: usize,
) -> Result<usize> {
    let mut k = 0;
    while from + k < pattern.len() {
        match s.try_vertebra_out(node + k as NodeId)? {
            Some(c) if c == pattern.get(from + k) => k += 1,
            _ => break,
        }
    }
    Ok(k)
}
