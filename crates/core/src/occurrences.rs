//! All-occurrence enumeration (Section 4): from a pattern's first
//! occurrence to all of them.
//!
//! After the valid path locates the *first* occurrence of a pattern, every
//! further occurrence follows from the link property: a link from `j` to
//! `k` with LEL `v` means the length-`v` strings ending at `j` and `k` are
//! equal. Two enumerations use it, and return the same ends:
//!
//! * **The link-tree walk** (structures whose
//!   [`link_tree`](FallibleSpineOps::link_tree) returns a tree). Links
//!   form a tree, and every link child of a non-root node carries a larger
//!   LEL than that node's own link. So the ends of `w` are `fo(w)` plus the
//!   whole subtrees under those link children of `fo(w)` whose LEL is at
//!   least `|w|`: O(occ + σ·|w|) work, then a sort (DESIGN.md §16). The
//!   in-memory [`crate::Spine`] and [`crate::GeneralizedSpine`] walk their
//!   child lists; a [`crate::SealedSpine`] takes one slice of its
//!   in-RAM preorder index ([`crate::preorder`]) and reads no page.
//! * **The paper's backbone scan** (everything else: the §5 compact
//!   layout, the fixed-record [`crate::DiskSpine`], prefix views). Node
//!   `j > fo(w)` ends an occurrence iff `lel(j) ≥ |w|` and `link(j)` points
//!   at an already-discovered end (binary search in the paper's *target
//!   node buffer*): O(n − fo(w)) link reads. The batched entry point
//!   ([`find_all_ends_batch`]) resolves any number of patterns in one pass,
//!   the deferral the paper describes for the maximal-match workload.
//!
//! Every entry point picks per structure, so callers never choose. The
//! scan stays the tests' reference for both walks. Either way the nodes
//! visited are counted ([`strindex::Counters::nodes_enumerated`]); a walk
//! visits exactly `(occ − 1)` ends plus the rejected children of `fo(w)`.
//!
//! Every entry point is written once against [`FallibleSpineOps`]; the
//! plain-valued ones ([`find_all_ends`], [`occurrences_from`],
//! [`find_all_ends_batch`]) `expect` their `try_` twin. The `_traced`
//! twins report the walk to an [`Observer<TraceEvent>`]; the untraced ones
//! pass [`Off`], which compiles the reporting away.

use crate::node::{Node, NodeId, NO_CHILD};
use crate::observe::{Observer, Off};
use crate::ops::{FallibleSpineOps, LinkTree, INFALLIBLE_BOUNDARY};
use crate::search::try_locate_traced;
use crate::trace::TraceEvent;
use strindex::{Code, FxHashMap, Result};

/// End positions (1-based) of all occurrences of `pattern`, ascending.
pub fn find_all_ends<S: FallibleSpineOps + ?Sized>(s: &S, pattern: &[Code]) -> Vec<NodeId> {
    try_find_all_ends(s, pattern).expect(INFALLIBLE_BOUNDARY)
}

/// Fallible [`find_all_ends`]: a storage failure during the valid-path walk
/// or the enumeration surfaces as `Err` instead of a panic.
pub fn try_find_all_ends<S: FallibleSpineOps + ?Sized>(
    s: &S,
    pattern: &[Code],
) -> Result<Vec<NodeId>> {
    try_find_all_ends_traced(s, &mut Off, pattern)
}

/// [`try_find_all_ends`] with a trace observer attached: the valid-path
/// walk and the enumeration both report their decisions. This is the
/// traversal behind `explain` ([`crate::trace::explain`]).
pub fn try_find_all_ends_traced<S: FallibleSpineOps + ?Sized, T: Observer<TraceEvent>>(
    s: &S,
    sink: &mut T,
    pattern: &[Code],
) -> Result<Vec<NodeId>> {
    let Some(first) = try_locate_traced(s, sink, pattern)? else {
        return Ok(Vec::new());
    };
    try_occurrences_from_traced(s, sink, first, pattern.len() as u32)
}

/// Single target: all nodes ending an occurrence of the length-`len`
/// string whose first occurrence ends at `first`, ascending.
pub fn occurrences_from<S: FallibleSpineOps + ?Sized>(
    s: &S,
    first: NodeId,
    len: u32,
) -> Vec<NodeId> {
    try_occurrences_from(s, first, len).expect(INFALLIBLE_BOUNDARY)
}

/// Fallible [`occurrences_from`].
pub fn try_occurrences_from<S: FallibleSpineOps + ?Sized>(
    s: &S,
    first: NodeId,
    len: u32,
) -> Result<Vec<NodeId>> {
    try_occurrences_from_traced(s, &mut Off, first, len)
}

/// [`try_occurrences_from`] with a trace observer attached: emits one
/// [`TraceEvent::ScanStart`], then one [`TraceEvent::Occurrence`] per
/// further end in ascending order, and (for page-resident structures) a
/// single [`TraceEvent::PageFetches`] aggregating the enumeration's
/// buffer-pool traffic. The walks and the scan emit the same events; a
/// walk reads each end's link record only to trace it.
pub fn try_occurrences_from_traced<S: FallibleSpineOps + ?Sized, T: Observer<TraceEvent>>(
    s: &S,
    sink: &mut T,
    first: NodeId,
    len: u32,
) -> Result<Vec<NodeId>> {
    let n = s.text_len() as NodeId;
    if T::ENABLED {
        sink.event(TraceEvent::ScanStart { from: first + 1, to: n, len });
    }
    let before = if T::ENABLED { s.storage_counters() } else { None };
    let ends = match s.link_tree() {
        Some(tree) => {
            let ends = walk(s, tree, first, len);
            if T::ENABLED {
                for &j in &ends[1..] {
                    let (link, lel) = s.try_link_of(j)?;
                    sink.event(TraceEvent::Occurrence { node: j, link, lel });
                }
            }
            ends
        }
        None => {
            let _scan = ScanGuard::enter(s, first + 1);
            let mut buffer: Vec<NodeId> = vec![first];
            for j in first + 1..=n {
                let (dest, lel) = s.try_link_of(j)?;
                if lel >= len && buffer.binary_search(&dest).is_ok() {
                    if T::ENABLED {
                        sink.event(TraceEvent::Occurrence { node: j, link: dest, lel });
                    }
                    buffer.push(j); // scan order keeps the buffer sorted
                }
            }
            s.ops_counters().count_nodes_enumerated((n - first) as u64);
            buffer
        }
    };
    if let Some(e) = crate::trace::page_delta_event(s, before) {
        sink.event(e);
    }
    Ok(ends)
}

/// The ends of the length-`len` string whose first occurrence ends at
/// `first`, ascending, from `s`'s link tree; counts the nodes visited.
fn walk<S: FallibleSpineOps + ?Sized>(
    s: &S,
    tree: LinkTree<'_>,
    first: NodeId,
    len: u32,
) -> Vec<NodeId> {
    let (ends, visits) = match tree {
        LinkTree::Lists(nodes) => walk_lists(nodes, first, len),
        LinkTree::Preorder(index) => index.occurrences(first, len),
    };
    s.ops_counters().count_nodes_enumerated(visits);
    ends
}

/// [`walk`] over child lists: `first` itself, then the whole subtree under
/// every link child of `first` with LEL ≥ `len`, and the nodes visited.
///
/// Below an accepted child no LEL needs checking: a link child of a
/// non-root node always carries a larger LEL than the node's own link
/// (the LET suffix of the child first occurs ending at the parent, so the
/// parent's own LET suffix is shorter). The walk rejects at most
/// (σ−1)·`len` children of `first`: a rejected child's LEL is below
/// `len`, and each LEL value admits at most σ−1 children, one per
/// character preceding that suffix.
fn walk_lists(nodes: &[Node], first: NodeId, len: u32) -> (Vec<NodeId>, u64) {
    let mut ends = vec![first];
    let mut visits = 0u64;
    let mut c = nodes[first as usize].first_child;
    while c != NO_CHILD {
        let child = &nodes[c as usize];
        if child.lel >= len {
            ends.push(c);
        }
        visits += 1;
        c = child.next_sibling;
    }
    // Breadth-first below the accepted children, with `ends` as the queue.
    let mut i = 1;
    while i < ends.len() {
        let parent = &nodes[ends[i] as usize];
        let mut c = parent.first_child;
        while c != NO_CHILD {
            let child = &nodes[c as usize];
            debug_assert!(child.lel > parent.lel, "link-tree LELs rise below a non-root node");
            ends.push(c);
            visits += 1;
            c = child.next_sibling;
        }
        i += 1;
    }
    ends.sort_unstable();
    (ends, visits)
}

/// Pairs [`FallibleSpineOps::scan_begin`] with a guaranteed
/// [`FallibleSpineOps::scan_end`], so an `Err` mid-scan cannot leave a
/// page-resident structure stuck in scan mode.
struct ScanGuard<'a, S: FallibleSpineOps + ?Sized>(&'a S);

impl<'a, S: FallibleSpineOps + ?Sized> ScanGuard<'a, S> {
    fn enter(s: &'a S, from: NodeId) -> Self {
        s.scan_begin(from);
        ScanGuard(s)
    }
}

impl<S: FallibleSpineOps + ?Sized> Drop for ScanGuard<'_, S> {
    fn drop(&mut self) {
        self.0.scan_end();
    }
}

/// One pattern of a batched all-occurrences request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target {
    /// End node of the pattern's first occurrence (from [`crate::search::locate`]).
    pub first_end: NodeId,
    /// Pattern length.
    pub len: u32,
}

/// Resolve many targets: one link-tree walk each on structures with a
/// link tree, otherwise a single shared backbone scan.
///
/// Returns, for each target (keyed by value, deduplicated), the ascending
/// list of occurrence-end nodes. The shared scan is O(n + total
/// occurrences): each node consults a hash map from "node already in some
/// target buffer" to the targets that buffered it.
pub fn find_all_ends_batch<S: FallibleSpineOps + ?Sized>(
    s: &S,
    targets: &[Target],
) -> FxHashMap<Target, Vec<NodeId>> {
    try_find_all_ends_batch(s, targets).expect(INFALLIBLE_BOUNDARY)
}

/// Fallible [`find_all_ends_batch`]: the scan stops at the first storage
/// failure and surfaces it as `Err` (no partial result escapes).
pub fn try_find_all_ends_batch<S: FallibleSpineOps + ?Sized>(
    s: &S,
    targets: &[Target],
) -> Result<FxHashMap<Target, Vec<NodeId>>> {
    let mut result: FxHashMap<Target, Vec<NodeId>> = FxHashMap::default();
    if let Some(tree) = s.link_tree() {
        for &t in targets {
            result.entry(t).or_insert_with(|| walk(s, tree, t.first_end, t.len));
        }
        return Ok(result);
    }
    // node id -> indices of targets whose buffer contains that node.
    let mut buffered: FxHashMap<NodeId, Vec<u32>> = FxHashMap::default();
    let mut uniq: Vec<Target> = Vec::new();
    for &t in targets {
        if result.contains_key(&t) {
            continue;
        }
        result.insert(t, vec![t.first_end]);
        buffered.entry(t.first_end).or_default().push(uniq.len() as u32);
        uniq.push(t);
    }
    if uniq.is_empty() {
        return Ok(result);
    }
    let start = uniq.iter().map(|t| t.first_end).min().unwrap() + 1;
    let n = s.text_len() as NodeId;
    let _scan = ScanGuard::enter(s, start);
    for j in start..=n {
        let (dest, lel) = s.try_link_of(j)?;
        let Some(hits) = buffered.get(&dest) else {
            continue;
        };
        let mut added: Vec<u32> = Vec::new();
        for &ti in hits {
            if lel >= uniq[ti as usize].len {
                added.push(ti);
            }
        }
        if added.is_empty() {
            continue;
        }
        for &ti in &added {
            result.get_mut(&uniq[ti as usize]).unwrap().push(j);
        }
        buffered.entry(j).or_default().extend(added);
    }
    s.ops_counters().count_nodes_enumerated((n + 1 - start) as u64);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Spine;
    use crate::node::ROOT;
    use crate::prefix::PrefixView;
    use strindex::{Alphabet, StringIndex};

    fn paper_spine() -> (Alphabet, Spine) {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        (a, s)
    }

    #[test]
    fn walk_matches_scan_for_every_target() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a, b"AACCACAACAGGTTACGACGACCAAAAACACA").unwrap();
        // A whole-text prefix view keeps no child lists, so it scans.
        let scan = PrefixView::new(&s, s.len());
        assert!(s.link_tree().is_some() && scan.link_tree().is_none());
        let n = s.len() as NodeId;
        for first in 0..=n {
            for len in 0..=first {
                assert_eq!(
                    occurrences_from(&s, first, len),
                    occurrences_from(&scan, first, len),
                    "target ({first}, {len})"
                );
            }
        }
        // The empty pattern's walk from the root reaches every node.
        assert_eq!(occurrences_from(&s, ROOT, 0), (0..=n).collect::<Vec<_>>());
    }

    #[test]
    fn paper_example_ac_occurrences() {
        // §4 walks this example: searching "ac" fills the target buffer with
        // nodes 3, 6, 9 (ends of the three occurrences).
        let (a, s) = paper_spine();
        let ends = find_all_ends(&s, &a.encode(b"AC").unwrap());
        assert_eq!(ends, vec![3, 6, 9]);
        // Converted to start offsets by find_all:
        assert_eq!(s.find_all(&a.encode(b"AC").unwrap()), vec![1, 4, 7]);
    }

    #[test]
    fn overlapping_occurrences() {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AAAAA").unwrap();
        assert_eq!(s.find_all(&a.encode(b"AA").unwrap()), vec![0, 1, 2, 3]);
        assert_eq!(s.find_all(&a.encode(b"AAAAA").unwrap()), vec![0]);
    }

    #[test]
    fn absent_pattern_yields_nothing() {
        let (a, s) = paper_spine();
        assert!(find_all_ends(&s, &a.encode(b"GG").unwrap()).is_empty());
        assert!(s.find_all(&a.encode(b"T").unwrap()).is_empty());
    }

    #[test]
    fn batch_matches_single_scans() {
        let (a, s) = paper_spine();
        let pats: Vec<Vec<Code>> = [&b"A"[..], b"CA", b"AC", b"AACCACAACA", b"CAACA", b"C"]
            .iter()
            .map(|p| a.encode(p).unwrap())
            .collect();
        let targets: Vec<Target> = pats
            .iter()
            .map(|p| Target { first_end: s.locate(p).unwrap(), len: p.len() as u32 })
            .collect();
        let batch = find_all_ends_batch(&s, &targets);
        for (p, t) in pats.iter().zip(&targets) {
            assert_eq!(batch[t], find_all_ends(&s, p), "pattern {p:?}");
        }
    }

    #[test]
    fn batch_deduplicates_targets() {
        let (a, s) = paper_spine();
        let p = a.encode(b"CA").unwrap();
        let t = Target { first_end: s.locate(&p).unwrap(), len: 2 };
        let batch = find_all_ends_batch(&s, &[t, t, t]);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[&t], vec![5, 7, 10]);
    }

    #[test]
    fn empty_batch() {
        let (_, s) = paper_spine();
        assert!(find_all_ends_batch(&s, &[]).is_empty());
    }
}
