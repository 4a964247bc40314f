//! Valid-path search (Section 4 of the paper).
//!
//! A search path is *valid* iff it starts at the root and every rib/extrib
//! it takes satisfies the pathlength-threshold constraint: a rib may be
//! traversed by a path of current length `pl` only when `pl ≤ PT`; when the
//! rib fails, its extrib chain is scanned for the first element with
//! `PT ≥ pl` (matching the rib by PRT). Valid paths spell exactly the
//! substrings of the text, and end at the first-occurrence end position —
//! the paper's central no-false-positives theorem, which the property tests
//! verify against the naive trie.
//!
//! The algorithms here are written once against [`FallibleSpineOps`], so
//! the reference, compact, and disk representations share them; the
//! plain-valued [`locate`] is a one-line `expect` over [`try_locate`]. The
//! `_traced` twins report every decision to an [`Observer<TraceEvent>`];
//! the plain entry points pass [`Off`], which compiles the reporting away.

use crate::build::Spine;
use crate::node::{NodeId, ROOT};
use crate::observe::{Observer, Off};
use crate::ops::{FallibleSpineOps, INFALLIBLE_BOUNDARY};
use crate::trace::TraceEvent;
use strindex::{Alphabet, Code, PackedText, Result, StringIndex};

/// [`try_step`] with a trace observer attached: every traversal decision —
/// the vertebra match, the rib's PT comparison, each extrib-chain probe,
/// and the two mismatch terminations — is reported as a [`TraceEvent`].
/// With [`Off`] (whose `ENABLED` is `false`) this monomorphizes to the
/// untraced step.
#[inline]
pub fn try_step_traced<S: FallibleSpineOps + ?Sized, T: Observer<TraceEvent>>(
    s: &S,
    sink: &mut T,
    node: NodeId,
    pl: u32,
    c: Code,
) -> Result<Option<NodeId>> {
    s.ops_counters().count_node_check();
    // Vertebras are unconstrained.
    if s.try_vertebra_out(node)? == Some(c) {
        s.ops_counters().count_edge();
        if T::ENABLED {
            sink.event(TraceEvent::Vertebra { node, pl, ch: c });
        }
        return Ok(Some(node + 1));
    }
    let Some((dest, pt)) = s.try_rib_of(node, c)? else {
        if T::ENABLED {
            sink.event(TraceEvent::NoEdge { node, pl, ch: c });
        }
        return Ok(None);
    };
    if T::ENABLED {
        sink.event(TraceEvent::Rib { node, ch: c, dest, pt, pl, admitted: pl <= pt });
    }
    if pl <= pt {
        s.ops_counters().count_edge();
        return Ok(Some(dest));
    }
    // Rib fails the threshold test: follow its extrib chain.
    let prt = pt;
    let mut at = dest;
    loop {
        s.ops_counters().count_extrib();
        let Some((edest, ept)) = s.try_extrib_of(at, prt)? else {
            if T::ENABLED {
                sink.event(TraceEvent::ChainExhausted { at, prt, pl, ch: c });
            }
            return Ok(None);
        };
        if T::ENABLED {
            sink.event(TraceEvent::Extrib { at, prt, dest: edest, pt: ept, pl, taken: ept >= pl });
        }
        if ept >= pl {
            s.ops_counters().count_edge();
            return Ok(Some(edest));
        }
        at = edest;
    }
}

/// One valid-path step over a fallible structure: from `node` with current
/// path length `pl`, follow the edge labeled `c`. `Ok(None)` means no
/// traversable edge exists (⇒ the extended string is not a substring);
/// `Err` surfaces a storage failure mid-traversal.
#[inline]
pub fn try_step<S: FallibleSpineOps + ?Sized>(
    s: &S,
    node: NodeId,
    pl: u32,
    c: Code,
) -> Result<Option<NodeId>> {
    try_step_traced(s, &mut Off, node, pl, c)
}

/// [`try_locate`] with a trace observer attached. When the structure is
/// page-resident, buffer-pool traffic is sampled around each step and
/// emitted as [`TraceEvent::PageFetches`] (skipped entirely — including the
/// sampling — when the observer is disabled).
pub fn try_locate_traced<S: FallibleSpineOps + ?Sized, T: Observer<TraceEvent>>(
    s: &S,
    sink: &mut T,
    pattern: &[Code],
) -> Result<Option<NodeId>> {
    // Word-packed fast path: only untraced (a recording observer needs the
    // per-decision event stream the scalar walk emits), only on the sealed
    // layout (the one that packs its backbone labels), and only when every
    // pattern code fits the packing (a separator would not).
    if !T::ENABLED {
        if let Some(bits) = s.backbone_packing() {
            if let Some(packed) = PackedText::from_codes(bits, pattern) {
                return try_locate_packed(s, &packed, pattern);
            }
        }
    }
    let mut node = ROOT;
    for (pl, &c) in pattern.iter().enumerate() {
        let before = if T::ENABLED { s.storage_counters() } else { None };
        let stepped = try_step_traced(s, sink, node, pl as u32, c)?;
        if let Some(e) = crate::trace::page_delta_event(s, before) {
            sink.event(e);
        }
        match stepped {
            Some(next) => node = next,
            None => return Ok(None),
        }
    }
    Ok(Some(node))
}

/// The word-packed valid-path walk of the sealed layout, whose label reads
/// are page accesses under a lock. Vertebra runs — the only edges a
/// backbone-label compare can take — are matched a `u64` word at a time via
/// [`FallibleSpineOps::try_label_run`]; the first position the run cannot
/// absorb falls back to the scalar [`try_step`], which handles the rib/
/// extrib machinery (and its own counting). A run of `r` matches is
/// accounted as `r` node checks + `r` edges, exactly what `r` scalar
/// vertebra steps would record, so Table-6 counters are path-identical.
fn try_locate_packed<S: FallibleSpineOps + ?Sized>(
    s: &S,
    packed: &PackedText,
    pattern: &[Code],
) -> Result<Option<NodeId>> {
    let mut node = ROOT;
    let mut pl = 0usize;
    while pl < pattern.len() {
        let run = s.try_label_run(node, packed, pl)?;
        if run > 0 {
            s.ops_counters().count_node_checks(run as u64);
            s.ops_counters().count_edges(run as u64);
            node += run as NodeId;
            pl += run;
            if pl == pattern.len() {
                break;
            }
        }
        // The vertebra at `node` cannot extend the match (that is why the
        // run stopped), so this resolves via rib/extrib — or rejects.
        match try_step(s, node, pl as u32, pattern[pl])? {
            Some(next) => {
                node = next;
                pl += 1;
            }
            None => return Ok(None),
        }
    }
    Ok(Some(node))
}

/// Walk the valid path for `pattern` over a fallible structure. Returns the
/// end node of the pattern's first occurrence, `Ok(None)` if the pattern
/// does not occur, or `Err` on a storage failure.
pub fn try_locate<S: FallibleSpineOps + ?Sized>(s: &S, pattern: &[Code]) -> Result<Option<NodeId>> {
    try_locate_traced(s, &mut Off, pattern)
}

/// Walk the valid path for `pattern`. Returns the end node — which, by the
/// SPINE invariant, is the 1-based end position of the pattern's first
/// occurrence — or `None` if the pattern does not occur. Panics on a
/// storage error; [`try_locate`] reports it.
pub fn locate<S: FallibleSpineOps + ?Sized>(s: &S, pattern: &[Code]) -> Option<NodeId> {
    try_locate(s, pattern).expect(INFALLIBLE_BOUNDARY)
}

impl Spine {
    /// Walk the valid path for `pattern`; see [`locate`].
    pub fn locate(&self, pattern: &[Code]) -> Option<NodeId> {
        locate(self, pattern)
    }
}

impl StringIndex for Spine {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn text_len(&self) -> usize {
        self.len()
    }

    fn symbol_at(&self, pos: usize) -> Code {
        self.labels[pos]
    }

    fn find_first(&self, pattern: &[Code]) -> Option<usize> {
        self.locate(pattern).map(|end| end as usize - pattern.len())
    }

    fn find_all(&self, pattern: &[Code]) -> Vec<usize> {
        crate::occurrences::find_all_ends(self, pattern)
            .into_iter()
            .map(|end| end as usize - pattern.len())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_spine() -> (Alphabet, Spine) {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        (a, s)
    }

    fn enc(a: &Alphabet, s: &[u8]) -> Vec<Code> {
        a.encode(s).unwrap()
    }

    #[test]
    fn locate_returns_first_occurrence_end() {
        let (a, s) = paper_spine();
        assert_eq!(s.locate(&enc(&a, b"A")), Some(1));
        assert_eq!(s.locate(&enc(&a, b"CA")), Some(5));
        assert_eq!(s.locate(&enc(&a, b"AACCACAACA")), Some(10));
        assert_eq!(s.locate(&enc(&a, b"ACAA")), Some(8));
        assert_eq!(s.locate(&enc(&a, b"")), Some(0));
    }

    #[test]
    fn paper_false_positive_is_rejected() {
        // §2.1/§4: "accaa" appears to have a path but the rib's PT of 2 is
        // less than the pathlength of 4, so it must be rejected.
        let (a, s) = paper_spine();
        assert_eq!(s.locate(&enc(&a, b"ACCAA")), None);
        assert!(!s.contains(&enc(&a, b"ACCAA")));
        // Its prefix "acca" is real.
        assert_eq!(s.locate(&enc(&a, b"ACCA")), Some(5));
    }

    #[test]
    fn extrib_chain_traversal_during_search() {
        // Walk "ACA" explicitly: A→1; C: rib at 1 → 3 (pt 1 ≥ 1); A: at
        // node 3 pl=2 > rib.pt=1 → extrib chain: 5's extrib (prt 1, pt 2 ≥
        // 2) → node 7.
        let (a, s) = paper_spine();
        assert_eq!(s.locate(&enc(&a, b"ACA")), Some(7));
        // And "ACAA" continues with the vertebra 7→8.
        assert_eq!(s.locate(&enc(&a, b"ACAA")), Some(8));
    }

    #[test]
    fn find_first_offsets() {
        let (a, s) = paper_spine();
        assert_eq!(s.find_first(&enc(&a, b"CA")), Some(3));
        assert_eq!(s.find_first(&enc(&a, b"AAC")), Some(0));
        assert_eq!(s.find_first(&enc(&a, b"G")), None);
        assert_eq!(s.find_first(&enc(&a, b"CAACA")), Some(5));
    }

    #[test]
    fn in_memory_layouts_compare_labels_scalar() {
        // Each in-memory layout holds its labels once, so none offers the
        // word-packed compare; only the sealed layout, whose label reads
        // are page accesses, packs them.
        for a in [Alphabet::dna(), Alphabet::protein()] {
            let text: Vec<Code> = (0..100).map(|i| (i * 7 % a.size()) as Code).collect();
            let mut g = crate::GeneralizedSpine::new(a.clone());
            g.add_document(&text).unwrap();
            let packings = [
                Spine::build(a.clone(), &text).unwrap().backbone_packing(),
                g.backbone_packing(),
                crate::CompactSpine::build(a.clone(), &text).unwrap().backbone_packing(),
            ];
            assert_eq!(packings, [None; 3], "{:?}", a.kind());
        }
    }

    #[test]
    fn counters_accumulate() {
        let (a, s) = paper_spine();
        s.counters().reset();
        s.locate(&enc(&a, b"ACCA"));
        assert!(s.counters().nodes_checked() >= 4);
    }

    #[test]
    fn all_substrings_found_none_invented() {
        // Exhaustive check on the paper string for every candidate string
        // up to length 4.
        let (a, s) = paper_spine();
        let text = b"AACCACAACA";
        let is_sub = |p: &[u8]| text.windows(p.len()).any(|w| w == p);
        let mut stack: Vec<Vec<u8>> = vec![vec![]];
        while let Some(p) = stack.pop() {
            if p.len() >= 4 {
                continue;
            }
            for ch in [b'A', b'C', b'G', b'T'] {
                let mut q = p.clone();
                q.push(ch);
                assert_eq!(
                    s.contains(&enc(&a, &q)),
                    is_sub(&q),
                    "mismatch on {:?}",
                    String::from_utf8_lossy(&q)
                );
                stack.push(q);
            }
        }
    }
}
