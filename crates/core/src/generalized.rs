//! Generalized (multi-string) SPINE indexes.
//!
//! §1.1 of the paper: "a single SPINE index can be used to index multiple
//! different strings, using techniques similar to those employed in
//! Generalized Suffix Trees". As with GSTs, documents are concatenated with
//! a terminator that cannot occur in any document — here the alphabet's
//! reserved [`separator`](strindex::Alphabet::separator) code — so no query
//! pattern (which by construction contains only ordinary symbols) can match
//! across a document boundary.

use crate::build::Spine;
use crate::engine::{QueryOutcome, ServeIndex};
use crate::node::NodeId;
use crate::observe::{BuildEvent, Observer, Off};
use crate::ops::{FallibleSpineOps, LinkTree};
use strindex::{
    Alphabet, Code, Counters, CountersSnapshot, Error, PackedText, Result, StringIndex,
};

/// An occurrence localized to a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct DocMatch {
    /// Document index, in insertion order.
    pub doc: usize,
    /// Start offset within that document.
    pub offset: usize,
}

/// A SPINE index over any number of documents.
///
/// ```
/// use spine::GeneralizedSpine;
/// use strindex::Alphabet;
///
/// let alphabet = Alphabet::dna();
/// let mut index = GeneralizedSpine::new(alphabet.clone());
/// index.add_document_bytes(b"ACGTACGT").unwrap();
/// index.add_document_bytes(b"TTACG").unwrap();
/// let acg = alphabet.encode(b"ACG").unwrap();
/// assert_eq!(index.docs_containing(&acg), vec![0, 1]);
/// ```
pub struct GeneralizedSpine {
    spine: Spine,
    /// `starts[d]` = offset of document `d` in the concatenation
    /// (terminators included); a final sentinel entry holds the total.
    starts: Vec<usize>,
    /// Retired (tombstoned) documents, by insertion index. The SPINE itself
    /// is append-only, so retirement is logical: retired documents keep
    /// their ids and their text stays in the concatenation, but every query
    /// surface filters them out. The segment layer compacts them away.
    retired: Vec<bool>,
}

impl GeneralizedSpine {
    /// An empty multi-string index.
    pub fn new(alphabet: Alphabet) -> Self {
        GeneralizedSpine { spine: Spine::new(alphabet), starts: vec![0], retired: Vec::new() }
    }

    /// Append one encoded document (terminator added automatically).
    pub fn add_document(&mut self, doc: &[Code]) -> Result<()> {
        self.add_document_observed(doc, &mut Off)
    }

    /// Convenience: encode raw bytes with the index alphabet and add.
    pub fn add_document_bytes(&mut self, doc: &[u8]) -> Result<()> {
        let codes = self.spine.alphabet_ref().encode(doc)?;
        self.add_document(&codes)
    }

    /// [`Self::add_document`] with build-event reporting (the terminator's
    /// insertion is observed too — it is a real backbone node).
    pub fn add_document_observed<O: Observer<BuildEvent>>(
        &mut self,
        doc: &[Code],
        observer: &mut O,
    ) -> Result<()> {
        let sep = self.spine.alphabet_ref().separator();
        if let Some(pos) = doc.iter().position(|&c| c >= sep) {
            return Err(Error::InvalidSymbol { byte: doc[pos], pos });
        }
        self.spine.extend_from_observed(doc, observer)?;
        self.spine.push_observed(sep, observer)?;
        self.starts.push(self.spine.len());
        self.retired.push(false);
        Ok(())
    }

    /// Logically delete document `doc`: it stops appearing in every query
    /// surface (`find_all`, `docs_containing`, `contains`) but keeps its id,
    /// so later documents do not shift. Returns `Ok(true)` when this call
    /// retired the document, `Ok(false)` when it was already retired
    /// (idempotent), and [`Error::UnknownDocument`] for an id that was never
    /// assigned — the segment layer and the per-document oracle share these
    /// semantics.
    pub fn retire_document(&mut self, doc: usize) -> Result<bool> {
        match self.retired.get_mut(doc) {
            None => Err(Error::UnknownDocument { doc: doc as u64 }),
            Some(flag) if *flag => Ok(false),
            Some(flag) => {
                *flag = true;
                Ok(true)
            }
        }
    }

    /// Is document `doc` retired? Unassigned ids are not retired.
    pub fn is_retired(&self, doc: usize) -> bool {
        self.retired.get(doc).copied().unwrap_or(false)
    }

    /// Documents added and not yet retired.
    pub fn live_doc_count(&self) -> usize {
        self.retired.iter().filter(|&&r| !r).count()
    }

    /// Heap accounting of the underlying concatenation index.
    pub fn mem_breakdown(&self) -> crate::observe::MemBreakdown {
        self.spine.mem_breakdown()
    }

    /// Number of documents indexed.
    pub fn doc_count(&self) -> usize {
        self.starts.len() - 1
    }

    /// Length of document `d`.
    pub fn doc_len(&self, d: usize) -> usize {
        self.starts[d + 1] - self.starts[d] - 1 // minus the terminator
    }

    /// The underlying single-string index over the concatenation.
    pub fn as_spine(&self) -> &Spine {
        &self.spine
    }

    /// Document `d`'s codes, read back from the backbone (node `p + 1`
    /// carries `text[p]`): the index keeps no other copy of the text.
    pub(crate) fn document(&self, d: usize) -> Vec<Code> {
        let start = self.starts[d] + 1;
        self.spine.nodes()[start..start + self.doc_len(d)].iter().map(|n| n.vertebra_cl).collect()
    }

    /// Map a concatenation offset to `(document, in-document offset)`;
    /// `None` at and past the end of the last document.
    ///
    /// Callers that run the low-level occurrence machinery over the
    /// concatenation themselves ([`find_all`](Self::find_all), the segment
    /// store's memtable) translate its positions back to documents with
    /// it. A document's terminator is its offset `doc_len`, where only the
    /// empty pattern occurs.
    pub fn localize(&self, offset: usize) -> Option<DocMatch> {
        localize(&self.starts, offset)
    }

    /// Does `pattern` occur in any *live* document? The empty pattern
    /// does exactly when one is live.
    pub fn contains(&self, pattern: &[Code]) -> bool {
        if self.retired.iter().any(|&r| r) {
            return !self.find_all(pattern).is_empty();
        }
        // The first occurrence is in a document unless it is the sentinel's
        // (only the empty pattern's, over no documents).
        self.spine.find_first(pattern).is_some_and(|off| off < self.spine.len())
    }

    /// All occurrences of `pattern` across all live documents, ordered by
    /// (document, offset). Retired documents contribute nothing. The empty
    /// pattern occurs at every offset `0..=len` of every live document.
    pub fn find_all(&self, pattern: &[Code]) -> Vec<DocMatch> {
        self.spine
            .find_all(pattern)
            .into_iter()
            .filter_map(|off| self.localize(off))
            .filter(|m| !self.retired[m.doc])
            .collect()
    }

    /// Documents containing `pattern`, deduplicated and sorted.
    pub fn docs_containing(&self, pattern: &[Code]) -> Vec<usize> {
        let mut docs: Vec<usize> = self.find_all(pattern).into_iter().map(|m| m.doc).collect();
        docs.dedup();
        docs
    }
}

/// The one offset-to-document map, shared by [`GeneralizedSpine`] and the
/// segment store's sealed segments: `starts` holds each document's
/// concatenation offset (every document is followed by one terminator)
/// plus a trailing sentinel, the total length. Offsets at or past the
/// sentinel belong to no document.
pub(crate) fn localize(starts: &[usize], offset: usize) -> Option<DocMatch> {
    let doc = starts.partition_point(|&s| s <= offset) - 1;
    (doc + 1 < starts.len()).then(|| DocMatch { doc, offset: offset - starts[doc] })
}

/// Documents partitioned round-robin across several generalized indexes,
/// served as one [`ServeIndex`] in global document ids.
///
/// Each pattern runs against every shard in turn, and the per-shard
/// matches merge into global [`DocMatch`]es ordered by (doc, offset) —
/// the deployment §6 of the paper gestures at for corpora beyond one
/// index. Serve it with [`QueryEngine`](crate::engine::QueryEngine) like
/// any other index.
///
/// ```
/// use spine::engine::{EngineConfig, QueryEngine};
/// use spine::{DocMatch, ShardedSpine};
/// use std::sync::Arc;
/// use strindex::Alphabet;
///
/// let a = Alphabet::dna();
/// let docs = vec![a.encode(b"ACGT").unwrap(), a.encode(b"TTACG").unwrap()];
/// let index = Arc::new(ShardedSpine::build(a.clone(), &docs, 2).unwrap());
/// let engine = QueryEngine::new(index, EngineConfig::default());
/// engine.submit(a.encode(b"ACG").unwrap()).unwrap();
/// let matches = [DocMatch { doc: 0, offset: 0 }, DocMatch { doc: 1, offset: 2 }];
/// assert_eq!(engine.drain()[0].expect_doc_matches(), matches);
/// ```
pub struct ShardedSpine {
    shards: Vec<GeneralizedSpine>,
    /// `global_doc[s][d]` = global id of shard `s`'s local document `d`.
    global_doc: Vec<Vec<usize>>,
}

impl ShardedSpine {
    /// Partition `docs` round-robin across `shards` generalized indexes
    /// (clamped to between 1 and the document count).
    pub fn build(alphabet: Alphabet, docs: &[Vec<Code>], shards: usize) -> Result<Self> {
        let shards = shards.max(1).min(docs.len().max(1));
        let mut indexes: Vec<GeneralizedSpine> =
            (0..shards).map(|_| GeneralizedSpine::new(alphabet.clone())).collect();
        let mut global_doc: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (g, doc) in docs.iter().enumerate() {
            indexes[g % shards].add_document(doc)?;
            global_doc[g % shards].push(g);
        }
        Ok(ShardedSpine { shards: indexes, global_doc })
    }

    /// Number of shards actually built.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Every occurrence of `pattern` in global document ids, ordered by
    /// (doc, offset). The empty pattern occurs at every offset `0..=len` of
    /// every document.
    fn find_all(&self, pattern: &[Code]) -> Vec<DocMatch> {
        let mut out = Vec::new();
        for (shard, ids) in self.shards.iter().zip(&self.global_doc) {
            out.extend(
                shard.find_all(pattern).into_iter().map(|m| DocMatch { doc: ids[m.doc], ..m }),
            );
        }
        out.sort_unstable();
        out
    }
}

impl ServeIndex for ShardedSpine {
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
        patterns.iter().map(|p| QueryOutcome::DoneDocs(self.find_all(p))).collect()
    }

    fn counters_snapshot(&self) -> CountersSnapshot {
        let mut agg = CountersSnapshot::default();
        for shard in &self.shards {
            agg += shard.ops_counters().snapshot();
        }
        agg
    }
}

// The generalized index exposes the underlying concatenation's SPINE
// structure directly, so the generic search/occurrence algorithms — and the
// concurrent query engine built on them — run over it unchanged. Because
// query patterns cannot contain the separator code (`add_document` rejects
// it in documents, and search simply finds no edge for it), valid paths
// never cross a document boundary.
impl FallibleSpineOps for GeneralizedSpine {
    fn text_len(&self) -> usize {
        self.spine.len()
    }

    #[inline]
    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        self.spine.try_vertebra_out(node)
    }

    #[inline]
    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        self.spine.try_link_of(node)
    }

    #[inline]
    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        self.spine.try_rib_of(node, c)
    }

    #[inline]
    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        self.spine.try_extrib_of(node, prt)
    }

    fn ops_counters(&self) -> &Counters {
        self.spine.ops_counters()
    }

    fn backbone_packing(&self) -> Option<u32> {
        // A DNA concatenation self-disables (separators exceed 2 bits); a
        // protein one packs separators verbatim, which never match a
        // pattern code, so the word compare stays exact.
        self.spine.backbone_packing()
    }

    #[inline]
    fn try_label_run(&self, node: NodeId, pattern: &PackedText, from: usize) -> Result<usize> {
        self.spine.try_label_run(node, pattern, from)
    }

    fn link_tree(&self) -> Option<LinkTree<'_>> {
        self.spine.link_tree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Alphabet, GeneralizedSpine) {
        let a = Alphabet::dna();
        let mut g = GeneralizedSpine::new(a.clone());
        g.add_document_bytes(b"ACGTACGT").unwrap();
        g.add_document_bytes(b"TTACG").unwrap();
        g.add_document_bytes(b"GGGG").unwrap();
        (a, g)
    }

    #[test]
    fn documents_are_localized() {
        let (a, g) = sample();
        assert_eq!(g.doc_count(), 3);
        assert_eq!(g.doc_len(0), 8);
        assert_eq!(g.doc_len(1), 5);
        let acg = a.encode(b"ACG").unwrap();
        assert_eq!(
            g.find_all(&acg),
            vec![
                DocMatch { doc: 0, offset: 0 },
                DocMatch { doc: 0, offset: 4 },
                DocMatch { doc: 1, offset: 2 },
            ]
        );
        assert_eq!(g.docs_containing(&acg), vec![0, 1]);
    }

    #[test]
    fn no_cross_document_matches() {
        let (a, g) = sample();
        // "GTTT" would span doc0|doc1 if the terminator didn't block it.
        assert!(!g.contains(&a.encode(b"GTTT").unwrap()));
        // "GTT" exists only inside... doc0 ends GT, doc1 starts TT — also
        // blocked.
        assert!(!g.contains(&a.encode(b"GTT").unwrap()));
    }

    #[test]
    fn rejects_separator_in_document() {
        let a = Alphabet::dna();
        let mut g = GeneralizedSpine::new(a.clone());
        let sep = a.separator();
        assert!(matches!(g.add_document(&[0, sep, 1]), Err(Error::InvalidSymbol { .. })));
    }

    #[test]
    fn single_symbol_documents() {
        let a = Alphabet::dna();
        let mut g = GeneralizedSpine::new(a.clone());
        for _ in 0..5 {
            g.add_document(&[2]).unwrap();
        }
        assert_eq!(g.doc_count(), 5);
        assert_eq!(g.docs_containing(&[2]), vec![0, 1, 2, 3, 4]);
        assert!(!g.contains(&[2, 2]));
    }

    #[test]
    fn retire_document_filters_every_query_surface() {
        let (a, mut g) = sample();
        let acg = a.encode(b"ACG").unwrap();
        assert_eq!(g.live_doc_count(), 3);
        assert!(g.retire_document(0).unwrap());
        assert!(g.is_retired(0));
        assert_eq!(g.live_doc_count(), 2);
        // doc 0's occurrences vanish; doc ids of the others are unchanged.
        assert_eq!(g.find_all(&acg), vec![DocMatch { doc: 1, offset: 2 }]);
        assert_eq!(g.docs_containing(&acg), vec![1]);
        assert!(g.contains(&acg));
        // A pattern only doc 0 held is gone from `contains` too.
        let full = a.encode(b"ACGTACGT").unwrap();
        assert!(!g.contains(&full));
        // Idempotent re-retire; unknown ids are a typed error.
        assert!(!g.retire_document(0).unwrap());
        assert!(matches!(g.retire_document(3), Err(Error::UnknownDocument { doc: 3 })));
        assert!(!g.is_retired(3));
        // doc_count still reports assigned ids, retired or not.
        assert_eq!(g.doc_count(), 3);
    }

    #[test]
    fn observed_documents_count_terminators_as_insertions() {
        let a = Alphabet::dna();
        let mut g = GeneralizedSpine::new(a.clone());
        let mut st = crate::observe::BuildStats::default();
        g.add_document_observed(&a.encode(b"ACGTACGT").unwrap(), &mut st).unwrap();
        g.add_document_observed(&a.encode(b"TTACG").unwrap(), &mut st).unwrap();
        // 8 + 5 document characters plus one terminator each.
        assert_eq!(st.insertions, 15);
        assert_eq!(st.links_set, 15);
        assert_eq!(st.dispositions(), 15);
        assert!(g.mem_breakdown().total() > 0);
        // Observed construction builds the identical structure.
        let mut plain = GeneralizedSpine::new(a.clone());
        plain.add_document_bytes(b"ACGTACGT").unwrap();
        plain.add_document_bytes(b"TTACG").unwrap();
        assert_eq!(plain.as_spine().nodes(), g.as_spine().nodes());
    }

    #[test]
    fn localize_ends_with_the_last_document() {
        let (a, g) = sample();
        let n = g.as_spine().len();
        assert_eq!(n, 9 + 6 + 5);
        assert_eq!(g.localize(0), Some(DocMatch { doc: 0, offset: 0 }));
        assert_eq!(g.localize(9), Some(DocMatch { doc: 1, offset: 0 }));
        // The last document's terminator is its offset `len`; the sentinel
        // offset `n` and anything past it belong to no document.
        assert_eq!(g.localize(n - 1), Some(DocMatch { doc: 2, offset: 4 }));
        assert_eq!(g.localize(n), None);
        assert_eq!(g.localize(n + 1), None);
        assert_eq!(GeneralizedSpine::new(a).localize(0), None, "no document, no offset");
    }

    #[test]
    fn documents_read_back_from_the_backbone() {
        let (a, mut g) = sample();
        g.add_document(&[]).unwrap();
        assert_eq!(g.document(0), a.encode(b"ACGTACGT").unwrap());
        assert_eq!(g.document(1), a.encode(b"TTACG").unwrap());
        assert_eq!(g.document(2), a.encode(b"GGGG").unwrap());
        assert_eq!(g.document(3), Vec::<Code>::new());
    }

    #[test]
    fn empty_document_is_allowed() {
        let a = Alphabet::dna();
        let mut g = GeneralizedSpine::new(a);
        g.add_document(&[]).unwrap();
        g.add_document(&[0]).unwrap();
        assert_eq!(g.doc_count(), 2);
        assert_eq!(g.doc_len(0), 0);
        assert_eq!(g.find_all(&[0]), vec![DocMatch { doc: 1, offset: 0 }]);
    }
}
