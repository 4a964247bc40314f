//! Online SPINE construction (Section 3 of the paper).
//!
//! The index grows strictly at the tail: appending character `c` creates one
//! node and then walks the *link chain* of the previous tail, extending every
//! early-terminating suffix by `c`. Each chain node stands for a whole set
//! of suffix lengths, so one check per chain node suffices — the property
//! that later makes searches examine far fewer nodes than a suffix tree
//! (Table 6 of the paper).
//!
//! The walk carries `l`, the LEL of the most recently traversed link (= the
//! longest not-yet-extended suffix length), and at each chain node does one
//! of four things, mirroring the paper's CASE 1–4:
//!
//! 1. a **vertebra** for `c` exists → the extension is already indexed;
//!    link the new node to the vertebra's destination with LEL `l + 1`;
//! 2. a **rib** for `c` with `PT ≥ l` exists → same, destination is the
//!    rib's;
//! 3. **no edge** for `c` → create a rib to the new node with `PT = l` and
//!    continue up the chain (stopping after the root);
//! 4. a rib for `c` with `PT < l` exists → the rib is too weak for the
//!    pending suffixes; walk its **extrib chain**: the first element with
//!    `PT ≥ l` proves the extension exists (link there), otherwise append a
//!    fresh extrib from the chain's end to the new node (`PT = l`,
//!    `PRT =` rib's PT) and link to the chain end with LEL = last element's
//!    PT + 1.
//!
//! That walk is written once, here, for every layout: it reads the chain
//! through [`FallibleSpineOps`] and writes through a four-method node
//! store (push a node, set a link, add a rib, add an extrib), which the
//! reference [`Spine`], the §5 [`crate::CompactSpine`] and the fixed-record
//! [`crate::DiskSpine`] implement. Validation and the observer hooks come
//! with it: every [`BuildEvent`], the Scan/RibFixup phase timings included,
//! goes to one [`Observer<BuildEvent>`], and the plain entry points pass
//! [`Off`], which compiles every hook away.

use crate::node::{Extrib, Node, NodeId, Rib, ROOT};
use crate::observe::{BuildEvent, BuildPhase, BuildStats, MemBreakdown, Observer, Off};
use crate::ops::{FallibleSpineOps, LinkTree};
use std::time::Instant;
use strindex::{Alphabet, Code, Counters, Error, OnlineIndex, Result, StringIndex};

/// Where APPEND writes: the node storage of one layout. APPEND reads the
/// link chain back through [`FallibleSpineOps`], so a layout implements
/// these four writes and [`append`] does the rest. Every write targets the
/// new tail node or a chain node before it; nothing is ever removed.
pub(crate) trait NodeStore: FallibleSpineOps + StringIndex {
    /// Longest text the layout can index.
    const MAX_LEN: usize = NodeId::MAX as usize - 1;

    /// Append the tail node for `c`, linked to the root with LEL 0, and
    /// return its id.
    fn push_node(&mut self, c: Code) -> Result<NodeId>;

    /// Set `node`'s link to `(dest, lel)`.
    fn set_link(&mut self, node: NodeId, dest: NodeId, lel: u32) -> Result<()>;

    /// Add a rib labeled `c` from `node` to `dest` with threshold `pt`.
    fn add_rib(&mut self, node: NodeId, c: Code, dest: NodeId, pt: u32) -> Result<()>;

    /// Add an extrib of the chain `prt` from `node` to `dest` with
    /// threshold `pt`. Returns whether it spilled out of the node's
    /// record ([`BuildEvent::ExtribSpill`]).
    fn add_extrib(&mut self, node: NodeId, prt: u32, dest: NodeId, pt: u32) -> Result<bool>;
}

/// Append `codes` one by one ([`push`]), timing the loop as the Scan
/// phase.
pub(crate) fn extend<S: NodeStore, O: Observer<BuildEvent>>(
    s: &mut S,
    codes: &[Code],
    o: &mut O,
) -> Result<()> {
    let t0 = if O::ENABLED { Some(Instant::now()) } else { None };
    for &c in codes {
        push(s, c, o)?;
    }
    if let Some(t0) = t0 {
        let nanos = t0.elapsed().as_nanos() as u64;
        o.event(BuildEvent::Phase { phase: BuildPhase::Scan, nanos });
    }
    Ok(())
}

/// Check `code` against the code space and the layout's length limit,
/// then APPEND it: every layout's [`OnlineIndex::push`].
pub(crate) fn push<S: NodeStore, O: Observer<BuildEvent>>(
    s: &mut S,
    code: Code,
    o: &mut O,
) -> Result<()> {
    let len = FallibleSpineOps::text_len(s);
    if (code as usize) >= s.alphabet().code_space() {
        return Err(Error::InvalidSymbol { byte: code, pos: len });
    }
    if len >= S::MAX_LEN {
        return Err(Error::TooLong { len, max: S::MAX_LEN });
    }
    append(s, code, o)
}

/// The paper's APPEND (module docs): push the tail node, find its link by
/// walking the link chain of the old tail, and set it. Every
/// `if O::ENABLED` block vanishes for the disabled observer.
fn append<S: NodeStore, O: Observer<BuildEvent>>(s: &mut S, c: Code, o: &mut O) -> Result<()> {
    let t = s.push_node(c)?;
    if t - 1 == ROOT {
        // First character: the new node already links to the root.
        if O::ENABLED {
            o.event(BuildEvent::FirstChar);
            o.event(BuildEvent::LinkSet { dest: ROOT, lel: 0 });
        }
        return Ok(());
    }
    let (dest, lel, case) = find_link(s, o, c, t)?;
    s.set_link(t, dest, lel)?;
    if O::ENABLED {
        o.event(case);
        o.event(BuildEvent::LinkSet { dest, lel });
    }
    Ok(())
}

/// Walk the link chain of the old tail `t - 1` through CASE 1–4, adding
/// the ribs and extribs the new node `t` needs. Returns `t`'s link and
/// the disposition that found it.
fn find_link<S: NodeStore, O: Observer<BuildEvent>>(
    s: &mut S,
    o: &mut O,
    c: Code,
    t: NodeId,
) -> Result<(NodeId, u32, BuildEvent)> {
    let (mut cur, mut l) = s.try_link_of(t - 1)?;
    loop {
        // CASE 1. (The outgoing vertebra of a chain node always exists:
        // chain nodes precede the old tail.)
        debug_assert!(cur < t - 1);
        if s.try_vertebra_out(cur)? == Some(c) {
            return Ok((cur + 1, l + 1, BuildEvent::Case1));
        }
        match s.try_rib_of(cur, c)? {
            Some((dest, pt)) if pt >= l => return Ok((dest, l + 1, BuildEvent::Case2)),
            // CASE 4: the rib's threshold is too small.
            Some((dest, pt)) => return extend_via_extribs(s, o, dest, pt, l, t),
            None => {
                // CASE 3: first-time extension — create a rib.
                s.add_rib(cur, c, t, l)?;
                if O::ENABLED {
                    o.event(BuildEvent::RibCreated { pt: l });
                }
                if cur == ROOT {
                    debug_assert_eq!(l, 0, "links into the root carry LEL 0");
                    return Ok((ROOT, 0, BuildEvent::Case3Root));
                }
                if O::ENABLED {
                    o.event(BuildEvent::ChainStep);
                }
                (cur, l) = s.try_link_of(cur)?;
            }
        }
    }
}

/// CASE 4: walk the extrib chain of the rib to `rib_dest` whose PT is
/// `prt` (all elements share `PRT == prt`). Chain PTs increase strictly,
/// covering `(prt, PT₁], (PT₁, PT₂], …`.
fn extend_via_extribs<S: NodeStore, O: Observer<BuildEvent>>(
    s: &mut S,
    o: &mut O,
    rib_dest: NodeId,
    prt: u32,
    l: u32,
    t: NodeId,
) -> Result<(NodeId, u32, BuildEvent)> {
    let t0 = if O::ENABLED { Some(Instant::now()) } else { None };
    let (mut last_dest, mut last_pt) = (rib_dest, prt);
    let found = loop {
        match s.try_extrib_of(last_dest, prt)? {
            // The length-`l` extension already exists, ending at `dest`.
            Some((dest, pt)) if pt >= l => break (dest, l + 1, BuildEvent::Case4Link),
            Some((dest, pt)) => {
                debug_assert!(pt > last_pt, "extrib chain PTs must increase");
                if O::ENABLED {
                    o.event(BuildEvent::ChainStep);
                }
                (last_dest, last_pt) = (dest, pt);
            }
            // Chain exhausted: record the new extension from its end.
            None => {
                let spilled = s.add_extrib(last_dest, prt, t, l)?;
                if O::ENABLED {
                    o.event(BuildEvent::ExtribCreated { prt, pt: l });
                    if spilled {
                        o.event(BuildEvent::ExtribSpill);
                    }
                }
                break (last_dest, last_pt + 1, BuildEvent::Case4Extrib);
            }
        }
    };
    if let Some(t0) = t0 {
        let nanos = t0.elapsed().as_nanos() as u64;
        o.event(BuildEvent::Phase { phase: BuildPhase::RibFixup, nanos });
    }
    Ok(found)
}

/// The reference SPINE index: explicit nodes and edges in memory.
///
/// Built online ([`OnlineIndex::push`]) or in one shot ([`Spine::build`]).
/// Queries live in [`crate::search`], [`crate::occurrences`] and
/// [`crate::matching`].
pub struct Spine {
    pub(crate) alphabet: Alphabet,
    pub(crate) nodes: Vec<Node>,
    /// The backbone labels, one store: `labels[i]` is text symbol `i`, the
    /// label of the vertebra leaving node `i`.
    pub(crate) labels: Vec<Code>,
    pub(crate) counters: Counters,
}

impl Spine {
    /// An empty index (just the root) over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        Spine {
            alphabet,
            nodes: vec![Node::default()],
            labels: Vec::new(),
            counters: Counters::new(),
        }
    }

    /// Build the index for an encoded text in one call.
    pub fn build(alphabet: Alphabet, text: &[Code]) -> Result<Self> {
        Self::build_observed(alphabet, text, &mut Off)
    }

    /// Convenience: encode `text` with `alphabet` and build.
    pub fn build_from_bytes(alphabet: Alphabet, text: &[u8]) -> Result<Self> {
        let codes = alphabet.encode(text)?;
        Self::build(alphabet, &codes)
    }

    /// Build while reporting every build event to `observer`. With [`Off`]
    /// this monomorphizes to the same code as [`Spine::build`].
    pub fn build_observed<O: Observer<BuildEvent>>(
        alphabet: Alphabet,
        text: &[Code],
        observer: &mut O,
    ) -> Result<Self> {
        let mut s = Spine::new(alphabet);
        s.nodes.reserve(text.len());
        s.labels.reserve_exact(text.len());
        extend(&mut s, text, observer)?;
        Ok(s)
    }

    /// Build and return the index together with a reconciled
    /// [`BuildStats`] (event counts, Scan-phase timing, memory breakdown).
    pub fn build_with_stats(alphabet: Alphabet, text: &[Code]) -> Result<(Self, BuildStats)> {
        let mut stats = BuildStats::default();
        let s = Self::build_observed(alphabet, text, &mut stats)?;
        stats.mem = s.mem_breakdown();
        Ok((s, stats))
    }

    /// Observed batch append: times the whole loop as the Scan phase.
    pub fn extend_from_observed<O: Observer<BuildEvent>>(
        &mut self,
        codes: &[Code],
        observer: &mut O,
    ) -> Result<()> {
        extend(self, codes, observer)
    }

    /// Observed online append (same validation as [`OnlineIndex::push`]).
    pub fn push_observed<O: Observer<BuildEvent>>(
        &mut self,
        code: Code,
        observer: &mut O,
    ) -> Result<()> {
        push(self, code, observer)
    }

    /// Heap bytes split by edge kind, consistent with [`Spine::heap_bytes`]:
    /// edges count by length (they are exact-length slices), the
    /// link-child list ids count with the links, and the vertebrae are the
    /// label store, one byte per symbol.
    pub fn mem_breakdown(&self) -> MemBreakdown {
        let n = self.nodes.len() as u64;
        let ribs: u64 = self
            .nodes
            .iter()
            .map(|nd| nd.ribs.len() as u64 * std::mem::size_of::<Rib>() as u64)
            .sum();
        let extribs: u64 = self
            .nodes
            .iter()
            .map(|nd| nd.extribs.len() as u64 * std::mem::size_of::<Extrib>() as u64)
            .sum();
        MemBreakdown {
            vertebrae: self.labels.len() as u64 * std::mem::size_of::<Code>() as u64,
            // link + LEL, plus first_child + next_sibling.
            links: n * 4 * std::mem::size_of::<NodeId>() as u64,
            ribs,
            extribs,
        }
    }

    /// Number of indexed characters (== number of non-root nodes: SPINE's
    /// defining property).
    pub fn len(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Is the index empty (no characters appended yet)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The index's alphabet.
    pub fn alphabet_ref(&self) -> &Alphabet {
        &self.alphabet
    }

    /// All nodes, root first. Exposed for the stats/verify modules and the
    /// compact-layout converter.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Search-work counters (see [`strindex::Counters`]).
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Reconstruct the indexed text from the vertebra labels. The paper
    /// highlights that "the data string is not required any more once the
    /// index is constructed" — this is that property made executable.
    pub fn recover_text(&self) -> Vec<Code> {
        self.labels.clone()
    }
}

impl NodeStore for Spine {
    // The build loop's per-symbol write: left to the inliner it stays a
    // call, and builds measured ~3 % slower.
    #[inline(always)]
    fn push_node(&mut self, c: Code) -> Result<NodeId> {
        let t = self.nodes.len() as NodeId;
        self.nodes.push(Node::default());
        self.labels.push(c);
        if t == 1 {
            // The first node links to the root without a `set_link`, so
            // it joins the root's child list here.
            self.nodes[ROOT as usize].first_child = t;
        }
        Ok(t)
    }

    /// Set `node`'s link and push `node` onto `dest`'s link-child list.
    /// Nodes are linked in creation order, so siblings stay in descending
    /// id order.
    #[inline]
    fn set_link(&mut self, node: NodeId, dest: NodeId, lel: u32) -> Result<()> {
        let next_sibling = std::mem::replace(&mut self.nodes[dest as usize].first_child, node);
        let n = &mut self.nodes[node as usize];
        n.link = dest;
        n.lel = lel;
        n.next_sibling = next_sibling;
        Ok(())
    }

    #[inline]
    fn add_rib(&mut self, node: NodeId, c: Code, dest: NodeId, pt: u32) -> Result<()> {
        self.nodes[node as usize].push_rib(Rib { cl: c, dest, pt });
        Ok(())
    }

    #[inline]
    fn add_extrib(&mut self, node: NodeId, prt: u32, dest: NodeId, pt: u32) -> Result<bool> {
        self.nodes[node as usize].push_extrib(Extrib { prt, pt, dest });
        Ok(false)
    }
}

impl FallibleSpineOps for Spine {
    fn text_len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        Ok(self.labels.get(node as usize).copied())
    }

    #[inline]
    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        let n = &self.nodes[node as usize];
        Ok((n.link, n.lel))
    }

    #[inline]
    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        Ok(self.nodes[node as usize].rib(c).map(|r| (r.dest, r.pt)))
    }

    #[inline]
    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        Ok(self.nodes[node as usize].extrib(prt).map(|e| (e.dest, e.pt)))
    }

    fn ops_counters(&self) -> &Counters {
        &self.counters
    }

    fn link_tree(&self) -> Option<LinkTree<'_>> {
        Some(LinkTree::Lists(&self.nodes))
    }
}

impl OnlineIndex for Spine {
    fn push(&mut self, code: Code) -> Result<()> {
        push(self, code, &mut Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build over the paper's running example `aaccacaaca`.
    fn paper_spine() -> (Alphabet, Spine) {
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        (a, s)
    }

    #[test]
    fn one_node_per_character() {
        let (_, s) = paper_spine();
        assert_eq!(s.len(), 10);
        assert_eq!(s.nodes().len(), 11);
    }

    #[test]
    fn recover_text_round_trips() {
        let (a, s) = paper_spine();
        assert_eq!(a.decode_all(&s.recover_text()), b"AACCACAACA");
    }

    #[test]
    fn paper_figure3_links() {
        // Derived by hand from the definitions (LET suffix / first
        // occurrence); the figure's own numerals are partly illegible in the
        // source, but the paper's text confirms link(8) = (node 2, LEL 2).
        let (_, s) = paper_spine();
        let link = |i: usize| (s.nodes()[i].link, s.nodes()[i].lel);
        assert_eq!(link(1), (0, 0)); // "a": nothing earlier
        assert_eq!(link(2), (1, 1)); // "aa" → LET "a" ends at 1
        assert_eq!(link(3), (0, 0)); // "aac": "c" is new
        assert_eq!(link(4), (3, 1)); // "aacc" → LET "c" ends at 3
        assert_eq!(link(5), (1, 1)); // "aacca" → LET "a" ends at 1
        assert_eq!(link(6), (3, 2)); // "aaccac" → LET "ac" ends at 3
        assert_eq!(link(7), (5, 2)); // "aaccaca" → LET "ca" ends at 5
        assert_eq!(link(8), (2, 2)); // "aaccacaa" → LET "aa" ends at 2  (paper)
        assert_eq!(link(9), (3, 3)); // "aaccacaac" → LET "aac" ends at 3
        assert_eq!(link(10), (7, 3)); // "aaccacaaca" → LET "aca" ends at 7
    }

    #[test]
    fn paper_figure3_edge_census() {
        // §1.1: "it has 11 nodes and 26 edges" — 10 vertebras, 10 links,
        // 4 ribs, 2 extribs.
        let (_, s) = paper_spine();
        let ribs: usize = s.nodes().iter().map(|n| n.ribs.len()).sum();
        let extribs: usize = s.nodes().iter().map(|n| n.extribs.len()).sum();
        let vertebras = s.len();
        let links = s.len(); // every non-root node has exactly one
        assert_eq!(ribs, 4);
        assert_eq!(extribs, 2);
        assert_eq!(vertebras + links + ribs + extribs, 26);
        // The chain the paper describes: extrib 5→7, then 7→10, both PRT 1.
        let e2 = s.nodes()[7].extrib(1).expect("second chain element");
        assert_eq!((e2.dest, e2.pt, e2.prt), (10, 3, 1));
    }

    #[test]
    fn paper_figure3_ribs() {
        let (a, s) = paper_spine();
        let c = |ch: u8| a.encode_byte(ch).unwrap();
        // Paper: "the rib from Node 3 has a PT of 1" (for character a → node 5,
        // created while appending position 5).
        let rib = s.nodes()[3].rib(c(b'a')).expect("rib at node 3");
        assert_eq!((rib.dest, rib.pt), (5, 1));
        // Paper: "the extrib from Node 5 to Node 7 has a PRT of 1 and PT of 2".
        let e = s.nodes()[5].extrib(1).expect("extrib at node 5");
        assert_eq!((e.dest, e.pt, e.prt), (7, 2, 1));
    }

    #[test]
    fn case1_vertebra_found() {
        // Appending position 2 of "aa…": chain starts at link(1) = root,
        // whose vertebra is labeled 'a' → CASE 1, link(2) = (1, 1).
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a, b"AA").unwrap();
        assert_eq!((s.nodes()[2].link, s.nodes()[2].lel), (1, 1));
        assert!(s.nodes()[0].ribs.is_empty());
    }

    #[test]
    fn case3_rib_from_root_has_pt0() {
        // "AC": appending C walks to the root and creates a rib with PT 0.
        let a = Alphabet::dna();
        let s = Spine::build_from_bytes(a.clone(), b"AC").unwrap();
        let rib = s.nodes()[0].rib(a.encode_byte(b'C').unwrap()).unwrap();
        assert_eq!((rib.dest, rib.pt), (2, 0));
        assert_eq!((s.nodes()[2].link, s.nodes()[2].lel), (0, 0));
    }

    #[test]
    fn push_rejects_out_of_alphabet_codes() {
        let a = Alphabet::dna();
        let mut s = Spine::new(a);
        assert!(s.push(3).is_ok());
        // 4 is the separator (allowed), 5 is out of range.
        assert!(s.push(4).is_ok());
        assert!(matches!(s.push(5), Err(Error::InvalidSymbol { .. })));
    }

    #[test]
    fn empty_index() {
        let s = Spine::new(Alphabet::dna());
        assert!(s.is_empty());
        assert_eq!(s.recover_text(), Vec::<Code>::new());
    }

    #[test]
    fn build_stats_reconcile_on_paper_example() {
        let a = Alphabet::dna();
        let codes = a.encode(b"AACCACAACA").unwrap();
        let (s, st) = Spine::build_with_stats(a, &codes).unwrap();
        assert_eq!(st.insertions, 10);
        assert_eq!(st.dispositions(), 10);
        assert_eq!(st.links_set, 10);
        // Figure 3 census: 4 ribs, 2 extribs.
        assert_eq!(st.ribs_created, 4);
        assert_eq!(st.extribs_created, 2);
        let struct_ribs: u64 = s.nodes().iter().map(|n| n.ribs.len() as u64).sum();
        let struct_extribs: u64 = s.nodes().iter().map(|n| n.extribs.len() as u64).sum();
        assert_eq!(st.ribs_created, struct_ribs);
        assert_eq!(st.extribs_created, struct_extribs);
        let positive = s.nodes()[1..].iter().filter(|n| n.lel > 0).count() as u64;
        assert_eq!(st.links_with_positive_lel, positive);
        assert_eq!(st.max_lel, 3);
        // Scan phase was timed and memory was accounted.
        assert!(st.nodes_per_sec().is_some());
        assert!(st.mem.total() > 0);
        assert_eq!(st.mem.vertebrae, 10);
    }

    #[test]
    fn observed_build_equals_plain_build() {
        let a = Alphabet::dna();
        let codes = a.encode(b"ACGTACGGTACGTTTACGACG").unwrap();
        let plain = Spine::build(a.clone(), &codes).unwrap();
        let (observed, _) = Spine::build_with_stats(a, &codes).unwrap();
        assert_eq!(plain.nodes(), observed.nodes());
    }

    #[test]
    fn online_equals_batch() {
        let a = Alphabet::dna();
        let text = a.encode(b"ACGTACGGTACGTTTACGACG").unwrap();
        let batch = Spine::build(a.clone(), &text).unwrap();
        let mut online = Spine::new(a);
        for &c in &text {
            online.push(c).unwrap();
        }
        assert_eq!(batch.nodes(), online.nodes());
    }
}
