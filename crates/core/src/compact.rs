//! The space-optimized SPINE layout (Section 5 of the paper).
//!
//! A naive node stores every possible field inline and costs 48.25 bytes for
//! DNA (Table 2). The paper's optimizations, all implemented here, bring
//! the index under 12 bytes per indexed character:
//!
//! * **Implicit vertebras** — creation order equals logical order, so the
//!   vertebra destination field disappears; character labels are bit-packed
//!   in [`PackedChars`] at [`Alphabet::label_bits`] (3 bits for DNA, whose
//!   separator is a fifth code; 5 for protein).
//! * **Small numeric labels** — measured PT/LEL/PRT maxima stay far below
//!   2¹⁶ (Table 3), so labels are `u16`s; the rare larger value parks in an
//!   overflow table behind an in-slot sentinel, exactly the paper's
//!   flag-plus-overflow-table mechanism.
//! * **Sparse rib storage** — only ~30 % of nodes have downstream edges
//!   (Table 4), so the **Link Table** (one fixed entry per character: LEL +
//!   link-destination-or-pointer) is separated from dynamically allocated
//!   **Rib Tables**, one per fan-out class (RT1..RT4, Figure 5). A node's
//!   LT entry either holds its link destination directly or points into the
//!   RT holding its edges; when a node gains an edge it *migrates* to the
//!   next table (the free slot it leaves is recycled through a free list —
//!   the paper claims this movement cost is negligible, and the ablation
//!   bench measures it). A node that outgrows the last table widens that
//!   table's rows instead: extrib chains can collide at one node beyond the
//!   (σ−1)+4 edges the last class holds.
//!
//! Construction is online and runs the one APPEND of [`crate::build`]
//! over this layout's node store; the two representations are checked
//! edge-for-edge against each other by the equivalence tests. All query
//! algorithms come from the shared [`FallibleSpineOps`] implementation.

use crate::build::{self, NodeStore};
use crate::node::{NodeId, ROOT};
use crate::observe::{BuildEvent, MemBreakdown, Observer, Off};
use crate::ops::{FallibleSpineOps, INFALLIBLE_BOUNDARY};
use strindex::{
    Alphabet, Code, Counters, FxHashMap, MatchingIndex, MatchingStats, MaximalMatch, OnlineIndex,
    Result, StringIndex,
};

/// In-slot sentinel meaning "the true value lives in the overflow table".
const LABEL_OVERFLOW: u16 = u16::MAX;
/// Slot-kind marker: unused slot.
const SLOT_EMPTY: u8 = 0xFF;
/// Slot-kind marker: extrib slot (PRT field valid).
const SLOT_EXTRIB: u8 = 0xFE;

/// LT pointer tag: bit 31 set ⇒ the entry points into a Rib Table.
const PTR_TAG: u32 = 1 << 31;
const CLASS_SHIFT: u32 = 29;
const IDX_MASK: u32 = (1 << CLASS_SHIFT) - 1;

/// Bit-packed character labels (the backbone's vertebra labels).
pub struct PackedChars {
    bits: u32,
    len: usize,
    words: Vec<u64>,
}

impl PackedChars {
    fn new(bits: u32) -> Self {
        assert!((1..=8).contains(&bits));
        PackedChars { bits, len: 0, words: Vec::new() }
    }

    fn push(&mut self, c: Code) {
        debug_assert!((c as u64) < (1u64 << self.bits));
        let bit = self.len * self.bits as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        if w >= self.words.len() {
            self.words.push(0);
        }
        self.words[w] |= (c as u64) << off;
        let spill = off + self.bits > 64;
        if spill {
            self.words.push((c as u64) >> (64 - off));
        }
        self.len += 1;
    }

    /// Character at position `i` (0-based).
    pub fn get(&self, i: usize) -> Code {
        debug_assert!(i < self.len);
        let bit = i * self.bits as usize;
        let (w, off) = (bit / 64, (bit % 64) as u32);
        let mut v = self.words[w] >> off;
        if off + self.bits > 64 {
            v |= self.words[w + 1] << (64 - off);
        }
        (v & ((1u64 << self.bits) - 1)) as Code
    }

    /// Number of stored characters.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn heap_bytes(&self) -> usize {
        self.words.capacity() * 8
    }
}

/// One downstream-edge slot of a Rib Table row.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// Character label for ribs; [`SLOT_EXTRIB`] / [`SLOT_EMPTY`] markers.
    kind: u8,
    /// Destination node.
    rd: u32,
    /// Pathlength threshold ([`LABEL_OVERFLOW`] ⇒ overflow table).
    pt: u16,
    /// Parent-rib threshold, extrib slots only.
    prt: u16,
}

const EMPTY_SLOT: Slot = Slot { kind: SLOT_EMPTY, rd: 0, pt: 0, prt: 0 };

/// Fixed-stride Rib Table: row `i`'s slots live at `i*cap..(i+1)*cap`.
struct RtTable {
    cap: usize,
    /// Per-row: (owning node, link destination, used-slot count).
    rows: Vec<(u32, u32, u16)>,
    slots: Vec<Slot>,
    free: Vec<u32>,
}

impl RtTable {
    fn new(cap: usize) -> Self {
        RtTable { cap, rows: Vec::new(), slots: Vec::new(), free: Vec::new() }
    }

    fn alloc(&mut self, node: u32, ld: u32) -> u32 {
        if let Some(i) = self.free.pop() {
            self.rows[i as usize] = (node, ld, 0);
            self.slots[i as usize * self.cap..(i as usize + 1) * self.cap].fill(EMPTY_SLOT);
            i
        } else {
            self.rows.push((node, ld, 0));
            self.slots.resize(self.slots.len() + self.cap, EMPTY_SLOT);
            (self.rows.len() - 1) as u32
        }
    }

    fn release(&mut self, i: u32) {
        self.free.push(i);
    }

    /// Re-stride every row to `cap` slots, each row's slots staying at
    /// their positions (the overflow-table keys stay valid).
    fn widen(&mut self, cap: usize) {
        debug_assert!(cap > self.cap);
        let mut slots = vec![EMPTY_SLOT; self.rows.len() * cap];
        for (i, row) in self.slots.chunks_exact(self.cap).enumerate() {
            slots[i * cap..i * cap + self.cap].copy_from_slice(row);
        }
        self.slots = slots;
        self.cap = cap;
    }

    fn live_rows(&self) -> usize {
        self.rows.len() - self.free.len()
    }

    fn heap_bytes(&self) -> usize {
        self.rows.capacity() * std::mem::size_of::<(u32, u32, u16)>()
            + self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.free.capacity() * 4
    }
}

/// Instrumentation of the compact layout's dynamic behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Rows moved to a larger Rib Table (the §5.1 migration cost).
    pub migrations: u64,
    /// Labels parked in the overflow table.
    pub label_overflows: u64,
}

/// The §5-optimized SPINE index.
///
/// Functionally identical to [`crate::Spine`] (the tests check edge-for-edge
/// equality); physically a Link Table + fan-out-classed Rib Tables.
///
/// ```
/// use spine::CompactSpine;
/// use strindex::{Alphabet, StringIndex};
///
/// let alphabet = Alphabet::dna();
/// let index = CompactSpine::build_from_bytes(alphabet.clone(), b"AACCACAACA").unwrap();
/// assert_eq!(index.find_all(&alphabet.encode(b"CA").unwrap()), vec![3, 5, 8]);
/// assert_eq!(index.recover_text(), alphabet.encode(b"AACCACAACA").unwrap());
/// ```
///
/// The "< 12 bytes per indexed character" claim holds at realistic sizes —
/// see `layout_stays_under_12_bytes_per_char_for_dna` and `exp space`.
pub struct CompactSpine {
    alphabet: Alphabet,
    chars: PackedChars,
    /// Link Table, label column (entry 0 = root, unused).
    lels: Vec<u16>,
    /// Link Table, pointer column: untagged link destination, or tagged
    /// Rib-Table reference.
    ptrs: Vec<u32>,
    /// Rib tables by fan-out class (RT1..RT4; the last class is sized for
    /// the alphabet's full edge complement plus extrib slack, and widens
    /// when a row outgrows it).
    rts: Vec<RtTable>,
    /// Overflow for LEL values ≥ 2¹⁶−1, keyed by node.
    lel_overflow: FxHashMap<u32, u32>,
    /// Overflow for slot PT/PRT values, keyed by (node, slot position).
    slot_overflow: FxHashMap<(u32, u8), (u32, u32)>,
    stats: CompactStats,
    counters: Counters,
}

impl CompactSpine {
    /// An empty compact index over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        // Slot kinds 0xFE/0xFF are markers, so symbol codes must stay below
        // 0xFE (every built-in alphabet except raw bytes qualifies).
        assert!(
            alphabet.code_space() < SLOT_EXTRIB as usize,
            "compact layout supports alphabets up to 253 symbols"
        );
        let bits = alphabet.label_bits();
        // RT classes 1..=3 as in the paper; the final class holds the full
        // complement: up to size−1 ribs plus room for extrib chains.
        let max_cap = (alphabet.size() - 1) + 4;
        let caps: Vec<usize> = (1..=3).chain([max_cap.max(4)]).collect();
        CompactSpine {
            alphabet,
            chars: PackedChars::new(bits),
            lels: vec![0],
            ptrs: vec![ROOT],
            rts: caps.into_iter().map(RtTable::new).collect(),
            lel_overflow: FxHashMap::default(),
            slot_overflow: FxHashMap::default(),
            stats: CompactStats::default(),
            counters: Counters::new(),
        }
    }

    /// Build from an encoded text in one call.
    pub fn build(alphabet: Alphabet, text: &[Code]) -> Result<Self> {
        Self::build_observed(alphabet, text, &mut Off)
    }

    /// Convenience: encode `text` with `alphabet` and build.
    pub fn build_from_bytes(alphabet: Alphabet, text: &[u8]) -> Result<Self> {
        let codes = alphabet.encode(text)?;
        Self::build(alphabet, &codes)
    }

    /// Build while reporting every build event to `observer`; emits the
    /// same event stream as [`crate::Spine::build_observed`] on the same
    /// text (the cross-engine property tests pin this).
    pub fn build_observed<O: Observer<BuildEvent>>(
        alphabet: Alphabet,
        text: &[Code],
        observer: &mut O,
    ) -> Result<Self> {
        let mut s = CompactSpine::new(alphabet);
        s.lels.reserve(text.len());
        s.ptrs.reserve(text.len());
        build::extend(&mut s, text, observer)?;
        Ok(s)
    }

    /// Heap bytes split by edge kind. Rib-Table rows are shared between
    /// rib and extrib slots, so the split prorates each row's fixed cost
    /// (LD word) to the rib column and assigns slots by their kind.
    pub fn mem_breakdown(&self) -> MemBreakdown {
        let mut ribs = 0u64;
        let mut extribs = 0u64;
        for t in &self.rts {
            // Fixed row overhead (node, LD, used) counts toward ribs.
            ribs += t.rows.capacity() as u64 * std::mem::size_of::<(u32, u32, u16)>() as u64
                + t.free.capacity() as u64 * 4;
            for (ri, row) in t.rows.iter().enumerate() {
                if t.free.contains(&(ri as u32)) {
                    continue;
                }
                let base = ri * t.cap;
                for s in &t.slots[base..base + row.2 as usize] {
                    if s.kind == SLOT_EXTRIB {
                        extribs += std::mem::size_of::<Slot>() as u64;
                    } else {
                        ribs += std::mem::size_of::<Slot>() as u64;
                    }
                }
            }
            // Unused slot capacity is rib-table slack.
            let used: u64 = t
                .rows
                .iter()
                .enumerate()
                .filter(|(ri, _)| !t.free.contains(&(*ri as u32)))
                .map(|(_, r)| r.2 as u64)
                .sum();
            let total_slots = t.slots.capacity() as u64;
            ribs += (total_slots - used.min(total_slots)) * std::mem::size_of::<Slot>() as u64;
        }
        extribs += self.slot_overflow.len() as u64 * 16;
        MemBreakdown {
            vertebrae: self.chars.heap_bytes() as u64,
            links: self.lels.capacity() as u64 * 2
                + self.ptrs.capacity() as u64 * 4
                + self.lel_overflow.len() as u64 * 16,
            ribs,
            extribs,
        }
    }

    /// Number of indexed characters.
    pub fn len(&self) -> usize {
        self.chars.len()
    }

    /// Is the index empty?
    pub fn is_empty(&self) -> bool {
        self.chars.is_empty()
    }

    /// Dynamic-behaviour statistics (migrations, overflows).
    pub fn stats(&self) -> CompactStats {
        self.stats
    }

    /// Reconstruct the indexed text from the packed vertebra labels.
    pub fn recover_text(&self) -> Vec<Code> {
        (0..self.len()).map(|i| self.chars.get(i)).collect()
    }

    // ----- label helpers ---------------------------------------------------

    fn lel_value(&self, node: u32) -> u32 {
        let raw = self.lels[node as usize];
        if raw == LABEL_OVERFLOW {
            self.lel_overflow[&node]
        } else {
            raw as u32
        }
    }

    fn store_lel(&mut self, node: u32, lel: u32) {
        if lel >= LABEL_OVERFLOW as u32 {
            self.lels[node as usize] = LABEL_OVERFLOW;
            self.lel_overflow.insert(node, lel);
            self.stats.label_overflows += 1;
        } else {
            self.lels[node as usize] = lel as u16;
        }
    }

    /// Resolve a slot's (pt, prt), consulting the overflow table.
    fn slot_labels(&self, node: u32, slot_idx: u8, s: &Slot) -> (u32, u32) {
        if s.pt == LABEL_OVERFLOW || (s.kind == SLOT_EXTRIB && s.prt == LABEL_OVERFLOW) {
            self.slot_overflow[&(node, slot_idx)]
        } else {
            (s.pt as u32, s.prt as u32)
        }
    }

    // ----- LT/RT plumbing --------------------------------------------------

    fn rt_ref(&self, node: u32) -> Option<(usize, u32)> {
        let p = self.ptrs[node as usize];
        (p & PTR_TAG != 0).then_some((((p >> CLASS_SHIFT) & 0x3) as usize, p & IDX_MASK))
    }

    fn link_dest(&self, node: u32) -> u32 {
        match self.rt_ref(node) {
            Some((class, idx)) => self.rts[class].rows[idx as usize].1,
            None => self.ptrs[node as usize],
        }
    }

    /// Iterate the used slots of `node` (if it has an RT row).
    fn slots_of(&self, node: u32) -> &[Slot] {
        match self.rt_ref(node) {
            Some((class, idx)) => {
                let t = &self.rts[class];
                let (_, _, used) = t.rows[idx as usize];
                let base = idx as usize * t.cap;
                &t.slots[base..base + used as usize]
            }
            None => &[],
        }
    }

    /// Append a downstream-edge slot to `node`, migrating its row to a
    /// larger Rib Table when full. Returns the slot's stable position.
    fn push_slot(&mut self, node: u32, slot: Slot) -> u8 {
        match self.rt_ref(node) {
            None => {
                // First edge: move the link destination into a fresh RT1 row.
                let ld = self.ptrs[node as usize];
                let idx = self.rts[0].alloc(node, ld);
                let base = idx as usize * self.rts[0].cap;
                self.rts[0].slots[base] = slot;
                self.rts[0].rows[idx as usize].2 = 1;
                self.ptrs[node as usize] = PTR_TAG | idx;
                0
            }
            Some((class, idx)) => {
                let used = self.rts[class].rows[idx as usize].2 as usize;
                if used == self.rts[class].cap && class + 1 == self.rts.len() {
                    // No larger class to migrate to (the class field has
                    // two bits): the row outgrows the last class by
                    // widening it. Rare — on 1 Mi-symbol DNA at most one
                    // node, when any, exceeds (σ−1)+4 edges.
                    self.rts[class].widen(used + 1);
                }
                if used < self.rts[class].cap {
                    let base = idx as usize * self.rts[class].cap;
                    self.rts[class].slots[base + used] = slot;
                    self.rts[class].rows[idx as usize].2 = (used + 1) as u16;
                    used as u8
                } else {
                    // Migrate to the next class (slot order preserved so the
                    // overflow-table keys stay valid).
                    let next = class + 1;
                    let (_, ld, _) = self.rts[class].rows[idx as usize];
                    let nidx = self.rts[next].alloc(node, ld);
                    let src = idx as usize * self.rts[class].cap;
                    let dst = nidx as usize * self.rts[next].cap;
                    for k in 0..used {
                        self.rts[next].slots[dst + k] = self.rts[class].slots[src + k];
                    }
                    self.rts[next].slots[dst + used] = slot;
                    self.rts[next].rows[nidx as usize].2 = (used + 1) as u16;
                    self.rts[class].release(idx);
                    self.ptrs[node as usize] = PTR_TAG | ((next as u32) << CLASS_SHIFT) | nidx;
                    self.stats.migrations += 1;
                    used as u8
                }
            }
        }
    }

    // ----- space accounting -------------------------------------------------

    /// Actual heap bytes of this Rust representation.
    pub fn heap_bytes(&self) -> usize {
        self.chars.heap_bytes()
            + self.lels.capacity() * 2
            + self.ptrs.capacity() * 4
            + self.rts.iter().map(RtTable::heap_bytes).sum::<usize>()
            + (self.lel_overflow.len() + self.slot_overflow.len()) * 16
    }

    /// Bytes per indexed character of the *paper's packed layout* (LT row =
    /// 2-byte LEL + 4-byte pointer; RT row = 4-byte LD + 6 bytes per rib
    /// slot + 8 per extrib slot; packed character labels; overflow tables).
    /// This is the figure comparable to the paper's "< 12 bytes per indexed
    /// character".
    pub fn layout_bytes_per_char(&self) -> f64 {
        let n = self.len().max(1) as f64;
        let lt = self.len() as f64 * 6.0;
        let chars = self.len() as f64 * self.chars.bits as f64 / 8.0;
        let mut rt = 0f64;
        for t in &self.rts {
            for (ri, row) in t.rows.iter().enumerate() {
                if t.free.contains(&(ri as u32)) {
                    continue;
                }
                rt += 4.0; // LD
                let base = ri * t.cap;
                for s in &t.slots[base..base + row.2 as usize] {
                    rt += if s.kind == SLOT_EXTRIB { 8.0 } else { 6.0 };
                }
            }
        }
        let overflow = (self.lel_overflow.len() + self.slot_overflow.len()) as f64 * 8.0;
        (lt + chars + rt + overflow) / n
    }

    /// Live rows per Rib-Table class (diagnostics / Table 4 cross-check).
    pub fn rt_occupancy(&self) -> Vec<usize> {
        self.rts.iter().map(RtTable::live_rows).collect()
    }
}

impl NodeStore for CompactSpine {
    const MAX_LEN: usize = IDX_MASK as usize;

    // The build loop's per-symbol write: left to the inliner it stays a
    // call, and builds measured ~3 % slower.
    #[inline(always)]
    fn push_node(&mut self, c: Code) -> Result<NodeId> {
        self.chars.push(c);
        self.lels.push(0);
        self.ptrs.push(ROOT);
        Ok(self.len() as NodeId)
    }

    #[inline]
    fn set_link(&mut self, node: NodeId, dest: NodeId, lel: u32) -> Result<()> {
        debug_assert!(self.rt_ref(node).is_none(), "tail node cannot have edges yet");
        self.ptrs[node as usize] = dest;
        self.store_lel(node, lel);
        Ok(())
    }

    fn add_rib(&mut self, node: NodeId, c: Code, dest: NodeId, pt: u32) -> Result<()> {
        let stored_pt = if pt >= LABEL_OVERFLOW as u32 { LABEL_OVERFLOW } else { pt as u16 };
        let slot = Slot { kind: c, rd: dest, pt: stored_pt, prt: 0 };
        let pos = self.push_slot(node, slot);
        if stored_pt == LABEL_OVERFLOW {
            self.slot_overflow.insert((node, pos), (pt, 0));
            self.stats.label_overflows += 1;
        }
        Ok(())
    }

    fn add_extrib(&mut self, node: NodeId, prt: u32, dest: NodeId, pt: u32) -> Result<bool> {
        let over = pt >= LABEL_OVERFLOW as u32 || prt >= LABEL_OVERFLOW as u32;
        let slot = Slot {
            kind: SLOT_EXTRIB,
            rd: dest,
            pt: if over { LABEL_OVERFLOW } else { pt as u16 },
            prt: if over { LABEL_OVERFLOW } else { prt as u16 },
        };
        let pos = self.push_slot(node, slot);
        if over {
            self.slot_overflow.insert((node, pos), (pt, prt));
            self.stats.label_overflows += 1;
        }
        Ok(false)
    }
}

impl FallibleSpineOps for CompactSpine {
    fn text_len(&self) -> usize {
        self.len()
    }

    #[inline]
    fn try_vertebra_out(&self, node: NodeId) -> Result<Option<Code>> {
        Ok(((node as usize) < self.len()).then(|| self.chars.get(node as usize)))
    }

    #[inline]
    fn try_link_of(&self, node: NodeId) -> Result<(NodeId, u32)> {
        Ok((self.link_dest(node), self.lel_value(node)))
    }

    #[inline]
    fn try_rib_of(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        for (i, s) in self.slots_of(node).iter().enumerate() {
            if s.kind == c {
                let (pt, _) = self.slot_labels(node, i as u8, s);
                return Ok(Some((s.rd, pt)));
            }
        }
        Ok(None)
    }

    #[inline]
    fn try_extrib_of(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        for (i, s) in self.slots_of(node).iter().enumerate() {
            if s.kind == SLOT_EXTRIB {
                let (pt, sprt) = self.slot_labels(node, i as u8, s);
                if sprt == prt {
                    return Ok(Some((s.rd, pt)));
                }
            }
        }
        Ok(None)
    }

    fn ops_counters(&self) -> &Counters {
        &self.counters
    }
}

impl OnlineIndex for CompactSpine {
    fn push(&mut self, code: Code) -> Result<()> {
        build::push(self, code, &mut Off)
    }
}

impl StringIndex for CompactSpine {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn text_len(&self) -> usize {
        self.len()
    }

    fn symbol_at(&self, pos: usize) -> Code {
        self.chars.get(pos)
    }

    fn find_first(&self, pattern: &[Code]) -> Option<usize> {
        crate::search::locate(self, pattern).map(|end| end as usize - pattern.len())
    }

    fn find_all(&self, pattern: &[Code]) -> Vec<usize> {
        crate::occurrences::find_all_ends(self, pattern)
            .into_iter()
            .map(|end| end as usize - pattern.len())
            .collect()
    }
}

impl MatchingIndex for CompactSpine {
    fn matching_statistics(&self, query: &[Code]) -> MatchingStats {
        crate::matching::matching_statistics(self, query).expect(INFALLIBLE_BOUNDARY)
    }

    fn maximal_matches(&self, query: &[Code], min_len: usize) -> Vec<MaximalMatch> {
        crate::matching::maximal_matches(self, query, min_len).expect(INFALLIBLE_BOUNDARY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Spine;
    use strindex::Error;

    fn both(text: &[u8]) -> (Alphabet, Spine, CompactSpine) {
        let a = Alphabet::dna();
        let r = Spine::build_from_bytes(a.clone(), text).unwrap();
        let c = CompactSpine::build_from_bytes(a.clone(), text).unwrap();
        (a, r, c)
    }

    /// Edge-for-edge equality through the [`FallibleSpineOps`] surface.
    fn assert_equivalent(r: &Spine, c: &CompactSpine, a: &Alphabet) {
        assert_eq!(FallibleSpineOps::text_len(r), FallibleSpineOps::text_len(c));
        for node in 0..=r.len() as u32 {
            let vertebra = (r.try_vertebra_out(node).unwrap(), c.try_vertebra_out(node).unwrap());
            assert_eq!(vertebra.0, vertebra.1, "vertebra at {node}");
            if node != ROOT {
                assert_eq!(
                    r.try_link_of(node).unwrap(),
                    c.try_link_of(node).unwrap(),
                    "link {node}"
                );
            }
            for code in 0..a.code_space() as Code {
                let rib = (r.try_rib_of(node, code).unwrap(), c.try_rib_of(node, code).unwrap());
                assert_eq!(rib.0, rib.1, "rib {code} at {node}");
            }
            for e in &r.nodes()[node as usize].extribs {
                let got = c.try_extrib_of(node, e.prt).unwrap();
                assert_eq!(got, Some((e.dest, e.pt)), "extrib prt {} at {node}", e.prt);
            }
        }
    }

    #[test]
    fn packed_chars_round_trip() {
        let mut p = PackedChars::new(5);
        let vals: Vec<Code> = (0..200).map(|i| (i * 7 % 21) as Code).collect();
        for &v in &vals {
            p.push(v);
        }
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(p.get(i), v, "index {i}");
        }
        assert_eq!(p.len(), 200);
    }

    #[test]
    fn packed_chars_word_boundary() {
        // 5-bit codes cross 64-bit word boundaries at index 12/13.
        let mut p = PackedChars::new(5);
        for i in 0..30u8 {
            p.push(i % 21);
        }
        for i in 0..30usize {
            assert_eq!(p.get(i), (i % 21) as u8);
        }
    }

    #[test]
    fn equivalent_on_paper_string() {
        let (a, r, c) = both(b"AACCACAACA");
        assert_equivalent(&r, &c, &a);
        assert_eq!(c.recover_text(), r.recover_text());
    }

    #[test]
    fn equivalent_on_pathological_strings() {
        for t in [
            &b"AAAAAAAAAAAAAAAAAAAAAAAA"[..],
            b"ACACACACACACACACAC",
            b"ACGTACGTACGTACGT",
            b"AACCACAACAGGTTACGACGACCAACCACAACA",
        ] {
            let (a, r, c) = both(t);
            assert_equivalent(&r, &c, &a);
        }
    }

    #[test]
    fn queries_agree_with_reference() {
        let (a, r, c) = both(b"AACCACAACAGGTTACGACGACCA");
        for p in [&b"CA"[..], b"ACCAA", b"GG", b"AACCACAACAGGTTACGACGACCA", b"T"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&c, &p));
            assert_eq!(r.find_first(&p), c.find_first(&p));
        }
        let q = a.encode(b"TTACGACCACAACAGG").unwrap();
        assert_eq!(
            MatchingIndex::matching_statistics(&r, &q),
            MatchingIndex::matching_statistics(&c, &q)
        );
        assert_eq!(
            MatchingIndex::maximal_matches(&r, &q, 3),
            MatchingIndex::maximal_matches(&c, &q, 3)
        );
    }

    #[test]
    fn migration_happens_and_is_counted() {
        // A string whose nodes accumulate several downstream edges forces
        // RT1→RT2 (and deeper) migrations.
        let a = Alphabet::dna();
        let text = b"ACGTAGCTTACGCATGCGTACGATCGATCGTAGCATCGATGCAGTCAGT".repeat(4);
        let c = CompactSpine::build_from_bytes(a, &text).unwrap();
        assert!(c.stats().migrations > 0);
        let occ = c.rt_occupancy();
        assert!(occ[0] > 0, "RT1 should hold single-edge nodes: {occ:?}");
    }

    #[test]
    fn layout_stays_under_12_bytes_per_char_for_dna() {
        // The paper's headline space figure, on a repetitive DNA-like text.
        let a = Alphabet::dna();
        let text = b"ACGTACGGTACGTTTACGACGACCAACC".repeat(64);
        let c = CompactSpine::build_from_bytes(a, &text).unwrap();
        let b = c.layout_bytes_per_char();
        assert!(b < 12.0, "layout bytes/char = {b}");
        assert!(b > 6.0, "accounting must include LT (6 B) + labels: {b}");
    }

    #[test]
    fn free_list_recycles_rows() {
        let a = Alphabet::dna();
        let text = b"ACGTAGCTTACGCATGCGTACGATCGATCGTAGCATCGATGCAGTCAGT".repeat(2);
        let c = CompactSpine::build_from_bytes(a, &text).unwrap();
        // After migrations, RT1 must have freed rows available or reused.
        let t = &c.rts[0];
        assert_eq!(t.live_rows() + t.free.len(), t.rows.len());
    }

    #[test]
    fn protein_alphabet_works() {
        let a = Alphabet::protein();
        let text = b"MKVLAAGGMKVLAAGGWWYHKMKVLAAGG";
        let c = CompactSpine::build_from_bytes(a.clone(), text).unwrap();
        let r = Spine::build_from_bytes(a.clone(), text).unwrap();
        assert_equivalent(&r, &c, &a);
    }

    #[test]
    fn rejects_overlong_codes() {
        let mut c = CompactSpine::new(Alphabet::dna());
        assert!(matches!(c.push(9), Err(Error::InvalidSymbol { .. })));
    }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

/// Binary serialization of the compact index.
///
/// The paper argues SPINE's "linearity of its structure makes it more
/// amenable for integration with database engines"; this module makes the
/// compact layout durable: a little-endian, versioned binary format that
/// round-trips every table (Link Table, Rib Tables, free lists, overflow
/// tables, packed character labels). Combined with prefix partitioning,
/// a stored index is usable for any prefix of the text it was built on.
mod persist {
    use super::*;
    use std::io::{Read, Write};

    const MAGIC: &[u8; 4] = b"SPNC";
    const VERSION: u16 = 1;

    fn w_u16<W: Write>(w: &mut W, v: u16) -> Result<()> {
        w.write_all(&v.to_le_bytes()).map_err(Into::into)
    }
    fn w_u32<W: Write>(w: &mut W, v: u32) -> Result<()> {
        w.write_all(&v.to_le_bytes()).map_err(Into::into)
    }
    fn w_u64<W: Write>(w: &mut W, v: u64) -> Result<()> {
        w.write_all(&v.to_le_bytes()).map_err(Into::into)
    }
    fn r_u8<R: Read>(r: &mut R) -> Result<u8> {
        let mut b = [0u8; 1];
        r.read_exact(&mut b)?;
        Ok(b[0])
    }
    fn r_u16<R: Read>(r: &mut R) -> Result<u16> {
        let mut b = [0u8; 2];
        r.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }
    fn r_u32<R: Read>(r: &mut R) -> Result<u32> {
        let mut b = [0u8; 4];
        r.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn r_u64<R: Read>(r: &mut R) -> Result<u64> {
        let mut b = [0u8; 8];
        r.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    impl CompactSpine {
        /// Serialize the index to `w` (format `SPNC`, version 1).
        pub fn write_to<W: Write>(&self, w: &mut W) -> Result<()> {
            w.write_all(MAGIC)?;
            w_u16(w, VERSION)?;
            w.write_all(&[self.alphabet.tag()])?;
            w_u64(w, self.len() as u64)?;
            // Packed characters.
            w_u32(w, self.chars.bits)?;
            w_u64(w, self.chars.words.len() as u64)?;
            for &word in &self.chars.words {
                w_u64(w, word)?;
            }
            // Link table.
            for &lel in &self.lels {
                w_u16(w, lel)?;
            }
            for &ptr in &self.ptrs {
                w_u32(w, ptr)?;
            }
            // Rib tables.
            w_u16(w, self.rts.len() as u16)?;
            for t in &self.rts {
                w_u32(w, t.cap as u32)?;
                w_u64(w, t.rows.len() as u64)?;
                for &(node, ld, used) in &t.rows {
                    w_u32(w, node)?;
                    w_u32(w, ld)?;
                    w_u16(w, used)?;
                }
                for s in &t.slots {
                    w.write_all(&[s.kind])?;
                    w_u32(w, s.rd)?;
                    w_u16(w, s.pt)?;
                    w_u16(w, s.prt)?;
                }
                w_u64(w, t.free.len() as u64)?;
                for &f in &t.free {
                    w_u32(w, f)?;
                }
            }
            // Overflow tables (sorted for determinism).
            let mut lel_over: Vec<_> = self.lel_overflow.iter().collect();
            lel_over.sort();
            w_u64(w, lel_over.len() as u64)?;
            for (&node, &v) in lel_over {
                w_u32(w, node)?;
                w_u32(w, v)?;
            }
            let mut slot_over: Vec<_> = self.slot_overflow.iter().collect();
            slot_over.sort();
            w_u64(w, slot_over.len() as u64)?;
            for (&(node, pos), &(pt, prt)) in slot_over {
                w_u32(w, node)?;
                w.write_all(&[pos])?;
                w_u32(w, pt)?;
                w_u32(w, prt)?;
            }
            Ok(())
        }

        /// Deserialize an index previously written by
        /// [`write_to`](Self::write_to).
        pub fn read_from<R: Read>(r: &mut R) -> Result<Self> {
            let mut magic = [0u8; 4];
            r.read_exact(&mut magic)?;
            if &magic != MAGIC {
                return Err(strindex::Error::Parse("bad magic".into()));
            }
            let version = r_u16(r)?;
            if version != VERSION {
                return Err(strindex::Error::Parse(format!("unsupported version {version}")));
            }
            let alphabet = Alphabet::from_tag(r_u8(r)?)?;
            let n = r_u64(r)? as usize;
            let bits = r_u32(r)?;
            if bits != alphabet.label_bits() {
                return Err(strindex::Error::Parse("label width mismatch".into()));
            }
            let words_len = r_u64(r)? as usize;
            let mut chars = PackedChars::new(bits);
            chars.words = (0..words_len).map(|_| r_u64(r)).collect::<Result<_>>()?;
            chars.len = n;
            let lels = (0..n + 1).map(|_| r_u16(r)).collect::<Result<Vec<_>>>()?;
            let ptrs = (0..n + 1).map(|_| r_u32(r)).collect::<Result<Vec<_>>>()?;
            let rt_count = r_u16(r)? as usize;
            let mut rts = Vec::with_capacity(rt_count);
            for _ in 0..rt_count {
                let cap = r_u32(r)? as usize;
                let rows_len = r_u64(r)? as usize;
                let mut t = RtTable::new(cap);
                for _ in 0..rows_len {
                    let node = r_u32(r)?;
                    let ld = r_u32(r)?;
                    let used = r_u16(r)?;
                    t.rows.push((node, ld, used));
                }
                for _ in 0..rows_len * cap {
                    let kind = r_u8(r)?;
                    let rd = r_u32(r)?;
                    let pt = r_u16(r)?;
                    let prt = r_u16(r)?;
                    t.slots.push(Slot { kind, rd, pt, prt });
                }
                let free_len = r_u64(r)? as usize;
                t.free = (0..free_len).map(|_| r_u32(r)).collect::<Result<_>>()?;
                rts.push(t);
            }
            let mut lel_overflow = FxHashMap::default();
            for _ in 0..r_u64(r)? {
                let node = r_u32(r)?;
                let v = r_u32(r)?;
                lel_overflow.insert(node, v);
            }
            let mut slot_overflow = FxHashMap::default();
            for _ in 0..r_u64(r)? {
                let node = r_u32(r)?;
                let pos = r_u8(r)?;
                let pt = r_u32(r)?;
                let prt = r_u32(r)?;
                slot_overflow.insert((node, pos), (pt, prt));
            }
            Ok(CompactSpine {
                alphabet,
                chars,
                lels,
                ptrs,
                rts,
                lel_overflow,
                slot_overflow,
                stats: CompactStats::default(),
                counters: Counters::new(),
            })
        }

        /// Save to a file.
        pub fn save<P: AsRef<std::path::Path>>(&self, path: P) -> Result<()> {
            let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
            self.write_to(&mut w)?;
            use std::io::Write as _;
            w.flush().map_err(Into::into)
        }

        /// Load from a file.
        pub fn load<P: AsRef<std::path::Path>>(path: P) -> Result<Self> {
            let mut r = std::io::BufReader::new(std::fs::File::open(path)?);
            Self::read_from(&mut r)
        }
    }
}

#[cfg(test)]
mod persist_tests {
    use super::*;
    use strindex::StringIndex;

    fn round_trip(c: &CompactSpine) -> CompactSpine {
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        CompactSpine::read_from(&mut buf.as_slice()).unwrap()
    }

    #[test]
    fn round_trips_paper_string() {
        let a = Alphabet::dna();
        let c = CompactSpine::build_from_bytes(a.clone(), b"AACCACAACA").unwrap();
        let d = round_trip(&c);
        assert_eq!(d.recover_text(), c.recover_text());
        let p = a.encode(b"CA").unwrap();
        assert_eq!(d.find_all(&p), c.find_all(&p));
        assert!(!d.contains(&a.encode(b"ACCAA").unwrap()));
    }

    #[test]
    fn round_trips_bigger_index_bytewise() {
        let a = Alphabet::dna();
        let text = b"ACGTAGCTTACGCATGCGTACGATCGATCGTAGCATCGATGCAGTCAGT".repeat(8);
        let c = CompactSpine::build_from_bytes(a, &text).unwrap();
        let d = round_trip(&c);
        // Serialization is deterministic and stable across a round trip.
        let mut b1 = Vec::new();
        let mut b2 = Vec::new();
        c.write_to(&mut b1).unwrap();
        d.write_to(&mut b2).unwrap();
        assert_eq!(b1, b2);
    }

    #[test]
    fn round_trips_protein() {
        let a = Alphabet::protein();
        let c = CompactSpine::build_from_bytes(a, b"MKVLAAGGMKVLAAGGWWYHKMKVLAAGG").unwrap();
        let d = round_trip(&c);
        assert_eq!(d.recover_text(), c.recover_text());
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let err = CompactSpine::read_from(&mut &b"NOPE"[..]);
        assert!(err.is_err());
        let a = Alphabet::dna();
        let c = CompactSpine::build_from_bytes(a, b"ACGT").unwrap();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        buf[4] = 0xFF; // clobber the version
        assert!(CompactSpine::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_stream_errors() {
        let a = Alphabet::dna();
        let c = CompactSpine::build_from_bytes(a, b"ACGTACGT").unwrap();
        let mut buf = Vec::new();
        c.write_to(&mut buf).unwrap();
        for cut in [3usize, 10, buf.len() / 2, buf.len() - 1] {
            assert!(CompactSpine::read_from(&mut &buf[..cut]).is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn save_and_load_file() {
        let a = Alphabet::dna();
        let c = CompactSpine::build_from_bytes(a.clone(), b"AACCACAACAGGTT").unwrap();
        let dir = std::env::temp_dir().join("spine-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("idx-{}.spnc", std::process::id()));
        c.save(&path).unwrap();
        let d = CompactSpine::load(&path).unwrap();
        assert_eq!(d.recover_text(), c.recover_text());
        std::fs::remove_file(&path).ok();
    }
}
