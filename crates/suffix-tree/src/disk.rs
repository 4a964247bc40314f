//! Page-resident suffix tree (the §6.2 comparison baseline).
//!
//! Same "generic on-disk layout, no disk-specific optimization" treatment as
//! `spine::disk`: one fixed-size record per tree node behind a bounded
//! buffer pool. Ukkonen's active point hops all over the tree — old nodes
//! are revisited and *split* arbitrarily late — so, unlike SPINE (whose
//! writes go to the tail and whose reads concentrate upstream), the suffix
//! tree has no exploitable locality. The Figure 7 / Table 7 experiments
//! quantify exactly this difference via page-I/O counts.
//!
//! The text itself stays in memory: a suffix tree needs the data string for
//! its edge labels (the paper points out SPINE does not).

use crate::tree::ST_ROOT;
use pagestore::{EvictionPolicy, PageDevice, PagedVec};
use parking_lot::Mutex;
use strindex::{
    Alphabet, Code, Counters, Error, MatchingIndex, MatchingStats, MaximalMatch, OnlineIndex,
    Result, StringIndex,
};

const OPEN_END: u32 = u32::MAX;
const NOT_LEAF: u32 = u32::MAX;

/// Record layout: `start:4 | end:4 | slink:4 | suffix_start:4 | min_start:4 |
/// leaf_count:4 | child_count:1 | children: C×(first_char 1, node 4)`.
struct Layout {
    child_slots: usize,
}

impl Layout {
    fn new(alphabet: &Alphabet) -> Self {
        Layout { child_slots: alphabet.code_space() }
    }

    fn record_size(&self) -> usize {
        24 + 1 + self.child_slots * 5
    }

    fn child_off(&self, i: usize) -> usize {
        25 + i * 5
    }
}

fn get_u32(r: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(r[off..off + 4].try_into().unwrap())
}

fn put_u32(r: &mut [u8], off: usize, v: u32) {
    r[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

/// A suffix tree whose node table lives on a page device.
pub struct DiskSuffixTree {
    alphabet: Alphabet,
    layout: Layout,
    records: Mutex<PagedVec>,
    text: Vec<Code>,
    node_count: usize,
    // Ukkonen state.
    active_node: u32,
    active_edge: usize,
    active_len: usize,
    remainder: usize,
    need_sl: u32,
    finished: bool,
    counters: Counters,
}

impl DiskSuffixTree {
    /// An empty disk tree over `alphabet`.
    pub fn new(
        alphabet: Alphabet,
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<Self> {
        let layout = Layout::new(&alphabet);
        let mut records = PagedVec::new(device, pool_pages, policy, layout.record_size());
        records.push_zeroed()?; // root
        let mut t = DiskSuffixTree {
            alphabet,
            layout,
            records: Mutex::new(records),
            text: Vec::new(),
            node_count: 1,
            active_node: ST_ROOT,
            active_edge: 0,
            active_len: 0,
            remainder: 0,
            need_sl: ST_ROOT,
            finished: false,
            counters: Counters::new(),
        };
        t.init_node(0, 0, 0, NOT_LEAF)?;
        Ok(t)
    }

    /// Build a finished disk tree from an encoded text.
    pub fn build(
        alphabet: Alphabet,
        text: &[Code],
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<Self> {
        let mut t = Self::new(alphabet, device, pool_pages, policy)?;
        t.extend_from(text)?;
        t.finish()?;
        Ok(t)
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

    /// Total tree nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Buffer-pool hit rate so far.
    pub fn hit_rate(&self) -> f64 {
        self.records.lock().pool().hit_rate()
    }

    /// (reads, writes) page counts at the device.
    pub fn io_counts(&self) -> (u64, u64) {
        let r = self.records.lock();
        (r.io_stats().reads(), r.io_stats().writes())
    }

    /// Work counters.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    // ----- record access ----------------------------------------------------

    fn init_node(&mut self, id: u32, start: u32, end: u32, suffix_start: u32) -> Result<()> {
        self.records.lock().write(id as usize, |r| {
            put_u32(r, 0, start);
            put_u32(r, 4, end);
            put_u32(r, 8, ST_ROOT);
            put_u32(r, 12, suffix_start);
            put_u32(r, 16, u32::MAX); // min_start
            put_u32(r, 20, 0); // leaf_count
            r[24] = 0;
        })
    }

    fn new_node(&mut self, start: u32, end: u32, suffix_start: u32) -> Result<u32> {
        let id = self.records.lock().push_zeroed()? as u32;
        self.node_count += 1;
        self.init_node(id, start, end, suffix_start)?;
        Ok(id)
    }

    fn node_start(&self, id: u32) -> u32 {
        self.records.lock().read(id as usize, |r| get_u32(r, 0)).expect("read")
    }

    fn set_start(&self, id: u32, v: u32) {
        self.records.lock().write(id as usize, |r| put_u32(r, 0, v)).expect("write");
    }

    fn node_end(&self, id: u32) -> u32 {
        self.records.lock().read(id as usize, |r| get_u32(r, 4)).expect("read")
    }

    fn set_end(&self, id: u32, v: u32) {
        self.records.lock().write(id as usize, |r| put_u32(r, 4, v)).expect("write");
    }

    fn slink(&self, id: u32) -> u32 {
        self.records.lock().read(id as usize, |r| get_u32(r, 8)).expect("read")
    }

    fn set_slink(&self, id: u32, v: u32) {
        self.records.lock().write(id as usize, |r| put_u32(r, 8, v)).expect("write");
    }

    fn suffix_start(&self, id: u32) -> u32 {
        self.records.lock().read(id as usize, |r| get_u32(r, 12)).expect("read")
    }

    fn min_start(&self, id: u32) -> u32 {
        self.records.lock().read(id as usize, |r| get_u32(r, 16)).expect("read")
    }

    fn child(&self, id: u32, c: Code) -> Option<u32> {
        let l = &self.layout;
        self.records
            .lock()
            .read(id as usize, |r| {
                let n = r[24] as usize;
                for i in 0..n {
                    let off = l.child_off(i);
                    if r[off] == c {
                        return Some(get_u32(r, off + 1));
                    }
                }
                None
            })
            .expect("read")
    }

    fn set_child(&self, id: u32, c: Code, node: u32) {
        let l = &self.layout;
        self.records
            .lock()
            .write(id as usize, |r| {
                let n = r[24] as usize;
                for i in 0..n {
                    let off = l.child_off(i);
                    if r[off] == c {
                        put_u32(r, off + 1, node);
                        return;
                    }
                }
                assert!(n < l.child_slots, "child slots exhausted");
                let off = l.child_off(n);
                r[off] = c;
                put_u32(r, off + 1, node);
                r[24] = (n + 1) as u8;
            })
            .expect("write");
    }

    fn children(&self, id: u32) -> Vec<(Code, u32)> {
        let l = &self.layout;
        self.records
            .lock()
            .read(id as usize, |r| {
                let n = r[24] as usize;
                (0..n)
                    .map(|i| {
                        let off = l.child_off(i);
                        (r[off], get_u32(r, off + 1))
                    })
                    .collect()
            })
            .expect("read")
    }

    fn edge_len(&self, id: u32) -> usize {
        let (s, e) = (self.node_start(id), self.node_end(id));
        let e = if e == OPEN_END { self.text.len() as u32 } else { e };
        (e - s) as usize
    }

    // ----- Ukkonen ----------------------------------------------------------

    fn add_slink(&mut self, to: u32) {
        if self.need_sl != ST_ROOT {
            self.set_slink(self.need_sl, to);
        }
        self.need_sl = to;
    }

    fn extend(&mut self, pos: usize) -> Result<()> {
        let c = self.text[pos];
        self.need_sl = ST_ROOT;
        self.remainder += 1;
        while self.remainder > 0 {
            if self.active_len == 0 {
                self.active_edge = pos;
            }
            let edge_c = self.text[self.active_edge];
            match self.child(self.active_node, edge_c) {
                None => {
                    let suffix_start = (pos + 1 - self.remainder) as u32;
                    let leaf = self.new_node(pos as u32, OPEN_END, suffix_start)?;
                    self.set_child(self.active_node, edge_c, leaf);
                    let an = self.active_node;
                    self.add_slink(an);
                }
                Some(nxt) => {
                    let el = self.edge_len(nxt);
                    if self.active_len >= el {
                        self.active_edge += el;
                        self.active_len -= el;
                        self.active_node = nxt;
                        continue;
                    }
                    if self.text[self.node_start(nxt) as usize + self.active_len] == c {
                        self.active_len += 1;
                        let an = self.active_node;
                        self.add_slink(an);
                        break;
                    }
                    let split_start = self.node_start(nxt);
                    let split =
                        self.new_node(split_start, split_start + self.active_len as u32, NOT_LEAF)?;
                    let suffix_start = (pos + 1 - self.remainder) as u32;
                    let leaf = self.new_node(pos as u32, OPEN_END, suffix_start)?;
                    self.set_child(self.active_node, edge_c, split);
                    self.set_start(nxt, split_start + self.active_len as u32);
                    let nxt_c = self.text[self.node_start(nxt) as usize];
                    self.set_child(split, nxt_c, nxt);
                    self.set_child(split, c, leaf);
                    self.add_slink(split);
                }
            }
            self.remainder -= 1;
            if self.active_node == ST_ROOT && self.active_len > 0 {
                self.active_len -= 1;
                self.active_edge = pos - self.remainder + 1;
            } else if self.active_node != ST_ROOT {
                self.active_node = self.slink(self.active_node);
            }
        }
        Ok(())
    }

    /// Seal the tree: append the terminator, close leaf edges, annotate.
    pub fn finish(&mut self) -> Result<()> {
        if self.finished {
            return Ok(());
        }
        let sep = self.alphabet.separator();
        self.text.push(sep);
        let pos = self.text.len() - 1;
        self.extend(pos)?;
        self.finished = true;
        // Close open leaf edges.
        let end = self.text.len() as u32;
        for id in 0..self.node_count as u32 {
            if self.node_end(id) == OPEN_END {
                self.set_end(id, end);
            }
        }
        // Post-order annotation of min_start / leaf_count.
        let mut stack: Vec<(u32, bool)> = vec![(ST_ROOT, false)];
        while let Some((node, processed)) = stack.pop() {
            if processed {
                let mut mn = u32::MAX;
                let mut lc = 0u32;
                if self.suffix_start(node) != NOT_LEAF {
                    mn = self.suffix_start(node);
                    lc = 1;
                }
                for (_, ch) in self.children(node) {
                    let (cm, cl) = self
                        .records
                        .lock()
                        .read(ch as usize, |r| (get_u32(r, 16), get_u32(r, 20)))
                        .expect("read");
                    mn = mn.min(cm);
                    lc += cl;
                }
                self.records
                    .lock()
                    .write(node as usize, |r| {
                        put_u32(r, 16, mn);
                        put_u32(r, 20, lc);
                    })
                    .expect("write");
            } else {
                stack.push((node, true));
                for (_, ch) in self.children(node) {
                    stack.push((ch, false));
                }
            }
        }
        Ok(())
    }

    // ----- queries ----------------------------------------------------------

    /// Position = (node, below, off): see the in-memory engine.
    fn step(&self, pos: (u32, u32, usize), c: Code) -> Option<(u32, u32, usize)> {
        self.counters.count_node_check();
        let (node, below, off) = pos;
        if off == 0 {
            let child = self.child(node, c)?;
            self.counters.count_edge();
            if self.edge_len(child) == 1 {
                Some((child, child, 0))
            } else {
                Some((node, child, 1))
            }
        } else {
            if self.text[self.node_start(below) as usize + off] != c {
                return None;
            }
            self.counters.count_edge();
            if off + 1 == self.edge_len(below) {
                Some((below, below, 0))
            } else {
                Some((node, below, off + 1))
            }
        }
    }

    fn walk(&self, pattern: &[Code]) -> Option<(u32, u32, usize)> {
        let mut pos = (ST_ROOT, ST_ROOT, 0usize);
        for &c in pattern {
            pos = self.step(pos, c)?;
        }
        Some(pos)
    }

    fn locus(&self, pos: (u32, u32, usize)) -> u32 {
        if pos.2 == 0 {
            pos.0
        } else {
            pos.1
        }
    }

    fn rescan(&self, mut node: u32, q: &[Code]) -> (u32, u32, usize) {
        let mut i = 0usize;
        while i < q.len() {
            self.counters.count_node_check();
            let child = self.child(node, q[i]).expect("rescan path exists");
            let el = self.edge_len(child);
            if q.len() - i >= el {
                node = child;
                i += el;
            } else {
                return (node, child, q.len() - i);
            }
        }
        (node, node, 0)
    }
}

impl OnlineIndex for DiskSuffixTree {
    fn push(&mut self, code: Code) -> Result<()> {
        if self.finished {
            return Err(Error::NotFinished);
        }
        if (code as usize) >= self.alphabet.size() {
            return Err(Error::InvalidSymbol { byte: code, pos: self.text.len() });
        }
        self.text.push(code);
        let pos = self.text.len() - 1;
        self.extend(pos)
    }
}

impl StringIndex for DiskSuffixTree {
    fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    fn text_len(&self) -> usize {
        self.len()
    }

    fn symbol_at(&self, pos: usize) -> Code {
        self.text[pos]
    }

    fn find_first(&self, pattern: &[Code]) -> Option<usize> {
        assert!(self.finished, "finish() the tree before querying");
        let pos = self.walk(pattern)?;
        Some(self.min_start(self.locus(pos)) as usize)
    }

    fn find_all(&self, pattern: &[Code]) -> Vec<usize> {
        assert!(self.finished, "finish() the tree before querying");
        if pattern.is_empty() {
            return (0..=self.len()).collect();
        }
        let Some(pos) = self.walk(pattern) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![self.locus(pos)];
        while let Some(n) = stack.pop() {
            if self.suffix_start(n) != NOT_LEAF {
                out.push(self.suffix_start(n) as usize);
            }
            stack.extend(self.children(n).into_iter().map(|(_, ch)| ch));
        }
        out.sort_unstable();
        out
    }
}

impl MatchingIndex for DiskSuffixTree {
    fn matching_statistics(&self, query: &[Code]) -> MatchingStats {
        assert!(self.finished, "finish() the tree before querying");
        let m = query.len();
        let mut lengths = vec![0u32; m + 1];
        let mut first_end = vec![0u32; m + 1];
        let mut pos = (ST_ROOT, ST_ROOT, 0usize);
        let mut matched = 0usize;
        for (e, &c) in query.iter().enumerate() {
            loop {
                if let Some(p) = self.step(pos, c) {
                    pos = p;
                    matched += 1;
                    break;
                }
                if matched == 0 {
                    break;
                }
                self.counters.count_link();
                let off = pos.2;
                if pos.0 != ST_ROOT {
                    let v = self.slink(pos.0);
                    pos = if off > 0 { self.rescan(v, &query[e - off..e]) } else { (v, v, 0) };
                } else {
                    debug_assert!(off > 0);
                    pos = self.rescan(ST_ROOT, &query[e - off + 1..e]);
                }
                matched -= 1;
            }
            lengths[e + 1] = matched as u32;
            first_end[e + 1] =
                if matched > 0 { self.min_start(self.locus(pos)) + matched as u32 } else { 0 };
        }
        MatchingStats { lengths, first_end }
    }

    fn maximal_matches(&self, query: &[Code], min_len: usize) -> Vec<MaximalMatch> {
        let stats = self.matching_statistics(query);
        let mut out = Vec::new();
        for (qs, len, _) in stats.right_maximal(min_len) {
            for ds in self.find_all(&query[qs..qs + len]) {
                out.push(MaximalMatch { query_start: qs, data_start: ds, len });
            }
        }
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::SuffixTree;
    use pagestore::{Lru, MemDevice};

    fn both(text: &[u8], pool: usize) -> (Alphabet, SuffixTree, DiskSuffixTree) {
        let a = Alphabet::dna();
        let codes = a.encode(text).unwrap();
        let mem = SuffixTree::build(a.clone(), &codes).unwrap();
        let disk = DiskSuffixTree::build(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            pool,
            Box::<Lru>::default(),
        )
        .unwrap();
        (a, mem, disk)
    }

    #[test]
    fn same_shape_as_memory_tree() {
        let (_, mem, disk) = both(b"AACCACAACAGGTTACG", 8);
        assert_eq!(mem.node_count(), disk.node_count());
    }

    #[test]
    fn queries_match_memory_tree() {
        let (a, mem, disk) = both(&b"AACCACAACAGGTTACGACGACCA".repeat(4), 2);
        for p in [&b"CA"[..], b"ACCAA", b"GGTT", b"TACGACG", b"A"] {
            let p = a.encode(p).unwrap();
            assert_eq!(mem.find_all(&p), disk.find_all(&p), "pattern {p:?}");
            assert_eq!(mem.find_first(&p), disk.find_first(&p));
        }
    }

    #[test]
    fn matching_matches_memory_tree() {
        let (a, mem, disk) = both(b"ACACCGACGATACGAGATTACGAGACGAGA", 2);
        let q = a.encode(b"CATAGAGAGACGATTACGAGAAAACGGG").unwrap();
        assert_eq!(mem.matching_statistics(&q), disk.matching_statistics(&q));
        assert_eq!(mem.maximal_matches(&q, 4), disk.maximal_matches(&q, 4));
    }

    #[test]
    fn construction_does_page_io_under_pressure() {
        let (_, _, disk) = both(&b"ACGTACGGTACGTTTACG".repeat(16), 1);
        let (reads, writes) = disk.io_counts();
        assert!(reads > 0 && writes > 0);
    }
}
