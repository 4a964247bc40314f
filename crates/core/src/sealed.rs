//! The sealed page layout (format v3): a read-only, self-describing page
//! file, served as a [`SealedSpine`].
//!
//! Node records are varint/delta-encoded in slotted pages
//! ([`pagestore::slotted`]), and backbone labels are packed bit-tight into
//! `u64` words on dedicated label pages. Records shrink by ~10× for DNA
//! against the fixed records of [`crate::DiskSpine`], so a fixed pool
//! covers far more nodes and queries touch fewer pages. When every label
//! fits the alphabet's packing width ([`strindex::Alphabet::pack_bits`]),
//! backbone label runs are compared a whole word at a time
//! ([`crate::FallibleSpineOps::try_label_run`]).
//!
//! A sealed file is encoded straight from the nodes of an in-memory
//! [`Spine`] ([`SealedSpine::seal`]), so sealing runs APPEND once, in
//! memory ([`SealedSpine::build_sealed`]). The index also keeps its link
//! tree in RAM as a preorder index ([`crate::preorder`], 16 B per node),
//! built at seal from the links the encoder reads and at
//! [`SealedSpine::reopen`] with one sequential pass over the node pages.
//! Occurrence enumeration takes one slice of it and reads no page.
//!
//! Page 0, written last, holds everything [`SealedSpine::reopen`] needs
//! besides the pages it describes. Every page carries a format-version
//! header; readers check it on each access and surface
//! [`Error::FormatVersion`] ("rebuild required") instead of misparsing, and
//! [`SealedSpine::reopen`] rejects files of an earlier
//! [`DISK_FORMAT_VERSION`] the same way. The layout's mutex guards only its
//! buffer pool: the header, page directory, overflow records and preorder
//! index are read without it.

use std::ops::Range;

use crate::build::Spine;
use crate::disk::layout::PageLayout;
use crate::disk::PagedSpine;
use crate::node::{Extrib, NodeId, Rib};
use crate::observe::MemBreakdown;
use crate::ops::LinkTree;
use crate::preorder::PreorderIndex;
use pagestore::{
    read_varint, slotted, slotted_record, write_varint, BufferPool, EvictionPolicy, PageDevice,
    PageHeader, SlottedPageBuilder, PAGE_FORMAT_V2, PAGE_SIZE,
};
use parking_lot::Mutex;
use strindex::packed::low_mask;
use strindex::{Alphabet, Code, Error, FxHashMap, PackedText, Result};

/// Magic stamped into page 0 of a sealed device.
const SEALED_MAGIC: &[u8; 4] = b"SPV2";

/// On-disk format version this build writes (and the only one it reads).
/// Version 1 (the fixed-record layout) is build-time only; version 2 kept
/// its page directory, byte census and overflow records in a `.meta`
/// sidecar, which version 3 folds into the page file. Reopening an earlier
/// version yields [`Error::FormatVersion`] — "rebuild required".
pub const DISK_FORMAT_VERSION: u16 = 3;

/// Payload bytes per page after the page header.
const PAGE_BODY: usize = PAGE_SIZE - slotted::PAGE_HEADER_LEN;

/// Packed 64-bit label words per label page (after the page header).
const WORDS_PER_PAGE: usize = PAGE_BODY / 8;

// ---------------------------------------------------------------------------
// Format-v2 node record codec.
// ---------------------------------------------------------------------------

/// The varint/delta node record of format v2.
///
/// ```text
/// link.dest varint | link.lel varint
/// rib_count varint | ribs: (cl 1B, dest−node varint, pt varint)…
/// ext_count varint | extribs: (prt varint, pt varint, dest−node varint)…
/// ```
///
/// Destinations are stored relative to the owning node: APPEND only ever
/// creates ribs/extribs pointing at the freshly appended tail node, so
/// `dest > node` always holds and deltas stay small. The decoder treats any
/// malformed input as [`Error::Parse`] — corrupt-page defense, never a
/// panic or a garbage answer.
mod v2 {
    use super::*;

    /// A fully decoded node: link `(dest, LEL)`, ribs and extribs in
    /// stored order (the order APPEND created them).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub(super) struct NodeRecord {
        pub link: (u32, u32),
        pub ribs: Vec<Rib>,
        pub extribs: Vec<Extrib>,
    }

    /// Encode the record of `node` (its link, ribs and extribs), appending
    /// to `out`. Returns the byte spans of the link and rib sections (the
    /// remainder is the extrib section) so the sealer can attribute the
    /// footprint per edge kind.
    pub(super) fn encode(
        node: u32,
        link: (u32, u32),
        ribs: &[Rib],
        extribs: &[Extrib],
        out: &mut Vec<u8>,
    ) -> (usize, usize) {
        let mut link_b = write_varint(out, link.0 as u64);
        link_b += write_varint(out, link.1 as u64);
        let mut ribs_b = write_varint(out, ribs.len() as u64);
        for r in ribs {
            debug_assert!(r.dest > node, "rib destinations always point forward");
            out.push(r.cl);
            ribs_b += 1;
            ribs_b += write_varint(out, (r.dest - node) as u64);
            ribs_b += write_varint(out, r.pt as u64);
        }
        write_varint(out, extribs.len() as u64);
        for e in extribs {
            debug_assert!(e.dest > node, "extrib destinations always point forward");
            write_varint(out, e.prt as u64);
            write_varint(out, e.pt as u64);
            write_varint(out, (e.dest - node) as u64);
        }
        (link_b, ribs_b)
    }

    fn truncated() -> Error {
        Error::Parse("truncated v2 node record".into())
    }

    fn take(buf: &[u8], at: &mut usize) -> Result<u64> {
        let (v, n) = read_varint(buf, *at).ok_or_else(truncated)?;
        *at += n;
        Ok(v)
    }

    fn narrow(v: u64) -> Result<u32> {
        u32::try_from(v).map_err(|_| Error::Parse("v2 record field exceeds u32".into()))
    }

    fn fwd(node: u32, delta: u32) -> Result<u32> {
        node.checked_add(delta)
            .filter(|&d| d > node)
            .ok_or_else(|| Error::Parse("v2 destination delta out of range".into()))
    }

    fn byte(buf: &[u8], at: &mut usize) -> Result<u8> {
        let b = *buf.get(*at).ok_or_else(truncated)?;
        *at += 1;
        Ok(b)
    }

    /// Decode a whole record; rejects trailing bytes.
    pub(super) fn decode(node: u32, buf: &[u8]) -> Result<NodeRecord> {
        let mut at = 0;
        let link = (narrow(take(buf, &mut at)?)?, narrow(take(buf, &mut at)?)?);
        let rib_count = take(buf, &mut at)? as usize;
        let mut ribs = Vec::with_capacity(rib_count.min(256));
        for _ in 0..rib_count {
            let cl = byte(buf, &mut at)?;
            let delta = narrow(take(buf, &mut at)?)?;
            let pt = narrow(take(buf, &mut at)?)?;
            ribs.push(Rib { cl, dest: fwd(node, delta)?, pt });
        }
        let ext_count = take(buf, &mut at)? as usize;
        let mut extribs = Vec::with_capacity(ext_count.min(256));
        for _ in 0..ext_count {
            let prt = narrow(take(buf, &mut at)?)?;
            let pt = narrow(take(buf, &mut at)?)?;
            let delta = narrow(take(buf, &mut at)?)?;
            extribs.push(Extrib { prt, pt, dest: fwd(node, delta)? });
        }
        if at != buf.len() {
            return Err(Error::Parse("trailing bytes after v2 node record".into()));
        }
        Ok(NodeRecord { link, ribs, extribs })
    }

    /// The first two varints only: a node's link (reopen's preorder pass,
    /// traced enumeration).
    pub(super) fn decode_link(buf: &[u8]) -> Result<(u32, u32)> {
        let mut at = 0;
        Ok((narrow(take(buf, &mut at)?)?, narrow(take(buf, &mut at)?)?))
    }

    /// Scan the rib section for label `c`.
    pub(super) fn find_rib(buf: &[u8], node: u32, c: Code) -> Result<Option<(u32, u32)>> {
        let mut at = 0;
        take(buf, &mut at)?; // link dest
        take(buf, &mut at)?; // link lel
        let rib_count = take(buf, &mut at)? as usize;
        for _ in 0..rib_count {
            let cl = byte(buf, &mut at)?;
            let delta = narrow(take(buf, &mut at)?)?;
            let pt = narrow(take(buf, &mut at)?)?;
            if cl == c {
                return Ok(Some((fwd(node, delta)?, pt)));
            }
        }
        Ok(None)
    }

    /// Scan the extrib section for the chain with parent-rib threshold
    /// `prt`; returns `(dest, pt)` of the first match in stored order.
    pub(super) fn find_extrib(buf: &[u8], node: u32, prt: u32) -> Result<Option<(u32, u32)>> {
        let mut at = 0;
        take(buf, &mut at)?; // link dest
        take(buf, &mut at)?; // link lel
        let rib_count = take(buf, &mut at)? as usize;
        for _ in 0..rib_count {
            byte(buf, &mut at)?;
            take(buf, &mut at)?;
            take(buf, &mut at)?;
        }
        let ext_count = take(buf, &mut at)? as usize;
        for _ in 0..ext_count {
            let eprt = narrow(take(buf, &mut at)?)?;
            let pt = narrow(take(buf, &mut at)?)?;
            let delta = narrow(take(buf, &mut at)?)?;
            if eprt == prt {
                return Ok(Some((fwd(node, delta)?, pt)));
            }
        }
        Ok(None)
    }
}

// ---------------------------------------------------------------------------
// The file: header, label pages, node pages, overflow pages.
// ---------------------------------------------------------------------------

/// Structural counts recovered by decoding every record of a sealed index
/// ([`SealedSpine::sealed_census`]); reconciles with the
/// [`crate::BuildStats`] event stream of the build that produced it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SealedCensus {
    /// Records decoded (text length + 1 for the root).
    pub nodes: u64,
    /// Total ribs across all records.
    pub ribs: u64,
    /// Total extribs across all records.
    pub extribs: u64,
    /// Records too large for a slotted page, stored on the file's
    /// overflow pages instead.
    pub overflow_records: u64,
}

/// Page 0 of a sealed file, written last: every field
/// [`SealedSpine::reopen`] needs before it reads another page.
///
/// ```text
/// page header (FILE_HEADER) | "SPV2" | version u16 | alphabet tag u8
/// packing bits u8 | packed-compare flag u8 | text len u64
/// label pages u32 | node pages u32
/// encoded vertebrae, links, ribs, extribs: u64 each | overflow pages u32
/// ```
struct FileHeader {
    len: usize,
    /// Bits per packed backbone label.
    bits: u32,
    /// Whether `bits` equals the alphabet's word-packing width, enabling
    /// word-at-a-time label comparison (false ⇒ scalar compare over the
    /// same packed labels).
    packed_compare: bool,
    label_pages: u32,
    node_pages: u32,
    overflow_pages: u32,
    /// Encoded on-device footprint split by edge kind.
    encoded: MemBreakdown,
}

impl FileHeader {
    fn write_to(&self, alphabet: &Alphabet, b: &mut [u8]) {
        b.fill(0);
        PageHeader {
            version: PAGE_FORMAT_V2,
            kind: slotted::kind::FILE_HEADER,
            count: 0,
            first_item: 0,
        }
        .write_to(b);
        let b = &mut b[slotted::PAGE_HEADER_LEN..];
        b[0..4].copy_from_slice(SEALED_MAGIC);
        b[4..6].copy_from_slice(&DISK_FORMAT_VERSION.to_le_bytes());
        b[6] = alphabet.tag();
        b[7] = self.bits as u8;
        b[8] = self.packed_compare as u8;
        b[9..17].copy_from_slice(&(self.len as u64).to_le_bytes());
        b[17..21].copy_from_slice(&self.label_pages.to_le_bytes());
        b[21..25].copy_from_slice(&self.node_pages.to_le_bytes());
        let e = &self.encoded;
        for (i, part) in [e.vertebrae, e.links, e.ribs, e.extribs].into_iter().enumerate() {
            b[25 + 8 * i..33 + 8 * i].copy_from_slice(&part.to_le_bytes());
        }
        b[57..61].copy_from_slice(&self.overflow_pages.to_le_bytes());
    }

    /// Parse page 0 into the index's alphabet and header. A page of another
    /// format version, or a file of an earlier [`DISK_FORMAT_VERSION`], is
    /// [`Error::FormatVersion`]; anything else that is not a consistent
    /// header is [`Error::Parse`].
    fn read_from(b: &[u8]) -> Result<(Alphabet, FileHeader)> {
        PageHeader::checked(b, slotted::kind::FILE_HEADER)?;
        let b = &b[slotted::PAGE_HEADER_LEN..];
        let u32_at = |at: usize| u32::from_le_bytes(b[at..at + 4].try_into().unwrap());
        let u64_at = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        if &b[0..4] != SEALED_MAGIC {
            return Err(Error::Parse("bad sealed file magic".into()));
        }
        let version = u16::from_le_bytes([b[4], b[5]]);
        if version != DISK_FORMAT_VERSION {
            return Err(Error::FormatVersion { found: version, expected: DISK_FORMAT_VERSION });
        }
        let bits = b[7] as u32;
        if !(1..=8).contains(&bits) {
            return Err(Error::Parse(format!("packing width {bits} out of range")));
        }
        let len = u64_at(9);
        if len >= u32::MAX as u64 {
            return Err(Error::Parse(format!("text length {len} exceeds the node id space")));
        }
        let alphabet = Alphabet::from_tag(b[6])?;
        let h = FileHeader {
            len: len as usize,
            bits,
            packed_compare: b[8] != 0,
            label_pages: u32_at(17),
            node_pages: u32_at(21),
            overflow_pages: u32_at(57),
            encoded: MemBreakdown {
                vertebrae: u64_at(25),
                links: u64_at(33),
                ribs: u64_at(41),
                extribs: u64_at(49),
            },
        };
        if h.node_pages == 0 {
            return Err(Error::Parse("sealed index must have at least one node page".into()));
        }
        if h.label_pages as usize != h.label_words().div_ceil(WORDS_PER_PAGE) {
            return Err(Error::Parse(format!(
                "{} label pages for a text of {len} labels",
                h.label_pages
            )));
        }
        Ok((alphabet, h))
    }

    /// Labels per packed word.
    fn per_word(&self) -> usize {
        (64 / self.bits) as usize
    }

    /// Packed label words (`ceil(len / labels per word)`).
    fn label_words(&self) -> usize {
        self.len.div_ceil(self.per_word())
    }

    /// Page id of the first node page, after the header and label pages.
    fn node_start(&self) -> u32 {
        1 + self.label_pages
    }

    /// Page id of the first overflow page, after the node pages.
    fn overflow_start(&self) -> u32 {
        self.node_start() + self.node_pages
    }

    /// Pages of the whole file.
    fn file_pages(&self) -> u64 {
        self.overflow_start() as u64 + self.overflow_pages as u64
    }
}

/// Append record `bytes` of `node` to the overflow stream: `node varint |
/// length varint | bytes`. The stream is cut into overflow pages after the
/// node pages ([`write_overflow`]).
fn push_overflow(stream: &mut Vec<u8>, node: u32, bytes: &[u8]) {
    write_varint(stream, node as u64);
    write_varint(stream, bytes.len() as u64);
    stream.extend_from_slice(bytes);
}

/// Write `stream` onto consecutive overflow pages from page `first`, each
/// stamped with the format version, its payload length in `count` and its
/// position in the run in `first_item`. Returns the pages written.
fn write_overflow(pool: &mut BufferPool, first: u32, stream: &[u8]) -> Result<u32> {
    let mut pages = 0;
    for chunk in stream.chunks(PAGE_BODY) {
        pool.write(first + pages, |b| {
            b.fill(0);
            PageHeader {
                version: PAGE_FORMAT_V2,
                kind: slotted::kind::OVERFLOW,
                count: chunk.len() as u16,
                first_item: pages,
            }
            .write_to(b);
            b[slotted::PAGE_HEADER_LEN..][..chunk.len()].copy_from_slice(chunk);
        })?;
        pages += 1;
    }
    Ok(pages)
}

/// Read back the overflow records [`write_overflow`] wrote, by node.
/// `nodes` is the node count the header promises.
fn read_overflow(
    pool: &mut BufferPool,
    h: &FileHeader,
    nodes: usize,
) -> Result<FxHashMap<u32, Vec<u8>>> {
    let mut stream = Vec::new();
    for i in 0..h.overflow_pages {
        pool.read(h.overflow_start() + i, |b| -> Result<()> {
            let ph = PageHeader::checked(b, slotted::kind::OVERFLOW)?;
            if ph.first_item != i || ph.count as usize > PAGE_BODY {
                return Err(Error::Parse(format!("corrupt overflow page {i}")));
            }
            stream.extend_from_slice(&b[slotted::PAGE_HEADER_LEN..][..ph.count as usize]);
            Ok(())
        })??;
    }
    let corrupt = || Error::Parse("corrupt overflow record".into());
    let field = |at: &mut usize| -> Result<usize> {
        let (v, n) = read_varint(&stream, *at).ok_or_else(corrupt)?;
        *at += n;
        usize::try_from(v).map_err(|_| corrupt())
    };
    let mut overflow = FxHashMap::default();
    let mut at = 0;
    while at < stream.len() {
        let (node, len) = (field(&mut at)?, field(&mut at)?);
        let bytes = stream.get(at..).and_then(|s| s.get(..len)).ok_or_else(corrupt)?;
        if node >= nodes || overflow.insert(node as u32, bytes.to_vec()).is_some() {
            return Err(corrupt());
        }
        at += len;
    }
    Ok(overflow)
}

/// The record of a node marked overflow on its page.
fn overflow_record(overflow: &FxHashMap<u32, Vec<u8>>, node: u32) -> Result<&[u8]> {
    overflow
        .get(&node)
        .map(Vec::as_slice)
        .ok_or_else(|| Error::Parse(format!("sealed node {node} marked overflow but absent")))
}

/// The preorder index of the link tree and the page directory (each node
/// page's first node), from one sequential pass over the node pages (one
/// page fetch per page) that decodes every node's link. `nodes` is the
/// node count the header promises; pages that disagree are corrupt.
fn read_node_pages(
    pool: &mut BufferPool,
    h: &FileHeader,
    overflow: &FxHashMap<u32, Vec<u8>>,
    nodes: usize,
) -> Result<(PreorderIndex, Vec<u32>)> {
    let mut links = Vec::with_capacity(nodes);
    let mut first_nodes = Vec::with_capacity(h.node_pages as usize);
    for pi in 0..h.node_pages {
        pool.read(h.node_start() + pi, |b| -> Result<()> {
            let ph = PageHeader::checked(b, slotted::kind::NODES)?;
            if ph.first_item as usize != links.len() || ph.count == 0 {
                return Err(Error::Parse(format!(
                    "node page {pi} holds {} records from node {}, after {} records",
                    ph.count,
                    ph.first_item,
                    links.len()
                )));
            }
            first_nodes.push(ph.first_item);
            for slot in 0..ph.count as usize {
                let link = match slotted_record(b, slot)? {
                    [] => v2::decode_link(overflow_record(overflow, links.len() as u32)?)?,
                    rec => v2::decode_link(rec)?,
                };
                links.push(link);
            }
            Ok(())
        })??;
    }
    if links.len() != nodes {
        return Err(Error::Parse(format!(
            "sealed node pages hold {} records for {nodes} nodes",
            links.len()
        )));
    }
    Ok((PreorderIndex::from_links(&links)?, first_nodes))
}

/// The sealed layout of a [`SealedSpine`]: page 0 is the header; pages
/// `1..=label_pages` hold the packed backbone labels; the next
/// `node_pages` pages hold slotted node records, one slot per node; the
/// last `overflow_pages` pages hold the records too long for a slot.
pub struct SealedFile {
    pool: Mutex<BufferPool>,
    h: FileHeader,
    /// `first_nodes[p]` = id of the first node on node-page `p` (each node
    /// page's header `first_item`).
    first_nodes: Vec<u32>,
    /// Encoded records that exceeded [`slotted::MAX_RECORD_LEN`]; their page
    /// slot holds an empty record as the overflow marker.
    overflow: FxHashMap<u32, Vec<u8>>,
    /// The link tree in preorder: occurrence enumeration reads it without
    /// a page fetch.
    preorder: PreorderIndex,
}

impl SealedFile {
    /// `(page id, slot)` of `node`'s record.
    fn node_page(&self, node: u32) -> (u32, usize) {
        let pi = self.first_nodes.partition_point(|&f| f <= node) - 1;
        (self.h.node_start() + pi as u32, (node - self.first_nodes[pi]) as usize)
    }

    /// Run `f` over `node`'s encoded record, wherever it lives (page slot
    /// or overflow map). The page's version header is checked on every
    /// access ([`slotted_record`]).
    fn with_record<R>(&self, node: u32, f: impl FnOnce(&[u8]) -> Result<R>) -> Result<R> {
        let (page, slot) = self.node_page(node);
        let mut f = Some(f);
        let inline = self.pool.lock().read(page, |b| match slotted_record(b, slot) {
            Err(e) => Some(Err(e)),
            // Empty record = overflow marker (every real record holds at
            // least the two link varints).
            Ok([]) => None,
            Ok(rec) => Some((f.take().unwrap())(rec)),
        })?;
        match inline {
            Some(r) => r,
            None => (f.take().unwrap())(overflow_record(&self.overflow, node)?),
        }
    }

    /// Packed label word `w` (words past the end read as zero, mirroring
    /// [`PackedText::window`]).
    fn label_word(&self, pool: &mut BufferPool, w: usize) -> Result<u64> {
        if w >= self.h.label_words() {
            return Ok(0);
        }
        let page = 1 + (w / WORDS_PER_PAGE) as u32;
        let off = slotted::PAGE_HEADER_LEN + (w % WORDS_PER_PAGE) * 8;
        pool.read(page, |b| -> Result<u64> {
            PageHeader::checked(b, slotted::kind::LABELS)?;
            Ok(u64::from_le_bytes(b[off..off + 8].try_into().unwrap()))
        })?
    }

    /// Up to `per_word` labels starting at position `i`, packed into the
    /// low bits of one word — the same window [`PackedText::window`]
    /// assembles, so the two compare with one xor.
    fn label_window(&self, pool: &mut BufferPool, i: usize) -> Result<u64> {
        let (bits, pw) = (self.h.bits, self.h.per_word());
        let (w, phase) = (i / pw, (i % pw) as u32);
        let lo = self.label_word(pool, w)? >> (phase * bits);
        let win = if phase == 0 {
            lo
        } else {
            lo | (self.label_word(pool, w + 1)? << ((pw as u32 - phase) * bits))
        };
        Ok(win & low_mask(pw as u32 * bits))
    }
}

impl PageLayout for SealedFile {
    fn with_pool<R>(&self, f: impl FnOnce(&mut BufferPool) -> R) -> R {
        f(&mut self.pool.lock())
    }

    fn node_pages(&self, _len: usize) -> Range<u32> {
        self.h.node_start()..self.h.overflow_start()
    }

    fn label(&self, i: usize) -> Result<Code> {
        let (bits, pw) = (self.h.bits, self.h.per_word());
        let w = self.label_word(&mut self.pool.lock(), i / pw)?;
        Ok(((w >> ((i % pw) as u32 * bits)) & low_mask(bits)) as Code)
    }

    fn link(&self, node: NodeId) -> Result<(NodeId, u32)> {
        self.with_record(node, v2::decode_link)
    }

    fn rib(&self, node: NodeId, c: Code) -> Result<Option<(NodeId, u32)>> {
        self.with_record(node, |rec| v2::find_rib(rec, node, c))
    }

    // Sealed records carry their whole chain: no side table.
    fn extrib(&self, node: NodeId, prt: u32) -> Result<Option<(NodeId, u32)>> {
        self.with_record(node, |rec| v2::find_extrib(rec, node, prt))
    }

    fn packing(&self) -> Option<u32> {
        self.h.packed_compare.then_some(self.h.bits)
    }

    /// The common run of `pattern[from..]` and the backbone labels leaving
    /// `node`, compared a whole label word at a time under one lock.
    fn label_run(
        &self,
        len: usize,
        node: NodeId,
        pattern: &PackedText,
        from: usize,
    ) -> Option<Result<usize>> {
        (self.packing() == Some(pattern.bits())).then(|| {
            let pw = pattern.per_word() as usize;
            let max = (pattern.len() - from).min(len - node as usize);
            let mut pool = self.pool.lock();
            let mut k = 0usize;
            while k < max {
                let n = (max - k).min(pw) as u32;
                let a = pattern.window(from + k);
                let b = self.label_window(&mut pool, node as usize + k)?;
                let m = strindex::window_match_len(a, b, self.h.bits, n) as usize;
                k += m;
                if m < n as usize {
                    break;
                }
            }
            Ok(k)
        })
    }

    fn link_tree(&self) -> Option<LinkTree<'_>> {
        Some(LinkTree::Preorder(&self.preorder))
    }
}

/// A read-only SPINE index served from a sealed page file. It is written
/// once ([`seal`](Self::seal), [`build_sealed`](Self::build_sealed)) or
/// reattached ([`reopen`](Self::reopen)), and never changes after: like a
/// DBSP batch, it takes no appends.
///
/// ```compile_fail
/// # use strindex::OnlineIndex;
/// fn append(index: &mut spine::SealedSpine) -> strindex::Result<()> {
///     index.push(0)
/// }
/// ```
pub type SealedSpine = PagedSpine<SealedFile>;

impl SealedSpine {
    /// Build a sealed index on `device`: [`Spine::build`] in memory, then
    /// [`seal`](Self::seal).
    pub fn build_sealed(
        alphabet: Alphabet,
        text: &[Code],
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<Self> {
        Self::seal(&Spine::build(alphabet, text)?, device, pool_pages, policy)
    }

    /// Encode `spine` into the sealed layout on a fresh `device`: packed
    /// label pages, then slotted pages of varint/delta node records (each
    /// node's link, ribs and extribs in stored order), then overflow pages
    /// for records too long for a slot, with the file header written last
    /// so a crash mid-seal leaves an unreadable — never a half-valid —
    /// target. `spine` is only read, so a failed seal (e.g. a device fault)
    /// leaves it intact.
    pub fn seal(
        spine: &Spine,
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<Self> {
        let alphabet = spine.alphabet_ref();
        let nodes = spine.nodes();
        let len = spine.len();
        let codes = &spine.labels;
        // Packing width: the alphabet's word-compare width when every label
        // fits it (a DNA separator does not), else just enough bits for the
        // code space — still a bit-tight store, compared scalar.
        let (packed, packed_compare) =
            match alphabet.pack_bits().and_then(|b| PackedText::from_codes(b, codes)) {
                Some(packed) => (packed, true),
                None => (
                    PackedText::from_codes(alphabet.label_bits(), codes)
                        .expect("labels fit the alphabet's label width"),
                    false,
                ),
            };
        let bits = packed.bits();
        let words = packed.words();
        let label_words = words.len();
        let label_pages = label_words.div_ceil(WORDS_PER_PAGE) as u32;

        let mut pool = BufferPool::new(device, pool_pages.max(1), policy);
        for p in 0..label_pages as usize {
            let chunk = &words[p * WORDS_PER_PAGE..((p + 1) * WORDS_PER_PAGE).min(label_words)];
            pool.write(1 + p as u32, |b| {
                b.fill(0);
                PageHeader {
                    version: PAGE_FORMAT_V2,
                    kind: slotted::kind::LABELS,
                    count: chunk.len() as u16,
                    first_item: (p * WORDS_PER_PAGE) as u32,
                }
                .write_to(b);
                let mut at = slotted::PAGE_HEADER_LEN;
                for &w in chunk {
                    b[at..at + 8].copy_from_slice(&w.to_le_bytes());
                    at += 8;
                }
            })?;
        }

        let mut encoded =
            MemBreakdown { vertebrae: label_words as u64 * 8, ..MemBreakdown::default() };
        let mut overflow: FxHashMap<u32, Vec<u8>> = FxHashMap::default();
        let mut overflow_stream = Vec::new();
        let mut first_nodes: Vec<u32> = vec![0];
        let mut node_pages: u32 = 0;
        let mut builder = SlottedPageBuilder::new(0);
        let mut buf = Vec::new();
        let mut links = Vec::with_capacity(nodes.len());
        for (node, n) in (0u32..).zip(nodes) {
            links.push((n.link, n.lel));
            buf.clear();
            let (link_b, ribs_b) = v2::encode(node, (n.link, n.lel), &n.ribs, &n.extribs, &mut buf);
            encoded.links += link_b as u64;
            encoded.ribs += ribs_b as u64;
            encoded.extribs += (buf.len() - link_b - ribs_b) as u64;
            let payload: &[u8] = if buf.len() <= slotted::MAX_RECORD_LEN { &buf } else { &[] };
            if !builder.push(payload) {
                pool.write(1 + label_pages + node_pages, |b| b.copy_from_slice(&builder.finish()))?;
                node_pages += 1;
                builder = SlottedPageBuilder::new(node);
                first_nodes.push(node);
                assert!(builder.push(payload), "a fresh slotted page must accept the record");
            }
            if payload.is_empty() {
                push_overflow(&mut overflow_stream, node, &buf);
                overflow.insert(node, buf.clone());
            }
        }
        pool.write(1 + label_pages + node_pages, |b| b.copy_from_slice(&builder.finish()))?;
        node_pages += 1;
        let overflow_pages =
            write_overflow(&mut pool, 1 + label_pages + node_pages, &overflow_stream)?;

        // The header page goes in *last*: until it exists, the device does
        // not parse as a sealed index at all. Barrier first — "last" must be
        // a media-order fact, not just program order, or a crash between the
        // body and the header could leave a header over torn pages.
        let h = FileHeader {
            len,
            bits,
            packed_compare,
            label_pages,
            node_pages,
            overflow_pages,
            encoded,
        };
        pool.sync()?;
        pool.write(0, |b| h.write_to(alphabet, b))?;
        pool.sync()?;

        let preorder = PreorderIndex::from_links(&links)?;
        Ok(Self::file(alphabet.clone(), pool, h, first_nodes, overflow, preorder))
    }

    /// Reattach to a `device` holding a previously sealed index.
    ///
    /// Reads page 0 (the file header), then the overflow pages, then every
    /// node page once, rebuilding the page directory from each page's
    /// `first_item` and the in-RAM preorder index from the links. Only
    /// format-[`DISK_FORMAT_VERSION`] files reopen: an earlier version's
    /// header, or a page not stamped with the current page format (a v1
    /// fixed-record file), yields [`Error::FormatVersion`] — the typed
    /// "rebuild required" signal — and bytes that are not a consistent
    /// sealed file yield [`Error::Parse`].
    pub fn reopen(
        device: Box<dyn PageDevice>,
        pool_pages: usize,
        policy: Box<dyn EvictionPolicy>,
    ) -> Result<Self> {
        let device_pages = device.page_count() as u64;
        let mut pool = BufferPool::new(device, pool_pages.max(1), policy);
        let (alphabet, h) = pool.read(0, FileHeader::read_from)??;
        if h.file_pages() > device_pages {
            return Err(Error::Parse(format!(
                "sealed header describes {} pages, the device holds {device_pages}",
                h.file_pages()
            )));
        }
        let nodes = h.len + 1;
        let overflow = read_overflow(&mut pool, &h, nodes)?;
        let (preorder, first_nodes) = read_node_pages(&mut pool, &h, &overflow, nodes)?;
        Ok(Self::file(alphabet, pool, h, first_nodes, overflow, preorder))
    }

    /// The index over the file `h` describes, served from `pool`.
    fn file(
        alphabet: Alphabet,
        pool: BufferPool,
        h: FileHeader,
        first_nodes: Vec<u32>,
        overflow: FxHashMap<u32, Vec<u8>>,
        preorder: PreorderIndex,
    ) -> Self {
        let (len, cache) = (h.len, pool.stats_handle());
        let file = SealedFile { pool: Mutex::new(pool), h, first_nodes, overflow, preorder };
        Self::over(alphabet, len, cache, file)
    }

    /// The in-RAM preorder index of the link tree.
    pub fn preorder(&self) -> &PreorderIndex {
        &self.layout.preorder
    }

    /// Bytes held in RAM beside the buffer pool: the preorder index, 16
    /// per node.
    pub fn resident_bytes(&self) -> u64 {
        self.layout.preorder.resident_bytes()
    }

    /// Total pages of the file: header, label, node and overflow pages.
    pub fn file_pages(&self) -> u64 {
        self.layout.h.file_pages()
    }

    /// The exact encoded on-device footprint split by edge kind: labels
    /// under `vertebrae`, varint sections under `links`/`ribs`/`extribs`.
    pub fn mem_breakdown(&self) -> MemBreakdown {
        self.layout.h.encoded
    }

    /// Backbone labels of text positions `from..to` (0-based, `to` at most
    /// [`Self::len`]) under one lock: each label page is fetched once and
    /// each packed word decoded once.
    pub(crate) fn labels(&self, from: usize, to: usize) -> Result<Vec<Code>> {
        debug_assert!(to <= self.len, "labels past the text");
        let (bits, pw) = (self.layout.h.bits, self.layout.h.per_word());
        let mut pool = self.layout.pool.lock();
        let mut out = Vec::with_capacity(to.saturating_sub(from));
        let mut i = from;
        while i < to {
            let page = i / pw / WORDS_PER_PAGE;
            let page_end = ((page + 1) * WORDS_PER_PAGE * pw).min(to);
            pool.read(1 + page as u32, |b| -> Result<()> {
                PageHeader::checked(b, slotted::kind::LABELS)?;
                for w in i / pw..=(page_end - 1) / pw {
                    let off = slotted::PAGE_HEADER_LEN + (w % WORDS_PER_PAGE) * 8;
                    let word = u64::from_le_bytes(b[off..off + 8].try_into().unwrap());
                    for j in i.max(w * pw)..page_end.min((w + 1) * pw) {
                        out.push(((word >> ((j % pw) as u32 * bits)) & low_mask(bits)) as Code);
                    }
                }
                Ok(())
            })??;
            i = page_end;
        }
        Ok(out)
    }

    /// Decode every record and return the structural totals; the numbers
    /// reconcile with the originating build's [`crate::BuildStats`]
    /// (`ribs == ribs_created`, `extribs == extribs_created`).
    pub fn sealed_census(&self) -> Result<SealedCensus> {
        let mut c = SealedCensus::default();
        for node in 0..=self.len as u32 {
            let rec = self.layout.with_record(node, |b| v2::decode(node, b))?;
            c.nodes += 1;
            c.ribs += rec.ribs.len() as u64;
            c.extribs += rec.extribs.len() as u64;
        }
        c.overflow_records = self.layout.overflow.len() as u64;
        Ok(c)
    }
}

#[cfg(test)]
mod v2_codec_tests {
    use super::v2::{self, NodeRecord};
    use super::*;
    use proptest::prelude::*;

    fn rt(node: u32, rec: &NodeRecord) -> Vec<u8> {
        let mut buf = Vec::new();
        let (link_b, ribs_b) = v2::encode(node, rec.link, &rec.ribs, &rec.extribs, &mut buf);
        assert!(link_b >= 2 && link_b + ribs_b <= buf.len());
        buf
    }

    #[test]
    fn empty_record_round_trips() {
        let rec = NodeRecord::default();
        let buf = rt(7, &rec);
        assert_eq!(buf, vec![0, 0, 0, 0], "two zero link varints + two zero counts");
        assert_eq!(v2::decode(7, &buf).unwrap(), rec);
        assert_eq!(v2::decode_link(&buf).unwrap(), (0, 0));
        assert_eq!(v2::find_rib(&buf, 7, 3).unwrap(), None);
        assert_eq!(v2::find_extrib(&buf, 7, 9).unwrap(), None);
    }

    #[test]
    fn max_degree_record_round_trips() {
        // A bytes-alphabet node can fan out one rib per code (254) plus a
        // long extrib chain — the worst record v2 must carry inline.
        let node = 1000u32;
        let rec = NodeRecord {
            link: (u32::MAX, u32::MAX),
            ribs: (0..254u32)
                .map(|i| Rib { cl: i as Code, dest: node + 1 + i, pt: i * 17 })
                .collect(),
            extribs: (0..40u32)
                .map(|i| Extrib { prt: i * 3, pt: i * 5, dest: node + 300 + i })
                .collect(),
        };
        let buf = rt(node, &rec);
        assert!(buf.len() <= slotted::MAX_RECORD_LEN, "max-degree record fits one page slot");
        assert_eq!(v2::decode(node, &buf).unwrap(), rec);
        assert_eq!(v2::decode_link(&buf).unwrap(), rec.link);
        for r in &rec.ribs {
            assert_eq!(v2::find_rib(&buf, node, r.cl).unwrap(), Some((r.dest, r.pt)));
        }
        for e in &rec.extribs {
            assert_eq!(v2::find_extrib(&buf, node, e.prt).unwrap(), Some((e.dest, e.pt)));
        }
        assert_eq!(v2::find_rib(&buf, node, 255).unwrap(), None);
    }

    #[test]
    fn every_strict_prefix_is_rejected_cleanly() {
        let node = 42u32;
        let rec = NodeRecord {
            link: (300, 7),
            ribs: vec![Rib { cl: 0, dest: 43, pt: 1 }, Rib { cl: 2, dest: 99999, pt: 500 }],
            extribs: vec![
                Extrib { prt: 1, pt: 2, dest: 44 },
                Extrib { prt: 128, pt: 300, dest: 45 },
            ],
        };
        let buf = rt(node, &rec);
        for cut in 0..buf.len() {
            assert!(v2::decode(node, &buf[..cut]).is_err(), "prefix of {cut} bytes must fail");
        }
        // Trailing garbage is rejected too.
        let mut long = buf.clone();
        long.push(0);
        assert!(v2::decode(node, &long).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn random_records_round_trip(
            node in 0u32..1_000_000,
            link_dest in 0u32..2_000_000,
            lel in 0u32..1_000_000,
            ribs in proptest::collection::vec((0u32..=255, 1u32..100_000, 0u32..1_000_000), 0..12),
            extribs in proptest::collection::vec((0u32..500_000, 0u32..500_000, 1u32..100_000), 0..10),
        ) {
            // Unique rib labels / chain prts, as the build guarantees.
            let mut seen = std::collections::HashSet::new();
            let ribs: Vec<Rib> = ribs
                .into_iter()
                .filter(|&(cl, _, _)| seen.insert(cl))
                .map(|(cl, delta, pt)| Rib { cl: cl as Code, dest: node + delta, pt })
                .collect();
            let mut seen = std::collections::HashSet::new();
            let extribs: Vec<Extrib> = extribs
                .into_iter()
                .filter(|&(prt, _, _)| seen.insert(prt))
                .map(|(prt, pt, delta)| Extrib { prt, pt, dest: node + delta })
                .collect();
            let rec = NodeRecord { link: (link_dest, lel), ribs, extribs };
            let buf = rt(node, &rec);
            prop_assert_eq!(v2::decode(node, &buf).unwrap(), rec.clone());
            prop_assert_eq!(v2::decode_link(&buf).unwrap(), rec.link);
            for r in &rec.ribs {
                prop_assert_eq!(v2::find_rib(&buf, node, r.cl).unwrap(), Some((r.dest, r.pt)));
            }
            for e in &rec.extribs {
                prop_assert_eq!(v2::find_extrib(&buf, node, e.prt).unwrap(), Some((e.dest, e.pt)));
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_the_decoder(
            bytes in proptest::collection::vec(0u8..=255, 0..64),
            node in 0u32..1_000_000,
        ) {
            // Any outcome is fine except a panic or a nonsensical Ok: if it
            // decodes, re-encoding must reproduce the input exactly.
            if let Ok(rec) = v2::decode(node, &bytes) {
                let mut out = Vec::new();
                v2::encode(node, rec.link, &rec.ribs, &rec.extribs, &mut out);
                prop_assert_eq!(out, bytes);
            }
            let _ = v2::decode_link(&bytes);
            let _ = v2::find_rib(&bytes, node, 0);
            let _ = v2::find_extrib(&bytes, node, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::FallibleSpineOps;
    use pagestore::{FaultyDevice, Lru, MemDevice};
    use strindex::{MatchingIndex, StringIndex};

    fn seal(text: &[u8], pool_pages: usize) -> (Alphabet, SealedSpine) {
        let a = Alphabet::dna();
        let codes = a.encode(text).unwrap();
        let d = SealedSpine::build_sealed(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            pool_pages,
            Box::<Lru>::default(),
        )
        .unwrap();
        (a, d)
    }

    #[test]
    fn sealed_equals_reference_engine() {
        let text = b"AACCACAACAGGTTACGACGACCAACCACAACA".repeat(4);
        let (a, d) = seal(&text, 4);
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"CA"[..], b"ACCAA", b"GGTT", b"TACGACG", b"AACCACAACA", b"", b"TTTTT"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
            assert_eq!(StringIndex::find_first(&r, &p), StringIndex::find_first(&d, &p));
            assert_eq!(d.try_find_all(&p).unwrap(), StringIndex::find_all(&d, &p));
        }
        for pos in [0, 1, text.len() - 1] {
            assert_eq!(StringIndex::symbol_at(&r, pos), StringIndex::symbol_at(&d, pos));
        }
        let q = a.encode(b"TTACGACCACAACAGGAACC").unwrap();
        assert_eq!(
            MatchingIndex::maximal_matches(&r, &q, 3),
            MatchingIndex::maximal_matches(&d, &q, 3)
        );
        assert_eq!(
            MatchingIndex::matching_statistics(&r, &q),
            MatchingIndex::matching_statistics(&d, &q)
        );
    }

    /// Decode every sealed record and compare it with the node it was
    /// sealed from: link, ribs and extribs in stored order.
    fn assert_records_match(what: &str, spine: &Spine, d: &SealedSpine) {
        assert_eq!(d.len(), spine.len(), "{what}: length");
        for (id, n) in (0u32..).zip(spine.nodes()) {
            let rec = d.layout.with_record(id, |b| v2::decode(id, b)).unwrap();
            assert_eq!(rec.link, (n.link, n.lel), "{what}: link of {id}");
            assert_eq!(rec.ribs, &n.ribs[..], "{what}: ribs of {id}");
            assert_eq!(rec.extribs, &n.extribs[..], "{what}: extribs of {id}");
        }
        for (i, &c) in spine.labels.iter().enumerate() {
            assert_eq!(d.layout.label(i).unwrap(), c, "{what}: label {i}");
        }
    }

    /// A fixed xorshift draw of `len` symbols from `symbols`. Few symbols
    /// make rib thresholds collide, so many nodes carry two or more
    /// extribs and their stored order shows.
    fn drawn(symbols: &[Code], len: usize, seed: u64) -> Vec<Code> {
        let mut x = 0x5EA1_0000 + seed;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                symbols[(x % symbols.len() as u64) as usize]
            })
            .collect()
    }

    #[test]
    fn sealed_structure_is_node_identical_to_reference() {
        let dna = Alphabet::dna();
        let mut separated = Vec::new();
        for doc in 0..6 {
            separated.extend(drawn(&[0, 1, 2, 3], 200, doc));
            separated.push(dna.separator());
        }
        // `(corpus, alphabet, text, extribs the busiest node must hold)`.
        let texts = [
            ("dna-separated", dna.clone(), separated, 2),
            ("protein", Alphabet::protein(), drawn(&[0, 7, 19], 1500, 7), 2),
            ("bytes", Alphabet::bytes(), drawn(&[0, 200, 253], 1500, 8), 2),
            ("periodic", dna.clone(), dna.encode(&b"AACCACAACA".repeat(30)).unwrap(), 1),
        ];
        for (what, a, codes, busiest) in texts {
            let spine = Spine::build(a, &codes).unwrap();
            let most = spine.nodes().iter().map(|n| n.extribs.len()).max().unwrap();
            assert!(most >= busiest, "{what}: the text must exercise extribs");
            let d = SealedSpine::seal(&spine, Box::new(MemDevice::new()), 4, Box::<Lru>::default())
                .unwrap();
            assert_records_match(what, &spine, &d);
        }
    }

    #[test]
    fn packed_compare_widths_per_alphabet() {
        // DNA: 2-bit words; protein: 5-bit; bytes: bit-tight store but
        // scalar compare.
        let (_, d) = seal(b"ACGTACGTTTGG", 4);
        assert_eq!(FallibleSpineOps::backbone_packing(&d), Some(2));

        let a = Alphabet::protein();
        let codes = a.encode(b"MKVLAARDWYHQCGGG").unwrap();
        let d = SealedSpine::build_sealed(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert_eq!(FallibleSpineOps::backbone_packing(&d), Some(5));
        let r = Spine::build(a.clone(), &codes).unwrap();
        for p in [&b"VLA"[..], b"GGG", b"MKVLA", b"WWW"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
        }

        let a = Alphabet::bytes();
        let codes = a.encode(b"mississippi$mississippi").unwrap();
        let d = SealedSpine::build_sealed(
            a.clone(),
            &codes,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert_eq!(FallibleSpineOps::backbone_packing(&d), None);
        let r = Spine::build(a.clone(), &codes).unwrap();
        for p in [&b"issi"[..], b"ppi$m", b"zzz"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
        }
    }

    #[test]
    fn label_ranges_read_back_the_text_across_label_pages() {
        // 8-bit labels pack 8 per word, so 9 000 bytes span three label
        // pages; the ranges start and end on, before and after the page
        // and word boundaries.
        let a = Alphabet::bytes();
        let text = drawn(&(0..254).collect::<Vec<Code>>(), 9000, 0x1ABE15);
        let d = SealedSpine::build_sealed(
            a,
            &text,
            Box::new(MemDevice::new()),
            2,
            Box::<Lru>::default(),
        )
        .unwrap();
        let page = WORDS_PER_PAGE * 8;
        for (from, to) in [(0, 0), (0, 9000), (3, 11), (page - 1, page + 1), (page, 2 * page + 9)] {
            assert_eq!(d.labels(from, to).unwrap(), &text[from..to], "labels {from}..{to}");
        }
    }

    #[test]
    fn separator_in_text_disables_packed_compare_but_not_queries() {
        // A DNA concatenation with document separators cannot pack at
        // 2 bits; the seal falls back to a 3-bit scalar-compared store.
        let a = Alphabet::dna();
        let sep = a.separator();
        let mut codes = a.encode(b"ACGTACGT").unwrap();
        codes.push(sep);
        codes.extend(a.encode(b"TTACG").unwrap());
        let mut src = Spine::new(a.clone());
        for &c in &codes {
            strindex::OnlineIndex::push(&mut src, c).unwrap();
        }
        let patterns: Vec<Vec<Code>> =
            [&b"ACG"[..], b"TTACG", b"GTT"].iter().map(|p| a.encode(p).unwrap()).collect();
        let before: Vec<_> = patterns.iter().map(|p| StringIndex::find_all(&src, p)).collect();
        let d =
            SealedSpine::seal(&src, Box::new(MemDevice::new()), 4, Box::<Lru>::default()).unwrap();
        assert_eq!(FallibleSpineOps::backbone_packing(&d), None);
        for (p, want) in patterns.iter().zip(&before) {
            assert_eq!(&StringIndex::find_all(&d, p), want);
        }
    }

    #[test]
    fn word_boundary_patterns_match_reference() {
        // DNA packs 32 symbols per word; sweep pattern starts and lengths
        // across the word boundary so every phase of the two-shift window
        // assembly is exercised at the engine level.
        let text: Vec<u8> = (0..200).map(|i: usize| b"ACGT"[(i * 7 + i / 3) % 4]).collect();
        let (a, d) = seal(&text, 4);
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for start in [0usize, 1, 30, 31, 32, 33, 63, 64, 65] {
            for len in [0usize, 1, 2, 31, 32, 33, 64, 65] {
                if start + len > text.len() {
                    continue;
                }
                let p = a.encode(&text[start..start + len]).unwrap();
                assert_eq!(
                    StringIndex::find_all(&r, &p),
                    StringIndex::find_all(&d, &p),
                    "start {start} len {len}"
                );
            }
        }
        // Near-miss patterns that diverge at each offset within a word.
        for flip in [0usize, 1, 31, 32, 33] {
            let mut q = text[..40].to_vec();
            q[flip] = if q[flip] == b'A' { b'C' } else { b'A' };
            let p = a.encode(&q).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
        }
    }

    #[test]
    fn sealed_under_memory_pressure() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(8);
        let (a, d) = seal(&text, 1); // single-frame pool
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"CA"[..], b"ACCAA", b"GGTT", b"TACGACG"] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
        }
        let (reads, _) = d.io_counts();
        assert!(reads > 0, "pressure must cause reads");
    }

    #[test]
    fn census_reconciles_with_build_stats() {
        let text = b"AACCACAACAGGTTACGACGACCAACCACAACA".repeat(3);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let (src, st) = Spine::build_with_stats(a.clone(), &codes).unwrap();
        let d =
            SealedSpine::seal(&src, Box::new(MemDevice::new()), 4, Box::<Lru>::default()).unwrap();
        let census = d.sealed_census().unwrap();
        assert_eq!(census.nodes, codes.len() as u64 + 1);
        assert_eq!(census.ribs, st.ribs_created);
        // Every extrib the build created is in a sealed record.
        assert!(st.extribs_created > 0, "the text must exercise extribs");
        assert_eq!(census.extribs, st.extribs_created);
        assert_eq!(census.overflow_records, 0);
    }

    #[test]
    fn oversized_record_takes_the_overflow_path() {
        let text = b"AACCACAACAGGTTACGACGACCA";
        let a = Alphabet::dna();
        let mut src = Spine::build_from_bytes(a.clone(), text).unwrap();
        // Graft an absurd extrib chain onto node 3: prts far outside any
        // real pathlength, so queries never take them, but the encoded
        // record blows past MAX_RECORD_LEN.
        let grafts: Vec<Extrib> =
            (0..2000u32).map(|i| Extrib { prt: 10_000_000 + i, pt: 5, dest: 4 + i % 7 }).collect();
        let mut chain = src.nodes[3].extribs.to_vec();
        chain.extend(&grafts);
        src.nodes[3].extribs = chain.into();
        let path = std::env::temp_dir()
            .join(format!("spine-overflow-record-{}.pages", std::process::id()));
        let dev = pagestore::FileDevice::create(&path, false).unwrap();
        let sealed = SealedSpine::seal(&src, Box::new(dev), 4, Box::<Lru>::default()).unwrap();
        let census = sealed.sealed_census().unwrap();
        let pages = sealed.file_pages();
        drop(sealed);
        assert_eq!(census.overflow_records, 1);
        assert!(census.extribs >= 2000);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), pages * PAGE_SIZE as u64);

        // The record lives on overflow pages of the file itself, so a
        // reopen from the file alone answers like the source.
        let dev = pagestore::FileDevice::open(&path, false).unwrap();
        let d = SealedSpine::reopen(Box::new(dev), 4, Box::<Lru>::default()).unwrap();
        assert_eq!(d.sealed_census().unwrap(), census);
        assert_eq!(d.file_pages(), pages);
        assert_records_match("reopened overflow", &src, &d);
        // The overflow record answers point lookups like any other.
        for e in grafts.iter().step_by(500) {
            assert_eq!(d.try_extrib_of(3, e.prt).unwrap(), Some((e.dest, e.pt)));
        }
        // And ordinary queries still agree with the source and the reference.
        let r = Spine::build_from_bytes(a.clone(), text).unwrap();
        for p in [&b"CA"[..], b"ACCA", b"GGTT", b""] {
            let p = a.encode(p).unwrap();
            assert_eq!(StringIndex::find_all(&src, &p), StringIndex::find_all(&d, &p));
            assert_eq!(StringIndex::find_all(&r, &p), StringIndex::find_all(&d, &p));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failed_seal_leaves_source_intact() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(2);
        let a = Alphabet::dna();
        let codes = a.encode(&text).unwrap();
        let src = Spine::build(a.clone(), &codes).unwrap();
        let dead = FaultyDevice::new(MemDevice::new(), 0);
        assert!(SealedSpine::seal(&src, Box::new(dead), 4, Box::<Lru>::default()).is_err());
        let p = a.encode(b"ACGACG").unwrap();
        let r = Spine::build(a.clone(), &codes).unwrap();
        assert_eq!(StringIndex::find_all(&src, &p), StringIndex::find_all(&r, &p));
        let d =
            SealedSpine::seal(&src, Box::new(MemDevice::new()), 4, Box::<Lru>::default()).unwrap();
        assert_eq!(StringIndex::find_all(&d, &p), StringIndex::find_all(&r, &p));
    }

    #[test]
    fn empty_and_tiny_texts_seal() {
        let a = Alphabet::dna();
        let d = SealedSpine::build_sealed(
            a.clone(),
            &[],
            Box::new(MemDevice::new()),
            2,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert_eq!(d.len(), 0);
        assert!(d.is_empty());
        assert_eq!(d.file_pages(), 2); // header + one (root-only) node page
        assert_eq!(StringIndex::find_all(&d, &a.encode(b"A").unwrap()), Vec::<usize>::new());
        assert_eq!(d.sealed_census().unwrap().nodes, 1);

        let d = SealedSpine::build_sealed(
            a.clone(),
            &a.encode(b"G").unwrap(),
            Box::new(MemDevice::new()),
            2,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(StringIndex::find_all(&d, &a.encode(b"G").unwrap()), vec![0]);
        assert_eq!(StringIndex::find_all(&d, &a.encode(b"C").unwrap()), Vec::<usize>::new());
        assert_eq!(StringIndex::symbol_at(&d, 0), a.encode(b"G").unwrap()[0]);
    }

    #[test]
    fn sealed_explain_matches_reference_structure() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(4);
        let (a, d) = seal(&text, 1); // single-frame pool: every hop faults
        let codes = a.encode(&text).unwrap();
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"CA"[..], b"ACCAA", b"TACGACG", b"TTTT"] {
            let p = a.encode(p).unwrap();
            let dt = d.explain(&p);
            dt.verify_against_text(&codes).unwrap();
            assert_eq!(dt.structural_events(), r.explain(&p).structural_events());
            let (hits, misses) = dt.page_fetches();
            assert!(hits + misses > 0, "a single-frame pool must show traffic");
        }
    }

    #[test]
    fn sealed_telemetry_accounts_pages() {
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(8);
        let (a, d) = seal(&text, 1);
        let before = d.pool_stats();
        d.try_find_all(&a.encode(b"ACGACG").unwrap()).unwrap();
        crate::search::try_locate(&d, &a.encode(b"CA").unwrap()).unwrap();
        let after = d.pool_stats();
        assert!(after.misses > before.misses, "queries under pressure must miss the pool");
        assert_eq!(d.storage_counters(), Some((after.hits, after.misses)));
    }

    #[test]
    fn packed_counters_match_scalar_totals() {
        // The packed fast path must account runs exactly like the scalar
        // walk: same nodes_checked / edges totals for the same queries.
        let text = b"AACCACAACAGGTTACGACGACCA".repeat(4);
        let (a, d) = seal(&text, 8);
        let r = Spine::build_from_bytes(a.clone(), &text).unwrap();
        for p in [&b"ACGACGACCA"[..], b"AACCACAACAGGTT", b"CA", b"GGTTAC"] {
            let p = a.encode(p).unwrap();
            d.counters().reset();
            r.counters().reset();
            let located = crate::search::try_locate(&d, &p).unwrap();
            assert_eq!(located, crate::search::locate(&r, &p));
            assert_eq!(
                d.counters().nodes_checked(),
                r.counters().nodes_checked(),
                "node checks for {p:?}"
            );
            assert_eq!(
                d.counters().edges_traversed(),
                r.counters().edges_traversed(),
                "edges {p:?}"
            );
        }
    }
}

#[cfg(test)]
mod reopen_tests {
    use super::*;
    use crate::ops::FallibleSpineOps;
    use pagestore::{FileDevice, Lru, MemDevice};
    use strindex::{MatchingIndex, StringIndex};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("spine-reopen-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("dev-{tag}-{}.pages", std::process::id()))
    }

    fn reopen_file(path: &std::path::Path) -> Result<SealedSpine> {
        SealedSpine::reopen(Box::new(FileDevice::open(path, false)?), 8, Box::<Lru>::default())
    }

    #[test]
    fn seal_flush_reopen_query() {
        let a = Alphabet::dna();
        let text = a.encode(&b"AACCACAACAGGTTACGACGACCA".repeat(16)).unwrap();
        let dev_path = temp_path("v3");
        let built = SealedSpine::build_sealed(
            a.clone(),
            &text,
            Box::new(FileDevice::create(&dev_path, false).unwrap()),
            8,
            Box::<Lru>::default(),
        )
        .unwrap();
        let before: Vec<usize> = StringIndex::find_all(&built, &a.encode(b"ACGACG").unwrap());
        let census_before = built.sealed_census().unwrap();
        let encoded_before = built.mem_breakdown();
        drop(built);

        let reopened = reopen_file(&dev_path).unwrap();
        assert_eq!(reopened.len(), text.len());
        // The packed compare and the byte census survive the round trip.
        assert_eq!(FallibleSpineOps::backbone_packing(&reopened), Some(2));
        assert_eq!(reopened.mem_breakdown(), encoded_before);
        assert_eq!(StringIndex::find_all(&reopened, &a.encode(b"ACGACG").unwrap()), before);
        assert_eq!(reopened.sealed_census().unwrap(), census_before);
        // Full equivalence against a fresh in-memory build.
        let r = crate::Spine::build(a.clone(), &text).unwrap();
        let q = a.encode(b"TTACGACCACAACAGG").unwrap();
        assert_eq!(
            MatchingIndex::maximal_matches(&r, &q, 3),
            MatchingIndex::maximal_matches(&reopened, &q, 3)
        );
        std::fs::remove_file(&dev_path).ok();
    }

    /// Page 0 is untrusted input: garbage, a truncated page and a header
    /// whose fields disagree with the file all fail with a typed error,
    /// never a panic.
    #[test]
    fn reopen_rejects_garbage_and_truncated_headers() {
        let reopen = |pages: &[Vec<u8>]| {
            let mut dev = MemDevice::new();
            for (i, p) in pages.iter().enumerate() {
                dev.write_page(i as u32, p).unwrap();
            }
            SealedSpine::reopen(Box::new(dev), 2, Box::<Lru>::default())
        };
        let mut junk = vec![0u8; PAGE_SIZE];
        let mut x = 0x9E37_79B9u32;
        for b in junk.iter_mut() {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            *b = x as u8;
        }
        assert!(reopen(&[junk.clone()]).is_err());
        // An empty device reads page 0 as zeros: page format 0.
        assert!(matches!(reopen(&[]), Err(Error::FormatVersion { found: 0, .. })));

        // A truncated page 0 on a real file is an I/O error.
        let path = temp_path("truncated");
        let dev = FileDevice::create(&path, false).unwrap();
        let a = Alphabet::dna();
        let codes = a.encode(b"ACGTTGCA").unwrap();
        drop(SealedSpine::build_sealed(a, &codes, Box::new(dev), 2, Box::<Lru>::default()));
        let file = std::fs::read(&path).unwrap();
        std::fs::write(&path, &file[..100]).unwrap();
        assert!(matches!(reopen_file(&path), Err(Error::Io { .. })));
        std::fs::remove_file(&path).ok();

        // A valid header with one field corrupted at a time.
        let pages: Vec<Vec<u8>> = file.chunks(PAGE_SIZE).map(<[u8]>::to_vec).collect();
        assert!(reopen(&pages).is_ok());
        let at = slotted::PAGE_HEADER_LEN;
        let corrupt = |edit: &dyn Fn(&mut [u8])| {
            let mut p = pages.clone();
            edit(&mut p[0][at..]);
            reopen(&p).err().expect("a corrupt header must not reopen")
        };
        let parse = |e: Error| matches!(e, Error::Parse(_));
        assert!(parse(corrupt(&|b| b[0] = b'X')), "magic");
        assert!(parse(corrupt(&|b| b[6] = 9)), "alphabet tag");
        assert!(parse(corrupt(&|b| b[7] = 0)), "zero packing width");
        assert!(parse(corrupt(&|b| b[7] = 9)), "packing width above 8");
        assert!(parse(corrupt(&|b| b[9..17].copy_from_slice(&u64::MAX.to_le_bytes()))), "len");
        assert!(
            parse(corrupt(&|b| b[9..17].copy_from_slice(&100_000u64.to_le_bytes()))),
            "label pages disagree with len"
        );
        assert!(parse(corrupt(&|b| b[17] = 7)), "label pages");
        assert!(parse(corrupt(&|b| b[21..25].fill(0))), "no node page");
        assert!(parse(corrupt(&|b| b[21] = 9)), "pages beyond the device");
        assert!(parse(corrupt(&|b| b[57] = 1)), "overflow page beyond the device");
        // A node page whose `first_item` is not the running record count.
        let mut p = pages.clone();
        p[2][4] = 1;
        assert!(parse(reopen(&p).err().unwrap()), "node page first_item");
        // A label page where a node page belongs: the wrong kind.
        let mut p = pages.clone();
        p[2] = p[1].clone();
        assert!(parse(reopen(&p).err().unwrap()), "page kind");
        // A node page of another page format version.
        let mut p = pages.clone();
        p[2][0] = 1;
        assert!(matches!(reopen(&p), Err(Error::FormatVersion { found: 1, expected: 2 })));
    }
}
