//! The segment store's versioned manifest: the single source of truth for
//! what is durable.
//!
//! A [`crate::SegmentedSpine`] directory holds immutable sealed segment
//! files plus one `MANIFEST` file. The manifest names the live segments
//! (with their embedded per-document tables), the tombstoned document ids,
//! and the id-allocation high-water marks — everything recovery needs, in
//! one record, so one atomic file replacement commits an arbitrary state
//! transition (seal, retire, merge).
//!
//! ## Encoding
//!
//! Fixed-width little-endian binary with a magic/version prelude and a
//! trailing FNV-1a checksum over everything before it:
//!
//! ```text
//! "SPML" | version u16 | epoch u64 | next_doc u64 | next_segment u64
//! | segment count u32
//!   | per segment: id u64 | doc count u32 | per doc: (doc id u64, len u64)
//! | tombstone count u32 | tombstone ids u64...
//! | checksum u64
//! ```
//!
//! Decoding is strict: bad magic, a short buffer, trailing bytes, or a
//! checksum mismatch are [`Error::Parse`] (the bytes are garbage — a torn
//! or corrupted write); an unknown version is [`Error::FormatVersion`]
//! (the bytes are fine but this build cannot read them). The distinction
//! matters to recovery: parse failures on `MANIFEST` mean the store is
//! unrecoverable by this layer, never silently reinitialized.

use strindex::{Error, Result};

/// Version stamped into every manifest this build writes.
pub const MANIFEST_VERSION: u16 = 1;

const MAGIC: &[u8; 4] = b"SPML";

/// One live segment: its file id plus the embedded document table.
///
/// Embedding the doc table here (rather than in the segment files) means a
/// single manifest commit atomically covers the segment list *and* every
/// document's identity — a half-written segment file can never disagree
/// with a committed segment set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentEntry {
    /// Segment file id: the data lives in `seg-<id>.pages`.
    pub id: u64,
    /// Global document ids, in concatenation order.
    pub doc_ids: Vec<u64>,
    /// Per-document lengths (symbols, excluding the separator), parallel
    /// to `doc_ids`.
    pub doc_lens: Vec<u64>,
}

impl SegmentEntry {
    /// Concatenation start offsets with a trailing sentinel (total length),
    /// assuming each document is followed by one separator symbol.
    pub fn starts(&self) -> Vec<usize> {
        let mut starts = Vec::with_capacity(self.doc_lens.len() + 1);
        let mut at = 0usize;
        for &len in &self.doc_lens {
            starts.push(at);
            at += len as usize + 1;
        }
        starts.push(at);
        starts
    }
}

/// A committed snapshot of the segment store's durable state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Monotone commit counter; every successful commit is `epoch + 1` of
    /// the manifest it replaces.
    pub epoch: u64,
    /// Next global document id to assign. Memtable documents are volatile,
    /// so this advances only at seal commits — after a crash, ids handed to
    /// lost memtable documents are deliberately reissued.
    pub next_doc: u64,
    /// Next segment file id to assign.
    pub next_segment: u64,
    /// Live segments, oldest first.
    pub segments: Vec<SegmentEntry>,
    /// Retired-but-not-yet-compacted document ids (sorted, deduplicated).
    /// Only *sealed* documents appear here; memtable retirement is volatile
    /// by design (the document it hides is too).
    pub tombstones: Vec<u64>,
}

impl Manifest {
    /// Serialize to the on-disk byte layout (checksum included).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.segments.len() * 32);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.next_doc.to_le_bytes());
        out.extend_from_slice(&self.next_segment.to_le_bytes());
        out.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for seg in &self.segments {
            out.extend_from_slice(&seg.id.to_le_bytes());
            out.extend_from_slice(&(seg.doc_ids.len() as u32).to_le_bytes());
            for (&id, &len) in seg.doc_ids.iter().zip(&seg.doc_lens) {
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
            }
        }
        out.extend_from_slice(&(self.tombstones.len() as u32).to_le_bytes());
        for &t in &self.tombstones {
            out.extend_from_slice(&t.to_le_bytes());
        }
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse and validate a manifest image.
    pub fn decode(bytes: &[u8]) -> Result<Self> {
        if bytes.len() < MAGIC.len() + 2 + 8 {
            return Err(Error::Parse("manifest truncated".into()));
        }
        if &bytes[..4] != MAGIC {
            return Err(Error::Parse("bad manifest magic".into()));
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != MANIFEST_VERSION {
            return Err(Error::FormatVersion { found: version, expected: MANIFEST_VERSION });
        }
        let (body, sum_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(sum_bytes.try_into().unwrap());
        if fnv1a(body) != stored {
            return Err(Error::Parse("manifest checksum mismatch (torn write?)".into()));
        }
        let mut r = Reader { buf: body, at: 6 };
        let epoch = r.u64()?;
        let next_doc = r.u64()?;
        let next_segment = r.u64()?;
        let nsegs = r.u32()? as usize;
        let mut segments = Vec::with_capacity(nsegs.min(1024));
        for _ in 0..nsegs {
            let id = r.u64()?;
            let ndocs = r.u32()? as usize;
            let mut doc_ids = Vec::with_capacity(ndocs.min(65536));
            let mut doc_lens = Vec::with_capacity(ndocs.min(65536));
            for _ in 0..ndocs {
                doc_ids.push(r.u64()?);
                doc_lens.push(r.u64()?);
            }
            segments.push(SegmentEntry { id, doc_ids, doc_lens });
        }
        let ntombs = r.u32()? as usize;
        let mut tombstones = Vec::with_capacity(ntombs.min(65536));
        for _ in 0..ntombs {
            tombstones.push(r.u64()?);
        }
        if r.at != body.len() {
            return Err(Error::Parse("trailing bytes after manifest body".into()));
        }
        Ok(Manifest { epoch, next_doc, next_segment, segments, tombstones })
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        if self.at + n > self.buf.len() {
            return Err(Error::Parse("manifest truncated".into()));
        }
        let s = &self.buf[self.at..self.at + n];
        self.at += n;
        Ok(s)
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// 64-bit FNV-1a — tiny, dependency-free, and plenty to distinguish a torn
/// write from a committed image (this guards against corruption, not an
/// adversary).
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            epoch: 7,
            next_doc: 42,
            next_segment: 3,
            segments: vec![
                SegmentEntry { id: 0, doc_ids: vec![0, 1, 5], doc_lens: vec![10, 0, 3] },
                SegmentEntry { id: 2, doc_ids: vec![6], doc_lens: vec![1] },
            ],
            tombstones: vec![1, 5],
        }
    }

    #[test]
    fn round_trips() {
        let m = sample();
        assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
        let empty = Manifest::default();
        assert_eq!(Manifest::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn starts_account_for_separators() {
        let seg = &sample().segments[0];
        // doc lens 10, 0, 3 → starts 0, 11, 12, sentinel 16.
        assert_eq!(seg.starts(), vec![0, 11, 12, 16]);
    }

    #[test]
    fn every_truncation_is_a_parse_error_not_a_panic() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let e = Manifest::decode(&bytes[..cut]).unwrap_err();
            assert!(matches!(e, Error::Parse(_)), "cut at {cut}: unexpected error {e}");
        }
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = sample().encode();
        // Flip one bit mid-body: checksum must catch it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(Manifest::decode(&bytes), Err(Error::Parse(_))));
        // Bad magic.
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(Manifest::decode(&bytes), Err(Error::Parse(_))));
        // Future version: distinct, actionable error.
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert!(matches!(
            Manifest::decode(&bytes),
            Err(Error::FormatVersion { found: 99, expected: MANIFEST_VERSION })
        ));
        // Trailing garbage after a valid image.
        let mut bytes = sample().encode();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(Manifest::decode(&bytes), Err(Error::Parse(_))));
    }
}
