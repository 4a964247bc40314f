//! Slotted pages for the v2 on-disk node format.
//!
//! Format v1 stripes fixed-size records over pages (`PagedVec`), so every
//! node pays for the fan-out of the *worst* node. Format v2 stores
//! variable-length records in classic slotted pages — the layout of the
//! compact B+Tree pages in decentdb's ADR: a fixed header, a slot offset
//! table, then the records back to back.
//!
//! ```text
//! byte 0        8               8+2(count+1)                    PAGE_SIZE
//! +-------------+---------------+-------------------------+-----------+
//! | PageHeader  | u16 offsets   | record 0 | record 1 | … | (unused)  |
//! | ver kind    | o[0]..o[count]|                         |           |
//! | count first |               |                         |           |
//! +-------------+---------------+-------------------------+-----------+
//! ```
//!
//! Record `i` occupies `page[o[i]..o[i+1]]` — `count + 1` offsets bound
//! `count` records with no per-record length field, and zero-length records
//! are representable. Every page carries its own format version byte;
//! readers check it on **every** access and surface
//! [`strindex::Error::FormatVersion`] ("rebuild required") instead of
//! misparsing a v1 page — defense in depth on top of the file header.

use crate::device::PAGE_SIZE;
use strindex::{Error, Result};

/// On-disk format version written by this build.
pub const PAGE_FORMAT_V2: u8 = 2;

/// Size of the fixed page header.
pub const PAGE_HEADER_LEN: usize = 8;

/// Page kind tags (header byte 1).
pub mod kind {
    /// The per-file header page (page 0).
    pub const FILE_HEADER: u8 = 0;
    /// A page of packed backbone label words.
    pub const LABELS: u8 = 1;
    /// A slotted page of variable-length node records.
    pub const NODES: u8 = 2;
    /// A page of the byte stream holding records too long for a slotted
    /// page.
    pub const OVERFLOW: u8 = 3;
}

/// The fixed 8-byte header at the start of every v2 page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageHeader {
    /// Format version ([`PAGE_FORMAT_V2`]).
    pub version: u8,
    /// What the page holds (see [`kind`]).
    pub kind: u8,
    /// Number of records (slotted pages) or payload items (label pages).
    pub count: u16,
    /// Id of the first item on the page (node id / word index).
    pub first_item: u32,
}

impl PageHeader {
    /// Serialize into the first [`PAGE_HEADER_LEN`] bytes of `page`.
    pub fn write_to(&self, page: &mut [u8]) {
        page[0] = self.version;
        page[1] = self.kind;
        page[2..4].copy_from_slice(&self.count.to_le_bytes());
        page[4..8].copy_from_slice(&self.first_item.to_le_bytes());
    }

    /// Deserialize from the first [`PAGE_HEADER_LEN`] bytes of `page`.
    /// No validation — see [`PageHeader::checked`] for the version gate.
    pub fn read_from(page: &[u8]) -> PageHeader {
        PageHeader {
            version: page[0],
            kind: page[1],
            count: u16::from_le_bytes([page[2], page[3]]),
            first_item: u32::from_le_bytes([page[4], page[5], page[6], page[7]]),
        }
    }

    /// Deserialize and reject any page not stamped with the current format
    /// version and the expected kind.
    pub fn checked(page: &[u8], want_kind: u8) -> Result<PageHeader> {
        let h = Self::read_from(page);
        if h.version != PAGE_FORMAT_V2 {
            return Err(Error::FormatVersion {
                found: h.version as u16,
                expected: PAGE_FORMAT_V2 as u16,
            });
        }
        if h.kind != want_kind {
            return Err(Error::Parse(format!(
                "page kind {} where kind {want_kind} expected",
                h.kind
            )));
        }
        Ok(h)
    }
}

/// Bytes available for slot offsets + record payloads on one page.
const BODY_CAPACITY: usize = PAGE_SIZE - PAGE_HEADER_LEN;

/// Largest single record a slotted page can hold (one record, two offsets).
pub const MAX_RECORD_LEN: usize = BODY_CAPACITY - 2 * 2;

/// Builds one slotted page record by record, then serializes it.
#[derive(Debug)]
pub struct SlottedPageBuilder {
    first_item: u32,
    records: Vec<u8>,
    ends: Vec<u16>,
}

impl SlottedPageBuilder {
    /// An empty page whose first record will be item `first_item`.
    pub fn new(first_item: u32) -> Self {
        SlottedPageBuilder { first_item, records: Vec::new(), ends: Vec::new() }
    }

    /// Number of records pushed so far.
    pub fn count(&self) -> usize {
        self.ends.len()
    }

    /// Would a further record of `len` bytes fit?
    pub fn fits(&self, len: usize) -> bool {
        // Offsets already needed: count + 1; one more record adds one.
        let offsets = (self.ends.len() + 2) * 2;
        offsets + self.records.len() + len <= BODY_CAPACITY
    }

    /// Append a record. Returns `false` (page unchanged) when full — the
    /// caller then finishes this page and starts the next one.
    pub fn push(&mut self, rec: &[u8]) -> bool {
        if !self.fits(rec.len()) || self.ends.len() == u16::MAX as usize {
            return false;
        }
        self.records.extend_from_slice(rec);
        self.ends.push(self.records.len() as u16);
        true
    }

    /// Serialize into a full page image (header, offsets, records).
    pub fn finish(&self) -> [u8; PAGE_SIZE] {
        let mut page = [0u8; PAGE_SIZE];
        let count = self.ends.len();
        PageHeader {
            version: PAGE_FORMAT_V2,
            kind: kind::NODES,
            count: count as u16,
            first_item: self.first_item,
        }
        .write_to(&mut page);
        let base = (PAGE_HEADER_LEN + 2 * (count + 1)) as u16;
        let mut at = PAGE_HEADER_LEN;
        page[at..at + 2].copy_from_slice(&base.to_le_bytes());
        at += 2;
        for &end in &self.ends {
            page[at..at + 2].copy_from_slice(&(base + end).to_le_bytes());
            at += 2;
        }
        page[at..at + self.records.len()].copy_from_slice(&self.records);
        page
    }
}

/// Record `i` of a slotted page, with the version byte checked on every
/// access (a v1 page surfaces "rebuild required", never a misparse).
pub fn slotted_record(page: &[u8], i: usize) -> Result<&[u8]> {
    let h = PageHeader::checked(page, kind::NODES)?;
    if i >= h.count as usize {
        return Err(Error::Parse(format!("record {i} out of range (page holds {})", h.count)));
    }
    let off = |slot: usize| -> usize {
        let at = PAGE_HEADER_LEN + 2 * slot;
        u16::from_le_bytes([page[at], page[at + 1]]) as usize
    };
    let (start, end) = (off(i), off(i + 1));
    if start > end || end > PAGE_SIZE {
        return Err(Error::Parse(format!("corrupt slot bounds {start}..{end} for record {i}")));
    }
    Ok(&page[start..end])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_page_round_trips() {
        let b = SlottedPageBuilder::new(7);
        let page = b.finish();
        let h = PageHeader::checked(&page, kind::NODES).unwrap();
        assert_eq!(h, PageHeader { version: 2, kind: kind::NODES, count: 0, first_item: 7 });
        assert!(slotted_record(&page, 0).is_err());
    }

    #[test]
    fn zero_length_and_max_records() {
        let mut b = SlottedPageBuilder::new(0);
        assert!(b.push(&[]));
        let big = vec![0xABu8; MAX_RECORD_LEN];
        assert!(!b.push(&big), "max record shares no page with another record");
        let mut solo = SlottedPageBuilder::new(1);
        assert!(solo.fits(MAX_RECORD_LEN));
        assert!(!solo.fits(MAX_RECORD_LEN + 1));
        assert!(solo.push(&big));
        assert!(!solo.push(&[]), "page is exactly full");
        let page = solo.finish();
        assert_eq!(slotted_record(&page, 0).unwrap(), &big[..]);
    }

    #[test]
    fn version_byte_is_checked_on_every_access() {
        let mut b = SlottedPageBuilder::new(0);
        b.push(&[1, 2, 3]);
        let mut page = b.finish();
        page[0] = 1; // stamp a v1 version byte
        match slotted_record(&page, 0) {
            Err(Error::FormatVersion { found: 1, expected: 2 }) => {}
            other => panic!("expected FormatVersion, got {other:?}"),
        }
        let msg = slotted_record(&page, 0).unwrap_err().to_string();
        assert!(msg.contains("rebuild required"), "{msg}");
    }

    #[test]
    fn wrong_kind_is_a_parse_error() {
        let mut page = [0u8; PAGE_SIZE];
        PageHeader { version: 2, kind: kind::LABELS, count: 0, first_item: 0 }.write_to(&mut page);
        assert!(matches!(slotted_record(&page, 0), Err(Error::Parse(_))));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn pages_round_trip_arbitrary_records(
            recs in prop::collection::vec(prop::collection::vec(0u8..=255, 0..300), 0..40),
        ) {
            let mut pages: Vec<([u8; PAGE_SIZE], Vec<Vec<u8>>)> = Vec::new();
            let mut b = SlottedPageBuilder::new(0);
            let mut on_page: Vec<Vec<u8>> = Vec::new();
            for r in &recs {
                if !b.push(r) {
                    pages.push((b.finish(), std::mem::take(&mut on_page)));
                    b = SlottedPageBuilder::new(0);
                    prop_assert!(b.push(r), "record must fit an empty page");
                }
                on_page.push(r.to_vec());
            }
            pages.push((b.finish(), on_page));
            for (page, want) in &pages {
                let h = PageHeader::checked(page, kind::NODES).unwrap();
                prop_assert_eq!(h.count as usize, want.len());
                for (i, w) in want.iter().enumerate() {
                    prop_assert_eq!(slotted_record(page, i).unwrap(), &w[..]);
                }
                prop_assert!(slotted_record(page, want.len()).is_err());
            }
        }
    }
}
