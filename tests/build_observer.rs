//! BuildStats ↔ structure reconciliation, property-tested.
//!
//! The build observer's counters are only trustworthy if they agree with
//! the finished index — every rib the observer saw created must be present
//! (SPINE never deletes ribs), every link event must correspond to a node,
//! and the CASE 1–4 dispositions must partition the insertions. This suite
//! pins those invariants over random DNA / protein / raw-byte texts
//! (including the empty and single-character edge cases) and checks that
//! the reference, compact and fixed-record disk engines emit the same
//! event sequence — the disk engine's links, ribs and extribs node for
//! node, too. Frozen digests pin every builder's events and bytes.

use genseq::rng;
use pagestore::{FileDevice, Lru, MemDevice};
use proptest::prelude::*;
use rand::Rng;
use spine::{
    BuildEvent, BuildStats, CompactSpine, DiskSpine, Extrib, FallibleSpineOps, GeneralizedSpine,
    Node, Observer, Rib, Spine, Tee, ROOT,
};
use std::mem::size_of;
use strindex::{Alphabet, Code, StringIndex};

/// Records every structural build event, so engines compare event for
/// event. Phase timings differ run to run and are skipped.
#[derive(Default)]
struct Events(Vec<BuildEvent>);

impl Observer<BuildEvent> for Events {
    fn event(&mut self, e: BuildEvent) {
        if !matches!(e, BuildEvent::Phase { .. }) {
            self.0.push(e);
        }
    }
}

impl Events {
    /// The sequence without the disk-only [`BuildEvent::ExtribSpill`]s.
    fn without_spills(self) -> Vec<BuildEvent> {
        self.0.into_iter().filter(|e| *e != BuildEvent::ExtribSpill).collect()
    }
}

fn random_text(a: &Alphabet, len: usize, seed: u64) -> Vec<Code> {
    let mut r = rng(seed);
    (0..len).map(|_| r.gen_range(0..a.size()) as Code).collect()
}

/// Build `text` with the observer attached and check every reconciliation
/// invariant against the reference engine's explicit structure.
fn reconcile(a: &Alphabet, text: &[Code]) -> (Spine, BuildStats) {
    let (s, st) = Spine::build_with_stats(a.clone(), text).unwrap();

    // Dispositions partition the insertions; links fire once each.
    assert_eq!(st.insertions as usize, text.len(), "one insertion per character");
    assert_eq!(st.dispositions(), st.insertions, "CASE counts must sum to insertions");
    assert_eq!(st.links_set, st.insertions, "exactly one link per insertion");
    assert_eq!(st.first_char, u64::from(!text.is_empty()), "FirstChar fires for text[0] only");

    // Structural counts: ribs are never deleted, extribs only appended.
    let nodes = s.nodes();
    let ribs_present: u64 = nodes.iter().map(|n| n.ribs.len() as u64).sum();
    let extribs_present: u64 = nodes.iter().map(|n| n.extribs.len() as u64).sum();
    assert_eq!(st.ribs_created, ribs_present, "ribs created vs present");
    assert_eq!(st.extribs_created, extribs_present, "extribs created vs present");
    assert_eq!(st.extrib_spills, 0, "the in-memory layout never spills");

    // Link labels: positive-LEL links and the maximum agree with the nodes.
    let positive_lel = nodes.iter().filter(|n| n.lel > 0).count() as u64;
    let max_lel = nodes.iter().map(|n| n.lel).max().unwrap_or(0);
    assert_eq!(st.links_with_positive_lel, positive_lel, "links with LEL > 0");
    assert_eq!(st.max_lel, max_lel, "maximum LEL");

    // CASE 3 creates ribs; CASE 4 creates extribs, one each per disposition.
    assert_eq!(st.case4_extrib, st.extribs_created, "one extrib per CASE 4 creation");
    assert!(st.ribs_created >= st.case3_root, "CASE 3 walks create at least one rib each");

    // Memory accounting covers every symbol: the label store holds one
    // `Code` byte per vertebra.
    assert_eq!(st.mem.vertebrae as usize, text.len(), "one label byte per symbol");
    assert_eq!(
        st.mem.total(),
        st.mem.vertebrae + st.mem.links + st.mem.ribs + st.mem.extribs,
        "breakdown sums to its total"
    );

    // Edges are exact-length slices: the breakdown counts them by length,
    // and `heap_bytes` counts them the same way. A batch build sizes the
    // label store exactly, so what `heap_bytes` adds on top of edges and
    // labels is the node vector — a whole number of nodes, at least one
    // per node.
    assert_eq!(st.mem.ribs, ribs_present * size_of::<Rib>() as u64, "rib bytes by length");
    assert_eq!(st.mem.extribs, extribs_present * size_of::<Extrib>() as u64, "extrib bytes");
    let node_bytes = s.heap_bytes() as u64 - st.mem.ribs - st.mem.extribs - st.mem.vertebrae;
    assert_eq!(node_bytes % size_of::<Node>() as u64, 0, "heap_bytes holds whole nodes");
    assert!(node_bytes >= std::mem::size_of_val(nodes) as u64, "every node counted");

    (s, st)
}

/// The compact and fixed-record disk layouts must observe the identical
/// event sequence (the disk layout adds only its [`BuildEvent::ExtribSpill`]
/// events), and the disk engine's APPEND must lay down the reference
/// structure: every link, every rib, and every extrib found by its chain's
/// PRT, whether it sits in an inline slot or the spill table. (Raw-byte
/// alphabets skip the compact layout: its slot markers cap its code space
/// at 253 symbols.)
fn cross_engine(a: &Alphabet, text: &[Code], reference: &Spine, stats: &BuildStats) {
    let mut want = Events::default();
    Spine::build_observed(a.clone(), text, &mut want).unwrap();
    let want = want.0;
    assert_eq!(
        want.len() as u64,
        stats.insertions
            + stats.links_set
            + stats.ribs_created
            + stats.extribs_created
            + stats.chain_steps,
        "one recorded event per counted one"
    );

    if a.code_space() < 254 {
        let mut got = Events::default();
        let c = CompactSpine::build_observed(a.clone(), text, &mut got).unwrap();
        assert!(got.0 == want, "compact engine's event sequence diverges from the reference");
        assert_eq!(c.len(), text.len());
    }

    let (mut dt, mut got) = (BuildStats::default(), Events::default());
    let d = DiskSpine::build_observed(
        a.clone(),
        text,
        Box::new(MemDevice::new()),
        4,
        Box::<Lru>::default(),
        &mut Tee(&mut dt, &mut got),
    )
    .unwrap();
    assert!(got.without_spills() == want, "disk engine's event sequence diverges");
    assert_eq!(dt.extrib_spills, d.spill_count(), "spill events vs the side table");
    assert_eq!(d.len(), text.len());
    for (id, n) in (0..).zip(reference.nodes()) {
        if id != ROOT {
            assert_eq!(d.try_link_of(id).unwrap(), (n.link, n.lel), "link of {id}");
        }
        for r in n.ribs.iter() {
            let rib = d.try_rib_of(id, r.cl).unwrap();
            assert_eq!(rib, Some((r.dest, r.pt)), "rib {} of {id}", r.cl);
        }
        for e in n.extribs.iter() {
            let extrib = d.try_extrib_of(id, e.prt).unwrap();
            assert_eq!(extrib, Some((e.dest, e.pt)), "extrib {} of {id}", e.prt);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random DNA texts, length 0 upward (0 and 1 are the edge cases the
    /// pinned tests below also cover explicitly).
    #[test]
    fn dna_builds_reconcile(len in 0usize..400, seed in 0u64..1 << 48) {
        let a = Alphabet::dna();
        let text = random_text(&a, len, seed);
        let (s, st) = reconcile(&a, &text);
        cross_engine(&a, &text, &s, &st);
    }

    /// Random protein texts (20-symbol alphabet).
    #[test]
    fn protein_builds_reconcile(len in 0usize..250, seed in 0u64..1 << 48) {
        let a = Alphabet::protein();
        let text = random_text(&a, len, seed);
        let (s, st) = reconcile(&a, &text);
        cross_engine(&a, &text, &s, &st);
    }

    /// Random raw-byte texts (256 symbols).
    #[test]
    fn byte_builds_reconcile(len in 0usize..150, seed in 0u64..1 << 48) {
        let a = Alphabet::bytes();
        let text = random_text(&a, len, seed);
        let (s, st) = reconcile(&a, &text);
        cross_engine(&a, &text, &s, &st);
    }
}

/// The degenerate texts, pinned explicitly rather than left to chance.
#[test]
fn empty_and_single_character_texts_reconcile() {
    for a in [Alphabet::dna(), Alphabet::protein(), Alphabet::bytes()] {
        let (s, st) = reconcile(&a, &[]);
        assert_eq!(st.insertions, 0);
        assert_eq!(st.counts(), BuildStats::default().counts(), "empty build counts nothing");
        cross_engine(&a, &[], &s, &st);

        let (s, st) = reconcile(&a, &[0]);
        assert_eq!(st.insertions, 1);
        assert_eq!(st.first_char, 1);
        assert_eq!(st.ribs_created, 0, "a single character creates no ribs");
        assert_eq!(st.max_lel, 0);
        cross_engine(&a, &[0], &s, &st);
    }
}

/// The paper's running example, reconciled through the public test API the
/// same way random texts are (the exact expected counts live in the spine
/// crate's unit tests).
#[test]
fn paper_example_reconciles_across_engines() {
    let a = Alphabet::dna();
    let text = a.encode(b"AACCACAACA").unwrap();
    let (s, st) = reconcile(&a, &text);
    cross_engine(&a, &text, &s, &st);
    assert_eq!(st.insertions, 10);
    assert_eq!(st.ribs_created, 4);
    assert_eq!(st.extribs_created, 2);
    assert_eq!(st.max_lel, 3);
    assert_eq!(s.len(), 10);
}

/// 64-bit FNV-1a, fed incrementally: a stable digest for the golden tests.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }
}

/// Digest of an event sequence: a tag and two fields per event.
fn event_digest(events: &[BuildEvent]) -> u64 {
    let mut h = Fnv::new();
    for e in events {
        let (tag, x, y) = match *e {
            BuildEvent::FirstChar => (0, 0, 0),
            BuildEvent::Case1 => (1, 0, 0),
            BuildEvent::Case2 => (2, 0, 0),
            BuildEvent::Case3Root => (3, 0, 0),
            BuildEvent::Case4Link => (4, 0, 0),
            BuildEvent::Case4Extrib => (5, 0, 0),
            BuildEvent::RibCreated { pt } => (6, pt, 0),
            BuildEvent::ExtribCreated { prt, pt } => (7, prt, pt),
            BuildEvent::ExtribSpill => (8, 0, 0),
            BuildEvent::LinkSet { dest, lel } => (9, dest, lel),
            BuildEvent::ChainStep => (10, 0, 0),
            BuildEvent::Phase { .. } => unreachable!("`Events` skips phase timings"),
        };
        h.bytes(&[tag]).u32(x).u32(y);
    }
    h.0
}

/// Digest of every field of every node, link-child lists and edge order
/// included. Node `i`'s incoming label is text symbol `i - 1`, read from
/// the label store; the root has none and hashes `Code::MAX`.
fn node_digest(s: &Spine) -> u64 {
    let mut h = Fnv::new();
    for (i, n) in s.nodes().iter().enumerate() {
        let label = i.checked_sub(1).map_or(Code::MAX, |p| s.symbol_at(p));
        h.bytes(&[label]).u32(n.link).u32(n.lel).u32(n.first_child).u32(n.next_sibling);
        h.u32(n.ribs.len() as u32);
        for r in n.ribs.iter() {
            h.bytes(&[r.cl]).u32(r.dest).u32(r.pt);
        }
        h.u32(n.extribs.len() as u32);
        for e in n.extribs.iter() {
            h.u32(e.prt).u32(e.pt).u32(e.dest);
        }
    }
    h.0
}

/// A self-contained xorshift stream, so the golden inputs never depend on
/// a library generator's output staying the same.
fn golden_stream(mut x: u64) -> impl FnMut(usize) -> usize {
    move |n| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x % n as u64) as usize
    }
}

/// The golden corpora: `(case, alphabet, documents)`. A case with one
/// document is built as a plain text; a case with several is built
/// through [`GeneralizedSpine`], each document closed by the separator,
/// and the compact and disk layouts index the same concatenation.
fn golden_cases() -> Vec<(&'static str, Alphabet, Vec<Vec<Code>>)> {
    let mut next = golden_stream(0x0A99_E4D1);
    let dna: Vec<Code> = (0..6000).map(|_| next(4) as Code).collect();
    let protein: Vec<Code> = (0..4000).map(|_| next(20) as Code).collect();
    let bytes: Vec<Code> = (0..1200).map(|_| next(254) as Code).collect();
    let dna_docs: Vec<Vec<Code>> =
        (0..30).map(|_| (0..150 + next(100)).map(|_| next(4) as Code).collect()).collect();
    let ascii = Alphabet::ascii();
    let logs: Vec<Vec<Code>> = (0..100)
        .map(|i| {
            let line = format!(
                "2026-10-18T11:{:02}:{:02} {} worker-{} GET /api/v1/items/{} {} {}ms",
                i / 60,
                i % 60,
                ["INFO", "WARN", "DEBUG"][next(3)],
                next(8),
                next(5000),
                [200, 200, 404, 500][next(4)],
                next(900)
            );
            ascii.encode(line.as_bytes()).unwrap()
        })
        .collect();
    vec![
        ("dna", Alphabet::dna(), vec![dna]),
        ("protein", Alphabet::protein(), vec![protein]),
        ("bytes", Alphabet::bytes(), vec![bytes]),
        ("dna-docs", Alphabet::dna(), dna_docs),
        ("ascii-logs", ascii, logs),
    ]
}

/// Frozen construction artifacts of one [`golden_cases`] case.
#[derive(Debug, PartialEq, Eq)]
struct GoldenBuild {
    case: &'static str,
    /// `Spine`'s event sequence, and every field of its nodes.
    spine_events: u64,
    spine_nodes: u64,
    /// `CompactSpine`'s event sequence and `write_to` bytes (0 when the
    /// code space is too large for the compact layout).
    compact_events: u64,
    compact_bytes: u64,
    /// The fixed-record `DiskSpine`'s event sequence, spill events
    /// included, and its flushed page file.
    disk_events: u64,
    disk_pages: u64,
    /// The disk build's device `(reads, writes)`, syncs and pool
    /// `(hits, misses)`.
    disk_io: (u64, u64),
    disk_syncs: u64,
    disk_pool: (u64, u64),
}

/// Build one golden case with every builder and digest what each left.
fn golden_build(case: &'static str, a: &Alphabet, docs: &[Vec<Code>]) -> GoldenBuild {
    let mut text: Vec<Code> = Vec::new();
    let mut spine_events = Events::default();
    let spine_nodes = if let [doc] = docs {
        text.extend_from_slice(doc);
        node_digest(&Spine::build_observed(a.clone(), doc, &mut spine_events).unwrap())
    } else {
        let mut g = GeneralizedSpine::new(a.clone());
        for doc in docs {
            g.add_document_observed(doc, &mut spine_events).unwrap();
            text.extend_from_slice(doc);
            text.push(a.separator());
        }
        node_digest(g.as_spine())
    };

    let (mut compact_events, mut compact_bytes) = (0, 0);
    if a.code_space() < 254 {
        let mut events = Events::default();
        let c = CompactSpine::build_observed(a.clone(), &text, &mut events).unwrap();
        let mut bytes = Vec::new();
        c.write_to(&mut bytes).unwrap();
        compact_events = event_digest(&events.0);
        compact_bytes = Fnv::new().bytes(&bytes).0;
    }

    let dir = std::env::temp_dir().join("spine-build-observer-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("golden-{case}-{}.pages", std::process::id()));
    let mut disk_events = Events::default();
    let d = DiskSpine::build_observed(
        a.clone(),
        &text,
        Box::new(FileDevice::create(&path, false).unwrap()),
        8,
        Box::<Lru>::default(),
        &mut disk_events,
    )
    .unwrap();
    d.flush().unwrap();
    let pool = d.pool_stats();
    let (disk_io, disk_syncs, disk_pool) = (d.io_counts(), d.io_syncs(), (pool.hits, pool.misses));
    drop(d);
    let file = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();

    GoldenBuild {
        case,
        spine_events: event_digest(&spine_events.0),
        spine_nodes,
        compact_events,
        compact_bytes,
        disk_events: event_digest(&disk_events.0),
        disk_pages: Fnv::new().bytes(&file).0,
        disk_io,
        disk_syncs,
        disk_pool,
    }
}

/// Construction is byte-identical to the frozen builds: every builder's
/// event sequence, the reference nodes, the compact layout's serialized
/// bytes, and the fixed-record disk layout's page file and device and
/// pool traffic (8-frame LRU pool over a `FileDevice`).
#[test]
fn construction_matches_golden_digests() {
    let got: Vec<GoldenBuild> =
        golden_cases().iter().map(|(case, a, docs)| golden_build(case, a, docs)).collect();
    let table: String = got.iter().map(|g| format!("    {g:x?},\n")).collect();
    assert!(got == golden_builds(), "construction changed; this run built:\n{table}");
}

/// The frozen builds of [`golden_cases`], recorded from the three
/// hand-written APPENDs that preceded the generic one. The DNA and ASCII
/// builds spill extribs out of the disk records, so their disk sequences
/// carry [`BuildEvent::ExtribSpill`]s; the others equal the reference.
fn golden_builds() -> Vec<GoldenBuild> {
    vec![
        GoldenBuild {
            case: "dna",
            spine_events: 0x0f21275d69ef9cd4,
            spine_nodes: 0xac31d34d181432fe,
            compact_events: 0x0f21275d69ef9cd4,
            compact_bytes: 0x5c96f69f5f5ca0d6,
            disk_events: 0x4b3d685b6a895c78,
            disk_pages: 0xcae5684217412f90,
            disk_io: (5298, 3258),
            disk_syncs: 0,
            disk_pool: (45341, 5298),
        },
        GoldenBuild {
            case: "protein",
            spine_events: 0x8200e75268c7f5ed,
            spine_nodes: 0x8675800e1d325fa2,
            compact_events: 0x8200e75268c7f5ed,
            compact_bytes: 0xef0a53d57d002488,
            disk_events: 0x8200e75268c7f5ed,
            disk_pages: 0x42e618483a132c38,
            disk_io: (4550, 3256),
            disk_syncs: 0,
            disk_pool: (33918, 4550),
        },
        GoldenBuild {
            case: "bytes",
            spine_events: 0x76139b9b0e89a2ed,
            spine_nodes: 0x75c7e1f975c682ae,
            compact_events: 0x0000000000000000,
            compact_bytes: 0x0000000000000000,
            disk_events: 0x76139b9b0e89a2ed,
            disk_pages: 0xecac3655dc68c89b,
            disk_io: (3098, 2146),
            disk_syncs: 0,
            disk_pool: (8134, 3098),
        },
        GoldenBuild {
            case: "dna-docs",
            spine_events: 0xefb6e4f7ef03c838,
            spine_nodes: 0xb1d9f9ad0c87a96d,
            compact_events: 0xefb6e4f7ef03c838,
            compact_bytes: 0x0cf00a4771e6e516,
            disk_events: 0xefd527aa918997a8,
            disk_pages: 0xd6a4113769605bb5,
            disk_io: (5318, 3289),
            disk_syncs: 0,
            disk_pool: (44899, 5318),
        },
        GoldenBuild {
            case: "ascii-logs",
            spine_events: 0x6616ad39600c67d1,
            spine_nodes: 0x8194c0b95de15903,
            compact_events: 0x6616ad39600c67d1,
            compact_bytes: 0x6ebcd3e7b612bc7d,
            disk_events: 0x3dc074b8d6d0edf9,
            disk_pages: 0x9c9714b2e8119612,
            disk_io: (5533, 2912),
            disk_syncs: 0,
            disk_pool: (34460, 5533),
        },
    ]
}
