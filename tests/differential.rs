//! Cross-engine differential tests.
//!
//! Every index engine in the workspace implements the same
//! [`StringIndex`] / [`MatchingIndex`] contracts, so for any text and any
//! pattern they must produce *identical* answers. This suite generates
//! random texts and patterns over the DNA, protein, and raw-byte alphabets
//! (including empty and length-1 texts) and checks
//!
//! * `contains` / `find_first` / `find_all`, and
//! * `matching_statistics` / `maximal_matches`
//!
//! across the reference SPINE, the §5 compact layout, the page-resident
//! disk engine, the suffix tree, the suffix array, and the naive-scan
//! oracle — plus the generalized (multi-document) SPINE against a per-
//! document scan, and both link-tree occurrence walks (the reference
//! SPINE's child lists, a sealed segment's preorder index) against the
//! paper's backbone scan over the same structure.

use genseq::rng;
use pagestore::{Lru, MemDevice};
use rand::Rng;
use spine::node::{NodeId, NO_CHILD, ROOT};
use spine::occurrences::{find_all_ends, find_all_ends_batch, occurrences_from, Target};
use spine::search::locate;
use spine::{
    CompactSpine, DiskSpine, FallibleSpineOps, GeneralizedSpine, PrefixView, PreorderIndex,
    ServeIndex, Spine,
};
use strindex::{Alphabet, Code, MatchingIndex, OnlineIndex, StringIndex};
use suffix_array::SaIndex;
use suffix_tree::SuffixTree;
use suffix_trie::NaiveIndex;

/// Every single-string engine in the workspace, built over one text. The
/// compact layout caps alphabets at 253 symbols (slot kinds 0xFE/0xFF are
/// markers), so it sits out for the raw-bytes alphabet.
fn engines(a: &Alphabet, text: &[Code]) -> Vec<(&'static str, Box<dyn MatchingIndex>)> {
    let mut built: Vec<(&'static str, Box<dyn MatchingIndex>)> =
        vec![("spine", Box::new(Spine::build(a.clone(), text).unwrap()))];
    if a.code_space() < 0xFE {
        built.push(("compact-spine", Box::new(CompactSpine::build(a.clone(), text).unwrap())));
    }
    built.push((
        "disk-spine",
        Box::new(
            DiskSpine::build(
                a.clone(),
                text,
                Box::new(MemDevice::new()),
                32,
                Box::<Lru>::default(),
            )
            .unwrap(),
        ),
    ));
    // The sealed layout-v2 engine (varint records, packed backbone where the
    // alphabet allows), served under a deliberately tiny pool so every
    // answer crosses real page boundaries.
    built.push((
        "disk-spine-v2",
        Box::new(
            DiskSpine::build_sealed(
                a.clone(),
                text,
                Box::new(MemDevice::new()),
                4,
                Box::<Lru>::default(),
            )
            .unwrap(),
        ),
    ));
    built.push(("suffix-tree", Box::new(SuffixTree::build(a.clone(), text).unwrap())));
    built.push(("suffix-array", Box::new(SaIndex::build(a.clone(), text))));
    built.push(("naive-oracle", Box::new(NaiveIndex::new(a.clone(), text))));
    built
}

/// Straight-line scan, independent of every engine under test.
fn scan_find_all(text: &[Code], pattern: &[Code]) -> Vec<usize> {
    if pattern.len() > text.len() {
        return Vec::new();
    }
    (0..=text.len() - pattern.len()).filter(|&i| &text[i..i + pattern.len()] == pattern).collect()
}

fn random_text(a: &Alphabet, len: usize, seed: u64) -> Vec<Code> {
    let mut r = rng(seed);
    (0..len).map(|_| r.gen_range(0..a.size()) as Code).collect()
}

/// Mix of present and absent patterns for a text: substrings at random
/// positions, random strings, single symbols, and the whole text.
fn patterns_for(a: &Alphabet, text: &[Code], seed: u64) -> Vec<Vec<Code>> {
    let mut r = rng(seed ^ 0x9e37_79b9);
    let mut pats: Vec<Vec<Code>> = Vec::new();
    for _ in 0..12 {
        if !text.is_empty() {
            let len = r.gen_range(1..=text.len().min(12));
            let at = r.gen_range(0..=text.len() - len);
            pats.push(text[at..at + len].to_vec());
        }
        let len = r.gen_range(1..=8usize);
        pats.push((0..len).map(|_| r.gen_range(0..a.size()) as Code).collect());
    }
    pats.push(vec![0]);
    pats.push(vec![(a.size() - 1) as Code]);
    if !text.is_empty() {
        pats.push(text.to_vec());
    }
    pats
}

fn check_text(a: &Alphabet, text: &[Code], seed: u64) {
    let built = engines(a, text);
    for pattern in patterns_for(a, text, seed) {
        let expected = scan_find_all(text, &pattern);
        for (name, e) in &built {
            assert_eq!(
                e.find_all(&pattern),
                expected,
                "{name}: find_all, text len {}, pattern {pattern:?}",
                text.len()
            );
            assert_eq!(
                e.find_first(&pattern),
                expected.first().copied(),
                "{name}: find_first, pattern {pattern:?}"
            );
            assert_eq!(
                e.contains(&pattern),
                !expected.is_empty(),
                "{name}: contains, pattern {pattern:?}"
            );
        }
    }
}

#[test]
fn dna_random_texts() {
    let a = Alphabet::dna();
    for (i, len) in [0, 1, 2, 7, 64, 500, 1500].into_iter().enumerate() {
        check_text(&a, &random_text(&a, len, 100 + i as u64), 200 + i as u64);
    }
}

#[test]
fn protein_random_texts() {
    let a = Alphabet::protein();
    for (i, len) in [0, 1, 3, 50, 700].into_iter().enumerate() {
        check_text(&a, &random_text(&a, len, 300 + i as u64), 400 + i as u64);
    }
}

#[test]
fn byte_random_texts() {
    let a = Alphabet::bytes();
    for (i, len) in [0, 1, 16, 400].into_iter().enumerate() {
        check_text(&a, &random_text(&a, len, 500 + i as u64), 600 + i as u64);
    }
}

#[test]
fn repetitive_texts_stress_occurrence_scan() {
    // Highly repetitive inputs maximize link fan-in and occurrence counts —
    // the regime where SPINE's backbone scan does the most work.
    let a = Alphabet::dna();
    let mut r = rng(7);
    for period in [1usize, 2, 3, 5] {
        let motif: Vec<Code> = (0..period).map(|_| r.gen_range(0..a.size()) as Code).collect();
        let text: Vec<Code> = motif.iter().copied().cycle().take(600).collect();
        check_text(&a, &text, 700 + period as u64);
    }
}

#[test]
fn matching_statistics_agree() {
    let a = Alphabet::dna();
    for (i, (tlen, qlen)) in
        [(300usize, 80usize), (1000, 200), (1, 5), (40, 1)].into_iter().enumerate()
    {
        let text = random_text(&a, tlen, 800 + i as u64);
        // Half-mutated copy of a text slice: long matches and breaks.
        let mut r = rng(900 + i as u64);
        let mut query: Vec<Code> = (0..qlen)
            .map(|j| {
                if j < text.len() && r.gen_bool(0.7) {
                    text[j % text.len()]
                } else {
                    r.gen_range(0..a.size()) as Code
                }
            })
            .collect();
        if qlen > 2 {
            query[qlen / 2] = (query[qlen / 2] + 1) % a.size() as Code;
        }

        let built = engines(&a, &text);
        let (ref_name, reference) = &built[0];
        let expect_ms = reference.matching_statistics(&query);
        let expect_mm = reference.maximal_matches(&query, 4);
        for (name, e) in &built[1..] {
            assert_eq!(
                e.matching_statistics(&query),
                expect_ms,
                "{name} vs {ref_name}: matching_statistics, case {i}"
            );
            let mut mm = e.maximal_matches(&query, 4);
            let mut expect = expect_mm.clone();
            mm.sort_unstable();
            expect.sort_unstable();
            assert_eq!(mm, expect, "{name} vs {ref_name}: maximal_matches, case {i}");
        }
    }
}

/// One answer for the empty pattern: it occurs at every offset `0..=n` of
/// a text (`[0]` for the empty text), and at every offset `0..=len` of
/// every live document of a collection. Every index surface is asked, the
/// empty text and the empty collection included.
#[test]
fn empty_pattern_occurs_at_every_offset_on_every_surface() {
    use spine::engine::QueryOutcome;
    use spine::{DocMatch, SegmentConfig, SegmentedSpine, ShardedSpine};
    use suffix_tree::DiskSuffixTree;
    use suffix_trie::SuffixTrie;

    let a = Alphabet::dna();
    let texts = [&b""[..], b"G", b"ACGTACGTTA", &b"AACCACAACAGGTTACGACGACCA".repeat(9)];
    for (i, bytes) in texts.iter().enumerate() {
        let text = a.encode(bytes).unwrap();
        let n = text.len();
        let every: Vec<usize> = (0..=n).collect();
        let ends: Vec<NodeId> = (0..=n as NodeId).collect();
        assert_eq!(scan_find_all(&text, &[]), every, "the oracle");
        let mut surfaces = engines(&a, &text);
        surfaces.push((
            "disk-suffix-tree",
            Box::new(
                DiskSuffixTree::build(
                    a.clone(),
                    &text,
                    Box::new(MemDevice::new()),
                    8,
                    Box::<Lru>::default(),
                )
                .unwrap(),
            ),
        ));
        for (name, e) in &surfaces {
            assert_eq!(e.find_all(&[]), every, "{name}, text {i}: find_all");
            assert_eq!(e.find_first(&[]), Some(0), "{name}, text {i}: find_first");
            assert!(e.contains(&[]), "{name}, text {i}: contains");
        }
        let trie = SuffixTrie::build(a.clone(), &text);
        assert_eq!(trie.find_all(&[]), every, "trie, text {i}");
        assert_eq!(trie.occurrence_count(&[]), n + 1, "trie count, text {i}");

        let spine = Spine::build(a.clone(), &text).unwrap();
        assert_eq!(find_all_ends(&spine, &[]), ends, "find_all_ends, text {i}");
        match &spine.answer_patterns(&[&[]])[0] {
            QueryOutcome::Done(got) => assert_eq!(got, &ends, "served, text {i}"),
            other => panic!("served, text {i}: {other:?}"),
        }
        for k in [0, n / 2, n] {
            let prefix: Vec<usize> = (0..=k).collect();
            assert_eq!(spine.prefix(k).find_all(&[]), prefix, "prefix {k}, text {i}");
            assert_eq!(PrefixView::new(&spine, k).find_all(&[]), prefix, "view {k}, text {i}");
        }
        for pool in [1, 4] {
            let mutable = DiskSpine::build(
                a.clone(),
                &text,
                Box::new(MemDevice::new()),
                pool,
                Box::<Lru>::default(),
            )
            .unwrap();
            assert_eq!(mutable.try_find_all(&[]).unwrap(), every, "mutable disk, text {i}");
        }
        let dir = std::env::temp_dir()
            .join(format!("spine-differential-empty-{}-{i}", std::process::id()));
        let reopened = seal_and_reopen(&a, &text, &dir);
        assert_eq!(reopened.try_find_all(&[]).unwrap(), every, "reopened sealed, text {i}");
        assert_eq!(reopened.find_all(&[]), every, "reopened sealed, text {i}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Collections: every offset of every live document, empty documents
    // included, and nothing for the concatenation's closing sentinel.
    let docs: Vec<Vec<Code>> =
        [&b"ACGT"[..], b"", b"GATTACA"].iter().map(|d| a.encode(d).unwrap()).collect();
    let per_doc = |live: &[usize]| -> Vec<DocMatch> {
        live.iter()
            .flat_map(|&doc| (0..=docs[doc].len()).map(move |offset| DocMatch { doc, offset }))
            .collect()
    };
    let mut g = GeneralizedSpine::new(a.clone());
    assert!(!g.contains(&[]), "no document, no occurrence");
    assert_eq!(g.find_all(&[]), vec![]);
    for d in &docs {
        g.add_document(d).unwrap();
    }
    assert_eq!(g.find_all(&[]), per_doc(&[0, 1, 2]));
    assert_eq!(g.docs_containing(&[]), vec![0, 1, 2]);
    assert!(g.contains(&[]));
    g.retire_document(1).unwrap();
    assert_eq!(g.find_all(&[]), per_doc(&[0, 2]));
    assert_eq!(g.docs_containing(&[]), vec![0, 2]);
    assert!(g.contains(&[]), "contains must not flip with a retirement");
    g.retire_document(0).unwrap();
    g.retire_document(2).unwrap();
    assert!(!g.contains(&[]), "every document retired");
    assert_eq!(g.docs_containing(&[]), Vec::<usize>::new());

    for shards in [1, 2, 3] {
        let sharded = ShardedSpine::build(a.clone(), &docs, shards).unwrap();
        match &sharded.answer_patterns(&[&[]])[0] {
            QueryOutcome::DoneDocs(got) => assert_eq!(got, &per_doc(&[0, 1, 2]), "{shards} shards"),
            other => panic!("{shards} shards: {other:?}"),
        }
    }

    // The store: one segment ending with an empty document, one ending
    // with a non-empty one, and a memtable holding a retired document.
    let store_docs: Vec<Vec<Code>> =
        [&b"ACGT"[..], b"", b"GATTACA", b"TTA", b""].iter().map(|d| a.encode(d).unwrap()).collect();
    let dir =
        std::env::temp_dir().join(format!("spine-differential-empty-seg-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
    for (id, d) in store_docs.iter().enumerate() {
        store.add_document(d).unwrap();
        if id == 1 || id == 2 {
            store.force_seal().unwrap();
        }
    }
    store.retire_document(3).unwrap();
    let want: Vec<DocMatch> = [0, 1, 2, 4]
        .iter()
        .flat_map(|&doc| (0..=store_docs[doc].len()).map(move |offset| DocMatch { doc, offset }))
        .collect();
    assert_eq!(store.try_find_all(&[]).unwrap(), want, "segments and memtable");
    match &store.answer_patterns(&[&[]])[0] {
        QueryOutcome::DoneDocs(got) => assert_eq!(got, &want, "served segments and memtable"),
        other => panic!("served segments and memtable: {other:?}"),
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn generalized_matches_per_document_scan() {
    let a = Alphabet::protein();
    let mut r = rng(42);
    let docs: Vec<Vec<Code>> = (0..9)
        .map(|i| {
            let len = [0, 1, 5, 30, 80][i % 5];
            (0..len).map(|_| r.gen_range(0..a.size()) as Code).collect()
        })
        .collect();
    let mut g = GeneralizedSpine::new(a.clone());
    for d in &docs {
        g.add_document(d).unwrap();
    }

    let mut pats: Vec<Vec<Code>> = Vec::new();
    for d in docs.iter().filter(|d| !d.is_empty()) {
        pats.push(d[..d.len().min(3)].to_vec());
        pats.push(d.clone());
    }
    for _ in 0..10 {
        let len = r.gen_range(1..=4usize);
        pats.push((0..len).map(|_| r.gen_range(0..a.size()) as Code).collect());
    }

    for p in &pats {
        let mut expected = Vec::new();
        for (di, d) in docs.iter().enumerate() {
            for off in scan_find_all(d, p) {
                expected.push((di, off));
            }
        }
        let got: Vec<(usize, usize)> =
            g.find_all(p).into_iter().map(|m| (m.doc, m.offset)).collect();
        assert_eq!(got, expected, "generalized find_all, pattern {p:?}");
        let docs_with: Vec<usize> = {
            let mut v: Vec<usize> = expected.iter().map(|&(d, _)| d).collect();
            v.dedup();
            v
        };
        assert_eq!(g.docs_containing(p), docs_with, "docs_containing, pattern {p:?}");
    }
}

#[test]
fn symbol_at_recovers_text_everywhere() {
    let a = Alphabet::dna();
    let text = random_text(&a, 257, 31);
    for (name, e) in engines(&a, &text) {
        assert_eq!(e.text_len(), text.len(), "{name}: text_len");
        for (i, &c) in text.iter().enumerate() {
            assert_eq!(e.symbol_at(i), c, "{name}: symbol_at({i})");
        }
    }
}

/// The hot-page tier is pure mechanism: pinning the backbone-prefix pages
/// may only move I/O around — never change an answer. A plain sealed index
/// and the same file reopened from disk with its prefix pinned must agree
/// with the in-memory reference on every pattern, under a pool small
/// enough that eviction actually happens.
#[test]
fn hot_tier_machinery_changes_no_answers() {
    let a = Alphabet::dna();
    for (i, len) in [60usize, 500, 2000].into_iter().enumerate() {
        let seed = 0x407_71E8 + i as u64;
        let text = random_text(&a, len, seed);
        let reference = Spine::build(a.clone(), &text).unwrap();
        let pats = patterns_for(&a, &text, seed ^ 0xBEEF);

        let plain =
            DiskSpine::seal(&reference, Box::new(MemDevice::new()), 4, Box::<Lru>::default())
                .unwrap();

        // Persist + reopen the sealed file.
        let dir =
            std::env::temp_dir().join(format!("spine-differential-hot-{}-{i}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dev = pagestore::FileDevice::create(dir.join("seg.pages"), false).unwrap();
        drop(DiskSpine::seal(&reference, Box::new(dev), 4, Box::<Lru>::default()).unwrap());
        let reopened = DiskSpine::reopen(
            Box::new(pagestore::FileDevice::open(dir.join("seg.pages"), false).unwrap()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        assert_eq!(reopened.file_pages(), plain.file_pages());

        // Pin the backbone-prefix pages: still pure I/O.
        assert!(reopened.pin_hot_prefix(2).unwrap() > 0, "len {len}: a prefix page must pin");

        for p in &pats {
            let expected = reference.find_all(p);
            assert_eq!(plain.find_all(p), expected, "plain sealed, len {len}, pattern {p:?}");
            assert_eq!(reopened.find_all(p), expected, "reopened, len {len}, pattern {p:?}");
        }
        reopened.unpin_all();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Random add / retire / query interleavings against a naive per-document
/// oracle, driving the crash-safe segment store through its full lifecycle:
/// memtable inserts, threshold seals, explicit seals, tombstones, merges,
/// drop-and-recover between queries (so reopened segments answer from the
/// preorder index recovery rebuilt), and one more at the end. Covers DNA,
/// protein, and raw bytes, including empty and length-1 documents.
#[test]
fn segmented_store_matches_per_document_oracle() {
    use spine::{SegmentConfig, SegmentedSpine};
    use std::collections::BTreeMap;

    fn seg_oracle(docs: &BTreeMap<u64, Vec<Code>>, pattern: &[Code]) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (&id, d) in docs {
            out.extend(scan_find_all(d, pattern).into_iter().map(|off| (id as usize, off)));
        }
        out
    }

    fn check_all(store: &SegmentedSpine, docs: &BTreeMap<u64, Vec<Code>>, pats: &[Vec<Code>]) {
        let live: Vec<u64> = docs.keys().copied().collect();
        assert_eq!(store.live_doc_ids(), live, "live_doc_ids diverged from oracle");
        for p in pats {
            let got: Vec<(usize, usize)> =
                store.try_find_all(p).unwrap().into_iter().map(|m| (m.doc, m.offset)).collect();
            assert_eq!(got, seg_oracle(docs, p), "segmented find_all, pattern {p:?}");
        }
    }

    for (ai, a) in [Alphabet::dna(), Alphabet::protein(), Alphabet::bytes()].iter().enumerate() {
        let dir = std::env::temp_dir()
            .join(format!("spine-differential-segments-{}-{ai}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A small memtable so threshold seals fire mid-script, and a low
        // merge bar so merges have work.
        let cfg = SegmentConfig {
            memtable_max_symbols: 48,
            pool_pages: 4,
            merge_min_segments: 2,
            ..Default::default()
        };
        let mut store = SegmentedSpine::create(a.clone(), &dir, cfg.clone()).unwrap();
        let mut oracle: BTreeMap<u64, Vec<Code>> = BTreeMap::new();
        let mut r = rng(0xD1F + ai as u64);

        // Edge documents first: empty and length-1.
        for doc in [vec![], vec![0 as Code]] {
            let id = store.add_document(&doc).unwrap();
            oracle.insert(id, doc);
        }

        for step in 0..120 {
            match r.gen_range(0..12usize) {
                0..=4 => {
                    let len = [0usize, 1, 2, 3, 8, 20][r.gen_range(0..6)];
                    let doc = random_text(a, len, 0xADD + ai as u64 * 1000 + step);
                    let id = store.add_document(&doc).unwrap();
                    oracle.insert(id, doc);
                }
                5 | 6 => {
                    if let Some(&id) = {
                        let keys: Vec<u64> = oracle.keys().copied().collect();
                        keys.get(r.gen_range(0..keys.len().max(1))).copied()
                    }
                    .as_ref()
                    {
                        assert!(store.retire_document(id).unwrap(), "retire of live doc {id}");
                        oracle.remove(&id);
                        // Retiring twice is an idempotent no-op, not an error.
                        assert!(!store.retire_document(id).unwrap());
                    }
                    // Unknown (never-assigned) ids are a typed error.
                    assert!(matches!(
                        store.retire_document(u64::MAX),
                        Err(strindex::Error::UnknownDocument { .. })
                    ));
                }
                7 => {
                    store.force_seal().unwrap();
                }
                8 => {
                    store.merge_once().unwrap();
                }
                // Seal (the memtable is volatile by design), recover, and
                // query the reopened segments right away.
                9 => {
                    store.force_seal().unwrap();
                    drop(store);
                    store = SegmentedSpine::open(a.clone(), &dir, cfg.clone()).unwrap();
                    check_all(&store, &oracle, &[Vec::new(), vec![0], vec![1, 0]]);
                }
                _ => {
                    let mut pats: Vec<Vec<Code>> = vec![Vec::new()];
                    for _ in 0..3 {
                        let len = r.gen_range(1..=5usize);
                        pats.push((0..len).map(|_| r.gen_range(0..a.size()) as Code).collect());
                    }
                    // A substring of a live document, when one is long enough.
                    if let Some(d) = oracle.values().find(|d| d.len() >= 2) {
                        let at = r.gen_range(0..d.len() - 1);
                        pats.push(d[at..at + 2].to_vec());
                    }
                    check_all(&store, &oracle, &pats);
                }
            }
        }

        // Seal everything, drop the handle, and recover: the reopened store
        // must answer exactly like the oracle (nothing volatile remains).
        store.force_seal().unwrap();
        drop(store);
        let store = SegmentedSpine::open(a.clone(), &dir, cfg).unwrap();
        let pats: Vec<Vec<Code>> = std::iter::once(Vec::new())
            .chain((0..8).map(|i| random_text(a, 1 + i % 4, 0xF1A + i as u64)))
            .collect();
        check_all(&store, &oracle, &pats);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Occurrence ends by naive scan; the empty pattern ends everywhere.
fn oracle_ends(text: &[Code], pattern: &[Code]) -> Vec<NodeId> {
    if pattern.is_empty() {
        return (0..=text.len() as NodeId).collect();
    }
    scan_find_all(text, pattern).into_iter().map(|i| (i + pattern.len()) as NodeId).collect()
}

/// The walk (through `index`) against the scan (through a prefix view) and
/// the oracle, on every enumeration entry point: single patterns, single
/// targets, a batch holding every target twice, and the engine's blanket
/// serving path.
fn check_walk_against_scan<S: FallibleSpineOps + Send + Sync>(
    what: &str,
    index: &S,
    text: &[Code],
    patterns: &[Vec<Code>],
) {
    // A whole-text prefix view keeps no child lists: it runs the §4 scan
    // over the same structure.
    let scan = PrefixView::new(index, index.text_len());
    assert!(index.link_tree().is_some(), "{what}: keeps child lists");
    assert!(scan.link_tree().is_none(), "the reference must scan");
    let mut targets = Vec::new();
    for p in patterns {
        let walked = find_all_ends(index, p);
        assert_eq!(walked, find_all_ends(&scan, p), "{what}: walk vs scan, pattern {p:?}");
        assert_eq!(walked, oracle_ends(text, p), "{what}: walk vs oracle, pattern {p:?}");
        if let Some(first) = locate(index, p) {
            let t = Target { first_end: first, len: p.len() as u32 };
            assert_eq!(occurrences_from(index, t.first_end, t.len), walked, "{what}: {t:?}");
            targets.push(t);
        }
    }
    let doubled: Vec<Target> = targets.iter().chain(&targets).copied().collect();
    let walked = find_all_ends_batch(index, &doubled);
    assert_eq!(walked, find_all_ends_batch(&scan, &doubled), "{what}: batch walk vs batch scan");
    for t in &targets {
        assert_eq!(walked[t], occurrences_from(&scan, t.first_end, t.len), "{what}: batch {t:?}");
    }
    let pats: Vec<&[Code]> = patterns.iter().map(Vec::as_slice).collect();
    assert_eq!(
        ServeIndex::answer_patterns(index, &pats),
        ServeIndex::answer_patterns(&scan, &pats),
        "{what}: served answers"
    );
    check_walk_visits(what, index, text, patterns);
}

/// The walk's work identity: enumerating `w` visits its `occ − 1` ends
/// after `fo(w)` plus the link children of `fo(w)` it rejects, and it
/// rejects at most (σ−1)·|w| of them, σ the symbols in the text.
fn check_walk_visits<S: FallibleSpineOps + ?Sized>(
    what: &str,
    index: &S,
    text: &[Code],
    patterns: &[Vec<Code>],
) {
    let links = links_of(index);
    let mut symbols = text.to_vec();
    symbols.sort_unstable();
    symbols.dedup();
    let sigma = symbols.len().max(1) as u64;
    for p in patterns {
        let Some(first) = locate(index, p) else { continue };
        let len = p.len() as u32;
        let rejected =
            links[1..].iter().filter(|&&(dest, lel)| dest == first && lel < len).count() as u64;
        assert!(rejected <= (sigma - 1) * len as u64, "{what}: {rejected} rejected for {p:?}");
        let before = index.ops_counters().nodes_enumerated();
        let occ = occurrences_from(index, first, len).len() as u64;
        let visits = index.ops_counters().nodes_enumerated() - before;
        assert_eq!(visits, occ - 1 + rejected, "{what}: nodes visited for {p:?}");
    }
}

/// The link-child lists thread the link tree: every non-root node sits
/// exactly once in its link destination's list, siblings descend, and a
/// child's LEL exceeds a non-root parent's own LEL.
fn check_link_tree(s: &Spine) {
    let nodes = s.nodes();
    let mut listed = vec![0usize; nodes.len()];
    for (p, parent) in nodes.iter().enumerate() {
        let mut prev = NodeId::MAX;
        let mut c = parent.first_child;
        while c != NO_CHILD {
            assert!(c < prev, "siblings of {p} descend: {c} after {prev}");
            let child = &nodes[c as usize];
            assert_eq!(child.link as usize, p, "child {c} listed under {p}");
            if p != 0 {
                assert!(child.lel > parent.lel, "LEL of {c} rises above {p}'s");
            }
            listed[c as usize] += 1;
            prev = c;
            c = child.next_sibling;
        }
    }
    assert_eq!(listed[0], 0, "the root is never a child");
    for (i, &times) in listed.iter().enumerate().skip(1) {
        assert_eq!(times, 1, "node {i} listed {times} times");
    }
}

#[test]
fn link_tree_walk_matches_scan_and_oracle() {
    let mut r = rng(0x11_7EE);
    for (ai, a) in [Alphabet::dna(), Alphabet::protein(), Alphabet::bytes()].iter().enumerate() {
        let mut texts: Vec<Vec<Code>> = [0usize, 1, 2, 7, 64, 500]
            .iter()
            .enumerate()
            .map(|(i, &len)| random_text(a, len, 0x3A1 + 10 * ai as u64 + i as u64))
            .collect();
        // Periodic texts: the deepest link trees and the most occurrences.
        for period in [1usize, 2, 3] {
            let motif: Vec<Code> = (0..period).map(|_| r.gen_range(0..a.size()) as Code).collect();
            texts.push(motif.iter().copied().cycle().take(300).collect());
        }
        for (i, text) in texts.iter().enumerate() {
            let s = Spine::build(a.clone(), text).unwrap();
            check_link_tree(&s);
            let mut pats = patterns_for(a, text, 0x5EED + i as u64);
            pats.push(Vec::new());
            check_walk_against_scan(&format!("alphabet {ai}, text {i}"), &s, text, &pats);
        }
    }
}

#[test]
fn child_lists_hold_across_online_appends() {
    for (ai, a) in [Alphabet::dna(), Alphabet::protein(), Alphabet::bytes()].iter().enumerate() {
        let text = random_text(a, 240, 0xA99 + ai as u64);
        let mut s = Spine::new(a.clone());
        for (i, &c) in text.iter().enumerate() {
            s.push(c).unwrap();
            if i < 12 || i % 19 == 0 {
                let prefix = &text[..=i];
                check_link_tree(&s);
                let mut pats = patterns_for(a, prefix, i as u64);
                pats.push(Vec::new());
                check_walk_against_scan(&format!("alphabet {ai}, after {i}"), &s, prefix, &pats);
            }
        }
    }
}

#[test]
fn generalized_walk_matches_scan_with_separators_and_retired_docs() {
    for (ai, a) in [Alphabet::dna(), Alphabet::protein()].iter().enumerate() {
        let docs: Vec<Vec<Code>> = [0usize, 1, 9, 40, 1, 25, 0, 60]
            .iter()
            .enumerate()
            .map(|(i, &len)| random_text(a, len, 0x6E0 + 10 * ai as u64 + i as u64))
            .collect();
        let mut g = GeneralizedSpine::new(a.clone());
        let mut concat = Vec::new();
        for d in &docs {
            g.add_document(d).unwrap();
            concat.extend_from_slice(d);
            concat.push(a.separator());
        }
        for retired in [1, 3, 6] {
            g.retire_document(retired).unwrap();
        }
        check_link_tree(g.as_spine());

        let mut pats = patterns_for(a, &docs[5], 0x6E1 + ai as u64);
        pats.extend(docs.iter().filter(|d| !d.is_empty()).map(|d| d[..d.len().min(3)].to_vec()));
        // Separators occur once per document; a pattern ending in one
        // matches only at a document's end.
        pats.push(vec![a.separator()]);
        pats.push(vec![*docs[2].last().unwrap(), a.separator()]);
        pats.push(Vec::new());
        check_walk_against_scan(&format!("generalized alphabet {ai}"), &g, &concat, &pats);

        // Retired documents drop out after enumeration.
        for p in pats.iter().filter(|p| !p.is_empty() && !p.contains(&a.separator())) {
            let mut want = Vec::new();
            for (di, d) in docs.iter().enumerate().filter(|&(di, _)| !g.is_retired(di)) {
                want.extend(scan_find_all(d, p).into_iter().map(|off| (di, off)));
            }
            let got: Vec<(usize, usize)> =
                g.find_all(p).into_iter().map(|m| (m.doc, m.offset)).collect();
            assert_eq!(got, want, "generalized find_all over live documents, pattern {p:?}");
        }
    }
}

/// The preorder index lays the link tree out as it should: every node once
/// in `order` (and `positions` inverts it), each node's subtree range
/// nested in its link destination's, each node's children tiling its range
/// by ascending LEL, and LELs rising below every non-root node. `links`
/// are the sealed link records, read independently of the index.
fn check_preorder(what: &str, ix: &PreorderIndex, links: &[(NodeId, u32)]) {
    let (order, end, lel, pre) = (ix.order(), ix.ends(), ix.lels(), ix.positions());
    let n = links.len();
    assert_eq!((order.len(), end.len(), lel.len(), pre.len()), (n, n, n, n), "{what}: sizes");
    let mut ids = order.to_vec();
    ids.sort_unstable();
    assert_eq!(ids, (0..n as NodeId).collect::<Vec<_>>(), "{what}: every node once");
    for (p, &v) in order.iter().enumerate() {
        assert_eq!(pre[v as usize] as usize, p, "{what}: positions invert order at {p}");
    }
    assert_eq!((order[0], end[0] as usize), (ROOT, n), "{what}: the root spans the tree");
    for (v, &(dest, v_lel)) in links.iter().enumerate().skip(1) {
        let (pc, pp) = (pre[v] as usize, pre[dest as usize] as usize);
        assert!(pp < pc && end[pc] <= end[pp], "{what}: {v}'s subtree nests in {dest}'s");
        assert_eq!(lel[pc], v_lel, "{what}: LEL of {v}");
        if dest != ROOT {
            assert!(v_lel > links[dest as usize].1, "{what}: LEL of {v} rises above {dest}'s");
        }
    }
    for p in 0..n {
        let (mut c, mut prev) = (p + 1, 0);
        while c < end[p] as usize {
            assert_eq!(
                links[order[c] as usize].0, order[p],
                "{what}: child {} of {}",
                order[c], order[p]
            );
            assert!(lel[c] >= prev, "{what}: siblings under {} ascend by LEL", order[p]);
            prev = lel[c];
            c = end[c] as usize;
        }
        assert_eq!(c, end[p] as usize, "{what}: children tile {}'s range", order[p]);
    }
}

/// Link records of every node, read through the index's own accessors.
fn links_of<S: FallibleSpineOps + ?Sized>(index: &S) -> Vec<(NodeId, u32)> {
    (0..=index.text_len() as NodeId).map(|j| index.try_link_of(j).unwrap()).collect()
}

/// Seal `text` to a file under `dir`, then reopen it from that file.
fn seal_and_reopen(a: &Alphabet, text: &[Code], dir: &std::path::Path) -> DiskSpine {
    std::fs::create_dir_all(dir).unwrap();
    let dev = pagestore::FileDevice::create(dir.join("seg.pages"), false).unwrap();
    drop(
        DiskSpine::build_sealed(a.clone(), text, Box::new(dev), 4, Box::<Lru>::default()).unwrap(),
    );
    DiskSpine::reopen(
        Box::new(pagestore::FileDevice::open(dir.join("seg.pages"), false).unwrap()),
        4,
        Box::<Lru>::default(),
    )
    .unwrap()
}

/// Sealed and reopened indexes walk their preorder index; they
/// must answer exactly like the §4 scan over the same structure and the
/// naive oracle, through `StringIndex`, every enumeration entry point and
/// the engine. The index a reopen builds equals the one the seal built.
#[test]
fn sealed_preorder_walk_matches_scan_and_oracle() {
    use spine::engine::{EngineConfig, QueryEngine};
    use std::sync::Arc;

    let mut r = rng(0x5EA1ED);
    for (ai, a) in [Alphabet::dna(), Alphabet::protein(), Alphabet::bytes()].iter().enumerate() {
        let mut texts: Vec<Vec<Code>> = [0usize, 1, 2, 7, 64, 500]
            .iter()
            .enumerate()
            .map(|(i, &len)| random_text(a, len, 0x5E0 + 10 * ai as u64 + i as u64))
            .collect();
        for period in [1usize, 2, 3] {
            let motif: Vec<Code> = (0..period).map(|_| r.gen_range(0..a.size()) as Code).collect();
            texts.push(motif.iter().copied().cycle().take(300).collect());
        }
        for (i, text) in texts.iter().enumerate() {
            let what = format!("alphabet {ai}, text {i}");
            let source = Spine::build(a.clone(), text).unwrap();
            let sealed =
                DiskSpine::seal(&source, Box::new(MemDevice::new()), 4, Box::<Lru>::default())
                    .unwrap();
            let dir = std::env::temp_dir()
                .join(format!("spine-differential-sealed-{}-{ai}-{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let reopened = seal_and_reopen(a, text, &dir);
            assert_eq!(sealed.preorder(), reopened.preorder(), "{what}: seal vs reopen index");
            check_preorder(&what, sealed.preorder().unwrap(), &links_of(&reopened));

            let mut pats = patterns_for(a, text, 0x5EED + i as u64);
            pats.push(Vec::new());
            let doubled: Vec<&[Code]> = pats.iter().chain(&pats).map(Vec::as_slice).collect();
            for (kind, index) in [("sealed", &sealed), ("reopened", &reopened)] {
                let what = format!("{what}, {kind}");
                check_walk_against_scan(&what, index, text, &pats);
                for p in &pats {
                    assert_eq!(index.find_all(p), scan_find_all(text, p), "{what}: find_all {p:?}");
                }
                // The engine's blanket serving path, over the fallible
                // surface, with every pattern submitted twice in one batch.
                let want: Vec<Vec<NodeId>> = doubled.iter().map(|p| oracle_ends(text, p)).collect();
                let served = ServeIndex::answer_patterns(index, &doubled);
                for ((p, got), want) in doubled.iter().zip(served).zip(&want) {
                    assert_eq!(
                        got,
                        spine::QueryOutcome::Done(want.clone()),
                        "{what}: served {p:?}"
                    );
                }
            }
            let engine = QueryEngine::new(
                Arc::new(reopened),
                EngineConfig { workers: 2, ..Default::default() },
            );
            for p in &pats {
                engine.submit(p.clone()).unwrap();
            }
            for (p, res) in pats.iter().zip(engine.drain()) {
                assert_eq!(
                    res.expect_starts(),
                    if p.is_empty() { (0..=text.len()).collect() } else { scan_find_all(text, p) },
                    "{what}: engine {p:?}"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every non-root node appears exactly once in its link destination's
    /// child list, and its LEL exceeds that destination's own LEL when the
    /// destination is not the root — the lemma that lets the walk take
    /// whole subtrees without a check.
    #[test]
    fn link_child_lists_thread_the_link_tree(
        seed in 0u64..1 << 48,
        alpha in 0usize..3,
        len in 0usize..400,
    ) {
        let a = [Alphabet::dna(), Alphabet::protein(), Alphabet::bytes()][alpha].clone();
        let text = random_text(&a, len, seed);
        check_link_tree(&Spine::build(a, &text).unwrap());
    }

    /// A sealed index's preorder layout holds its properties against the
    /// sealed link records, and equals the layout the reference SPINE's
    /// links give.
    #[test]
    fn sealed_preorder_index_lays_out_the_link_tree(
        seed in 0u64..1 << 48,
        alpha in 0usize..3,
        len in 0usize..400,
    ) {
        let a = [Alphabet::dna(), Alphabet::protein(), Alphabet::bytes()][alpha].clone();
        let text = random_text(&a, len, seed);
        let sealed = DiskSpine::build_sealed(
            a.clone(),
            &text,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        let ix = sealed.preorder().expect("a sealed index keeps its preorder index");
        let links = links_of(&sealed);
        check_preorder(&format!("seed {seed}"), ix, &links);
        prop_assert_eq!(ix.check(&links), Vec::<String>::new(), "exp verify's checker agrees");
        let reference = Spine::build(a, &text).unwrap();
        prop_assert_eq!(ix, &PreorderIndex::from_links(&links_of(&reference)).unwrap());
    }

    /// Engine-level packed-vs-scalar equivalence. The sealed layout-v2
    /// engine answers through the word-packed backbone scanner (2-bit DNA,
    /// 5-bit protein); the in-memory reference answers symbol by symbol.
    /// Every pattern cut at a word-boundary start offset (and ±1) with
    /// lengths 0..=2·word_len — plus a near-miss with the final symbol
    /// flipped — must agree exactly.
    #[test]
    fn packed_scan_matches_scalar_at_word_boundaries(
        seed in 0u64..1 << 48,
        alpha in 0usize..2,
    ) {
        let (a, bits) = if alpha == 0 {
            (Alphabet::dna(), 2u32)
        } else {
            (Alphabet::protein(), 5u32)
        };
        let per_word = 64 / bits as usize;
        let text = random_text(&a, per_word * 4 + 7, seed);
        let reference = Spine::build(a.clone(), &text).unwrap();
        let sealed = DiskSpine::build_sealed(
            a.clone(),
            &text,
            Box::new(MemDevice::new()),
            4,
            Box::<Lru>::default(),
        )
        .unwrap();
        prop_assert_eq!(
            sealed.backbone_packing(),
            Some(bits),
            "sealed engine must take the packed path"
        );

        for word in 0..4usize {
            for delta in [0usize, 1] {
                let start = match (word * per_word).checked_sub(delta) {
                    Some(s) if s < text.len() => s,
                    _ => continue,
                };
                for len in 0..=2 * per_word {
                    let end = (start + len).min(text.len());
                    let mut pattern = text[start..end].to_vec();
                    prop_assert_eq!(
                        sealed.find_all(&pattern),
                        reference.find_all(&pattern),
                        "present pattern, start {} len {}", start, len
                    );
                    if let Some(last) = pattern.last_mut() {
                        *last = (*last + 1) % a.size() as Code;
                        prop_assert_eq!(
                            sealed.find_all(&pattern),
                            reference.find_all(&pattern),
                            "near-miss pattern, start {} len {}", start, len
                        );
                    }
                }
            }
        }
    }
}
