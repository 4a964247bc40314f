//! Integration suite for the crash-safe segment store
//! ([`spine::SegmentedSpine`]): snapshot stability under concurrent
//! merges, engine-level serving with the ledger invariant intact while a
//! background merger compacts, and recovery landing on committed state.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use spine::engine::{EngineConfig, QueryEngine};
use spine::{spawn_merger, QueryOutcome, SegmentConfig, SegmentedSpine};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use strindex::{Alphabet, Code};

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spine-it-segments-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn enc(a: &Alphabet, s: &[u8]) -> Vec<Code> {
    a.encode(s).unwrap()
}

/// Naive per-document scan, the oracle every store answer is checked
/// against.
fn oracle(docs: &BTreeMap<u64, Vec<Code>>, pattern: &[Code]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for (&id, d) in docs {
        if pattern.is_empty() {
            out.extend((0..=d.len()).map(|off| (id as usize, off)));
        } else if pattern.len() <= d.len() {
            out.extend(
                (0..=d.len() - pattern.len())
                    .filter(|&i| &d[i..i + pattern.len()] == pattern)
                    .map(|off| (id as usize, off)),
            );
        }
    }
    out
}

fn matches_of(store: &SegmentedSpine, pattern: &[Code]) -> Vec<(usize, usize)> {
    store.try_find_all(pattern).unwrap().into_iter().map(|m| (m.doc, m.offset)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Snapshot reads are stable while a concurrent merge commits: a reader
    /// hammering the store must see oracle-exact answers on every single
    /// query, before, during, and after the merge replaces every segment
    /// file. (Old snapshots keep answering because open descriptors outlive
    /// the unlinked segment files.)
    #[test]
    fn reads_are_stable_across_a_concurrent_merge(seed in 0u64..1 << 32) {
        let a = Alphabet::dna();
        let dir = tmpdir(&format!("stable-{seed}"));
        let cfg = SegmentConfig {
            memtable_max_symbols: usize::MAX,
            pool_pages: 4,
            merge_min_segments: 2,
            ..Default::default()
        };
        let store = Arc::new(SegmentedSpine::create(a.clone(), &dir, cfg).unwrap());

        // A few sealed segments plus one tombstone, so the merge has real
        // work: reconstructing, rewriting, and deleting files.
        let mut docs = BTreeMap::new();
        let texts: [&[u8]; 6] =
            [b"ACGTACGT", b"GGGG", b"", b"A", b"TTACGTTA", b"CACACACA"];
        for (i, t) in texts.iter().enumerate() {
            let id = store.add_document(&enc(&a, t)).unwrap();
            docs.insert(id, enc(&a, t));
            if i % 2 == 1 {
                store.force_seal().unwrap();
            }
        }
        store.force_seal().unwrap();
        let victim = 1 + (seed % 4); // one of the sealed docs
        store.retire_document(victim).unwrap();
        docs.remove(&victim);
        prop_assert!(store.stats().segments >= 2);

        let probes: Vec<Vec<Code>> = vec![
            enc(&a, b"ACGT"),
            enc(&a, b"CA"),
            enc(&a, b"GGGG"),
            enc(&a, b"A"),
            Vec::new(),
        ];
        let expected: Vec<Vec<(usize, usize)>> =
            probes.iter().map(|p| oracle(&docs, p)).collect();

        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let store = Arc::clone(&store);
            let probes = probes.clone();
            let expected = expected.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) || reads == 0 {
                    for (p, want) in probes.iter().zip(&expected) {
                        let got = matches_of(&store, p);
                        if &got != want {
                            return Err(format!("pattern {p:?}: got {got:?}, want {want:?}"));
                        }
                        reads += 1;
                    }
                }
                Ok(reads)
            })
        };

        let epoch_before = store.epoch();
        prop_assert!(store.merge_once().unwrap(), "merge had work to do");
        stop.store(true, Ordering::Relaxed);
        let reads = reader.join().unwrap().map_err(TestCaseError::fail)?;
        prop_assert!(reads > 0);

        // The merge committed: one segment, no tombstones, same answers.
        prop_assert!(store.epoch() > epoch_before);
        let s = store.stats();
        prop_assert_eq!(s.segments, 1);
        prop_assert_eq!(s.tombstones, 0);
        for (p, want) in probes.iter().zip(&expected) {
            prop_assert_eq!(&matches_of(&store, p), want);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Concurrent add/retire/query through the full [`QueryEngine`] surface
/// while a background merger compacts: every answer matches some consistent
/// snapshot, and the engine's ledger invariant
/// (`completed + shed + timed_out + failed == submitted`) holds throughout.
#[test]
fn engine_ledger_holds_under_mutation_and_background_merge() {
    let a = Alphabet::dna();
    let dir = tmpdir("engine");
    let cfg = SegmentConfig {
        memtable_max_symbols: 64,
        pool_pages: 4,
        merge_min_segments: 2,
        ..Default::default()
    };
    let store = Arc::new(SegmentedSpine::create(a.clone(), &dir, cfg).unwrap());
    for t in [&b"ACGTACGTAC"[..], b"GGGGTTTT", b"CACACACA"] {
        store.add_document(&enc(&a, t)).unwrap();
    }
    store.force_seal().unwrap();

    let merger = spawn_merger(Arc::clone(&store), Duration::from_millis(1));
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        EngineConfig { workers: 3, batch_max: 8, ..Default::default() },
    ));

    // Writer: a stream of adds and retires racing the query traffic.
    let writer = {
        let store = Arc::clone(&store);
        let a = a.clone();
        std::thread::spawn(move || {
            let mut ids = Vec::new();
            for i in 0..60u64 {
                let t: &[u8] = [&b"ACGT"[..], b"TTTT", b"", b"CAGTCAGT"][i as usize % 4];
                ids.push(store.add_document(&enc(&a, t)).unwrap());
                if i % 3 == 0 {
                    let victim = ids[ids.len() / 2];
                    store.retire_document(victim).unwrap();
                }
                if i % 10 == 9 {
                    store.force_seal().unwrap();
                }
            }
        })
    };

    let probes: [&[u8]; 4] = [b"ACGT", b"CA", b"GGGG", b"TT"];
    let mut submitted = 0u64;
    for round in 0..40 {
        let p = enc(&a, probes[round % probes.len()]);
        engine.submit(p).unwrap();
        submitted += 1;
    }
    writer.join().unwrap();
    let results = engine.drain();
    assert_eq!(results.len() as u64, submitted);
    for r in &results {
        match &r.outcome {
            QueryOutcome::DoneDocs(ms) => {
                // Matches are (doc, offset)-sorted and tombstone-filtered;
                // exact content depends on which snapshot the worker took.
                let mut sorted = ms.clone();
                sorted.sort();
                assert_eq!(&sorted, ms, "matches arrive sorted");
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    let m = engine.metrics();
    assert!(m.is_consistent(), "ledger broken: {m:?}");
    assert_eq!(m.completed, submitted);

    merger.stop();
    // Everything the writer left behind is still queryable after recovery.
    store.force_seal().unwrap();
    let live = store.live_doc_ids();
    drop(engine);
    let store2 = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
    assert_eq!(store2.live_doc_ids(), live);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Orphan hygiene end to end: a crash-simulating stray file is detected at
/// recovery, reported through stats, and removable via `cleanup_orphans`.
#[test]
fn recovery_reports_and_cleans_orphans() {
    let a = Alphabet::dna();
    let dir = tmpdir("orphan");
    {
        let store = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
        store.add_document(&enc(&a, b"ACGT")).unwrap();
        store.force_seal().unwrap();
    }
    std::fs::write(dir.join("seg-7.pages"), b"torn seal, never committed").unwrap();
    std::fs::write(dir.join("MANIFEST.tmp"), b"torn commit").unwrap();

    let store = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
    assert_eq!(store.orphan_count(), 2);
    assert_eq!(matches_of(&store, &enc(&a, b"ACGT")), vec![(0, 0)]);
    assert_eq!(store.cleanup_orphans().unwrap(), 2);
    assert_eq!(store.orphan_count(), 0);
    assert!(!dir.join("seg-7.pages").exists());
    assert!(!dir.join("MANIFEST.tmp").exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sealed segments pin their hottest backbone-prefix pages at build *and*
/// at recovery, and report them through the `segments.hot_pinned` gauge.
/// With pinning disabled the gauge stays at zero.
#[test]
fn segments_pin_hot_pages_and_report_the_gauge() {
    use spine::telemetry::MetricsRegistry;

    let a = Alphabet::dna();
    let dir = tmpdir("hotpin");
    let cfg = SegmentConfig {
        memtable_max_symbols: 64,
        pool_pages: 8,
        merge_min_segments: 8, // keep both segments alive
        hot_pin_pages: 2,
        ..Default::default()
    };
    let store = SegmentedSpine::create(a.clone(), &dir, cfg.clone()).unwrap();
    let registry = MetricsRegistry::new();
    store.attach_telemetry(&registry);
    let doc = enc(&a, &b"AACCACAACAGGTTACGACGACCA".repeat(8));
    store.add_document(&doc).unwrap();
    store.force_seal().unwrap();
    store.add_document(&doc).unwrap();
    store.force_seal().unwrap();

    let pinned = registry.snapshot().gauge("segments.hot_pinned").unwrap();
    assert!(pinned >= 2, "two sealed segments must pin pages, gauge says {pinned}");
    assert!(
        pinned <= 2 * cfg.hot_pin_pages as u64,
        "pinning must respect the per-segment budget, gauge says {pinned}"
    );
    // Pinning is invisible to answers.
    assert_eq!(matches_of(&store, &enc(&a, b"GGTTACG")).len(), 16);
    drop(store);

    // Recovery re-pins from the manifest alone.
    let store = SegmentedSpine::open(a.clone(), &dir, cfg.clone()).unwrap();
    let registry = MetricsRegistry::new();
    store.attach_telemetry(&registry);
    store.force_seal().unwrap(); // refresh stats via a no-op seal
    let repinned = registry.snapshot().gauge("segments.hot_pinned").unwrap();
    assert!(repinned >= 2, "recovered segments must re-pin, gauge says {repinned}");
    drop(store);

    // With the knob off, nothing pins.
    let dir2 = tmpdir("hotpin-off");
    let store = SegmentedSpine::create(
        a.clone(),
        &dir2,
        SegmentConfig { hot_pin_pages: 0, memtable_max_symbols: 64, ..Default::default() },
    )
    .unwrap();
    let registry = MetricsRegistry::new();
    store.attach_telemetry(&registry);
    store.add_document(&doc).unwrap();
    store.force_seal().unwrap();
    assert_eq!(registry.snapshot().gauge("segments.hot_pinned"), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// A crash between writing a segment's files and committing the manifest
/// leaves orphans under the id the next seal would take. Recovery numbers
/// new segments above them: a seal that reused the id would overwrite the
/// evidence, and `cleanup_orphans` would then delete the committed segment.
#[test]
fn seal_after_recovery_never_reuses_an_orphan_id() {
    let a = Alphabet::dna();
    let dir = tmpdir("orphan-id");
    {
        let store = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
        store.add_document(&enc(&a, b"ACGT")).unwrap();
        store.force_seal().unwrap();
    }
    // The torn seal of segment 1: its one file written, no manifest commit.
    std::fs::write(dir.join("seg-1.pages"), b"torn seal, never committed").unwrap();

    let store = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
    assert_eq!(store.orphan_count(), 1, "one orphan per torn seal");
    store.add_document(&enc(&a, b"GATTACA")).unwrap();
    assert!(store.force_seal().unwrap());
    assert_eq!(
        std::fs::read(dir.join("seg-1.pages")).unwrap(),
        b"torn seal, never committed",
        "a seal must not write over an orphan"
    );
    assert_eq!(store.cleanup_orphans().unwrap(), 1);
    drop(store);

    let store = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
    assert_eq!(store.orphan_count(), 0);
    assert_eq!(matches_of(&store, &enc(&a, b"ACGT")), vec![(0, 0)]);
    assert_eq!(matches_of(&store, &enc(&a, b"TTACA")), vec![(1, 2)]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every live sealed segment's preorder index is resident, 16 B per node,
/// and the `segments.resident_bytes` gauge sums them across seals, merges
/// and recovery.
#[test]
fn resident_bytes_gauge_sums_live_segments() {
    use spine::telemetry::MetricsRegistry;

    let a = Alphabet::dna();
    let dir = tmpdir("resident");
    let cfg = SegmentConfig { merge_min_segments: 8, ..Default::default() };
    let store = SegmentedSpine::create(a.clone(), &dir, cfg.clone()).unwrap();
    let registry = MetricsRegistry::new();
    store.attach_telemetry(&registry);
    let gauge = |r: &MetricsRegistry| r.snapshot().gauge("segments.resident_bytes").unwrap();
    assert_eq!(gauge(&registry), 0, "no sealed segment yet");

    store.add_document(&enc(&a, b"ACGTACG")).unwrap();
    store.force_seal().unwrap();
    store.add_document(&enc(&a, b"GAT")).unwrap();
    store.force_seal().unwrap();
    // A segment indexes its documents plus one separator each, and a root.
    assert_eq!(gauge(&registry), 16 * ((8 + 1) + (4 + 1)));
    assert!(store.merge_once().unwrap());
    assert_eq!(gauge(&registry), 16 * (12 + 1));
    drop(store);

    let store = SegmentedSpine::open(a.clone(), &dir, cfg).unwrap();
    let registry = MetricsRegistry::new();
    store.attach_telemetry(&registry);
    assert_eq!(gauge(&registry), 16 * (12 + 1), "recovery rebuilds the index");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: `try_find_all` once stringified a segment's error and
/// rewrapped it as a context-free I/O error, so callers lost the failing
/// operation and read "permanent I/O error: permanent I/O error during
/// read: …". A sealed segment whose device dies right after reopening now
/// reports the segment's own error.
#[test]
fn try_find_all_keeps_the_component_error() {
    use spine::IoGate;

    let a = Alphabet::dna();
    let dir = tmpdir("component-error");
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let doc: Vec<Code> = (0..20_000)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 32) as Code % 4
        })
        .collect();
    let cfg = |gate: IoGate| SegmentConfig {
        memtable_max_symbols: usize::MAX,
        pool_pages: 2,
        hot_pin_pages: 0,
        gate: Some(gate),
        ..Default::default()
    };
    {
        let store = SegmentedSpine::create(a.clone(), &dir, cfg(IoGate::unarmed())).unwrap();
        store.add_document(&doc).unwrap();
        assert!(store.force_seal().unwrap());
    }
    let pattern = doc[10_000..10_012].to_vec();
    let counting = IoGate::unarmed();
    let store = SegmentedSpine::open(a.clone(), &dir, cfg(counting.clone())).unwrap();
    let open_ops = counting.ops();
    assert_eq!(matches_of(&store, &pattern).first(), Some(&(0, 10_000)));
    drop(store);

    // The device dies with the first operation after the reopen.
    let store = SegmentedSpine::open(a.clone(), &dir, cfg(IoGate::armed(open_ops))).unwrap();
    let err = store.try_find_all(&pattern).unwrap_err();
    let msg = err.to_string();
    assert!(err.io_context().is_some(), "the segment's I/O context survives: {msg}");
    assert!(msg.starts_with("permanent I/O error"), "{msg}");
    assert_eq!(msg.matches("permanent I/O error").count(), 1, "one prefix, not two: {msg}");
    // Served through the engine, the same fault fails the query.
    let engine = QueryEngine::new(Arc::new(store), EngineConfig::default());
    engine.submit(pattern).unwrap();
    let outcome = engine.drain().remove(0).outcome;
    assert!(
        matches!(&outcome, QueryOutcome::Failed(m) if m.starts_with("permanent I/O error during read")),
        "{outcome:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: once a merge's manifest commit succeeds, failing to delete
/// an input file used to fail the merge. `merge_once` returned the
/// deletion's `Err` with the epoch already moved, counted a merge failure
/// beside the merge, skipped the `segments.merge_duration` sample and the
/// Merge journal record, and left the remaining inputs behind. Deletion is
/// best effort now: the merge is journaled and sampled, and only the file
/// that could not be deleted stays behind.
#[test]
fn merge_survives_a_failed_input_deletion() {
    use spine::telemetry::MetricsRegistry;
    use spine::JournalKind::{Merge, Seal};

    let a = Alphabet::dna();
    let dir = tmpdir("merge-cleanup");
    {
        let store = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
        let registry = MetricsRegistry::new();
        store.attach_telemetry(&registry);
        for text in [&b"ACGTACGT"[..], b"GGCCA"] {
            store.add_document(&enc(&a, text)).unwrap();
            store.force_seal().unwrap();
        }
        // Segment 0's open descriptor still reads its pages; only the
        // merge's own deletion of the file can fail now.
        std::fs::remove_file(dir.join("seg-0.pages")).unwrap();
        assert!(store.merge_once().unwrap(), "a committed merge reports success");
        assert_eq!((store.epoch(), store.stats().merges), (3, 1));
        let snap = registry.snapshot();
        assert_eq!(snap.gauge("segments.merge_failures"), Some(0));
        assert_eq!(snap.histogram("segments.merge_duration").map(|h| h.count), Some(1));
        store.add_document(&enc(&a, b"TTAA")).unwrap();
        store.force_seal().unwrap();
        let journal: Vec<_> =
            store.recent_journal(10).unwrap().iter().map(|e| (e.kind, e.epoch)).collect();
        assert_eq!(journal, vec![(Seal, 1), (Seal, 2), (Merge, 3), (Seal, 4)]);
        assert_eq!(matches_of(&store, &enc(&a, b"GGCC")), vec![(1, 0)]);
    }
    // The other three input files were deleted: recovery finds no orphan.
    let store = SegmentedSpine::open(a.clone(), &dir, SegmentConfig::default()).unwrap();
    assert_eq!(store.orphan_count(), 0);
    assert_eq!(store.live_doc_ids(), vec![0, 1, 2]);
    assert_eq!(matches_of(&store, &enc(&a, b"ACGTACGT")), vec![(0, 0)]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sealing encodes the memtable's own index, with no second APPEND, so
/// the segment file must be byte for byte the one `build_sealed` writes
/// over the same concatenation — empty and length-1 documents included.
#[test]
fn a_memtable_seals_to_the_file_build_sealed_writes() {
    use pagestore::{FileDevice, Lru};
    use spine::SealedSpine;

    for (i, a) in [Alphabet::dna(), Alphabet::protein()].into_iter().enumerate() {
        let dir = tmpdir(&format!("seal-bytes-{i}"));
        let store = SegmentedSpine::create(a.clone(), &dir, SegmentConfig::default()).unwrap();
        let texts: [&[u8]; 5] = [b"ACGTACGTAC", b"", b"A", b"CATCATTACA", b"GATTACA"];
        let mut concatenation = Vec::new();
        for t in texts {
            store.add_document(&enc(&a, t)).unwrap();
            concatenation.extend(enc(&a, t));
            concatenation.push(a.separator());
        }
        assert!(store.force_seal().unwrap());
        drop(store);

        let reference = dir.join("reference.pages");
        let device = FileDevice::create(&reference, false).unwrap();
        let built = SealedSpine::build_sealed(
            a.clone(),
            &concatenation,
            Box::new(device),
            16,
            Box::<Lru>::default(),
        )
        .unwrap();
        drop(built);
        let sealed = std::fs::read(dir.join("seg-0.pages")).unwrap();
        assert!(!sealed.is_empty());
        assert!(sealed == std::fs::read(&reference).unwrap(), "alphabet {i}: the files differ");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A memtable document retired before its seal is sealed with the rest,
/// and its tombstone rides in the seal's own manifest commit: a crash keeps
/// both or loses both, and the next merge drops the document's bytes.
#[test]
fn retired_memtable_documents_seal_with_their_tombstone() {
    use spine::{JournalKind, Manifest};

    let a = Alphabet::dna();
    let dir = tmpdir("retired-seal");
    let cfg = SegmentConfig { merge_min_segments: 8, ..Default::default() };
    let store = SegmentedSpine::create(a.clone(), &dir, cfg.clone()).unwrap();
    let texts: [&[u8]; 3] = [b"ACGTAC", b"GGACGT", b"TTAC"];
    for t in texts {
        store.add_document(&enc(&a, t)).unwrap();
    }
    assert!(store.retire_document(1).unwrap());
    let check = |store: &SegmentedSpine, when: &str| {
        assert_eq!(store.live_doc_ids(), vec![0, 2], "{when}");
        assert_eq!(matches_of(store, &enc(&a, b"ACGT")), vec![(0, 0)], "{when}");
        assert_eq!(matches_of(store, &enc(&a, b"GG")), vec![], "{when}");
        assert_eq!(matches_of(store, &enc(&a, b"AC")), vec![(0, 0), (0, 4), (2, 2)], "{when}");
        assert_eq!(store.document(1).unwrap(), None, "{when}");
        assert_eq!(store.document(2).unwrap(), Some(enc(&a, b"TTAC")), "{when}");
    };
    check(&store, "in the memtable");

    let epoch = store.epoch();
    assert!(store.force_seal().unwrap());
    assert_eq!(store.epoch(), epoch + 1, "one commit");
    let manifest = Manifest::decode(&std::fs::read(dir.join("MANIFEST")).unwrap()).unwrap();
    assert_eq!(manifest.segments.len(), 1);
    assert_eq!(manifest.segments[0].doc_ids, vec![0, 1, 2], "the retired document is sealed");
    assert_eq!(manifest.tombstones, vec![1], "with its tombstone");
    let seal = store.recent_journal(1).unwrap().remove(0);
    assert_eq!((seal.kind, seal.epoch, seal.docs), (JournalKind::Seal, epoch + 1, 2));
    assert_eq!(store.stats().tombstones, 1);
    check(&store, "sealed");
    drop(store);

    let store = SegmentedSpine::open(a.clone(), &dir, cfg.clone()).unwrap();
    check(&store, "reopened");
    assert!(store.merge_once().unwrap());
    assert_eq!(store.stats().tombstones, 0);
    check(&store, "merged");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    // Crash the same script at every I/O operation: recovery finds the
    // sealed documents and the tombstone together, or neither.
    let mut outcomes = [0u32; 2];
    for k in 0.. {
        use spine::IoGate;
        let dir = tmpdir(&format!("retired-seal-crash-{k}"));
        let gated = SegmentConfig { gate: Some(IoGate::armed(k)), ..cfg.clone() };
        let run = SegmentedSpine::create(a.clone(), &dir, gated).and_then(|store| {
            for t in texts {
                store.add_document(&enc(&a, t))?;
            }
            store.retire_document(1)?;
            store.force_seal()
        });
        // A crash inside `create` may leave no manifest at all.
        if let Ok(store) = SegmentedSpine::open(a.clone(), &dir, cfg.clone()) {
            let state = (store.live_doc_ids(), store.stats().tombstones);
            assert!(state == (vec![], 0) || state == (vec![0, 2], 1), "k={k}: {state:?}");
            if state.1 == 1 {
                check(&store, "recovered");
            }
            outcomes[state.1] += 1;
        }
        let _ = std::fs::remove_dir_all(&dir);
        if run.is_ok() {
            break;
        }
    }
    assert!(outcomes[0] > 1 && outcomes[1] > 1, "both outcomes reached: {outcomes:?}");
}

/// A segment's page 0 records the alphabet it was sealed under, and the
/// store refuses to reopen it under another: read as ASCII, a DNA
/// segment's codes would answer ASCII patterns, and the next merge would
/// mix the two alphabets' codes in one segment.
#[test]
fn open_refuses_a_segment_sealed_under_another_alphabet() {
    let dna = Alphabet::dna();
    let dir = tmpdir("alphabet-mismatch");
    let store = SegmentedSpine::create(dna.clone(), &dir, SegmentConfig::default()).unwrap();
    store.add_document(&enc(&dna, b"ACGTACGTAC")).unwrap();
    assert!(store.force_seal().unwrap());
    drop(store);

    let err = SegmentedSpine::open(Alphabet::ascii(), &dir, SegmentConfig::default())
        .err()
        .expect("a DNA segment must not open as ASCII");
    let msg = err.to_string();
    assert!(msg.contains("Dna") && msg.contains("Ascii"), "names both alphabets: {msg}");

    let store = SegmentedSpine::open(dna.clone(), &dir, SegmentConfig::default()).unwrap();
    assert_eq!(matches_of(&store, &enc(&dna, b"ACGT")), vec![(0, 0), (0, 4)]);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
