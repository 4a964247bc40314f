//! Concurrent queries over one shared index.
//!
//! The in-memory engines are immutable after construction (counters are
//! relaxed atomics), so they are `Sync`: many threads can search the same
//! index at once. This is the read-mostly usage a database engine would
//! want from the paper's "more amenable for integration with database
//! engines" pitch.

use std::sync::Arc;

use crossbeam::thread;
use genseq::preset;
use spine::engine::{EngineConfig, QueryEngine};
use spine::occurrences::find_all_ends;
use spine::FallibleSpineOps;
use spine::{CompactSpine, Spine};
use strindex::{Code, MatchingIndex, StringIndex};
use suffix_tree::SuffixTree;

fn is_sync<T: Sync>() {}

#[test]
fn engines_are_sync() {
    is_sync::<Spine>();
    is_sync::<CompactSpine>();
    is_sync::<SuffixTree>();
}

#[test]
fn parallel_queries_agree_with_serial() {
    let p = preset("eco-sim").unwrap();
    let text = p.generate(0.002); // 7 000 bp
    let index = Spine::build(p.alphabet(), &text).unwrap();

    let patterns: Vec<Vec<Code>> =
        (0..64).map(|i| text[(i * 101) % (text.len() - 12)..][..12].to_vec()).collect();
    let serial: Vec<Vec<usize>> = patterns.iter().map(|p| index.find_all(p)).collect();

    let results = thread::scope(|s| {
        let handles: Vec<_> = patterns
            .chunks(16)
            .map(|chunk| {
                let index = &index;
                s.spawn(move |_| chunk.iter().map(|p| index.find_all(p)).collect::<Vec<_>>())
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().unwrap()).collect::<Vec<_>>()
    })
    .unwrap();

    assert_eq!(results, serial);
}

#[test]
fn parallel_matching_statistics() {
    let p = preset("eco-sim").unwrap();
    let text = p.generate(0.002);
    let index = Spine::build(p.alphabet(), &text).unwrap();
    let queries: Vec<Vec<Code>> = (0..8).map(|i| text[i * 500..i * 500 + 400].to_vec()).collect();

    let serial: Vec<_> = queries.iter().map(|q| index.matching_statistics(q)).collect();
    let parallel = thread::scope(|s| {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                let index = &index;
                s.spawn(move |_| index.matching_statistics(q))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect::<Vec<_>>()
    })
    .unwrap();
    assert_eq!(parallel, serial);

    // Counters aggregated across threads: at least one check per query
    // symbol in total.
    assert!(index.counters().nodes_checked() > 0);
}

/// Hammer one shared [`QueryEngine`] from many submitter threads at once.
///
/// Every drained result must equal the serial backbone scan for its
/// pattern, regardless of which worker answered it, how requests were
/// coalesced into batches, or in what order threads reached the queue.
#[test]
fn query_engine_stress_many_submitters() {
    let p = preset("eco-sim").unwrap();
    let text = p.generate(0.002); // ~7 000 bp
    let index = Arc::new(Spine::build(p.alphabet(), &text).unwrap());

    let patterns: Vec<Vec<Code>> =
        (0..48).map(|i| text[(i * 131) % (text.len() - 10)..][..3 + i % 8].to_vec()).collect();
    let serial: Vec<Vec<u32>> = patterns.iter().map(|p| find_all_ends(index.as_ref(), p)).collect();

    let cfg = EngineConfig { workers: 4, batch_max: 8, ..Default::default() };
    let engine = QueryEngine::new(Arc::clone(&index), cfg);
    let submitters = 6;
    thread::scope(|s| {
        for t in 0..submitters {
            let engine = &engine;
            let patterns = &patterns;
            s.spawn(move |_| {
                // Each thread submits every pattern, at a thread-specific
                // rotation so the queue interleaves differently.
                for i in 0..patterns.len() {
                    engine
                        .submit(patterns[(i + t * 7) % patterns.len()].clone())
                        .expect("default shed policy blocks rather than rejecting");
                }
            });
        }
    })
    .unwrap();

    let results = engine.drain();
    assert_eq!(results.len(), submitters * patterns.len());
    for r in &results {
        let i = patterns.iter().position(|p| *p == r.pattern).unwrap();
        assert_eq!(r.expect_ends(), serial[i], "pattern {:?}", r.pattern);
    }
    // Order-normalized equivalence: each distinct pattern was answered once
    // per submission, i.e. `submitters` × its multiplicity in the list.
    for p in &patterns {
        let answered = results.iter().filter(|r| r.pattern == *p).count();
        let submitted = submitters * patterns.iter().filter(|q| *q == p).count();
        assert_eq!(answered, submitted, "pattern {p:?}");
    }

    let m = engine.metrics();
    assert_eq!(m.completed, (submitters * patterns.len()) as u64);
    assert!(m.batches() <= m.completed, "coalescing can only reduce scans");
    assert!(m.index.nodes_checked > 0);
}

/// Drain from one thread while another is still submitting: drain must not
/// return until the queue is empty and nothing is in flight.
#[test]
fn query_engine_drain_races_with_submit() {
    let p = preset("eco-sim").unwrap();
    let text = p.generate(0.001);
    let index = Arc::new(Spine::build(p.alphabet(), &text).unwrap());
    let cfg = EngineConfig { workers: 2, batch_max: 4, ..Default::default() };
    let engine = QueryEngine::new(index, cfg);

    let total = 200usize;
    let drained = thread::scope(|s| {
        let e = &engine;
        s.spawn(move |_| {
            for i in 0..total {
                e.submit(text[(i * 37) % (text.len() - 6)..][..5].to_vec()).unwrap();
            }
        });
        // Drain concurrently; whatever this drain misses, a final drain
        // catches. Between the two, every id must appear exactly once.
        let first = e.drain();
        first.len()
    })
    .unwrap();

    let rest = engine.drain();
    assert_eq!(drained + rest.len(), total);
    let mut ids: Vec<u64> = rest.iter().map(|r| r.id).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), rest.len(), "no id delivered twice");
}

/// §2.7 prefix partitioning under concurrency: while reader threads query a
/// shared full index, each also checks that the zero-copy prefix view is
/// *structurally identical* (same nodes, links, LELs, ribs, extribs) to an
/// index freshly built on that prefix — SPINE's append-only growth makes
/// the live view safe to read at any cut.
#[test]
fn prefix_views_structurally_identical_under_concurrent_readers() {
    let p = preset("eco-sim").unwrap();
    let text = p.generate(0.0005); // ~1 750 bp
    let full = Spine::build(p.alphabet(), &text).unwrap();

    thread::scope(|s| {
        for t in 0..6 {
            let full = &full;
            let text = &text;
            let alphabet = p.alphabet();
            s.spawn(move |_| {
                let k = (t + 1) * text.len() / 7;
                let codes = alphabet.code_space() as Code;
                let fresh = Spine::build(alphabet, &text[..k]).unwrap();
                let view = full.prefix(k);
                assert_eq!(view.len(), fresh.len());
                for n in 0..=k as u32 {
                    let fnode = &fresh.nodes()[n as usize];
                    if n > 0 {
                        assert_eq!((fnode.link, fnode.lel), view.try_link_of(n).unwrap());
                    }
                    for c in 0..codes {
                        let rib = (view.try_rib_of(n, c).unwrap(), fresh.try_rib_of(n, c).unwrap());
                        assert_eq!(rib.0, rib.1, "rib {c} of node {n} at cut {k}");
                    }
                    // Every chain of the full index's node: the view must
                    // drop exactly the ones the prefix lacks.
                    for e in full.nodes()[n as usize].extribs.iter() {
                        let got = view.try_extrib_of(n, e.prt).unwrap();
                        let want = fresh.try_extrib_of(n, e.prt).unwrap();
                        assert_eq!(got, want, "chain {} of node {n} at cut {k}", e.prt);
                    }
                }
                // And behaviorally: the view answers like the fresh build.
                for w in [1usize, 4, 9] {
                    if k >= w {
                        let pat = &text[k - w..k];
                        assert_eq!(view.find_all(pat), fresh.find_all(pat), "cut {k} w {w}");
                    }
                }
            });
        }
    })
    .unwrap();
}
