//! EXPLAIN-trace correctness, enforced differentially.
//!
//! A [`QueryTrace`] is only useful if it is *true*: the event sequence must
//! describe the traversal the engine actually performed, and that traversal
//! must visit the same character positions a naive automaton would. This
//! suite replays traces against the text with
//! [`QueryTrace::verify_against_text`] (which re-derives every PT admission,
//! every first-occurrence prefix end, and the final occurrence set from
//! first principles) over random DNA / protein / raw-byte texts, and checks
//! that the structural trace is identical across the in-memory, compact,
//! and page-resident engines.

use genseq::rng;
use pagestore::{Lru, MemDevice};
use proptest::prelude::*;
use rand::Rng;
use spine::engine::{EngineConfig, QueryEngine};
use spine::{CompactSpine, DiskSpine, Heatmap, QueryTrace, SealedSpine, Spine, TraceEvent};
use std::sync::Arc;
use strindex::{Alphabet, Code};

fn random_text(a: &Alphabet, len: usize, seed: u64) -> Vec<Code> {
    let mut r = rng(seed);
    (0..len).map(|_| r.gen_range(0..a.size()) as Code).collect()
}

/// Patterns exercising every trace shape: substrings (hits with occurrence
/// scans), random strings (mostly mismatch terminations), the empty pattern,
/// and a pattern longer than the text.
fn patterns_for(a: &Alphabet, text: &[Code], seed: u64) -> Vec<Vec<Code>> {
    let mut r = rng(seed ^ 0x5EED);
    let mut pats: Vec<Vec<Code>> = vec![Vec::new(), random_text(a, text.len() + 3, seed ^ 1)];
    for _ in 0..8 {
        if !text.is_empty() {
            let len = r.gen_range(1..=text.len().min(10));
            let at = r.gen_range(0..=text.len() - len);
            pats.push(text[at..at + len].to_vec());
        }
        let len = r.gen_range(1..=6usize);
        pats.push((0..len).map(|_| r.gen_range(0..a.size()) as Code).collect());
    }
    pats
}

/// 1-based end positions of every occurrence, by straight-line scan — the
/// naive automaton the trace must agree with. The empty pattern ends at
/// every node (0..=n), matching the engines' backbone-scan semantics.
fn scan_ends(text: &[Code], pattern: &[Code]) -> Vec<u32> {
    if pattern.is_empty() {
        return (0..=text.len() as u32).collect();
    }
    if pattern.len() > text.len() {
        return Vec::new();
    }
    (0..=text.len() - pattern.len())
        .filter(|&i| &text[i..i + pattern.len()] == pattern)
        .map(|i| (i + pattern.len()) as u32)
        .collect()
}

fn check_trace(tag: &str, trace: &QueryTrace, text: &[Code], pattern: &[Code]) {
    trace
        .verify_against_text(text)
        .unwrap_or_else(|e| panic!("{tag}: trace fails oracle replay for {pattern:?}: {e}"));
    assert_eq!(trace.ends, scan_ends(text, pattern), "{tag}: wrong ends for {pattern:?}");
    assert_eq!(trace.dropped, 0, "{tag}: trace overflowed on a small input");
}

fn exercise(a: &Alphabet, text: &[Code], seed: u64) {
    let spine = Spine::build(a.clone(), text).unwrap();
    let compact = (a.code_space() < 0xFE).then(|| CompactSpine::build(a.clone(), text).unwrap());
    let disk =
        DiskSpine::build(a.clone(), text, Box::new(MemDevice::new()), 4, Box::<Lru>::default())
            .unwrap();
    // The sealed layout-v2 engine. Traced walks always take the scalar
    // path (the packed word compare has no per-step story to tell), so its
    // structural trace must be event-identical to every other engine's.
    let sealed = SealedSpine::build_sealed(
        a.clone(),
        text,
        Box::new(MemDevice::new()),
        4,
        Box::<Lru>::default(),
    )
    .unwrap();
    for pattern in patterns_for(a, text, seed) {
        let t = spine.explain(&pattern);
        check_trace("spine", &t, text, &pattern);
        if let Some(c) = &compact {
            let tc = c.explain(&pattern);
            check_trace("compact", &tc, text, &pattern);
            assert_eq!(
                tc.structural_events(),
                t.structural_events(),
                "compact trace diverges for {pattern:?}"
            );
        }
        let td = disk.explain(&pattern);
        check_trace("disk", &td, text, &pattern);
        assert_eq!(
            td.structural_events(),
            t.structural_events(),
            "disk trace diverges for {pattern:?}"
        );
        let (h, m) = td.page_fetches();
        assert!(h + m > 0, "disk trace for {pattern:?} reports no page fetches");
        let ts = sealed.explain(&pattern);
        check_trace("disk-v2", &ts, text, &pattern);
        assert_eq!(
            ts.structural_events(),
            t.structural_events(),
            "sealed v2 trace diverges for {pattern:?}"
        );
        let (h, m) = ts.page_fetches();
        assert!(h + m > 0, "sealed v2 trace for {pattern:?} reports no page fetches");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DNA texts: every trace replays against the naive oracle and
    /// agrees across engines.
    #[test]
    fn dna_traces_replay_against_oracle(len in 1usize..200, seed in 0u64..1 << 48) {
        let a = Alphabet::dna();
        let text = random_text(&a, len, seed);
        exercise(&a, &text, seed);
    }

    /// Random protein texts (20-symbol alphabet).
    #[test]
    fn protein_traces_replay_against_oracle(len in 1usize..120, seed in 0u64..1 << 48) {
        let a = Alphabet::protein();
        let text = random_text(&a, len, seed);
        exercise(&a, &text, seed);
    }

    /// Random raw-byte texts (256 symbols; the compact layout sits out).
    #[test]
    fn byte_traces_replay_against_oracle(len in 1usize..100, seed in 0u64..1 << 48) {
        let a = Alphabet::bytes();
        let text = random_text(&a, len, seed);
        exercise(&a, &text, seed);
    }
}

/// The two edge patterns the proptest always includes, pinned explicitly:
/// the empty pattern ends at every node; a pattern longer than the text
/// terminates with a mismatch event and no occurrence scan.
#[test]
fn empty_and_overlong_pattern_edges() {
    let a = Alphabet::dna();
    let text = a.encode(b"AACCACAACA").unwrap();
    let s = Spine::build(a.clone(), &text).unwrap();

    let empty = s.explain(&[]);
    empty.verify_against_text(&text).unwrap();
    assert_eq!(empty.first_end, Some(0));
    assert_eq!(empty.ends, (0..=10).collect::<Vec<_>>());

    let overlong = s.explain(&a.encode(b"AACCACAACAA").unwrap());
    overlong.verify_against_text(&text).unwrap();
    assert_eq!(overlong.first_end, None);
    assert!(overlong.ends.is_empty());
    assert!(
        overlong
            .structural_events()
            .iter()
            .any(|e| matches!(e, TraceEvent::NoEdge { .. } | TraceEvent::ChainExhausted { .. })),
        "overlong pattern must terminate with a mismatch event"
    );
    assert!(
        !overlong.structural_events().iter().any(|e| matches!(e, TraceEvent::ScanStart { .. })),
        "a miss must not start an occurrence scan"
    );
}

/// The paper's running example, end to end: the trace of "ACA" over
/// AACCACAACA is exactly the hand-derived Figure 3 valid path.
#[test]
fn figure3_trace_matches_hand_derivation() {
    let a = Alphabet::dna();
    let text = a.encode(b"AACCACAACA").unwrap();
    let s = Spine::build(a.clone(), &text).unwrap();
    let t = s.explain(&a.encode(b"ACA").unwrap());
    let ev = t.structural_events();
    assert_eq!(ev[0], TraceEvent::Vertebra { node: 0, pl: 0, ch: 0 });
    assert_eq!(ev[1], TraceEvent::Rib { node: 1, ch: 1, dest: 3, pt: 1, pl: 1, admitted: true });
    assert_eq!(ev[2], TraceEvent::Rib { node: 3, ch: 0, dest: 5, pt: 1, pl: 2, admitted: false });
    assert_eq!(ev[3], TraceEvent::Extrib { at: 5, prt: 1, dest: 7, pt: 2, pl: 2, taken: true });
    assert_eq!(ev[4], TraceEvent::ScanStart { from: 8, to: 10, len: 3 });
    assert_eq!(t.ends, vec![7, 10]);
    let text_report = t.to_text(&a);
    assert!(text_report.contains("vertebra 0 -> 1"), "{text_report}");
    assert!(text_report.contains("ADMIT"), "{text_report}");
    assert!(text_report.contains("REJECT"), "{text_report}");
}

/// `QueryEngine::submit_traced` returns the same answers as the queued path
/// and its trace replays against the oracle.
#[test]
fn engine_submit_traced_matches_queued_answers() {
    let a = Alphabet::dna();
    let text = random_text(&a, 400, 0xE7617E);
    let index = Arc::new(Spine::build(a.clone(), &text).unwrap());
    let engine = QueryEngine::new(Arc::clone(&index), EngineConfig::default());
    for pattern in patterns_for(&a, &text, 7) {
        let (result, trace) = engine.submit_traced(pattern.clone());
        trace.verify_against_text(&text).unwrap();
        assert_eq!(result.expect_ends(), trace.ends.as_slice());
        assert_eq!(trace.ends, scan_ends(&text, &pattern));
    }
    let m = engine.metrics();
    assert!(m.is_consistent(), "ledger invariant violated: {m:?}");
}

/// Heatmaps conserve visits: bucketing never loses or invents counts,
/// every trace touches the root exactly once, and traces of a sealed
/// index attribute every touch.
#[test]
fn heatmap_conserves_visit_counts() {
    let a = Alphabet::dna();
    let text = random_text(&a, 300, 0x4EA7);
    let s = Spine::build(a.clone(), &text).unwrap();
    let mut heat = Heatmap::new(text.len());
    let pats = patterns_for(&a, &text, 11);
    for p in &pats {
        heat.add(&s.explain(p));
    }
    assert_eq!(heat.traces(), pats.len() as u64);
    let total: u64 = heat.node_visits().iter().sum();
    let bucket_total: u64 = heat.bucketed(7).iter().map(|&(_, _, v)| v).sum();
    assert_eq!(total, bucket_total);
    assert!(heat.node_visits()[0] >= pats.len() as u64, "every trace visits the root");

    let sealed = SealedSpine::build_sealed(
        a.clone(),
        &text,
        Box::new(MemDevice::new()),
        8,
        Box::<Lru>::default(),
    )
    .unwrap();
    let mut heat = Heatmap::new(text.len());
    for p in &pats {
        heat.add(&sealed.explain(p));
    }
    assert_eq!(heat.dropped_touches(), 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// §4 invariant: a vertebra out of node `i` arrives at `i + 1`, so no
    /// traced walk ever names a vertebra past `text_len - 1` — the arrival
    /// touch `node + 1` stays inside the heatmap's `text_len + 1` slots and
    /// nothing is dropped.
    #[test]
    fn vertebra_arrivals_stay_in_range(len in 1usize..160, seed in 0u64..1 << 48) {
        let a = Alphabet::dna();
        let text = random_text(&a, len, seed);
        let s = Spine::build(a.clone(), &text).unwrap();
        let mut heat = Heatmap::new(text.len());
        for pattern in patterns_for(&a, &text, seed ^ 0xF1E1D) {
            let t = s.explain(&pattern);
            for e in t.structural_events() {
                if let TraceEvent::Vertebra { node, .. } = e {
                    prop_assert!(
                        (node as usize) < t.text_len,
                        "vertebra out of node {node} on a {}-char backbone",
                        t.text_len
                    );
                }
            }
            heat.add(&t);
        }
        prop_assert_eq!(heat.dropped_touches(), 0);
    }
}
