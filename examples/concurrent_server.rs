//! Concurrent query serving: one immutable SPINE index, a pool of worker
//! threads, and a bounded admission queue from which each worker takes a
//! batch of requests and answers each pattern on its own — the deployment
//! shape behind the paper's "integration with database engines" pitch (§6).
//! The same engine then serves a document collection sharded across
//! several generalized indexes.
//!
//! ```sh
//! cargo run --release --example concurrent_server
//! ```

use std::sync::Arc;

use genseq::preset;
use spine::engine::{EngineConfig, QueryEngine};
use spine::telemetry::{MetricsRegistry, Stage};
use spine::{ShardedSpine, Spine};
use strindex::Code;

fn main() {
    // A shared index over a simulated E. coli genome (~35 kbp here).
    let p = preset("eco-sim").unwrap();
    let text = p.generate(0.01);
    let index = Arc::new(Spine::build(p.alphabet(), &text).unwrap());
    println!("indexed {} bp; starting 4 workers", text.len());

    // Observability: attach a metrics registry so the engine records
    // per-stage latency histograms and per-query tracing spans as it works.
    let registry = Arc::new(MetricsRegistry::new());
    let cfg = EngineConfig { workers: 4, batch_max: 32, ..Default::default() };
    let engine = QueryEngine::with_telemetry(Arc::clone(&index), cfg, Arc::clone(&registry));

    // Simulate request traffic: several client threads submit interleaved
    // pattern lookups against the one engine.
    let patterns: Vec<Vec<Code>> =
        (0..200).map(|i| text[(i * 379) % (text.len() - 16)..][..8 + i % 9].to_vec()).collect();
    std::thread::scope(|s| {
        for client in 0..4 {
            let engine = &engine;
            let patterns = &patterns;
            s.spawn(move || {
                for i in 0..patterns.len() / 4 {
                    engine
                        .submit(patterns[(client + 4 * i) % patterns.len()].clone())
                        .expect("default shed policy blocks rather than rejecting");
                }
            });
        }
    });

    // Collect every answer. Results carry their pattern and all occurrence
    // positions (identical to a serial scan, in ascending order).
    let results = engine.drain();
    let hits: usize = results.iter().map(|r| r.expect_ends().len()).sum();
    println!("{} queries answered, {} total occurrences", results.len(), hits);

    let m = engine.metrics();
    println!(
        "batching: {} worker batches for {} queries (mean batch {:.1}, peak queue {})",
        m.batches(),
        m.completed,
        m.mean_batch(),
        m.peak_queue_depth
    );
    println!(
        "index work: {} nodes checked, {} links followed",
        m.index.nodes_checked, m.index.links_followed
    );

    // What the registry saw: per-stage latency quantiles (microseconds) and
    // the tail of the span trace.
    let snap = registry.snapshot();
    println!("\ntelemetry ({} spans recorded):", snap.spans_recorded);
    for stage in Stage::ALL {
        if let Some(h) = snap.stage(stage) {
            if !h.is_empty() {
                println!(
                    "  {:<22} n={:<4} p50={:>6}us p95={:>6}us max={:>6}us",
                    stage.metric_name(),
                    h.count,
                    h.p50() / 1_000,
                    h.p95() / 1_000,
                    h.max / 1_000
                );
            }
        }
    }
    if let Some(h) = snap.histogram("engine.query_latency") {
        println!(
            "  {:<22} n={:<4} p50={:>6}us p95={:>6}us max={:>6}us",
            "engine.query_latency",
            h.count,
            h.p50() / 1_000,
            h.p95() / 1_000,
            h.max / 1_000
        );
    }
    println!("last spans:");
    for s in snap.spans.iter().rev().take(4).rev() {
        println!("  [{:>8}us +{:>6}us] {}", s.start_us, s.duration_us, s.name);
    }

    // Sharded serving: documents partitioned across generalized indexes,
    // each pattern answered by every shard, matches in global document ids.
    let docs: Vec<Vec<Code>> = text.chunks(4_096).map(|c| c.to_vec()).collect();
    let sharded = ShardedSpine::build(p.alphabet(), &docs, 3).unwrap();
    println!("\nsharded: {} documents across {} shards", docs.len(), sharded.shard_count());
    let shard_cfg = EngineConfig { workers: 2, batch_max: 32, ..Default::default() };
    let engine = QueryEngine::new(Arc::new(sharded), shard_cfg);
    for pat in &patterns[..3] {
        engine.submit(pat.clone()).unwrap();
    }
    for r in engine.drain() {
        let matches = r.expect_doc_matches();
        let mut hit_docs: Vec<usize> = matches.iter().map(|m| m.doc).collect();
        hit_docs.dedup();
        println!(
            "pattern of length {:>2}: {:>3} occurrences in {} documents",
            r.pattern.len(),
            matches.len(),
            hit_docs.len()
        );
    }
}
