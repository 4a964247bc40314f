//! Criterion bench: serial per-pattern querying vs the concurrent batched
//! engine (the micro-scale companion of `exp serve`).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use spine::engine::{EngineConfig, QueryEngine};
use spine::occurrences::find_all_ends;
use spine::Spine;
use spine_bench::Dataset;
use strindex::Code;

const N: usize = 200_000;

fn setup() -> (Arc<Spine>, Vec<Vec<Code>>) {
    // hc21-sim stands in for the paper's human-chromosome-21 dataset.
    let d = Dataset::generate("hc21-sim", N as f64 / 33_800_000.0);
    let index = Arc::new(Spine::build(d.alphabet.clone(), &d.seq).unwrap());
    let mut pats: Vec<Vec<Code>> =
        (0..192).map(|i| d.seq[i * 883 % (d.seq.len() - 20)..][..12 + i % 8].to_vec()).collect();
    for i in 0..64 {
        let mut p = pats[i].clone();
        p.reverse(); // mostly misses
        pats.push(p);
    }
    (index, pats)
}

fn serve(c: &mut Criterion) {
    let (index, pats) = setup();
    let mut g = c.benchmark_group("serve");
    g.throughput(Throughput::Elements(pats.len() as u64));

    g.bench_function("serial", |b| {
        b.iter(|| pats.iter().map(|p| find_all_ends(index.as_ref(), p).len()).sum::<usize>())
    });

    for workers in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("engine", workers), &workers, |b, &workers| {
            let cfg = EngineConfig { workers, batch_max: 64, ..Default::default() };
            let engine = QueryEngine::new(Arc::clone(&index), cfg);
            b.iter(|| {
                for admitted in engine.submit_batch(pats.iter().cloned()) {
                    admitted.unwrap();
                }
                engine.drain().len()
            });
        });
    }
    g.finish();
}

criterion_group!(benches, serve);
criterion_main!(benches);
