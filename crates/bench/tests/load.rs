//! Load-harness contract tests: the determinism guarantees the committed
//! `BENCH_scale.json` relies on, and the coordinated-omission behavior the
//! open-loop driver exists for.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use spine::engine::{EngineConfig, QueryEngine, QueryOutcome, ServeIndex, ShedPolicy};
use spine_bench::load::{
    build_engine, mix_queries, run_plan, ArrivalProcess, Corpus, CorpusKind, CorpusSpec,
    EngineKind, LoadPlan, MixKind,
};
use strindex::{Code, CountersSnapshot};

fn corpus(kind: CorpusKind, len: usize, seed: u64) -> Corpus {
    Corpus::materialize(CorpusSpec::new(kind, len, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same seed → byte-identical query sequences for every mix, and
    /// byte-identical plan fingerprints; different seeds diverge.
    #[test]
    fn query_generation_is_a_pure_function_of_the_seed(
        seed in 0u64..1_000,
        count in 16usize..80,
    ) {
        let a = corpus(CorpusKind::Dna, 24_000, seed);
        let b = corpus(CorpusKind::Dna, 24_000, seed);
        prop_assert_eq!(&a.text, &b.text);
        prop_assert_eq!(&a.windows, &b.windows);
        for mix in MixKind::ALL {
            let qa = mix_queries(&a, mix, count);
            let qb = mix_queries(&b, mix, count);
            prop_assert_eq!(&qa, &qb, "{}", mix.name());
        }
        let other = corpus(CorpusKind::Dna, 24_000, seed + 1);
        prop_assert_ne!(&a.text, &other.text);
    }

    /// Same seed → byte-identical arrival schedules and summary JSON, in
    /// both arrival modes and both open-loop processes.
    #[test]
    fn plans_are_reproducible_from_one_seed(
        seed in 0u64..1_000,
        qps_k in 1u64..100,
        concurrency in 1usize..16,
    ) {
        let qps = qps_k as f64 * 1_000.0;
        let c = corpus(CorpusKind::Dna, 24_000, seed);
        let queries = mix_queries(&c, MixKind::Uniform, 48);

        let closed_a = LoadPlan::closed(queries.clone(), concurrency);
        let closed_b = LoadPlan::closed(queries.clone(), concurrency);
        prop_assert_eq!(closed_a.summary_json(), closed_b.summary_json());

        for process in [ArrivalProcess::Poisson, ArrivalProcess::Constant] {
            let a = LoadPlan::open(queries.clone(), qps, process, seed);
            let b = LoadPlan::open(queries.clone(), qps, process, seed);
            prop_assert_eq!(&a.arrivals_ns, &b.arrivals_ns);
            prop_assert_eq!(a.summary_json(), b.summary_json());
            // Schedules are monotone non-decreasing offsets from zero.
            prop_assert!(a.arrivals_ns.windows(2).all(|w| w[0] <= w[1]));
        }

        // The fingerprint separates modes and parameters.
        let poisson = LoadPlan::open(queries.clone(), qps, ArrivalProcess::Poisson, seed);
        let constant = LoadPlan::open(queries, qps, ArrivalProcess::Constant, seed);
        prop_assert_ne!(poisson.summary_json(), closed_a.summary_json());
        prop_assert_ne!(poisson.summary_json(), constant.summary_json());
    }
}

/// Every engine kind answers the uniform mix identically to SPINE when
/// driven through the harness's own builders (trie included — its corpus is
/// just smaller, so it gets its own queries here).
#[test]
fn all_engine_builders_agree_under_load() {
    let c = corpus(CorpusKind::Dna, 3_000, 13);
    let scratch = std::env::temp_dir().join(format!("spine-load-it-agree-{}", std::process::id()));
    let queries = mix_queries(&c, MixKind::Uniform, 40);
    let mut reference: Option<Vec<QueryOutcome>> = None;
    for kind in EngineKind::ALL {
        let index = Arc::new(build_engine(kind, &c, &scratch.join(kind.name())));
        let engine = QueryEngine::new(
            Arc::clone(&index),
            EngineConfig { workers: 2, queue_capacity: 64, ..Default::default() },
        );
        let plan = LoadPlan::closed(queries.clone(), 4);
        let out = run_plan(&engine, &plan, None);
        assert_eq!(out.completed, queries.len() as u64, "{}", kind.name());
        // Compare answers across engines: re-ask the index directly. The
        // segmented store answers in document space, so compare the
        // flat-text engines only.
        if kind != EngineKind::SpineSeg {
            let patterns: Vec<&[Code]> = queries.iter().map(|q| q.as_slice()).collect();
            let answers = index.answer_patterns(&patterns);
            match &reference {
                None => reference = Some(answers),
                Some(r) => assert_eq!(r, &answers, "{} disagrees", kind.name()),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// A [`ServeIndex`] that stalls hard on the first batch it sees: the
/// coordinated-omission probe. A closed-loop driver would only charge the
/// stall to the single in-flight query; the open-loop driver must charge
/// every query scheduled *during* the stall for its full queue wait.
struct StalledIndex {
    stall: Duration,
    stalled: AtomicBool,
}

impl StalledIndex {
    fn new(stall: Duration) -> StalledIndex {
        StalledIndex { stall, stalled: AtomicBool::new(false) }
    }
}

impl ServeIndex for StalledIndex {
    fn answer_patterns(&self, patterns: &[&[Code]]) -> Vec<QueryOutcome> {
        if !self.stalled.swap(true, Relaxed) {
            std::thread::sleep(self.stall);
        }
        patterns.iter().map(|_| QueryOutcome::Done(Vec::new())).collect()
    }

    fn counters_snapshot(&self) -> CountersSnapshot {
        CountersSnapshot::default()
    }
}

/// ISSUE acceptance: an open-loop run against an artificially stalled
/// engine reports p99 ≥ the stall duration, because latency is measured
/// from the *intended* arrival time and queries keep arriving while the
/// engine is stuck.
#[test]
fn open_loop_charges_queue_wait_during_a_stall() {
    const STALL: Duration = Duration::from_millis(100);
    let index = Arc::new(StalledIndex::new(STALL));
    let engine = QueryEngine::new(
        Arc::clone(&index),
        EngineConfig { workers: 1, batch_max: 1, queue_capacity: 256, shed: ShedPolicy::Block },
    );
    let queries: Vec<Vec<Code>> = (0..40).map(|i| vec![(i % 4) as Code]).collect();
    // Constant 1 ms spacing: the whole schedule (40 ms) fits inside the
    // 100 ms stall, so every query queues behind it.
    let plan = LoadPlan::open(queries, 1_000.0, ArrivalProcess::Constant, 0);
    let out = run_plan(&engine, &plan, None);
    assert_eq!(out.completed, 40);
    let stall_us = STALL.as_micros() as u64;
    assert!(
        out.p99_us() >= stall_us,
        "open-loop p99 {} µs must charge the {} µs stall",
        out.p99_us(),
        stall_us
    );
    // The first query entered the engine on time; the generator itself
    // never fell materially behind its schedule (it only submits, never
    // waits for answers), so dispatch lag stays well under the stall.
    assert!(
        out.dispatch_p99_us() < stall_us / 2,
        "dispatch lag {} µs should not absorb the stall",
        out.dispatch_p99_us()
    );
}

/// The closed-loop driver on the same stalled engine reports a *lower*
/// p99 — the omission the open-loop mode exists to correct. (One client:
/// only the first query observes the stall, and the other 39 samples are
/// fast, so p50 hides it entirely.)
#[test]
fn closed_loop_understates_the_same_stall() {
    const STALL: Duration = Duration::from_millis(100);
    let index = Arc::new(StalledIndex::new(STALL));
    let engine = QueryEngine::new(
        Arc::clone(&index),
        EngineConfig { workers: 1, batch_max: 1, queue_capacity: 256, shed: ShedPolicy::Block },
    );
    let queries: Vec<Vec<Code>> = (0..40).map(|i| vec![(i % 4) as Code]).collect();
    let plan = LoadPlan::closed(queries, 1);
    let out = run_plan(&engine, &plan, None);
    assert_eq!(out.completed, 40);
    let stall_us = STALL.as_micros() as u64;
    assert!(out.p99_us() >= stall_us, "one sample still sees the stall");
    assert!(
        out.p50_us() < stall_us / 10,
        "closed-loop p50 {} µs hides the stall entirely — the omission itself",
        out.p50_us()
    );
}
