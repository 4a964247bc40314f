//! Metric names and units, the result line, and the traced run's summary.

use crate::trace::{self, Span};
use crate::{Outcome, Values, Workload};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_p90_ms", "ms"),
    ("bytes_per_symbol", "B"),
];

/// Per-layer metrics, printed by every traced run; a layer the workload
/// does not call reads 0. Times and counts are means per query (or per
/// write, merge, or appended symbol, as named) over the traced window.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("build.chain_steps_per_symbol", "steps/symbol"),
    ("build.ribs_per_symbol", "ribs/symbol"),
    ("build.extribs_per_symbol", "extribs/symbol"),
    ("search.busy_us", "us"),
    ("search.nodes_checked_per_query", "nodes/query"),
    ("search.extribs_scanned_per_query", "extribs/query"),
    ("search.self_share", "ratio"),
    ("occurrences.busy_ms", "ms"),
    ("occurrences.nodes_scanned_per_query", "nodes/query"),
    ("occurrences.found_per_query", "matches/query"),
    ("occurrences.useful_ratio", "ratio"),
    ("occurrences.self_share", "ratio"),
    ("engine.self_us", "us"),
    ("engine.wait_us", "us"),
    ("engine.self_share", "ratio"),
    ("segments.query_ms", "ms"),
    ("segments.components_per_query", "components/query"),
    ("segments.append_ms", "ms"),
    ("segments.retire_ms", "ms"),
    ("segments.seal_ms", "ms"),
    ("segments.merge_ms", "ms"),
    ("segments.merge.collect_ms", "ms"),
    ("segments.merge.build_ms", "ms"),
    ("segments.merge.commit_ms", "ms"),
    ("segments.merge.cleanup_ms", "ms"),
    ("segments.write_amp", "ratio"),
    ("segments.self_share", "ratio"),
    ("pagestore.reads_per_query", "reads/query"),
    ("pagestore.ops_per_write", "ops/write"),
];

/// Layers whose share of self time is a metric.
const SHARES: [(&str, &str); 4] = [
    ("search", "search.self_share"),
    ("occurrences", "occurrences.self_share"),
    ("engine", "engine.self_share"),
    ("segments", "segments.self_share"),
];

/// The result line: every metric of the run's kind, by name, with its unit.
pub fn render(o: &Outcome, traced: bool) -> Result<String, String> {
    let defs: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    if let Some(name) = o.values.keys().find(|k| !defs.iter().any(|(n, _)| n == *k)) {
        return Err(format!("{name} is not a metric of this kind of run"));
    }
    let mut metrics = Vec::with_capacity(defs.len());
    for (name, unit) in defs {
        let value = match o.values.get(name) {
            Some(&v) => v,
            None if traced => 0.0,
            None => return Err(format!("the run measured no {name}")),
        };
        if !value.is_finite() {
            return Err(format!("{name} is {value}"));
        }
        println!("{name:>38} {value:>14.4} {unit}");
        metrics.push(format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#));
    }
    Ok(format!(
        r#"{{"correct": true, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        o.attempted,
        o.failed,
        metrics.join(", ")
    ))
}

/// Check the spans' nesting, print each layer's share of self time and
/// whether the expected layer dominates, write the spans out, and add the
/// share metrics. Returns each span's self time.
pub fn layer_summary(
    w: Workload,
    seed: u64,
    spans: &[Span],
    values: &mut Values,
) -> Result<Vec<u64>, String> {
    let own = trace::self_times(spans)?;
    let shares = trace::layer_shares(spans, &own);
    println!("{} spans nest: every child lies inside its parent", spans.len());
    for (layer, share) in &shares {
        println!("self time {layer:>12}: {:6.2} %", share * 100.0);
    }
    let dominant = shares.iter().max_by(|a, b| a.1.total_cmp(b.1)).map_or("none", |(l, _)| *l);
    let verdict = if dominant == w.dominant_layer() { "as expected" } else { "NOT the expected" };
    println!("dominant layer: {dominant}, {verdict} {}", w.dominant_layer());
    for (layer, metric) in SHARES {
        values.insert(metric, shares.get(layer).copied().unwrap_or(0.0));
    }
    let path = crate::work_dir()?.join(format!("trace-{}-seed{seed}.jsonl", w.name()));
    trace::write_jsonl(spans, &path).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(own)
}

/// A measured phase's headline numbers, for the tracing-overhead line.
pub struct Headline {
    pub p50_ms: f64,
    pub ops_per_s: f64,
}

pub fn print_overhead(traced: &Headline, untraced: &Headline) {
    println!(
        "tracing overhead: p50_ms {:+.4} ({:.4} traced, {:.4} untraced), ops_per_s {:+.1} ({:.1} traced, {:.1} untraced)",
        traced.p50_ms - untraced.p50_ms,
        traced.p50_ms,
        untraced.p50_ms,
        traced.ops_per_s - untraced.ops_per_s,
        traced.ops_per_s,
        untraced.ops_per_s
    );
}
