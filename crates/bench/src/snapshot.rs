//! Benchmark snapshots: the `exp bench-snapshot` deliverable.
//!
//! A [`BenchSnapshot`] is a small flat JSON record of the serving benchmark's
//! headline numbers — throughput, tail latency, and buffer-pool traffic per
//! query — written to `BENCH_serve.json`. CI re-runs the benchmark and
//! compares against the committed baseline with [`BenchSnapshot::check_against`],
//! failing on a >20 % regression in throughput or pages-per-query.
//!
//! The format is deliberately flat (one object, numeric fields) so the
//! parser here can stay a keyed number scan instead of a JSON library.
//!
//! Every `BENCH_*.json` payload carries a `schema_version` field; a parser
//! finding a missing or unknown version refuses with a typed
//! [`SnapshotError`] telling the operator to re-baseline, instead of
//! panicking or silently misreading renamed fields as regressions.

use std::fmt;

/// Format version stamped into every `BENCH_*.json` payload this harness
/// writes (`BENCH_serve.json`, `BENCH_build.json`, `BENCH_scale.json`).
/// Bump it whenever a field changes meaning or name; readers reject any
/// other version so a stale baseline fails loudly.
pub const SCHEMA_VERSION: u64 = 1;

/// Why a committed `BENCH_*.json` baseline could not be used.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// No `schema_version` field — a pre-versioning or hand-edited file.
    MissingVersion,
    /// A `schema_version` this build does not understand.
    UnknownVersion(u64),
    /// Versioned correctly but structurally unreadable (missing or
    /// non-numeric field).
    Malformed(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::MissingVersion => write!(
                f,
                "snapshot has no schema_version field (expected {SCHEMA_VERSION}); \
                 re-baseline required: regenerate it with `exp bench-snapshot` / `exp scale`"
            ),
            SnapshotError::UnknownVersion(v) => write!(
                f,
                "snapshot schema_version {v} is not the supported {SCHEMA_VERSION}; \
                 re-baseline required: regenerate it with the current binary"
            ),
            SnapshotError::Malformed(what) => write!(f, "snapshot is malformed: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Check the `schema_version` stamp of a snapshot payload: exactly
/// [`SCHEMA_VERSION`] or a typed refusal.
pub fn check_schema_version(text: &str) -> Result<(), SnapshotError> {
    match json_number(text, "schema_version") {
        None => Err(SnapshotError::MissingVersion),
        Some(v) if v as u64 == SCHEMA_VERSION => Ok(()),
        Some(v) => Err(SnapshotError::UnknownVersion(v as u64)),
    }
}

/// Headline numbers of one serving-benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSnapshot {
    /// Worker threads in the engine.
    pub workers: u64,
    /// Queries answered in the timed run.
    pub queries: u64,
    /// Wall time of the timed run, seconds.
    pub wall_s: f64,
    /// Throughput, queries per second.
    pub qps: f64,
    /// Median query latency, microseconds, of the *disk-engine* serving
    /// pass (from its `engine.query_latency` histogram), over the sealed
    /// index with its backbone-prefix pages pinned. Reported, not gated.
    pub p50_us: u64,
    /// 99th-percentile disk-engine query latency, microseconds.
    pub p99_us: u64,
    /// Mean device pages fetched (pool misses) per disk query: the sealed
    /// index's pool misses over one serial probe pass, per probe.
    pub pages_per_query: f64,
}

/// Throughput may drop to this fraction of the baseline before CI fails.
pub const QPS_FLOOR: f64 = 0.8;
/// Pages-per-query may grow to this multiple of the baseline before CI fails.
/// The count is deterministic for a given corpus and probe set (21 device
/// fetches over 18 probes in every quick run), so the bound only absorbs
/// rounding: losing the backbone-prefix pin (1.278 against 1.167) fails it.
pub const PAGES_CEIL: f64 = 1.05;

impl BenchSnapshot {
    /// Serialize as one flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\
             \"workers\":{},\"queries\":{},\"wall_s\":{:.6},\"qps\":{:.3},\
             \"p50_us\":{},\"p99_us\":{},\"pages_per_query\":{:.3}}}",
            self.workers,
            self.queries,
            self.wall_s,
            self.qps,
            self.p50_us,
            self.p99_us,
            self.pages_per_query
        )
    }

    /// Parse a snapshot back out of [`Self::to_json`]'s output (or any JSON
    /// text containing the same keys with numeric values). Rejects missing
    /// or unknown `schema_version` stamps before reading any field.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        check_schema_version(text)?;
        let get = |key: &str| {
            json_number(text, key)
                .ok_or_else(|| SnapshotError::Malformed(format!("missing numeric field {key:?}")))
        };
        Ok(BenchSnapshot {
            workers: get("workers")? as u64,
            queries: get("queries")? as u64,
            wall_s: get("wall_s")?,
            qps: get("qps")?,
            p50_us: get("p50_us")? as u64,
            p99_us: get("p99_us")? as u64,
            pages_per_query: get("pages_per_query")?,
        })
    }

    /// The CI regression gate: `Ok` with a summary line when this run is
    /// within tolerance of `baseline`, `Err` describing the first regression
    /// otherwise. Throughput must stay above [`QPS_FLOOR`] × baseline;
    /// pages-per-query must stay below [`PAGES_CEIL`] × baseline. Latency is
    /// reported but not gated: single-run tail latency is too noisy to fail
    /// CI on.
    pub fn check_against(&self, baseline: &Self) -> Result<String, String> {
        let qps_floor = baseline.qps * QPS_FLOOR;
        if self.qps < qps_floor {
            return Err(format!(
                "throughput regression: {:.0} qps < {:.0} ({}% of baseline {:.0})",
                self.qps,
                qps_floor,
                (QPS_FLOOR * 100.0) as u64,
                baseline.qps
            ));
        }
        let pages_ceil = baseline.pages_per_query * PAGES_CEIL;
        if self.pages_per_query > pages_ceil {
            return Err(format!(
                "pages-per-query regression: {:.3} > {:.3} ({}% of baseline {:.3})",
                self.pages_per_query,
                pages_ceil,
                (PAGES_CEIL * 100.0) as u64,
                baseline.pages_per_query
            ));
        }
        Ok(format!(
            "qps {:.0} vs baseline {:.0} (floor {:.0}); pages/query {:.3} vs {:.3} (ceil {:.3}); \
             p99 {} µs vs {} µs (informational)",
            self.qps,
            baseline.qps,
            qps_floor,
            self.pages_per_query,
            baseline.pages_per_query,
            pages_ceil,
            self.p99_us,
            baseline.p99_us
        ))
    }
}

/// Build-throughput may drop to this fraction of the baseline before CI
/// fails (same 20 % tolerance as [`QPS_FLOOR`]).
pub const NPS_FLOOR: f64 = 0.8;
/// Page-write costs may grow to this multiple of the baseline before CI
/// fails.
pub const BUILD_COST_CEIL: f64 = 1.2;
/// Sealed on-disk bytes/node may grow only to this multiple of the
/// baseline: the layout-v2 footprint is deterministic for a given text
/// (no timing noise), so the space gate is much tighter than the
/// throughput gates.
pub const BUILD_SPACE_CEIL: f64 = 1.05;

/// Headline numbers of one construction-benchmark run, written to
/// `BENCH_build.json` by `exp bench-snapshot` — the build-side counterpart
/// of [`BenchSnapshot`], produced by the `BuildStats` observer.
#[derive(Debug, Clone, PartialEq)]
pub struct BuildSnapshot {
    /// Characters inserted (backbone nodes minus the root).
    pub nodes: u64,
    /// Median-of-3 plain (observer-disabled) build wall time, seconds.
    pub build_s: f64,
    /// Build throughput from the plain builds, nodes per second.
    pub nodes_per_sec: f64,
    /// Observed-build overhead, percent: the median, over three
    /// plain/observed build pairs run in alternating order, of each pair's
    /// observed over plain wall time. Reported but not gated: single-digit
    /// scheduler noise would flap the gate.
    pub observer_overhead_pct: f64,
    /// On-disk bytes per node of the sealed layout-v2 index (file pages ×
    /// page size over backbone nodes) — the figure the varint/packed page
    /// format exists to shrink. Earlier baselines recorded the in-memory
    /// heap figure here; re-baseline when comparing across that change.
    pub bytes_per_node: f64,
    /// Device page writes of the fixed-record `DiskSpine` build plus those
    /// of sealing the same text from an in-memory `Spine` into layout-v2
    /// pages.
    pub page_writes: u64,
}

impl BuildSnapshot {
    /// Serialize as one flat JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\
             \"nodes\":{},\"build_s\":{:.6},\"nodes_per_sec\":{:.1},\
             \"observer_overhead_pct\":{:.2},\"bytes_per_node\":{:.3},\"page_writes\":{}}}",
            self.nodes,
            self.build_s,
            self.nodes_per_sec,
            self.observer_overhead_pct,
            self.bytes_per_node,
            self.page_writes
        )
    }

    /// Parse a snapshot back out of [`Self::to_json`]'s output. Rejects
    /// missing or unknown `schema_version` stamps before reading any field.
    pub fn from_json(text: &str) -> Result<Self, SnapshotError> {
        check_schema_version(text)?;
        let get = |key: &str| {
            json_number(text, key)
                .ok_or_else(|| SnapshotError::Malformed(format!("missing numeric field {key:?}")))
        };
        Ok(BuildSnapshot {
            nodes: get("nodes")? as u64,
            build_s: get("build_s")?,
            nodes_per_sec: get("nodes_per_sec")?,
            observer_overhead_pct: get("observer_overhead_pct")?,
            bytes_per_node: get("bytes_per_node")?,
            page_writes: get("page_writes")? as u64,
        })
    }

    /// The CI regression gate, mirroring [`BenchSnapshot::check_against`]:
    /// build throughput must stay above [`NPS_FLOOR`] × baseline; bytes per
    /// node and disk-build page writes must stay below [`BUILD_COST_CEIL`] ×
    /// baseline (with small absolute slacks so near-zero baselines don't
    /// flap). Observer overhead is reported but not gated.
    pub fn check_against(&self, baseline: &Self) -> Result<String, String> {
        let nps_floor = baseline.nodes_per_sec * NPS_FLOOR;
        if self.nodes_per_sec < nps_floor {
            return Err(format!(
                "build-throughput regression: {:.0} nodes/s < {:.0} ({}% of baseline {:.0})",
                self.nodes_per_sec,
                nps_floor,
                (NPS_FLOOR * 100.0) as u64,
                baseline.nodes_per_sec
            ));
        }
        let bytes_ceil = baseline.bytes_per_node * BUILD_SPACE_CEIL + 1.0;
        if self.bytes_per_node > bytes_ceil {
            return Err(format!(
                "space regression: {:.2} bytes/node > {:.2} ({}% of baseline {:.2} + 1)",
                self.bytes_per_node,
                bytes_ceil,
                (BUILD_SPACE_CEIL * 100.0) as u64,
                baseline.bytes_per_node
            ));
        }
        let writes_ceil = baseline.page_writes as f64 * BUILD_COST_CEIL + 16.0;
        if self.page_writes as f64 > writes_ceil {
            return Err(format!(
                "page-write regression: {} writes > {:.0} ({}% of baseline {} + 16)",
                self.page_writes,
                writes_ceil,
                (BUILD_COST_CEIL * 100.0) as u64,
                baseline.page_writes
            ));
        }
        Ok(format!(
            "build {:.0} nodes/s vs baseline {:.0} (floor {:.0}); {:.2} bytes/node vs {:.2} \
             (ceil {:.2}); {} page writes vs {} (ceil {:.0}); observer overhead {:+.1}% \
             (informational)",
            self.nodes_per_sec,
            baseline.nodes_per_sec,
            nps_floor,
            self.bytes_per_node,
            baseline.bytes_per_node,
            bytes_ceil,
            self.page_writes,
            baseline.page_writes,
            writes_ceil,
            self.observer_overhead_pct
        ))
    }
}

/// Extract the numeric value following `"key":` in a flat JSON object.
/// Returns `None` when the key is absent or the value is not a number.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchSnapshot {
        BenchSnapshot {
            workers: 4,
            queries: 1280,
            wall_s: 0.25,
            qps: 5120.0,
            p50_us: 180,
            p99_us: 900,
            pages_per_query: 6.4,
        }
    }

    #[test]
    fn json_round_trips() {
        let s = sample();
        let parsed = BenchSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed.workers, s.workers);
        assert_eq!(parsed.queries, s.queries);
        assert_eq!(parsed.p50_us, s.p50_us);
        assert_eq!(parsed.p99_us, s.p99_us);
        assert!((parsed.qps - s.qps).abs() < 1e-3);
        assert!((parsed.pages_per_query - s.pages_per_query).abs() < 1e-3);
    }

    #[test]
    fn from_json_rejects_missing_fields() {
        let err = BenchSnapshot::from_json("{\"schema_version\":1,\"workers\":4}").unwrap_err();
        assert!(matches!(err, SnapshotError::Malformed(_)), "{err}");
        assert!(err.to_string().contains("missing numeric field"), "{err}");
    }

    #[test]
    fn from_json_rejects_missing_or_unknown_schema_version() {
        // Version-less payload (pre-versioning baseline): typed refusal with
        // a re-baseline instruction, not a field-level parse error.
        let unversioned = "{\"workers\":4,\"queries\":640}";
        let err = BenchSnapshot::from_json(unversioned).unwrap_err();
        assert_eq!(err, SnapshotError::MissingVersion);
        assert!(err.to_string().contains("re-baseline required"), "{err}");

        let future = "{\"schema_version\":99,\"workers\":4}";
        let err = BenchSnapshot::from_json(future).unwrap_err();
        assert_eq!(err, SnapshotError::UnknownVersion(99));
        assert!(err.to_string().contains("re-baseline required"), "{err}");

        // Both snapshot kinds share the stamp check.
        assert_eq!(
            BuildSnapshot::from_json(unversioned).unwrap_err(),
            SnapshotError::MissingVersion
        );
    }

    #[test]
    fn emitted_json_carries_the_schema_version() {
        assert!(sample().to_json().contains("\"schema_version\":1"));
        assert!(build_sample().to_json().contains("\"schema_version\":1"));
        assert!(check_schema_version(&sample().to_json()).is_ok());
    }

    #[test]
    fn check_passes_within_tolerance() {
        let base = sample();
        let mut run = sample();
        run.qps = base.qps * 0.85; // above the 0.8 floor
        run.pages_per_query = base.pages_per_query * 1.04; // below the 1.05 ceiling
        run.p99_us = base.p99_us * 10; // latency is informational only
        assert!(run.check_against(&base).is_ok());
    }

    #[test]
    fn check_fails_on_throughput_regression() {
        let base = sample();
        let mut run = sample();
        run.qps = base.qps * 0.5;
        let err = run.check_against(&base).unwrap_err();
        assert!(err.contains("throughput regression"), "{err}");
    }

    #[test]
    fn check_fails_on_pages_regression() {
        let base = sample();
        let mut run = sample();
        run.pages_per_query = base.pages_per_query * 2.0;
        let err = run.check_against(&base).unwrap_err();
        assert!(err.contains("pages-per-query regression"), "{err}");
    }

    /// The committed baseline pins the backbone prefix (1.167 pages per
    /// query); the same pool and probes without the pin read 1.278 under
    /// `SegmentedLru` and 1.333 under plain LRU.
    #[test]
    fn pages_gate_refuses_a_lost_prefix_pin() {
        let mut base = sample();
        base.pages_per_query = 1.167;
        let mut run = base.clone();
        assert!(run.check_against(&base).is_ok());
        for lost in [1.278, 1.333] {
            run.pages_per_query = lost;
            let err = run.check_against(&base).unwrap_err();
            assert!(err.contains(&format!("regression: {lost:.3} > 1.225")), "{err}");
        }
    }

    fn build_sample() -> BuildSnapshot {
        BuildSnapshot {
            nodes: 100_000,
            build_s: 0.05,
            nodes_per_sec: 2_000_000.0,
            observer_overhead_pct: 1.5,
            bytes_per_node: 38.25,
            page_writes: 420,
        }
    }

    #[test]
    fn build_json_round_trips() {
        let s = build_sample();
        let parsed = BuildSnapshot::from_json(&s.to_json()).unwrap();
        assert_eq!(parsed.nodes, s.nodes);
        assert_eq!(parsed.page_writes, s.page_writes);
        assert!((parsed.nodes_per_sec - s.nodes_per_sec).abs() < 1e-1);
        assert!((parsed.bytes_per_node - s.bytes_per_node).abs() < 1e-3);
        assert!((parsed.observer_overhead_pct - s.observer_overhead_pct).abs() < 1e-2);
        assert!(BuildSnapshot::from_json("{\"schema_version\":1,\"nodes\":3}").is_err());
    }

    #[test]
    fn build_check_gates_throughput_space_and_writes() {
        let base = build_sample();

        let mut run = build_sample();
        run.nodes_per_sec = base.nodes_per_sec * 0.85;
        run.bytes_per_node = base.bytes_per_node * 1.04; // under the tight space ceiling
        run.page_writes = (base.page_writes as f64 * 1.15) as u64;
        run.observer_overhead_pct = 40.0; // informational only
        assert!(run.check_against(&base).is_ok());

        run = build_sample();
        run.nodes_per_sec = base.nodes_per_sec * 0.5;
        let err = run.check_against(&base).unwrap_err();
        assert!(err.contains("build-throughput regression"), "{err}");

        run = build_sample();
        run.bytes_per_node = base.bytes_per_node * 2.0;
        let err = run.check_against(&base).unwrap_err();
        assert!(err.contains("space regression"), "{err}");

        run = build_sample();
        run.page_writes = base.page_writes * 2;
        let err = run.check_against(&base).unwrap_err();
        assert!(err.contains("page-write regression"), "{err}");
    }

    #[test]
    fn tiny_build_baselines_get_absolute_slack() {
        let mut base = build_sample();
        base.page_writes = 0;
        base.bytes_per_node = 0.0;
        let mut run = build_sample();
        run.page_writes = 16; // within the +16 absolute slack
        run.bytes_per_node = 0.9; // within the +1 absolute slack
        assert!(run.check_against(&base).is_ok());
        run.page_writes = 17;
        assert!(run.check_against(&base).is_err());
    }

    #[test]
    fn json_number_scans_flat_objects() {
        let t = "{\"a\":1,\"b\":-2.5e3,\"c\":\"str\"}";
        assert_eq!(json_number(t, "a"), Some(1.0));
        assert_eq!(json_number(t, "b"), Some(-2500.0));
        assert_eq!(json_number(t, "c"), None);
        assert_eq!(json_number(t, "d"), None);
    }
}
