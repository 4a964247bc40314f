//! Result reporting: aligned text tables and JSON records.

use strindex::telemetry::RegistrySnapshot;

/// One row of an experiment table: a label plus named numeric cells.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (usually the dataset name).
    pub label: String,
    /// `(column name, value)` cells, printed in order.
    pub cells: Vec<(String, f64)>,
}

impl Row {
    /// A row with no cells yet.
    pub fn new(label: impl Into<String>) -> Self {
        Row { label: label.into(), cells: Vec::new() }
    }

    /// Append a cell.
    pub fn cell(mut self, name: &str, value: f64) -> Self {
        self.cells.push((name.to_string(), value));
        self
    }
}

/// Print a titled, column-aligned table; `json` switches to one JSON object
/// per row (for downstream plotting).
pub fn print_table(title: &str, rows: &[Row], json: bool) {
    if json {
        for r in rows {
            println!("{}", serde_json::to_string_like(r));
        }
        return;
    }
    print!("{}", render_table(title, rows));
}

/// The text form of [`print_table`]: a title line, then each row under a
/// header of its column names, repeated whenever those names differ from
/// the previous row's (one table may hold rows measuring different things).
pub fn render_table(title: &str, rows: &[Row]) -> String {
    let mut out = format!("\n== {title} ==\n");
    if rows.is_empty() {
        return out + "(no rows)\n";
    }
    let label_w = rows.iter().map(|r| r.label.len()).max().unwrap_or(4).max(8);
    let mut header: Option<Vec<&str>> = None;
    for r in rows {
        let cols: Vec<&str> = r.cells.iter().map(|(n, _)| n.as_str()).collect();
        if header.as_ref() != Some(&cols) {
            out += &format!("{:label_w$}", "dataset");
            for c in &cols {
                out += &format!("  {c:>14}");
            }
            out.push('\n');
            header = Some(cols);
        }
        out += &format!("{:label_w$}", r.label);
        for (_, v) in &r.cells {
            out += &if v.abs() >= 1000.0 || (*v != 0.0 && v.fract() == 0.0) {
                format!("  {v:>14.0}")
            } else {
                format!("  {v:>14.4}")
            };
        }
        out.push('\n');
    }
    out
}

/// The `exp serve --metrics` deliverable: a plain run and an instrumented run
/// over the same workload, the engine ledger, and the full registry snapshot.
///
/// [`MetricsReport::to_json`] is the machine-readable dump CI parses; the
/// derived checks ([`MetricsReport::stages_bounded`],
/// `ledger_consistent`) are the observability layer's self-tests.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Worker threads in the instrumented engine.
    pub workers: usize,
    /// Queries submitted (and expected to complete).
    pub queries: u64,
    /// Wall time of the instrumented run, seconds.
    pub wall_s: f64,
    /// Wall time of the plain (telemetry-free) run, seconds.
    pub baseline_wall_s: f64,
    /// Ledger: total submissions accepted into the queue.
    pub submitted: u64,
    /// Ledger: queries answered.
    pub completed: u64,
    /// Ledger: queries shed at admission.
    pub shed: u64,
    /// Ledger: queries expired before a worker picked them up.
    pub timed_out: u64,
    /// Ledger: queries lost to worker panics.
    pub failed: u64,
    /// Whether every ledger snapshot obeyed
    /// `accounted + pending + in_flight == submitted`.
    pub ledger_consistent: bool,
    /// Everything the registry held when the run finished.
    pub registry: RegistrySnapshot,
}

impl MetricsReport {
    /// Instrumented-run throughput, queries per second.
    pub fn qps(&self) -> f64 {
        self.queries as f64 / self.wall_s.max(1e-9)
    }

    /// Telemetry overhead: how much slower the instrumented run was than the
    /// plain run, in percent (negative when noise favors the instrumented
    /// run).
    pub fn overhead_pct(&self) -> f64 {
        100.0 * (self.wall_s - self.baseline_wall_s) / self.baseline_wall_s.max(1e-9)
    }

    /// Seconds recorded across the worker-busy stages.
    pub fn busy_stage_s(&self) -> f64 {
        self.registry.busy_stage_seconds()
    }

    /// The physical ceiling on [`Self::busy_stage_s`]: `workers × wall`.
    pub fn busy_bound_s(&self) -> f64 {
        self.workers as f64 * self.wall_s
    }

    /// The stage-timing sanity check: each worker's busy segments are
    /// sequential, so their total cannot exceed `workers × wall` (a small
    /// slack absorbs timer-read skew around the wall-clock edges).
    pub fn stages_bounded(&self) -> bool {
        self.busy_stage_s() <= self.busy_bound_s() * 1.05 + 0.001
    }

    /// Serialize the whole report as one JSON object (registry embedded).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"workers\":{},\"queries\":{},\"wall_s\":{},\"baseline_wall_s\":{},\
             \"qps\":{},\"overhead_pct\":{},\"submitted\":{},\"completed\":{},\
             \"shed\":{},\"timed_out\":{},\"failed\":{},\"ledger_consistent\":{},\
             \"busy_stage_s\":{},\"busy_bound_s\":{},\"stages_bounded\":{},\
             \"registry\":{}}}",
            self.workers,
            self.queries,
            serde_json::fmt(self.wall_s),
            serde_json::fmt(self.baseline_wall_s),
            serde_json::fmt(self.qps()),
            serde_json::fmt(self.overhead_pct()),
            self.submitted,
            self.completed,
            self.shed,
            self.timed_out,
            self.failed,
            self.ledger_consistent,
            serde_json::fmt(self.busy_stage_s()),
            serde_json::fmt(self.busy_bound_s()),
            self.stages_bounded(),
            self.registry.to_json(),
        )
    }
}

// `serde_json` is not in the sanctioned dependency set; emit the small JSON
// subset we need by hand through serde's data model.
mod serde_json {
    use super::Row;

    /// Render a float as a JSON number (`null` when non-finite).
    pub fn fmt(v: f64) -> String {
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    }

    /// Serialize a [`Row`] to a JSON object string.
    pub fn to_string_like(r: &Row) -> String {
        let mut s = String::from("{");
        s.push_str(&format!("\"label\":\"{}\"", escape(&r.label)));
        for (name, value) in &r.cells {
            s.push_str(&format!(",\"{}\":{}", escape(name), fmt(*value)));
        }
        s.push('}');
        s
    }

    fn escape(s: &str) -> String {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_accumulate_cells() {
        let r = Row::new("eco-sim").cell("time", 1.5).cell("bytes", 12.0);
        assert_eq!(r.cells.len(), 2);
        assert_eq!(r.cells[0].0, "time");
    }

    #[test]
    fn json_output_is_well_formed() {
        let r = Row::new("a\"b").cell("x", 1.0).cell("inf", f64::INFINITY);
        let s = serde_json::to_string_like(&r);
        assert!(s.starts_with('{') && s.ends_with('}'));
        assert!(s.contains("\\\""));
        assert!(s.contains("\"inf\":null"));
    }

    #[test]
    fn render_table_heads_each_row_with_its_own_columns() {
        // The four `exp faults` rows, with counts a full sweep reports.
        let report = crate::faults::SweepReport {
            segment_recoveries: 82,
            segment_orphaned: 54,
            ..Default::default()
        };
        let rows = report.rows(0.57);
        let text = render_table("faults", &rows);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.iter().filter(|l| l.starts_with("dataset")).count(), 4, "{text}");
        for r in &rows {
            let at = lines.iter().position(|l| l.starts_with(&r.label)).unwrap();
            let header: Vec<&str> = lines[at - 1].split_whitespace().skip(1).collect();
            let names: Vec<&str> = r.cells.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(header, names, "{text}");
        }
        // Rows that share their columns share one header.
        let same = [Row::new("a").cell("x", 1.0), Row::new("b").cell("x", 2.0)];
        assert_eq!(render_table("t", &same).matches("dataset").count(), 1);
        assert!(render_table("t", &[]).ends_with("(no rows)\n"));
    }

    #[test]
    fn print_does_not_panic() {
        print_table("t", &[Row::new("x").cell("v", 2.5)], false);
        print_table("t", &[], false);
        print_table("t", &[Row::new("x").cell("v", 2.5)], true);
    }

    #[test]
    fn metrics_report_json_and_bounds() {
        use strindex::telemetry::{MetricsRegistry, Stage};
        let reg = MetricsRegistry::new();
        reg.stage(Stage::IndexScan).record(std::time::Duration::from_millis(3));
        let report = MetricsReport {
            workers: 2,
            queries: 10,
            wall_s: 0.5,
            baseline_wall_s: 0.4,
            submitted: 10,
            completed: 10,
            shed: 0,
            timed_out: 0,
            failed: 0,
            ledger_consistent: true,
            registry: reg.snapshot(),
        };
        // 3 ms of busy stage time against a 2×0.5 s bound.
        assert!(report.stages_bounded());
        assert!((report.overhead_pct() - 25.0).abs() < 1e-9);
        assert!((report.qps() - 20.0).abs() < 1e-9);
        let j = report.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"ledger_consistent\":true"));
        assert!(j.contains("\"registry\":{"));
        assert!(j.contains("stage.index_scan"));
    }
}
