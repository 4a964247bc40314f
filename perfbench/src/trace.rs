//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is named `<layer>.<call>`; the layer is one of this repository's
//! modules (`search`, `occurrences`, `engine`, `segments`) or `client`, the
//! benchmark's own glue. Each operation has one root span; the spans of the
//! calls made for it are its children. With one request in flight, the
//! client knows which operation a span recorded on the engine's worker
//! thread belongs to: the one whose root is open.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer was made.
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// The open root span and its operation id.
    open: Option<(usize, u64)>,
}

pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), state: Mutex::default() }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("no thread panics while holding the tracer lock")
    }

    /// Open the root span of operation `op`, started at `start`.
    pub fn begin(&self, name: &'static str, op: u64, start: Instant) -> usize {
        let start = self.ns(start);
        let mut st = self.state();
        let id = st.spans.len();
        st.spans.push(Span { name, op, parent: None, start, end: start });
        st.open = Some((id, op));
        id
    }

    /// Close root span `id` at `end`.
    pub fn end(&self, id: usize, end: Instant) {
        let end = self.ns(end);
        let mut st = self.state();
        st.spans[id].end = end;
        st.open = None;
    }

    /// Record a finished call as a child of the open root span.
    pub fn child(&self, name: &'static str, start: Instant, end: Instant) {
        let (start, end) = (self.ns(start), self.ns(end));
        let mut st = self.state();
        let (parent, op) = match st.open {
            Some((id, op)) => (Some(id), op),
            None => (None, u64::MAX),
        };
        st.spans.push(Span { name, op, parent, start, end });
    }

    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }
}

/// Check that every child lies inside its parent and that a parent's
/// children never sum past it; returns each span's self time (its duration
/// minus its children's).
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut child_sum = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        let Some(p) = s.parent else {
            continue;
        };
        let parent = &spans[p];
        if s.start < parent.start || s.end > parent.end || s.op != parent.op {
            return Err(format!(
                "span {i} ({}) lies outside its parent {p} ({})",
                s.name, parent.name
            ));
        }
        child_sum[p] += s.duration();
    }
    spans
        .iter()
        .zip(&child_sum)
        .enumerate()
        .map(|(i, (s, &c))| {
            s.duration()
                .checked_sub(c)
                .ok_or_else(|| format!("the children of span {i} ({}) sum past it", s.name))
        })
        .collect()
}

/// Each layer's share of all self time.
pub fn layer_shares(spans: &[Span], self_ns: &[u64]) -> BTreeMap<&'static str, f64> {
    let total: u64 = self_ns.iter().sum();
    let mut shares = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(self_ns) {
        *shares.entry(s.layer()).or_insert(0.0) += ns as f64 / total.max(1) as f64;
    }
    shares
}

/// Mean duration of the spans named `name`, in units of `unit_ns`
/// nanoseconds, averaged over `per` operations.
pub fn mean_duration(spans: &[Span], name: &str, unit_ns: f64, per: usize) -> f64 {
    let total: u64 = spans.iter().filter(|s| s.name == name).map(Span::duration).sum();
    total as f64 / unit_ns / per.max(1) as f64
}

/// Mean self time of the spans named `root`, and mean time from their
/// start to their first child's, in nanoseconds.
pub fn root_self_and_wait(spans: &[Span], own: &[u64], root: &str) -> (f64, f64) {
    let mut first_child: Vec<Option<u64>> = vec![None; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let f = first_child[p].get_or_insert(s.start);
            *f = (*f).min(s.start);
        }
    }
    let (mut n, mut own_sum, mut wait_sum) = (0u64, 0u64, 0u64);
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == root) {
        n += 1;
        own_sum += own[i];
        wait_sum += first_child[i].map_or(0, |c| c - s.start);
    }
    let n = n.max(1) as f64;
    (own_sum as f64 / n, wait_sum as f64 / n)
}

/// Write the spans as JSON lines.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{i},"name":"{}","op":{},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.op, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span { name, op: 0, parent, start, end }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            span("engine.request", None, 0, 100),
            span("search.locate", Some(0), 10, 20),
            span("occurrences.enumerate", Some(0), 20, 90),
        ];
        let own = self_times(&spans).unwrap();
        assert_eq!(own, vec![20, 10, 70]);
        let shares = layer_shares(&spans, &own);
        assert_eq!(shares["occurrences"], 0.7);
        assert_eq!(mean_duration(&spans, "search.locate", 1.0, 2), 5.0);
        assert_eq!(root_self_and_wait(&spans, &own, "engine.request"), (20.0, 10.0));
    }

    #[test]
    fn children_outside_or_past_their_parent_are_refused() {
        let outside = [span("engine.request", None, 10, 20), span("search.locate", Some(0), 5, 15)];
        assert!(self_times(&outside).is_err());
        let overlapping = [
            span("engine.request", None, 0, 10),
            span("search.locate", Some(0), 0, 8),
            span("occurrences.enumerate", Some(0), 2, 10),
        ];
        assert!(self_times(&overlapping).is_err());
    }

    #[test]
    fn children_attach_to_the_open_root() {
        let t = Tracer::new();
        let t0 = Instant::now();
        let root = t.begin("client.call", 7, t0);
        t.child("search.locate", t0, Instant::now());
        t.end(root, Instant::now());
        t.child("search.locate", Instant::now(), Instant::now());
        let spans = t.spans();
        assert_eq!((spans[1].parent, spans[1].op), (Some(0), 7));
        assert_eq!(spans[2].parent, None);
        assert!(self_times(&spans).is_ok());
    }
}
