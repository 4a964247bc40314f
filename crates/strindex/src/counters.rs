//! Instrumentation counters.
//!
//! Table 6 of the paper compares the *number of nodes checked* by SPINE and
//! the suffix tree while finding all maximal matching substrings. Both
//! engines in this workspace thread a [`Counters`] value through their search
//! paths; the experiment harness reads it after each run.
//!
//! The counters are relaxed atomics so read-only search methods (`&self`)
//! can count without locks — and so the in-memory engines stay `Sync`,
//! allowing concurrent queries over one index (see the workspace's
//! `parallel_queries` integration test).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Work counters incremented by the search/matching code paths.
#[derive(Debug, Default)]
pub struct Counters {
    nodes_checked: AtomicU64,
    edges_traversed: AtomicU64,
    links_followed: AtomicU64,
    extribs_scanned: AtomicU64,
    nodes_enumerated: AtomicU64,
}

impl Counters {
    /// A fresh, zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that a node was examined for an outgoing edge (the Table 6
    /// metric).
    #[inline]
    pub fn count_node_check(&self) {
        self.nodes_checked.fetch_add(1, Relaxed);
    }

    /// Record a forward edge traversal (vertebra/rib/extrib, or tree edge).
    #[inline]
    pub fn count_edge(&self) {
        self.edges_traversed.fetch_add(1, Relaxed);
    }

    /// Record `n` node examinations at once. The word-packed backbone scan
    /// checks a whole run of nodes per word compare; bulk-adding keeps its
    /// totals identical to the character-at-a-time path.
    #[inline]
    pub fn count_node_checks(&self, n: u64) {
        self.nodes_checked.fetch_add(n, Relaxed);
    }

    /// Record `n` forward edge traversals at once (packed-scan counterpart
    /// of [`count_edge`](Self::count_edge)).
    #[inline]
    pub fn count_edges(&self, n: u64) {
        self.edges_traversed.fetch_add(n, Relaxed);
    }

    /// Record an upstream link / suffix-link traversal.
    #[inline]
    pub fn count_link(&self) {
        self.links_followed.fetch_add(1, Relaxed);
    }

    /// Record one extrib-chain element examined.
    #[inline]
    pub fn count_extrib(&self) {
        self.extribs_scanned.fetch_add(1, Relaxed);
    }

    /// Record `n` nodes visited by occurrence enumeration: link-tree nodes
    /// for a walk, backbone nodes for the §4 scan.
    #[inline]
    pub fn count_nodes_enumerated(&self, n: u64) {
        self.nodes_enumerated.fetch_add(n, Relaxed);
    }

    /// Number of nodes examined so far.
    pub fn nodes_checked(&self) -> u64 {
        self.nodes_checked.load(Relaxed)
    }

    /// Number of forward edges traversed so far.
    pub fn edges_traversed(&self) -> u64 {
        self.edges_traversed.load(Relaxed)
    }

    /// Number of upstream links followed so far.
    pub fn links_followed(&self) -> u64 {
        self.links_followed.load(Relaxed)
    }

    /// Number of extrib-chain elements examined so far.
    pub fn extribs_scanned(&self) -> u64 {
        self.extribs_scanned.load(Relaxed)
    }

    /// Number of nodes occurrence enumeration visited so far.
    pub fn nodes_enumerated(&self) -> u64 {
        self.nodes_enumerated.load(Relaxed)
    }

    /// Reset every counter to zero.
    pub fn reset(&self) {
        self.nodes_checked.store(0, Relaxed);
        self.edges_traversed.store(0, Relaxed);
        self.links_followed.store(0, Relaxed);
        self.extribs_scanned.store(0, Relaxed);
        self.nodes_enumerated.store(0, Relaxed);
    }

    /// A point-in-time copy of all five counters.
    ///
    /// Snapshots are plain values: they can be diffed to attribute work to a
    /// window (`after - before`) and summed to aggregate work across several
    /// engines (the concurrent query engine does both).
    pub fn snapshot(&self) -> CountersSnapshot {
        CountersSnapshot {
            nodes_checked: self.nodes_checked(),
            edges_traversed: self.edges_traversed(),
            links_followed: self.links_followed(),
            extribs_scanned: self.extribs_scanned(),
            nodes_enumerated: self.nodes_enumerated(),
        }
    }
}

/// A plain-value copy of a [`Counters`] at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountersSnapshot {
    /// Nodes examined for an outgoing edge (the Table 6 metric).
    pub nodes_checked: u64,
    /// Forward edges traversed (vertebra/rib/extrib, or tree edge).
    pub edges_traversed: u64,
    /// Upstream links / suffix links followed.
    pub links_followed: u64,
    /// Extrib-chain elements examined.
    pub extribs_scanned: u64,
    /// Nodes visited by occurrence enumeration.
    pub nodes_enumerated: u64,
}

impl CountersSnapshot {
    /// Work done since `earlier` (saturating, so a concurrent `reset` cannot
    /// produce wrap-around garbage).
    pub fn since(&self, earlier: &CountersSnapshot) -> CountersSnapshot {
        CountersSnapshot {
            nodes_checked: self.nodes_checked.saturating_sub(earlier.nodes_checked),
            edges_traversed: self.edges_traversed.saturating_sub(earlier.edges_traversed),
            links_followed: self.links_followed.saturating_sub(earlier.links_followed),
            extribs_scanned: self.extribs_scanned.saturating_sub(earlier.extribs_scanned),
            nodes_enumerated: self.nodes_enumerated.saturating_sub(earlier.nodes_enumerated),
        }
    }

    /// Total of all five counters — a scalar "work units" figure.
    pub fn total(&self) -> u64 {
        self.nodes_checked
            + self.edges_traversed
            + self.links_followed
            + self.extribs_scanned
            + self.nodes_enumerated
    }
}

impl std::ops::Add for CountersSnapshot {
    type Output = CountersSnapshot;

    fn add(self, rhs: CountersSnapshot) -> CountersSnapshot {
        CountersSnapshot {
            nodes_checked: self.nodes_checked + rhs.nodes_checked,
            edges_traversed: self.edges_traversed + rhs.edges_traversed,
            links_followed: self.links_followed + rhs.links_followed,
            extribs_scanned: self.extribs_scanned + rhs.extribs_scanned,
            nodes_enumerated: self.nodes_enumerated + rhs.nodes_enumerated,
        }
    }
}

impl std::ops::AddAssign for CountersSnapshot {
    fn add_assign(&mut self, rhs: CountersSnapshot) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_resets() {
        let c = Counters::new();
        c.count_node_check();
        c.count_node_check();
        c.count_edge();
        c.count_link();
        c.count_extrib();
        c.count_nodes_enumerated(3);
        assert_eq!(c.nodes_checked(), 2);
        assert_eq!(c.edges_traversed(), 1);
        assert_eq!(c.links_followed(), 1);
        assert_eq!(c.extribs_scanned(), 1);
        assert_eq!(c.nodes_enumerated(), 3);
        c.reset();
        assert_eq!(c.nodes_checked(), 0);
        assert_eq!(c.edges_traversed(), 0);
        assert_eq!(c.nodes_enumerated(), 0);
    }

    #[test]
    fn snapshots_diff_and_sum() {
        let c = Counters::new();
        c.count_node_check();
        c.count_edge();
        let before = c.snapshot();
        c.count_node_check();
        c.count_link();
        let after = c.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.nodes_checked, 1);
        assert_eq!(delta.links_followed, 1);
        assert_eq!(delta.edges_traversed, 0);
        assert_eq!((before + delta), after);
        assert_eq!(after.total(), 4);
        // `since` across a reset saturates instead of wrapping.
        c.reset();
        assert_eq!(c.snapshot().since(&after).total(), 0);
    }

    #[test]
    fn counting_from_threads_loses_nothing() {
        let c = Counters::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        c.count_node_check();
                    }
                });
            }
        });
        assert_eq!(c.nodes_checked(), 40_000);
    }
}
