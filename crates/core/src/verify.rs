//! Structural invariant checker.
//!
//! [`Spine::verify`] re-derives every label from first principles (using the
//! recovered text) and cross-checks the stored structure. It is O(n²) in
//! the worst case and meant for tests and debugging, not production paths.
//! The checked invariants are the machine-checkable core of the paper's
//! correctness argument (the companion TR's theorem):
//!
//! 1. node count = text length + 1;
//! 2. every non-root node's link points to the first-occurrence end of its
//!    longest early-terminating suffix, with LEL = that suffix's length;
//! 3. every rib/extrib destination equals the first-occurrence end of the
//!    string it lets a maximal valid path spell;
//! 4. extrib chains have strictly increasing PTs and consistent PRTs;
//! 5. the link-child lists thread the link tree: every non-root node
//!    appears exactly once, in its link destination's list; siblings run
//!    in descending id order; and a child's LEL exceeds its parent's own
//!    LEL when the parent is not the root (the lemma the occurrence walk
//!    relies on, DESIGN.md §16).

use crate::build::Spine;
use crate::node::{NO_CHILD, ROOT};
use strindex::Code;

/// A violated invariant, with enough context to debug it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Node at which the violation was detected.
    pub node: u32,
    /// Human-readable description.
    pub what: String,
}

/// First-occurrence end (1-based) of `pattern` in `text`, by scan.
fn first_end(text: &[Code], pattern: &[Code]) -> Option<u32> {
    if pattern.is_empty() {
        return Some(0);
    }
    text.windows(pattern.len())
        .position(|w| w == pattern)
        .map(|start| (start + pattern.len()) as u32)
}

impl Spine {
    /// Check all structural invariants; returns every violation found
    /// (empty = sound). Quadratic — use on test-sized inputs.
    pub fn verify(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let text = self.recover_text();
        let n = text.len();
        if self.nodes().len() != n + 1 {
            out.push(Violation {
                node: 0,
                what: format!("{} nodes for {} characters", self.nodes().len(), n),
            });
        }

        for i in 1..=n {
            let node = &self.nodes()[i];
            // Invariant 2: link/LEL definition. An early-terminating suffix
            // of prefix `i` occurs ending at some position ≤ i-1, i.e. as a
            // window of text[..i-1].
            let mut want_lel = 0u32;
            let mut want_dest = ROOT;
            for k in (1..i).rev() {
                let suffix = &text[i - k..i];
                if let Some(e) = first_end(&text[..i - 1], suffix) {
                    want_lel = k as u32;
                    want_dest = e;
                    break;
                }
            }
            if (node.link, node.lel) != (want_dest, want_lel) {
                out.push(Violation {
                    node: i as u32,
                    what: format!(
                        "link is ({}, {}) but definition gives ({}, {})",
                        node.link, node.lel, want_dest, want_lel
                    ),
                });
            }
        }

        // Invariants 3 & 4: edges address first occurrences; chains ordered.
        for i in 0..=n {
            let node = &self.nodes()[i];
            for r in &node.ribs {
                // The longest suffix the rib serves has length pt and
                // terminates at node i; its extension's first end must be
                // r.dest. Reconstruct that suffix from the backbone.
                let pt = r.pt as usize;
                if pt > i {
                    out.push(Violation {
                        node: i as u32,
                        what: format!("rib PT {} exceeds node depth {}", pt, i),
                    });
                    continue;
                }
                let mut w: Vec<Code> = text[i - pt..i].to_vec();
                w.push(r.cl);
                match first_end(&text, &w) {
                    Some(e) if e == r.dest => {}
                    other => out.push(Violation {
                        node: i as u32,
                        what: format!(
                            "rib (cl {}, pt {}) dest {} but first occurrence ends at {:?}",
                            r.cl, r.pt, r.dest, other
                        ),
                    }),
                }
            }
            for e in &node.extribs {
                if e.pt <= e.prt {
                    out.push(Violation {
                        node: i as u32,
                        what: format!("extrib PT {} not above PRT {}", e.pt, e.prt),
                    });
                }
            }
        }
        self.verify_link_tree(&mut out);
        out
    }

    /// Invariant 5: the link-child lists.
    fn verify_link_tree(&self, out: &mut Vec<Violation>) {
        let nodes = self.nodes();
        let mut listed = vec![0u32; nodes.len()];
        for (p, parent) in nodes.iter().enumerate() {
            let mut bad = |what: String| out.push(Violation { node: p as u32, what });
            let mut prev = None;
            let mut c = parent.first_child;
            while c != NO_CHILD {
                let Some(child) = nodes.get(c as usize) else {
                    bad(format!("child {c} is not a node"));
                    break;
                };
                if prev.is_some_and(|prev| c >= prev) {
                    // Also stops a cyclic list.
                    bad(format!("sibling {c} does not descend from {prev:?}"));
                    break;
                }
                if child.link as usize != p {
                    bad(format!("child {c} links to {}, not here", child.link));
                }
                if p != ROOT as usize && child.lel <= parent.lel {
                    bad(format!("child {c} LEL {} not above own LEL {}", child.lel, parent.lel));
                }
                listed[c as usize] += 1;
                prev = Some(c);
                c = child.next_sibling;
            }
        }
        for (i, &times) in listed.iter().enumerate().skip(1) {
            if times != 1 {
                out.push(Violation {
                    node: i as u32,
                    what: format!("listed {times} times among link children"),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strindex::Alphabet;

    #[test]
    fn paper_example_verifies() {
        let s = Spine::build_from_bytes(Alphabet::dna(), b"AACCACAACA").unwrap();
        assert_eq!(s.verify(), vec![]);
    }

    #[test]
    fn pathological_strings_verify() {
        let a = Alphabet::dna();
        for t in [
            &b"AAAAAAAAAAAAAAAA"[..],
            b"ACACACACACACAC",
            b"ACGTACGTACGTACGT",
            b"AABAAABAAAABC"
                .map(|c| match c {
                    b'B' => b'C',
                    b'C' => b'G',
                    x => x,
                })
                .as_slice(),
            b"A",
            b"CG",
        ] {
            let s = Spine::build_from_bytes(a.clone(), t).unwrap();
            assert_eq!(s.verify(), vec![], "text {:?}", String::from_utf8_lossy(t));
        }
    }

    #[test]
    fn corrupted_link_is_caught() {
        let mut s = Spine::build_from_bytes(Alphabet::dna(), b"AACCACAACA").unwrap();
        s.nodes[8].lel = 1; // truth is 2
        assert!(!s.verify().is_empty());
    }

    #[test]
    fn corrupted_child_lists_are_caught() {
        let build = || Spine::build_from_bytes(Alphabet::dna(), b"AACCACAACA").unwrap();
        let mut s = build();
        // Node 9 links to 3; node 6 is its older sibling there.
        assert_eq!((s.nodes[3].first_child, s.nodes[9].next_sibling), (9, 6));
        s.nodes[9].next_sibling = NO_CHILD; // drops node 6 from the list
        assert!(s.verify().iter().any(|v| v.node == 6));
        let mut s = build();
        s.nodes[6].next_sibling = 9; // ascending sibling, and a cycle
        assert!(!s.verify().is_empty());
        let mut s = build();
        s.nodes[3].lel = 2; // its children 6 (LEL 2) and 4 (LEL 1) no longer rise
        assert!(s.verify().iter().any(|v| v.what.contains("not above own LEL")));
    }

    #[test]
    fn corrupted_rib_is_caught() {
        let mut s = Spine::build_from_bytes(Alphabet::dna(), b"AACCACAACA").unwrap();
        let rib = s.nodes[3].ribs[0];
        s.nodes[3].ribs[0].dest = rib.dest + 1;
        assert!(!s.verify().is_empty());
    }
}
