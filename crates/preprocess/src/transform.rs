//! Transform phase: series / parallel / loop reductions (paper §5,
//! Algorithm 3 lines 8–22), plus an optional dangling-vertex rule.
//!
//! * **Series**: a non-terminal vertex `v` of degree 2 with edges `(v, x)`
//!   and `(v, y)` is contracted into a single edge `(x, y)` with probability
//!   `p · p′` (both must exist for a path through `v`).
//! * **Parallel**: edges `e, e′` between the same endpoints merge into one
//!   with probability `1 − (1 − p)(1 − p′)` (either suffices).
//! * **Loop**: self-loops never affect connectivity; deleted.
//! * **Dangling** *(addition, exactness-preserving, ablatable)*: a
//!   non-terminal vertex of degree 1 is a dead end; its edge is deleted.
//!
//! Rules run to a fixpoint; each application strictly reduces the edge
//! count, so termination is immediate.

use netrel_ugraph::{MultiGraph, UncertainGraph, VertexId};

/// Result of the transform phase.
#[derive(Clone, Debug)]
pub struct Transformed {
    /// The reduced graph (isolated vertices dropped, renumbered).
    pub graph: UncertainGraph,
    /// Terminals renumbered into the reduced graph.
    pub terminals: Vec<VertexId>,
    /// Number of rule applications (series + parallel + loop + dangling).
    pub rules_applied: usize,
}

/// Run series/parallel/loop (and optionally dangling) reductions to fixpoint.
pub fn transform(g: &UncertainGraph, terminals: &[VertexId], prune_dangling: bool) -> Transformed {
    let mut is_terminal = vec![false; g.num_vertices()];
    for &t in terminals {
        is_terminal[t] = true;
    }
    let mut mg = MultiGraph::from_uncertain(g);
    let mut rules_applied = 0usize;

    loop {
        let mut changed = false;

        #[expect(
            clippy::needless_range_loop,
            reason = "the body mutates `mg`'s edge set while walking its fixed-count vertices"
        )]
        for v in 0..mg.num_vertices() {
            // Loop rule: delete self-loops at v.
            let incident = mg.incident(v);
            for &(id, other) in &incident {
                if other == v {
                    mg.remove_edge(id);
                    rules_applied += 1;
                    changed = true;
                }
            }

            if is_terminal[v] {
                continue;
            }
            let incident = mg.incident(v);
            match incident.len() {
                1 if prune_dangling => {
                    // Dangling rule: dead-end edge cannot serve any terminal.
                    mg.remove_edge(incident[0].0);
                    rules_applied += 1;
                    changed = true;
                }
                2 => {
                    // Series rule: contract v.
                    let (e1, x) = incident[0];
                    let (e2, y) = incident[1];
                    let p1 = mg.edge(e1).expect("incident edge alive").p;
                    let p2 = mg.edge(e2).expect("incident edge alive").p;
                    mg.remove_edge(e1);
                    mg.remove_edge(e2);
                    // x == y creates a self-loop, removed on a later sweep.
                    mg.add_edge(x, y, p1 * p2);
                    rules_applied += 1;
                    changed = true;
                }
                _ => {}
            }
        }

        // Parallel rule: merge duplicate endpoint pairs.
        let mut by_pair: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        let live: Vec<(usize, usize, usize, f64)> = mg
            .live_edges()
            .map(|(id, e)| (id, e.u.min(e.v), e.u.max(e.v), e.p))
            .collect();
        for (id, a, b, p) in live {
            if a == b {
                continue; // loop; handled next sweep
            }
            match by_pair.entry((a, b)) {
                std::collections::hash_map::Entry::Vacant(slot) => {
                    slot.insert(id);
                }
                std::collections::hash_map::Entry::Occupied(mut slot) => {
                    let keep = *slot.get();
                    let p0 = mg.edge(keep).expect("kept edge alive").p;
                    mg.remove_edge(keep);
                    mg.remove_edge(id);
                    let merged = 1.0 - (1.0 - p0) * (1.0 - p);
                    let new_id = mg.add_edge(a, b, merged.clamp(f64::MIN_POSITIVE, 1.0));
                    slot.insert(new_id);
                    rules_applied += 1;
                    changed = true;
                }
            }
        }

        if !changed {
            break;
        }
    }

    let (graph, map) = mg.to_uncertain().expect("fixpoint graph is simple");
    // Terminals with no remaining edges were dropped by `to_uncertain`; they
    // can only disappear if they became isolated, which for a valid
    // decomposition component cannot happen to a terminal that still needs
    // connecting. Map the survivors.
    let terminals: Vec<VertexId> = terminals.iter().filter_map(|&t| map[t]).collect();
    Transformed {
        graph,
        terminals,
        rules_applied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_bdd::brute_force_reliability;

    fn check_preserves(g: &UncertainGraph, t: &[usize]) {
        let before = brute_force_reliability(g, t);
        let tr = transform(g, t, true);
        let after = if tr.terminals.len() <= 1 {
            // A transform that isolates a terminal means the instance was
            // trivial; brute force on the reduced graph would be vacuous.
            1.0
        } else {
            brute_force_reliability(&tr.graph, &tr.terminals)
        };
        assert!(
            (before - after).abs() < 1e-12,
            "terminals {t:?}: before {before} after {after}"
        );
    }

    #[test]
    fn series_contraction() {
        // 0 -0.5- 1 -0.8- 2, terminals {0, 2}: one edge at 0.4.
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.8)]).unwrap();
        let tr = transform(&g, &[0, 2], true);
        assert_eq!(tr.graph.num_edges(), 1);
        assert!((tr.graph.prob(0) - 0.4).abs() < 1e-12);
        check_preserves(&g, &[0, 2]);
    }

    #[test]
    fn series_skips_terminals() {
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.8)]).unwrap();
        let tr = transform(&g, &[0, 1, 2], true);
        assert_eq!(
            tr.graph.num_edges(),
            2,
            "terminal vertex 1 must not contract"
        );
    }

    #[test]
    fn cycle_through_nonterminals_collapses() {
        // Square 0-1-2-3-0, terminals {0, 2}: two parallel series pairs →
        // single edge with 1-(1-p²)².
        let p = 0.6f64;
        let g = UncertainGraph::new(4, [(0, 1, p), (1, 2, p), (2, 3, p), (3, 0, p)]).unwrap();
        let tr = transform(&g, &[0, 2], true);
        assert_eq!(tr.graph.num_vertices(), 2);
        assert_eq!(tr.graph.num_edges(), 1);
        let expect = 1.0 - (1.0 - p * p) * (1.0 - p * p);
        assert!((tr.graph.prob(0) - expect).abs() < 1e-12);
        check_preserves(&g, &[0, 2]);
    }

    #[test]
    fn dangling_removed_when_enabled() {
        let g = UncertainGraph::new(4, [(0, 1, 0.5), (1, 2, 0.5), (1, 3, 0.9)]).unwrap();
        let with = transform(&g, &[0, 2], true);
        assert_eq!(
            with.graph.num_edges(),
            1,
            "pendant 3 and then series 1 collapse"
        );
        let without = transform(&g, &[0, 2], false);
        assert_eq!(
            without.graph.num_edges(),
            3,
            "paper rules alone keep the pendant"
        );
        check_preserves(&g, &[0, 2]);
    }

    #[test]
    fn preserves_reliability_on_fixtures() {
        let g = UncertainGraph::new(
            6,
            [
                (0, 1, 0.5),
                (1, 2, 0.6),
                (2, 3, 0.7),
                (3, 4, 0.8),
                (4, 5, 0.9),
                (5, 0, 0.4),
                (1, 4, 0.3),
            ],
        )
        .unwrap();
        check_preserves(&g, &[0, 3]);
        check_preserves(&g, &[0, 2, 4]);
        check_preserves(&g, &[1, 5]);
    }

    #[test]
    fn rules_applied_counted() {
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.8)]).unwrap();
        let tr = transform(&g, &[0, 2], true);
        assert!(tr.rules_applied >= 1);
        // Fixpoint: applying again changes nothing.
        let tr2 = transform(&tr.graph, &tr.terminals, true);
        assert_eq!(tr2.rules_applied, 0);
    }
}
