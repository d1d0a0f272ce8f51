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
//!
//! # Schedule
//!
//! The rules run in sweeps until a sweep applies none. A sweep visits the
//! vertices in ascending id, applying the loop rule and then the dangling or
//! series rule at each; then the parallel rule folds each endpoint pair's
//! live edges in ascending edge id. Which products and merges happen, on
//! which operands and under which new edge ids, follows from that order, so
//! the output is fixed by it bit for bit. A sweep does work only where a
//! rule can fire:
//!
//! * It visits only the vertices that an added or removed edge touched since
//!   their last visit. After a visit a vertex has no self-loop, and a
//!   non-terminal has neither degree 2 nor, under the dangling rule,
//!   degree 1, so an untouched vertex cannot fire. A vertex touched ahead of
//!   the cursor is visited later in the same sweep, one touched behind it in
//!   the next: exactly the visits of a full sweep that can fire.
//! * The parallel rule folds only the pairs that gained a series edge in the
//!   sweep. Before a sweep no pair has two live edges (the input is simple
//!   and the previous fold merged every pair), and only the series rule adds
//!   edges, so no other pair can merge. Folding the candidates' edges
//!   together in ascending id gives the merged edges the ids a fold over
//!   every live edge would.

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

/// Probability of the series edge replacing edges `p1` and `p2`. A product
/// that underflows to 0 is floored at `f64::MIN_POSITIVE`, as a parallel
/// merge is, since an edge must keep a probability in `(0, 1]`.
fn series_p(p1: f64, p2: f64) -> f64 {
    let p = p1 * p2;
    if p == 0.0 {
        f64::MIN_POSITIVE
    } else {
        p
    }
}

/// Probability of the edge merging parallel edges `p0` and `p`.
fn parallel_p(p0: f64, p: f64) -> f64 {
    (1.0 - (1.0 - p0) * (1.0 - p)).clamp(f64::MIN_POSITIVE, 1.0)
}

/// The multigraph under reduction, with the vertices a rule may fire at.
struct Reduction {
    mg: MultiGraph,
    /// An edge at the vertex was added or removed since its last visit.
    touched: Vec<bool>,
    rules_applied: usize,
}

impl Reduction {
    /// Remove a live edge, touching its endpoints; returns its probability.
    fn remove(&mut self, id: usize) -> f64 {
        let e = self.mg.remove_edge(id).expect("rules remove live edges");
        self.touched[e.u] = true;
        self.touched[e.v] = true;
        e.p
    }

    /// Add an edge, touching its endpoints; returns its id.
    fn add(&mut self, u: VertexId, v: VertexId, p: f64) -> usize {
        self.touched[u] = true;
        self.touched[v] = true;
        self.mg.add_edge(u, v, p)
    }
}

/// Run series/parallel/loop (and optionally dangling) reductions to fixpoint.
pub fn transform(g: &UncertainGraph, terminals: &[VertexId], prune_dangling: bool) -> Transformed {
    let n = g.num_vertices();
    let mut is_terminal = vec![false; n];
    for &t in terminals {
        is_terminal[t] = true;
    }
    let mut r = Reduction {
        mg: MultiGraph::from_uncertain(g),
        touched: vec![true; n],
        rules_applied: 0,
    };
    // Buffers reused across sweeps: one vertex's incident edges, the series
    // edges added this sweep, and the parallel rule's candidate pairs and
    // their `(edge id, pair)` folds.
    let mut incident = Vec::new();
    let mut series = Vec::new();
    let mut pairs = Vec::new();
    let mut folds = Vec::new();

    loop {
        let before = r.rules_applied;
        for (v, &terminal) in is_terminal.iter().enumerate() {
            if !r.touched[v] {
                continue;
            }
            r.mg.incident_into(v, &mut incident);
            // Loop rule: delete self-loops at v.
            incident.retain(|&(id, other)| {
                if other == v {
                    r.remove(id);
                    r.rules_applied += 1;
                }
                other != v
            });
            if !terminal {
                match incident[..] {
                    [(e, _)] if prune_dangling => {
                        // Dangling rule: dead-end edge cannot serve any terminal.
                        r.remove(e);
                        r.rules_applied += 1;
                    }
                    [(e1, x), (e2, y)] => {
                        // Series rule: contract v. x == y creates a self-loop,
                        // removed when x is next visited.
                        let p1 = r.remove(e1);
                        let p2 = r.remove(e2);
                        series.push(r.add(x, y, series_p(p1, p2)));
                        r.rules_applied += 1;
                    }
                    _ => {}
                }
            }
            // Whatever the visit did, v itself cannot fire again until an
            // edge at it changes.
            r.touched[v] = false;
        }

        // Parallel rule: the pairs whose series edge survived the sweep.
        pairs.clear();
        for &id in &series {
            if let Some(e) = r.mg.edge(id) {
                if e.u != e.v {
                    pairs.push((e.u.min(e.v), e.u.max(e.v), None));
                }
            }
        }
        series.clear();
        pairs.sort_unstable();
        pairs.dedup();
        folds.clear();
        for (k, &(a, b, _)) in pairs.iter().enumerate() {
            r.mg.incident_into(a, &mut incident);
            folds.extend(
                incident
                    .iter()
                    .filter(|&&(_, other)| other == b)
                    .map(|&(id, _)| (id, k)),
            );
        }
        folds.sort_unstable();
        for &(id, k) in &folds {
            let (a, b, slot) = pairs[k];
            pairs[k].2 = Some(match slot {
                None => id,
                Some(keep) => {
                    let p0 = r.remove(keep);
                    let p = r.remove(id);
                    r.rules_applied += 1;
                    r.add(a, b, parallel_p(p0, p))
                }
            });
        }

        if r.rules_applied == before {
            break;
        }
    }

    let (graph, map) = r.mg.to_uncertain().expect("fixpoint graph is simple");
    // Terminals with no remaining edges were dropped by `to_uncertain`; they
    // can only disappear if they became isolated, which for a valid
    // decomposition component cannot happen to a terminal that still needs
    // connecting. Map the survivors.
    let terminals: Vec<VertexId> = terminals.iter().filter_map(|&t| map[t]).collect();
    Transformed {
        graph,
        terminals,
        rules_applied: r.rules_applied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_bdd::brute_force_reliability;
    use proptest::prelude::*;
    use std::collections::hash_map::Entry;
    use std::collections::HashMap;

    /// The schedule without the touched-vertex and candidate-pair shortcuts:
    /// every sweep visits every vertex, and the parallel rule folds every
    /// live edge through a pair map. Returns the result and how often each
    /// rule fired, as `[series, parallel, loop, dangling]`.
    fn full_sweep_transform(
        g: &UncertainGraph,
        terminals: &[VertexId],
        prune_dangling: bool,
    ) -> (Transformed, [usize; 4]) {
        let mut is_terminal = vec![false; g.num_vertices()];
        for &t in terminals {
            is_terminal[t] = true;
        }
        let mut mg = MultiGraph::from_uncertain(g);
        let mut fired = [0usize; 4];
        let mut incident = Vec::new();
        loop {
            let before = fired;
            for (v, &terminal) in is_terminal.iter().enumerate() {
                mg.incident_into(v, &mut incident);
                for &(id, other) in &incident {
                    if other == v {
                        mg.remove_edge(id);
                        fired[2] += 1;
                    }
                }
                if terminal {
                    continue;
                }
                mg.incident_into(v, &mut incident);
                match incident.len() {
                    1 if prune_dangling => {
                        mg.remove_edge(incident[0].0);
                        fired[3] += 1;
                    }
                    2 => {
                        let (e1, x) = incident[0];
                        let (e2, y) = incident[1];
                        let p1 = mg.remove_edge(e1).unwrap().p;
                        let p2 = mg.remove_edge(e2).unwrap().p;
                        mg.add_edge(x, y, series_p(p1, p2));
                        fired[0] += 1;
                    }
                    _ => {}
                }
            }
            let mut by_pair = HashMap::new();
            let live: Vec<(usize, usize, usize, f64)> = mg
                .live_edges()
                .map(|(id, e)| (id, e.u.min(e.v), e.u.max(e.v), e.p))
                .collect();
            for (id, a, b, p) in live {
                if a == b {
                    continue;
                }
                match by_pair.entry((a, b)) {
                    Entry::Vacant(slot) => {
                        slot.insert(id);
                    }
                    Entry::Occupied(mut slot) => {
                        let p0 = mg.remove_edge(*slot.get()).unwrap().p;
                        mg.remove_edge(id);
                        slot.insert(mg.add_edge(a, b, parallel_p(p0, p)));
                        fired[1] += 1;
                    }
                }
            }
            if fired == before {
                break;
            }
        }
        let (graph, map) = mg.to_uncertain().unwrap();
        let terminals = terminals.iter().filter_map(|&t| map[t]).collect();
        let rules_applied = fired.iter().sum();
        let tr = Transformed {
            graph,
            terminals,
            rules_applied,
        };
        (tr, fired)
    }

    /// Everything of a transform result that a solver reads, `p` as bits.
    type Bits = (usize, Vec<(usize, usize, u64)>, Vec<VertexId>, usize);

    fn bits(tr: &Transformed) -> Bits {
        let edges = tr.graph.edges().iter().map(|e| (e.u, e.v, e.p.to_bits()));
        (
            tr.graph.num_vertices(),
            edges.collect(),
            tr.terminals.clone(),
            tr.rules_applied,
        )
    }

    /// A graph on which all four rules fire, and the ids of its hubs:
    /// `hubs` hub vertices, then per `(a, b, len, p)` chain `len` fresh
    /// vertices on a path from hub `a` to hub `b` (two chains between one
    /// pair contract to parallel edges, a chain from a hub back to itself to
    /// a self-loop), per `(a, len, p)` pendant a dead-end path of `len`
    /// fresh vertices from hub `a`, and the `extra` edges between any two
    /// vertices. Vertex ids are shuffled by `keys` so that rules touch
    /// vertices on both sides of the sweep cursor. Self-loops and repeated
    /// pairs are skipped.
    fn chain_graph(
        hubs: usize,
        chains: &[(usize, usize, usize, f64)],
        pendants: &[(usize, usize, f64)],
        extra: &[(usize, usize, f64)],
        keys: &[u64],
    ) -> (UncertainGraph, Vec<VertexId>) {
        let mut n = hubs;
        let mut edges = Vec::new();
        let mut path = |from: usize, len: usize, to: Option<usize>, p: f64| {
            let mut at = from;
            for i in 0..len {
                edges.push((at, n, p * (1.0 - 0.01 * i as f64)));
                at = n;
                n += 1;
            }
            if let Some(to) = to {
                edges.push((at, to, p));
            }
        };
        for &(a, b, len, p) in chains {
            path(a % hubs, len, Some(b % hubs), p);
        }
        for &(a, len, p) in pendants {
            path(a % hubs, len, None, p);
        }
        for &(u, v, p) in extra {
            edges.push((u % n, v % n, p));
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| (keys[v], v));
        let mut id = vec![0; n];
        for (new, &old) in order.iter().enumerate() {
            id[old] = new;
        }
        let mut seen = std::collections::HashSet::new();
        let edges: Vec<_> = edges
            .into_iter()
            .map(|(u, v, p)| (id[u], id[v], p))
            .filter(|&(u, v, _)| u != v && seen.insert((u.min(v), u.max(v))))
            .collect();
        (UncertainGraph::new(n, edges).unwrap(), id[..hubs].to_vec())
    }

    #[test]
    fn every_rule_fires_on_the_chain_fixture_and_matches_the_full_sweep() {
        // Hubs 0 and 1 as terminals: two chains between them (series, then
        // parallel), a triangle through hub 2 (series into a self-loop), a
        // pendant (dangling), and hub 2 joined to hub 1.
        let keys: Vec<u64> = (0..16).map(|v| (v * 7 + 3) % 16).collect();
        let (g, hubs) = chain_graph(
            3,
            &[
                (0, 1, 2, 0.6),
                (0, 1, 1, 0.7),
                (2, 2, 2, 0.8),
                (1, 2, 0, 0.9),
            ],
            &[(2, 2, 0.5)],
            &[],
            &keys,
        );
        for dangling in [true, false] {
            let (want, fired) = full_sweep_transform(&g, &hubs[..2], dangling);
            assert_eq!(bits(&transform(&g, &hubs[..2], dangling)), bits(&want));
            assert!(fired[..3].iter().all(|&f| f > 0), "{fired:?}");
            assert_eq!(fired[3] > 0, dangling, "{fired:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// The touched-vertex schedule applies the same rules, in the same
        /// order, to the same operands as a full sweep: bit-identical edges,
        /// terminals and rule count.
        #[test]
        fn schedule_matches_the_full_sweep(
            hubs in 2usize..6,
            chains in proptest::collection::vec((0usize..6, 0usize..6, 0usize..4, 0.05f64..1.0), 1..10),
            pendants in proptest::collection::vec((0usize..6, 1usize..3, 0.05f64..1.0), 0..3),
            extra in proptest::collection::vec((0usize..64, 0usize..64, 0.05f64..1.0), 0..4),
            keys in proptest::collection::vec(0u64..1 << 32, 64..65),
            hub_terminals in 0usize..4,
            picks in proptest::collection::vec(0usize..64, 0..3),
            dangling in 0u8..2,
        ) {
            let (g, hub_ids) = chain_graph(hubs, &chains, &pendants, &extra, &keys);
            let mut t: Vec<VertexId> = hub_ids.into_iter().take(hub_terminals).collect();
            t.extend(picks.iter().map(|&v| v % g.num_vertices()));
            t.sort_unstable();
            t.dedup();
            let dangling = dangling == 1;
            let (want, _) = full_sweep_transform(&g, &t, dangling);
            prop_assert_eq!(bits(&transform(&g, &t, dangling)), bits(&want));
        }
    }

    #[test]
    fn underflowing_series_product_is_floored() {
        // Series at 1 multiplies 1e-200 by 1e-200, which underflows to 0.
        let g = UncertainGraph::new(
            4,
            [(0, 1, 1e-200), (1, 2, 1e-200), (2, 3, 0.5), (3, 0, 0.5)],
        )
        .unwrap();
        let tr = transform(&g, &[0, 2], true);
        assert_eq!(tr.graph.num_edges(), 1);
        assert_eq!(tr.graph.prob(0), 0.25);
    }

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
