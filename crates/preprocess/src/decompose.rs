//! Decompose phase: factor the reliability across bridges (Lemma 5.1).
//!
//! Every bridge on a terminal path must exist for the terminals to connect
//! (Factoring Theorem with `R = 0` on the contracted branch), so
//! `R[G, T] = p_b · Π_i R[G_i, T_i]` where `p_b` multiplies the bridge
//! probabilities, the `G_i` are the bridge-free components, and `T_i` adds
//! the bridge endpoints to each side's terminals.

use crate::shared::GraphIndex;
use netrel_ugraph::steiner::steiner_subtree;
use netrel_ugraph::{Dsu, UncertainGraph, VertexId};

/// One decomposed component with its terminal set.
#[derive(Clone, Debug)]
pub struct Component {
    /// The component subgraph (densely renumbered).
    pub graph: UncertainGraph,
    /// Terminals within the subgraph (original terminals plus bridge
    /// endpoints), renumbered.
    pub terminals: Vec<VertexId>,
}

/// Result of the decompose phase.
#[derive(Clone, Debug)]
pub struct Decomposed {
    /// Product of the probabilities of all bridges between kept components.
    pub pb: f64,
    /// Components that still need a reliability computation (at least two
    /// terminals each); components whose terminal set collapsed to `≤ 1`
    /// vertex contribute factor 1 and are dropped.
    pub parts: Vec<Component>,
}

/// Run the decompose phase. Only *relevant* bridges — those on the minimal
/// Steiner subtree of the bridge forest spanning the terminals — are
/// factored into `p_b`; irrelevant bridges (e.g. pendant trees) stay inside
/// their component, where they cannot affect its reliability. This makes the
/// phase correct whether or not [`crate::prune`] ran first. Terminals must
/// all lie in one connected component of `g`.
pub fn decompose(g: &UncertainGraph, terminals: &[VertexId]) -> Decomposed {
    decompose_with_index(g, &GraphIndex::build(g), terminals)
}

/// [`decompose`] against a precomputed terminal-independent [`GraphIndex`]
/// of `g`; results are identical, only the shared structure passes are
/// skipped.
pub fn decompose_with_index(
    g: &UncertainGraph,
    index: &GraphIndex,
    terminals: &[VertexId],
) -> Decomposed {
    let node_terminal = index.terminal_marks(terminals);
    let st = steiner_subtree(&index.forest_adj, &node_terminal);
    // `steiner_subtree` reports kept forest edges by their labels, which
    // `GraphIndex::build` sets to the original bridge edge ids.
    let relevant_bridges: Vec<usize> = st.keep_edge.clone();

    let mut pb = 1.0f64;
    let mut cut_edge = vec![false; g.num_edges()];
    for &b in &relevant_bridges {
        pb *= g.prob(b);
        cut_edge[b] = true;
    }

    // Components of the graph minus the relevant bridges.
    let mut dsu = Dsu::new(g.num_vertices());
    for (id, e) in g.edges().iter().enumerate() {
        if !cut_edge[id] {
            dsu.union(e.u, e.v);
        }
    }

    // Required vertices per component: own terminals plus relevant-bridge
    // endpoints.
    let mut is_required = vec![false; g.num_vertices()];
    for &t in terminals {
        is_required[t] = true;
    }
    for &b in &relevant_bridges {
        let e = g.edge(b);
        is_required[e.u] = true;
        is_required[e.v] = true;
    }

    // Group component members by root.
    let root_of: Vec<usize> = (0..g.num_vertices()).map(|v| dsu.find(v)).collect();
    let mut roots: Vec<usize> = root_of.clone();
    roots.sort_unstable();
    roots.dedup();
    let mut parts = Vec::new();
    for &root in &roots {
        let keep: Vec<bool> = root_of.iter().map(|&r| r == root).collect();
        let required: Vec<VertexId> = (0..g.num_vertices())
            .filter(|&v| keep[v] && is_required[v])
            .collect();
        if required.len() <= 1 {
            continue; // factor 1
        }
        let (graph, map) = g.induced_subgraph(&keep);
        let comp_terminals: Vec<VertexId> = required
            .iter()
            .map(|&v| map[v].expect("kept vertex mapped"))
            .collect();
        parts.push(Component {
            graph,
            terminals: comp_terminals,
        });
    }
    Decomposed { pb, parts }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_bdd::brute_force_reliability;

    /// Triangle {0,1,2} — bridge (2,3) — triangle {3,4,5}.
    fn barbell() -> UncertainGraph {
        UncertainGraph::new(
            6,
            [
                (0, 1, 0.5),
                (1, 2, 0.6),
                (0, 2, 0.7),
                (2, 3, 0.8),
                (3, 4, 0.5),
                (4, 5, 0.6),
                (3, 5, 0.7),
            ],
        )
        .unwrap()
    }

    #[test]
    fn factors_across_bridge() {
        let g = barbell();
        let t = vec![0, 4];
        let d = decompose(&g, &t);
        assert!((d.pb - 0.8).abs() < 1e-12);
        assert_eq!(d.parts.len(), 2);
        let product: f64 = d
            .parts
            .iter()
            .map(|p| brute_force_reliability(&p.graph, &p.terminals))
            .product();
        let expect = brute_force_reliability(&g, &t);
        assert!((d.pb * product - expect).abs() < 1e-12);
    }

    #[test]
    fn bridge_endpoints_become_terminals() {
        let g = barbell();
        let d = decompose(&g, &[0, 4]);
        for p in &d.parts {
            // Each triangle holds one original terminal and one bridge
            // endpoint.
            assert_eq!(p.terminals.len(), 2);
            assert_eq!(p.graph.num_edges(), 3);
        }
    }

    #[test]
    fn no_bridges_single_part() {
        let g =
            UncertainGraph::new(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5)]).unwrap();
        let d = decompose(&g, &[0, 2]);
        assert_eq!(d.pb, 1.0);
        assert_eq!(d.parts.len(), 1);
        assert_eq!(d.parts[0].terminals.len(), 2);
    }

    #[test]
    fn pure_tree_collapses_to_pb() {
        // Path 0-1-2-3 with terminals at the ends: all edges are bridges,
        // singleton components contribute factor 1.
        let g = UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7)]).unwrap();
        let d = decompose(&g, &[0, 3]);
        assert!((d.pb - 0.9 * 0.8 * 0.7).abs() < 1e-12);
        assert!(d.parts.is_empty());
        let expect = brute_force_reliability(&g, &[0, 3]);
        assert!((d.pb - expect).abs() < 1e-12);
    }

    #[test]
    fn chain_of_cycles_factors_fully() {
        // Cycle(0,1,2) - bridge - cycle(3,4,5) - bridge - cycle(6,7,8),
        // terminals 0 and 7.
        let g = UncertainGraph::new(
            9,
            [
                (0, 1, 0.5),
                (1, 2, 0.5),
                (0, 2, 0.5),
                (2, 3, 0.9),
                (3, 4, 0.6),
                (4, 5, 0.6),
                (3, 5, 0.6),
                (5, 6, 0.8),
                (6, 7, 0.7),
                (7, 8, 0.7),
                (6, 8, 0.7),
            ],
        )
        .unwrap();
        let t = vec![0, 7];
        let d = decompose(&g, &t);
        assert_eq!(d.parts.len(), 3);
        assert!((d.pb - 0.9 * 0.8).abs() < 1e-12);
        let product: f64 = d
            .parts
            .iter()
            .map(|p| brute_force_reliability(&p.graph, &p.terminals))
            .product();
        let expect = brute_force_reliability(&g, &t);
        assert!((d.pb * product - expect).abs() < 1e-12);
    }
}
