//! Prune phase: drop vertices and edges that cannot affect reliability.
//!
//! Contract each 2-edge-connected component to a super vertex; bridges then
//! form a forest. The minimal Steiner subtree spanning the terminal-bearing
//! super vertices contains exactly the components and bridges that any
//! terminal-to-terminal path can use, so everything else is discarded
//! without changing `R[G, T]` (paper §5, Prune).

use crate::shared::GraphIndex;
use netrel_ugraph::steiner::steiner_subtree;
use netrel_ugraph::{EdgeId, UncertainGraph, VertexId};

/// Result of the prune phase.
#[derive(Clone, Debug)]
pub struct Pruned {
    /// The pruned graph (vertices renumbered densely).
    pub graph: UncertainGraph,
    /// Old → new vertex ids (`None` for pruned vertices).
    pub vertex_map: Vec<Option<VertexId>>,
    /// Terminals renumbered into the pruned graph.
    pub terminals: Vec<VertexId>,
    /// The bridges on the Steiner subtree as edge ids of the pruned graph,
    /// ascending. These are all of its bridges, and all of them are
    /// relevant, so decompose factors across exactly this list.
    pub bridges: Vec<EdgeId>,
    /// `true` when the terminals span multiple trees of the bridge forest —
    /// the reliability is identically zero.
    pub trivially_zero: bool,
}

/// Run the prune phase against the terminal-independent [`GraphIndex`] of
/// `g`; `terminals` must be valid for `g`. Only the `O(#components)` Steiner
/// step and the subgraph extraction are done here.
pub fn prune_with_index(g: &UncertainGraph, index: &GraphIndex, terminals: &[VertexId]) -> Pruned {
    let num_nodes = index.ecc.num_comps;
    let node_terminal = index.terminal_marks(terminals);

    // Steiner subtree over the contracted forest.
    let st = steiner_subtree(&index.forest_adj, &node_terminal);

    // Terminals in different trees stay in disjoint kept islands; detect by
    // checking that the kept terminal super-vertices form one connected
    // subtree (walk from one of them across kept forest edges).
    let kept_terminal_nodes: Vec<usize> = (0..num_nodes)
        .filter(|&c| st.keep_node[c] && node_terminal[c])
        .collect();
    let trivially_zero = if let Some(&start) = kept_terminal_nodes.first() {
        let mut seen = vec![false; num_nodes];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(v) = stack.pop() {
            for &(w, _) in &index.forest_adj[v] {
                if st.keep_node[w] && !seen[w] {
                    seen[w] = true;
                    stack.push(w);
                }
            }
        }
        kept_terminal_nodes.iter().any(|&c| !seen[c])
    } else {
        // No terminal-bearing super vertices: only possible with no terminals.
        false
    };

    // Keep a vertex iff its component's super vertex is kept; keep an edge
    // iff both endpoint components are kept (within a kept component all
    // edges stay; a bridge between two kept components lies on the subtree).
    let keep: Vec<bool> = (0..g.num_vertices())
        .map(|v| st.keep_node[index.ecc.comp[v]])
        .collect();
    let (graph, vertex_map) = g.induced_subgraph(&keep);
    let terminals: Vec<VertexId> = terminals
        .iter()
        .map(|&t| vertex_map[t].expect("terminal components are always kept"))
        .collect();
    // `induced_subgraph` keeps the edge order, so the bridges' new ids stay
    // ascending.
    let bridges = st
        .keep_edge
        .iter()
        .map(|&b| {
            let e = g.edge(b);
            let (u, v) = (vertex_map[e.u], vertex_map[e.v]);
            graph
                .neighbors(u.expect("a kept bridge's endpoints are kept"))
                .iter()
                .find(|&&(w, _)| Some(w) == v)
                .map(|&(_, id)| id)
                .expect("a kept bridge is an edge of the pruned graph")
        })
        .collect();
    Pruned {
        graph,
        vertex_map,
        terminals,
        bridges,
        trivially_zero,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_bdd::brute_force_reliability;

    /// Triangle {0,1,2} — bridge — triangle {3,4,5} — pendant path 5-6-7.
    fn lollipop() -> UncertainGraph {
        UncertainGraph::new(
            8,
            [
                (0, 1, 0.5),
                (1, 2, 0.6),
                (0, 2, 0.7),
                (2, 3, 0.8),
                (3, 4, 0.5),
                (4, 5, 0.6),
                (3, 5, 0.7),
                (5, 6, 0.9),
                (6, 7, 0.9),
            ],
        )
        .unwrap()
    }

    #[test]
    fn pendant_path_pruned() {
        let g = lollipop();
        let p = prune_with_index(&g, &GraphIndex::build(&g), &[0, 4]);
        assert!(!p.trivially_zero);
        // Vertices 6, 7 are unreachable-by-need: pruned.
        assert_eq!(p.graph.num_vertices(), 6);
        assert_eq!(p.graph.num_edges(), 7);
        assert_eq!(p.vertex_map[6], None);
        assert_eq!(p.vertex_map[7], None);
    }

    #[test]
    fn prune_preserves_reliability() {
        let g = lollipop();
        let idx = GraphIndex::build(&g);
        for t in [vec![0, 4], vec![1, 5], vec![0, 1, 2], vec![7, 0]] {
            let before = brute_force_reliability(&g, &t);
            let p = prune_with_index(&g, &idx, &t);
            let after = brute_force_reliability(&p.graph, &p.terminals);
            assert!(
                (before - after).abs() < 1e-12,
                "terminals {t:?}: {before} vs {after}"
            );
        }
    }

    #[test]
    fn terminal_inside_pendant_keeps_it() {
        let g = lollipop();
        let p = prune_with_index(&g, &GraphIndex::build(&g), &[0, 7]);
        // Nothing prunable except nothing — every vertex lies on the path.
        assert_eq!(p.graph.num_vertices(), 8);
    }

    #[test]
    fn terminals_in_disconnected_components_flagged_zero() {
        let g = UncertainGraph::new(4, [(0, 1, 0.5), (2, 3, 0.5)]).unwrap();
        let p = prune_with_index(&g, &GraphIndex::build(&g), &[0, 2]);
        assert!(p.trivially_zero);
    }

    #[test]
    fn all_terminals_same_component_not_zero() {
        let g = UncertainGraph::new(4, [(0, 1, 0.5), (2, 3, 0.5)]).unwrap();
        let p = prune_with_index(&g, &GraphIndex::build(&g), &[2, 3]);
        assert!(!p.trivially_zero);
        assert_eq!(p.graph.num_vertices(), 2);
    }

    #[test]
    fn single_terminal_prunes_to_point() {
        let g = lollipop();
        let p = prune_with_index(&g, &GraphIndex::build(&g), &[6]);
        assert!(!p.trivially_zero);
        assert_eq!(p.terminals.len(), 1);
    }
}
