//! Terminal-independent preprocessing structure, shared across queries.
//!
//! The prune and decompose phases both start from the same facts about the
//! *graph alone*: which edges are bridges, the 2-edge-connected-component
//! labelling, and the contracted bridge forest those induce. None of that
//! depends on the terminal set — only the Steiner subtree taken over the
//! forest does. [`GraphIndex`] captures the terminal-independent part once so
//! a multi-query workload (thousands of terminal sets against one graph) can
//! amortize the `O(|V| + |E|)` structure passes and pay only the
//! terminal-dependent `O(#components)` work per query.

use netrel_ugraph::bridges::{cut_structure, CutStructure};
use netrel_ugraph::twoecc::{two_edge_connected_components, TwoEcc};
use netrel_ugraph::{EdgeId, UncertainGraph, VertexId};

/// Terminal-independent preprocessing structure of one uncertain graph.
///
/// Build it once per graph with [`GraphIndex::build`], then answer any number
/// of terminal sets through [`crate::preprocess_with_index`] (or the
/// lower-level [`crate::prune::prune_with_index`] /
/// [`crate::decompose::decompose_with_index`]). The index borrows nothing:
/// it can be stored next to the graph for the lifetime of a service.
#[derive(Clone, Debug)]
pub struct GraphIndex {
    /// Bridge flags of the graph, by edge id.
    pub cut: CutStructure,
    /// 2-edge-connected-component labelling.
    pub ecc: TwoEcc,
    /// Adjacency of the contracted bridge forest: for each super vertex
    /// (2ECC), `(neighbor super vertex, bridge edge id)` pairs in ascending
    /// bridge id. This is the terminal-independent half of the forest; the
    /// per-query half, which super vertices contain terminals, is
    /// [`GraphIndex::terminal_marks`].
    pub forest_adj: Vec<Vec<(usize, EdgeId)>>,
}

impl GraphIndex {
    /// Compute the shared structure of `g` in `O(|V| + |E|)`.
    pub fn build(g: &UncertainGraph) -> Self {
        let cut = cut_structure(g);
        let ecc = two_edge_connected_components(g, &cut);
        let mut forest_adj = vec![Vec::new(); ecc.num_comps];
        for eid in (0..g.num_edges()).filter(|&e| cut.is_bridge[e]) {
            let e = g.edge(eid);
            let (a, b) = (ecc.comp[e.u], ecc.comp[e.v]);
            debug_assert_ne!(a, b, "a bridge cannot be internal to a 2ECC");
            forest_adj[a].push((b, eid));
            forest_adj[b].push((a, eid));
        }
        GraphIndex {
            cut,
            ecc,
            forest_adj,
        }
    }

    /// The per-query half of the bridge forest: mark which super vertices
    /// contain at least one of `terminals`.
    pub fn terminal_marks(&self, terminals: &[VertexId]) -> Vec<bool> {
        let mut node_terminal = vec![false; self.ecc.num_comps];
        for &t in terminals {
            node_terminal[self.ecc.comp[t]] = true;
        }
        node_terminal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle {0,1,2} — bridge — triangle {3,4,5} — pendant 5-6-7.
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
    fn forest_structure() {
        let idx = GraphIndex::build(&lollipop());
        // Super vertices {0,1,2}, {3,4,5}, {6}, {7}, numbered by first
        // vertex; the three bridges 2-3, 5-6 and 6-7 make a path over them.
        assert_eq!(idx.ecc.num_comps, 4);
        assert_eq!(
            idx.forest_adj,
            vec![
                vec![(1, 3)],
                vec![(0, 3), (2, 7)],
                vec![(1, 7), (3, 8)],
                vec![(2, 8)],
            ]
        );
        assert_eq!(idx.terminal_marks(&[0, 4]), vec![true, true, false, false]);
    }

    #[test]
    fn single_2ecc_graph() {
        let g =
            UncertainGraph::new(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5)]).unwrap();
        let idx = GraphIndex::build(&g);
        assert_eq!(idx.ecc.num_comps, 1);
        assert_eq!(idx.forest_adj, vec![Vec::new()]);
        assert_eq!(idx.terminal_marks(&[1]), vec![true]);
    }

    #[test]
    fn index_is_terminal_free() {
        // Building the index never looks at terminals: two builds agree.
        let g = lollipop();
        let a = GraphIndex::build(&g);
        let b = GraphIndex::build(&g);
        assert_eq!(a.forest_adj, b.forest_adj);
        assert_eq!(a.ecc.comp, b.ecc.comp);
        assert_eq!(a.cut.is_bridge, b.cut.is_bridge);
    }
}
