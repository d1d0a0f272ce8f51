//! Bridges via an iterative Tarjan lowlink DFS.
//!
//! The recursion is made explicit because road-network datasets contain DFS
//! paths hundreds of thousands of vertices deep.

use crate::graph::{UncertainGraph, VertexId};

/// Bridges of a graph (paper Definition 3).
#[derive(Clone, Debug)]
pub struct CutStructure {
    /// `is_bridge[e]` — removing edge `e` disconnects its endpoints.
    pub is_bridge: Vec<bool>,
}

/// Compute bridges in `O(|V| + |E|)`.
pub fn cut_structure(g: &UncertainGraph) -> CutStructure {
    let n = g.num_vertices();
    let mut disc = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut is_bridge = vec![false; g.num_edges()];
    let mut timer = 0u32;
    // Frame: (vertex, parent edge id or usize::MAX, next adjacency index).
    let mut stack: Vec<(VertexId, usize, usize)> = Vec::new();

    for root in 0..n {
        if disc[root] != u32::MAX {
            continue;
        }
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        stack.push((root, usize::MAX, 0));
        while let Some(top) = stack.last_mut() {
            let (v, pe, i) = (top.0, top.1, top.2);
            if i < g.degree(v) {
                top.2 += 1;
                let (w, eid) = g.neighbors(v)[i];
                if eid == pe {
                    continue; // don't walk back over the tree edge itself
                }
                if disc[w] == u32::MAX {
                    disc[w] = timer;
                    low[w] = timer;
                    timer += 1;
                    stack.push((w, eid, 0));
                } else {
                    low[v] = low[v].min(disc[w]);
                }
            } else {
                stack.pop();
                if let Some(parent) = stack.last() {
                    let u = parent.0;
                    low[u] = low[u].min(low[v]);
                    if low[v] > disc[u] {
                        is_bridge[pe] = true;
                    }
                }
            }
        }
    }

    CutStructure { is_bridge }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::connected_components;
    use proptest::prelude::*;

    /// Oracle: e is a bridge iff deleting it splits the component count.
    fn bridge_oracle(g: &UncertainGraph) -> Vec<bool> {
        let (_, base) = connected_components(g);
        (0..g.num_edges())
            .map(|skip| {
                let edge_list: Vec<_> = g
                    .edges()
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .map(|(_, e)| (e.u, e.v, e.p))
                    .collect();
                let h = UncertainGraph::new(g.num_vertices(), edge_list).unwrap();
                let (_, k) = connected_components(&h);
                k > base
            })
            .collect()
    }

    fn path_graph(n: usize) -> UncertainGraph {
        UncertainGraph::new(n, (0..n - 1).map(|i| (i, i + 1, 0.5))).unwrap()
    }

    #[test]
    fn path_all_bridges() {
        let g = path_graph(5);
        let cs = cut_structure(&g);
        assert_eq!(cs.is_bridge, vec![true; 4]);
    }

    #[test]
    fn cycle_no_bridges() {
        let g =
            UncertainGraph::new(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5)]).unwrap();
        let cs = cut_structure(&g);
        assert_eq!(cs.is_bridge, vec![false; 4]);
    }

    #[test]
    fn barbell() {
        // Two triangles joined by one bridge (2-5).
        let g = UncertainGraph::new(
            6,
            [
                (0, 1, 0.5),
                (1, 2, 0.5),
                (0, 2, 0.5),
                (3, 4, 0.5),
                (4, 5, 0.5),
                (3, 5, 0.5),
                (2, 5, 0.9),
            ],
        )
        .unwrap();
        let cs = cut_structure(&g);
        assert_eq!(
            cs.is_bridge,
            vec![false, false, false, false, false, false, true]
        );
    }

    #[test]
    fn disconnected_graph_handled() {
        let g = UncertainGraph::new(5, [(0, 1, 0.5), (2, 3, 0.5), (3, 4, 0.5)]).unwrap();
        let cs = cut_structure(&g);
        assert_eq!(cs.is_bridge, vec![true; 3]);
    }

    #[test]
    fn deep_path_no_stack_overflow() {
        let g = path_graph(200_000);
        let cs = cut_structure(&g);
        assert_eq!(cs.is_bridge.iter().filter(|&&b| b).count(), 199_999);
    }

    proptest! {
        #[test]
        fn matches_oracles(edges in proptest::collection::vec((0usize..8, 0usize..8), 1..16)) {
            let mut seen = std::collections::HashSet::new();
            let list: Vec<(usize, usize, f64)> = edges
                .into_iter()
                .filter_map(|(u, v)| {
                    if u == v { return None; }
                    let key = (u.min(v), u.max(v));
                    if seen.insert(key) { Some((key.0, key.1, 0.5)) } else { None }
                })
                .collect();
            prop_assume!(!list.is_empty());
            let g = UncertainGraph::new(8, list).unwrap();
            let cs = cut_structure(&g);
            prop_assert_eq!(&cs.is_bridge, &bridge_oracle(&g));
        }
    }
}
