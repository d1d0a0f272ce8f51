//! 2-edge-connected components.
//!
//! The preprocessing extension (paper §5) contracts every 2-edge-connected
//! component to a super vertex; the bridges then form a forest over the super
//! vertices (a tree when the input is connected), on which the minimal
//! Steiner subtree identifies the vertices and edges relevant to reliability.
//! This module labels the components; `netrel-preprocess`'s `GraphIndex`
//! builds the contracted forest from these labels and the bridge flags.

use crate::bridges::CutStructure;
use crate::graph::UncertainGraph;

/// 2-edge-connected component labelling.
#[derive(Clone, Debug)]
pub struct TwoEcc {
    /// `comp[v]` — the 2ECC id of vertex `v` (dense `0..num_comps`).
    pub comp: Vec<usize>,
    /// Number of 2ECCs.
    pub num_comps: usize,
}

/// Label 2-edge-connected components: connected components of the graph with
/// all bridges removed.
pub fn two_edge_connected_components(g: &UncertainGraph, cut: &CutStructure) -> TwoEcc {
    let n = g.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut next = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for s in 0..n {
        if comp[s] != usize::MAX {
            continue;
        }
        comp[s] = next;
        queue.push_back(s);
        while let Some(v) = queue.pop_front() {
            for &(w, eid) in g.neighbors(v) {
                if !cut.is_bridge[eid] && comp[w] == usize::MAX {
                    comp[w] = next;
                    queue.push_back(w);
                }
            }
        }
        next += 1;
    }
    TwoEcc {
        comp,
        num_comps: next,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bridges::cut_structure;

    /// Two triangles joined by a bridge, plus a pendant path.
    ///   0-1-2 triangle — bridge (2,3) — 3-4-5 triangle — pendant 5-6-7
    fn lollipop() -> UncertainGraph {
        UncertainGraph::new(
            8,
            [
                (0, 1, 0.5),
                (1, 2, 0.5),
                (0, 2, 0.5),
                (2, 3, 0.5),
                (3, 4, 0.5),
                (4, 5, 0.5),
                (3, 5, 0.5),
                (5, 6, 0.5),
                (6, 7, 0.5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn labels_components() {
        let g = lollipop();
        let cut = cut_structure(&g);
        let ecc = two_edge_connected_components(&g, &cut);
        // Components: {0,1,2}, {3,4,5}, {6}, {7}.
        assert_eq!(ecc.num_comps, 4);
        assert_eq!(ecc.comp[0], ecc.comp[1]);
        assert_eq!(ecc.comp[1], ecc.comp[2]);
        assert_eq!(ecc.comp[3], ecc.comp[4]);
        assert_eq!(ecc.comp[4], ecc.comp[5]);
        assert_ne!(ecc.comp[0], ecc.comp[3]);
        assert_ne!(ecc.comp[5], ecc.comp[6]);
        assert_ne!(ecc.comp[6], ecc.comp[7]);
    }
}
