//! Edge orderings and frontier planning for frontier-based BDD construction.
//!
//! The width of a frontier-based BDD is governed by the edge processing
//! order: a vertex occupies the frontier from the first to the last layer
//! that touches it, so orders with good locality (BFS) keep the frontier —
//! and therefore the diagram — small. The ordering choice is benchmarked as
//! an ablation (`ablation_ordering`).

use crate::graph::{EdgeId, UncertainGraph, VertexId};

/// Edge processing order strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum EdgeOrder {
    /// Edge-id (insertion) order.
    Input,
    /// Breadth-first order from a start vertex (good on road networks and
    /// other low-bandwidth graphs).
    #[default]
    Bfs,
    /// Depth-first order from a start vertex.
    Dfs,
}

/// Compute an edge processing order. `start` seeds the traversal orders; the
/// first terminal is the natural choice. Unreached components are appended in
/// input order so every edge appears exactly once.
pub fn edge_order(g: &UncertainGraph, strategy: EdgeOrder, start: VertexId) -> Vec<EdgeId> {
    match strategy {
        EdgeOrder::Input => (0..g.num_edges()).collect(),
        EdgeOrder::Bfs => traversal_order(g, start, false),
        EdgeOrder::Dfs => traversal_order(g, start, true),
    }
}

/// Width during layer `l` counts vertices with `first <= l <= last`
/// (difference array + prefix sum) — the single implementation behind both
/// `FrontierPlan::build`'s `max_width` and
/// [`FrontierPlan::layer_widths`], so cost models can never diverge from
/// the solver's actual frontier.
fn widths_from_touch(
    first_touch: &[usize],
    last_touch: &[usize],
    layers: usize,
) -> impl Iterator<Item = usize> {
    let mut delta = vec![0isize; layers + 1];
    for v in 0..first_touch.len() {
        if first_touch[v] != usize::MAX {
            delta[first_touch[v]] += 1;
            delta[last_touch[v] + 1] -= 1;
        }
    }
    delta.truncate(layers);
    let mut cur = 0isize;
    delta.into_iter().map(move |d| {
        cur += d;
        cur as usize
    })
}

/// Emit edges grouped by visit order of their first-visited endpoint.
fn traversal_order(g: &UncertainGraph, start: VertexId, depth_first: bool) -> Vec<EdgeId> {
    let n = g.num_vertices();
    let mut edge_done = vec![false; g.num_edges()];
    let mut vertex_seen = vec![false; n];
    let mut order = Vec::with_capacity(g.num_edges());
    let mut pending: std::collections::VecDeque<VertexId> = std::collections::VecDeque::new();

    let mut roots: Vec<VertexId> = Vec::with_capacity(n);
    if start < n {
        roots.push(start);
    }
    roots.extend(0..n);

    for root in roots {
        if vertex_seen[root] {
            continue;
        }
        vertex_seen[root] = true;
        pending.push_back(root);
        while let Some(v) = if depth_first {
            pending.pop_back()
        } else {
            pending.pop_front()
        } {
            for &(w, eid) in g.neighbors(v) {
                if !edge_done[eid] {
                    edge_done[eid] = true;
                    order.push(eid);
                }
                if !vertex_seen[w] {
                    vertex_seen[w] = true;
                    pending.push_back(w);
                }
            }
        }
    }
    debug_assert_eq!(order.len(), g.num_edges());
    order
}

/// Precomputed frontier schedule for one `(graph, order)` pair.
///
/// Layer `l` processes edge `order[l]`. A vertex is *in the frontier during
/// layer `l`* iff `first_touch[v] <= l <= last_touch[v]`; it *enters* at its
/// first touch and *leaves* after its last.
#[derive(Clone, Debug)]
pub struct FrontierPlan {
    /// Edge processing order; `order[l]` is the edge id handled at layer `l`.
    pub order: Vec<EdgeId>,
    /// First layer touching each vertex (`usize::MAX` for isolated vertices).
    pub first_touch: Vec<usize>,
    /// Last layer touching each vertex (`usize::MAX` for isolated vertices).
    pub last_touch: Vec<usize>,
    /// Maximum number of simultaneously live frontier vertices.
    pub max_width: usize,
}

impl FrontierPlan {
    /// Build the plan for a given order (must be a permutation of edge ids).
    pub fn build(g: &UncertainGraph, order: Vec<EdgeId>) -> Self {
        assert_eq!(order.len(), g.num_edges(), "order must cover every edge");
        let n = g.num_vertices();
        let mut first_touch = vec![usize::MAX; n];
        let mut last_touch = vec![usize::MAX; n];
        for (l, &eid) in order.iter().enumerate() {
            let e = g.edge(eid);
            for v in [e.u, e.v] {
                if first_touch[v] == usize::MAX {
                    first_touch[v] = l;
                }
                last_touch[v] = l;
            }
        }
        let max_width = widths_from_touch(&first_touch, &last_touch, order.len())
            .max()
            .unwrap_or(0);
        FrontierPlan {
            order,
            first_touch,
            last_touch,
            max_width,
        }
    }

    /// Number of live frontier vertices during each layer (the per-layer
    /// profile behind [`max_width`](FrontierPlan::max_width)) — the input
    /// of diagram-size cost models.
    pub fn layer_widths(&self) -> impl Iterator<Item = usize> + '_ {
        widths_from_touch(&self.first_touch, &self.last_touch, self.order.len())
    }

    /// Convenience: order by strategy, then build.
    pub fn for_strategy(g: &UncertainGraph, strategy: EdgeOrder, start: VertexId) -> Self {
        Self::build(g, edge_order(g, strategy, start))
    }

    /// Whether vertex `v` first appears at layer `l`.
    #[inline]
    pub fn enters(&self, v: VertexId, l: usize) -> bool {
        self.first_touch[v] == l
    }

    /// Whether vertex `v`'s last incident edge is processed at layer `l`
    /// (after which it leaves the frontier).
    #[inline]
    pub fn leaves(&self, v: VertexId, l: usize) -> bool {
        self.last_touch[v] == l
    }

    /// Number of layers (= number of edges).
    #[inline]
    pub fn layers(&self) -> usize {
        self.order.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid2x3() -> UncertainGraph {
        // 0-1-2
        // |   |  (plus verticals 0-3, 1-4, 2-5 and bottom 3-4-5)
        // 3-4-5
        UncertainGraph::new(
            6,
            [
                (0, 1, 0.5),
                (1, 2, 0.5),
                (3, 4, 0.5),
                (4, 5, 0.5),
                (0, 3, 0.5),
                (1, 4, 0.5),
                (2, 5, 0.5),
            ],
        )
        .unwrap()
    }

    #[test]
    fn orders_are_permutations() {
        let g = grid2x3();
        for strat in [EdgeOrder::Input, EdgeOrder::Bfs, EdgeOrder::Dfs] {
            let mut o = edge_order(&g, strat, 0);
            o.sort_unstable();
            assert_eq!(o, (0..g.num_edges()).collect::<Vec<_>>(), "{strat:?}");
        }
    }

    #[test]
    fn input_order_is_identity() {
        let g = grid2x3();
        assert_eq!(
            edge_order(&g, EdgeOrder::Input, 0),
            vec![0, 1, 2, 3, 4, 5, 6]
        );
    }

    #[test]
    fn plan_touch_spans() {
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let plan = FrontierPlan::build(&g, vec![0, 1]);
        assert_eq!(plan.first_touch, vec![0, 0, 1]);
        assert_eq!(plan.last_touch, vec![0, 1, 1]);
        assert!(plan.enters(0, 0) && plan.leaves(0, 0));
        assert!(plan.enters(1, 0) && plan.leaves(1, 1));
        assert!(plan.enters(2, 1) && plan.leaves(2, 1));
        assert_eq!(plan.layers(), 2);
    }

    #[test]
    fn max_width_on_path_is_two() {
        let g = UncertainGraph::new(5, (0..4).map(|i| (i, i + 1, 0.5))).unwrap();
        let plan = FrontierPlan::for_strategy(&g, EdgeOrder::Bfs, 0);
        assert_eq!(plan.max_width, 2);
    }

    #[test]
    fn bfs_narrower_than_bad_input_order_on_ladder() {
        // A ladder processed rung-by-rung via input order has width ~4;
        // BFS from a corner keeps it at 3.
        let mut edges = Vec::new();
        let len = 20usize;
        for i in 0..len {
            edges.push((2 * i, 2 * i + 1, 0.5)); // rungs first: bad input order
        }
        for i in 0..len - 1 {
            edges.push((2 * i, 2 * i + 2, 0.5));
            edges.push((2 * i + 1, 2 * i + 3, 0.5));
        }
        let g = UncertainGraph::new(2 * len, edges).unwrap();
        let input = FrontierPlan::for_strategy(&g, EdgeOrder::Input, 0);
        let bfs = FrontierPlan::for_strategy(&g, EdgeOrder::Bfs, 0);
        assert!(
            bfs.max_width < input.max_width,
            "bfs {} vs input {}",
            bfs.max_width,
            input.max_width
        );
    }

    #[test]
    fn layer_widths_profile_matches_max_and_oracle() {
        let g = grid2x3();
        for strat in [EdgeOrder::Input, EdgeOrder::Bfs, EdgeOrder::Dfs] {
            let plan = FrontierPlan::for_strategy(&g, strat, 0);
            let widths: Vec<usize> = plan.layer_widths().collect();
            assert_eq!(widths.len(), plan.layers());
            assert_eq!(widths.iter().copied().max().unwrap_or(0), plan.max_width);
            for (l, &w) in widths.iter().enumerate() {
                let oracle = (0..g.num_vertices())
                    .filter(|&v| {
                        plan.first_touch[v] != usize::MAX
                            && plan.first_touch[v] <= l
                            && plan.last_touch[v] >= l
                    })
                    .count();
                assert_eq!(w, oracle, "{strat:?} layer {l}");
            }
        }
    }

    #[test]
    fn isolated_vertices_never_touched() {
        let g = UncertainGraph::new(4, [(0, 1, 0.5)]).unwrap();
        let plan = FrontierPlan::for_strategy(&g, EdgeOrder::Bfs, 0);
        assert_eq!(plan.first_touch[2], usize::MAX);
        assert_eq!(plan.first_touch[3], usize::MAX);
    }

    #[test]
    fn disconnected_components_all_covered() {
        let g = UncertainGraph::new(6, [(0, 1, 0.5), (2, 3, 0.5), (4, 5, 0.5)]).unwrap();
        for strat in [EdgeOrder::Bfs, EdgeOrder::Dfs] {
            let mut o = edge_order(&g, strat, 0);
            o.sort_unstable();
            assert_eq!(o, vec![0, 1, 2]);
        }
    }

    /// O(n·m) oracle for the frontier width.
    fn naive_max_width(g: &UncertainGraph, plan: &FrontierPlan) -> usize {
        (0..plan.layers())
            .map(|l| {
                (0..g.num_vertices())
                    .filter(|&v| {
                        plan.first_touch[v] != usize::MAX
                            && plan.first_touch[v] <= l
                            && plan.last_touch[v] >= l
                    })
                    .count()
            })
            .max()
            .unwrap_or(0)
    }

    proptest::proptest! {
        #[test]
        fn max_width_matches_oracle(
            edges in proptest::collection::vec((0usize..9, 0usize..9), 1..18),
            strat_idx in 0usize..3,
        ) {
            let mut seen = std::collections::HashSet::new();
            let list: Vec<(usize, usize, f64)> = edges
                .into_iter()
                .filter_map(|(u, v)| {
                    if u == v { return None; }
                    let key = (u.min(v), u.max(v));
                    seen.insert(key).then_some((key.0, key.1, 0.5))
                })
                .collect();
            proptest::prop_assume!(!list.is_empty());
            let g = UncertainGraph::new(9, list).unwrap();
            let strat = [EdgeOrder::Input, EdgeOrder::Bfs, EdgeOrder::Dfs][strat_idx];
            let plan = FrontierPlan::for_strategy(&g, strat, 0);
            proptest::prop_assert_eq!(plan.max_width, naive_max_width(&g, &plan));
        }
    }
}
