//! Decompose phase: factor the reliability across bridges (Lemma 5.1).
//!
//! Every bridge on a terminal path must exist for the terminals to connect
//! (Factoring Theorem with `R = 0` on the contracted branch), so
//! `R[G, T] = p_b · Π_i R[G_i, T_i]` where `p_b` multiplies the bridge
//! probabilities, the `G_i` are the bridge-free components, and `T_i` adds
//! the bridge endpoints to each side's terminals.

use crate::shared::GraphIndex;
use netrel_ugraph::steiner::steiner_subtree;
use netrel_ugraph::{Dsu, EdgeId, UncertainGraph, VertexId};

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

/// Run the decompose phase against the terminal-independent [`GraphIndex`]
/// of `g`. Only *relevant* bridges — those on the minimal Steiner subtree of
/// the bridge forest spanning the terminals — are factored into `p_b`;
/// irrelevant bridges (e.g. pendant trees) stay inside their component,
/// where they cannot affect its reliability. This makes the phase correct
/// whether or not [`crate::prune`] ran first. Terminals must all lie in one
/// connected component of `g`.
pub fn decompose_with_index(
    g: &UncertainGraph,
    index: &GraphIndex,
    terminals: &[VertexId],
) -> Decomposed {
    let st = steiner_subtree(&index.forest_adj, &index.terminal_marks(terminals));
    // `steiner_subtree` reports kept forest edges by their labels, which
    // `GraphIndex::build` sets to the original bridge edge ids.
    decompose_across(g, terminals, &st.keep_edge)
}

/// Factor `g` across `bridges`, the relevant bridges in ascending edge id:
/// `p_b` multiplies their probabilities in that order, and each component
/// of `g` minus them with at least two required vertices (its terminals and
/// bridge endpoints) becomes a part, in ascending order of its union-find
/// root.
pub(crate) fn decompose_across(
    g: &UncertainGraph,
    terminals: &[VertexId],
    bridges: &[EdgeId],
) -> Decomposed {
    let mut pb = 1.0f64;
    let mut cut_edge = vec![false; g.num_edges()];
    for &b in bridges {
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
    for &b in bridges {
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
    use crate::prune::prune_with_index;
    use netrel_bdd::brute_force_reliability;
    use netrel_ugraph::traversal::terminals_connected_certain;
    use proptest::prelude::*;

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
        let d = decompose_with_index(&g, &GraphIndex::build(&g), &t);
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
        let d = decompose_with_index(&g, &GraphIndex::build(&g), &[0, 4]);
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
        let d = decompose_with_index(&g, &GraphIndex::build(&g), &[0, 2]);
        assert_eq!(d.pb, 1.0);
        assert_eq!(d.parts.len(), 1);
        assert_eq!(d.parts[0].terminals.len(), 2);
    }

    #[test]
    fn pure_tree_collapses_to_pb() {
        // Path 0-1-2-3 with terminals at the ends: all edges are bridges,
        // singleton components contribute factor 1.
        let g = UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7)]).unwrap();
        let d = decompose_with_index(&g, &GraphIndex::build(&g), &[0, 3]);
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
        let d = decompose_with_index(&g, &GraphIndex::build(&g), &t);
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

    /// Everything of a decomposition that a solver reads, `p` as bits.
    type Bits = (u64, Vec<(usize, Vec<(usize, usize, u64)>, Vec<VertexId>)>);

    fn bits(d: &Decomposed) -> Bits {
        let parts = d.parts.iter().map(|c| {
            let edges = c.graph.edges().iter();
            (
                c.graph.num_vertices(),
                edges.map(|e| (e.u, e.v, e.p.to_bits())).collect(),
                c.terminals.clone(),
            )
        });
        (d.pb.to_bits(), parts.collect())
    }

    /// Cycles joined by bridges: per `(len, at, p)` block a cycle of `len`
    /// fresh vertices, every block after the first hung by a bridge from
    /// its first vertex to a vertex of an earlier block chosen by `at`;
    /// then the `chords` between any two vertices, which may close cycles
    /// over bridges. Vertex ids are shuffled by `keys`; self-loops and
    /// repeated pairs are skipped.
    fn block_tree(
        blocks: &[(usize, usize, f64)],
        chords: &[(usize, usize, f64)],
        keys: &[u64],
    ) -> UncertainGraph {
        let mut edges = Vec::new();
        let mut starts: Vec<(usize, usize)> = Vec::new();
        let mut n = 0;
        for (i, &(len, at, p)) in blocks.iter().enumerate() {
            for k in 0..len {
                edges.push((n + k, n + (k + 1) % len, p * (1.0 - 0.01 * k as f64)));
            }
            if i > 0 {
                let (start, size) = starts[at % i];
                edges.push((n, start + at % size, p / 2.0));
            }
            starts.push((n, len));
            n += len;
        }
        for &(u, v, p) in chords {
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
        UncertainGraph::new(n, edges).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// After prune, its bridge list is every bridge of the pruned graph,
        /// and decomposing across it equals decomposing through a freshly
        /// built index of the pruned graph, bit for bit and part for part.
        #[test]
        fn prunes_bridges_decompose_like_a_residual_index(
            blocks in proptest::collection::vec((1usize..5, 0usize..8, 0.05f64..1.0), 1..7),
            chords in proptest::collection::vec((0usize..32, 0usize..32, 0.05f64..1.0), 0..3),
            keys in proptest::collection::vec(0u64..1 << 32, 32..33),
            picks in proptest::collection::vec(0usize..32, 2..5),
        ) {
            let g = block_tree(&blocks, &chords, &keys);
            let mut t: Vec<VertexId> = picks.iter().map(|&v| v % g.num_vertices()).collect();
            t.sort_unstable();
            t.dedup();
            prop_assume!(t.len() >= 2);
            let p = prune_with_index(&g, &GraphIndex::build(&g), &t);
            prop_assume!(!p.trivially_zero && terminals_connected_certain(&p.graph, &p.terminals));
            let residual = GraphIndex::build(&p.graph);
            let all_bridges: Vec<EdgeId> = (0..p.graph.num_edges())
                .filter(|&e| residual.cut.is_bridge[e])
                .collect();
            prop_assert_eq!(&p.bridges, &all_bridges);
            prop_assert_eq!(
                bits(&decompose_across(&p.graph, &p.terminals, &p.bridges)),
                bits(&decompose_with_index(&p.graph, &residual, &p.terminals))
            );
        }
    }
}
