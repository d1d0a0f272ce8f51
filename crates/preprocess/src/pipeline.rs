//! The full preprocessing pipeline (paper Algorithm 3):
//! prune → decompose → transform, with per-phase toggles for ablation.

use crate::decompose::{decompose_across, decompose_with_index};
use crate::prune::prune_with_index;
use crate::shared::GraphIndex;
use crate::transform::transform;
use netrel_ugraph::{GraphError, UncertainGraph, VertexId};

/// Phase toggles.
#[derive(Clone, Copy, Debug)]
pub struct PreprocessConfig {
    /// Enable the prune phase.
    pub prune: bool,
    /// Enable bridge decomposition.
    pub decompose: bool,
    /// Enable series/parallel/loop reductions.
    pub transform: bool,
    /// Enable the extra dangling-vertex rule inside transform.
    pub prune_dangling: bool,
}

impl Default for PreprocessConfig {
    fn default() -> Self {
        PreprocessConfig {
            prune: true,
            decompose: true,
            transform: true,
            prune_dangling: true,
        }
    }
}

impl PreprocessConfig {
    /// Everything off — the pipeline returns the input as a single part.
    pub fn disabled() -> Self {
        PreprocessConfig {
            prune: false,
            decompose: false,
            transform: false,
            prune_dangling: false,
        }
    }
}

/// One residual subproblem.
#[derive(Clone, Debug)]
pub struct Part {
    /// Subgraph to solve.
    pub graph: UncertainGraph,
    /// Its terminal set (`|T| >= 2`).
    pub terminals: Vec<VertexId>,
}

/// Size/shape statistics of a preprocessing run (paper Table 5 columns).
#[derive(Clone, Copy, Debug, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct PreprocessStats {
    /// Edges in the input graph.
    pub original_edges: usize,
    /// Edges surviving the prune phase.
    pub pruned_edges: usize,
    /// Number of decomposed parts still needing computation.
    pub num_parts: usize,
    /// Edges in the largest part after transform.
    pub max_part_edges: usize,
    /// `max_part_edges / original_edges` (the paper's "reduced graph size").
    pub reduced_ratio: f64,
    /// Transform rule applications across parts.
    pub transform_rules: usize,
}

/// Pipeline output: `R[G, T] = pb · Π_i R[parts_i]` (or 0 when
/// `trivially_zero`; an empty part list means the product is just `pb`).
#[derive(Clone, Debug)]
pub struct Preprocessed {
    /// Product of bridge probabilities (Lemma 5.1), 1 when decomposition is
    /// disabled.
    pub pb: f64,
    /// Residual subproblems.
    pub parts: Vec<Part>,
    /// The terminals cannot be connected at all.
    pub trivially_zero: bool,
    /// Size statistics.
    pub stats: PreprocessStats,
}

/// Run the extension technique on `(g, terminals)`.
///
/// Convenience wrapper that computes the terminal-independent
/// [`GraphIndex`] on the spot. Multi-query workloads should build the index
/// once per graph and call [`preprocess_with_index`], which skips the
/// `O(|V| + |E|)` structure passes and runs only the terminal-dependent
/// Steiner / subgraph / transform steps.
pub fn preprocess(
    g: &UncertainGraph,
    terminals: &[VertexId],
    cfg: PreprocessConfig,
) -> Result<Preprocessed, GraphError> {
    preprocess_with_index(g, &GraphIndex::build(g), terminals, cfg)
}

/// [`preprocess`] against a precomputed terminal-independent [`GraphIndex`]
/// of `g`. Output is identical to [`preprocess`] for every configuration —
/// the index only replaces recomputation of terminal-independent structure.
pub fn preprocess_with_index(
    g: &UncertainGraph,
    index: &GraphIndex,
    terminals: &[VertexId],
    cfg: PreprocessConfig,
) -> Result<Preprocessed, GraphError> {
    let t = g.validate_terminals(terminals)?;
    let mut stats = PreprocessStats {
        original_edges: g.num_edges(),
        ..Default::default()
    };

    if t.len() <= 1 {
        stats.reduced_ratio = 0.0;
        return Ok(Preprocessed {
            pb: 1.0,
            parts: Vec::new(),
            trivially_zero: false,
            stats,
        });
    }

    // Phase 1: prune (terminal-dependent Steiner step over the shared
    // index's bridge forest).
    let (work_graph, work_terminals, bridges) = if cfg.prune {
        let p = prune_with_index(g, index, &t);
        if p.trivially_zero {
            return Ok(Preprocessed {
                pb: 0.0,
                parts: Vec::new(),
                trivially_zero: true,
                stats,
            });
        }
        (p.graph, p.terminals, Some(p.bridges))
    } else {
        (g.clone(), t.clone(), None)
    };
    stats.pruned_edges = work_graph.num_edges();

    // Without pruning, terminals may still be disconnected; decomposition
    // assumes relevance, so check connectivity cheaply here.
    if !netrel_ugraph::traversal::terminals_connected_certain(&work_graph, &work_terminals) {
        return Ok(Preprocessed {
            pb: 0.0,
            parts: Vec::new(),
            trivially_zero: true,
            stats,
        });
    }

    // Phase 2: decompose. Prune's Steiner subtree already holds every bridge
    // of the pruned graph, all of them relevant, so decompose factors across
    // that list and builds no index of the pruned graph. Without pruning the
    // working graph *is* the input graph and the shared index applies
    // directly.
    let (pb, raw_parts) = if cfg.decompose {
        let d = match &bridges {
            Some(bridges) => decompose_across(&work_graph, &work_terminals, bridges),
            None => decompose_with_index(&work_graph, index, &work_terminals),
        };
        (
            d.pb,
            d.parts
                .into_iter()
                .map(|c| (c.graph, c.terminals))
                .collect::<Vec<_>>(),
        )
    } else {
        (1.0, vec![(work_graph, work_terminals)])
    };

    // Phase 3: transform each part.
    let mut parts = Vec::with_capacity(raw_parts.len());
    for (graph, terminals) in raw_parts {
        if cfg.transform {
            let tr = transform(&graph, &terminals, cfg.prune_dangling);
            stats.transform_rules += tr.rules_applied;
            if tr.terminals.len() >= 2 {
                parts.push(Part {
                    graph: tr.graph,
                    terminals: tr.terminals,
                });
            }
        } else if terminals.len() >= 2 {
            parts.push(Part { graph, terminals });
        }
    }

    stats.num_parts = parts.len();
    stats.max_part_edges = parts.iter().map(|p| p.graph.num_edges()).max().unwrap_or(0);
    stats.reduced_ratio = if stats.original_edges == 0 {
        0.0
    } else {
        stats.max_part_edges as f64 / stats.original_edges as f64
    };
    Ok(Preprocessed {
        pb,
        parts,
        trivially_zero: false,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_bdd::brute_force_reliability;
    use proptest::prelude::*;

    /// Reference: reconstruct R from the pipeline output with brute force.
    fn pipeline_reliability(pre: &Preprocessed) -> f64 {
        if pre.trivially_zero {
            return 0.0;
        }
        pre.pb
            * pre
                .parts
                .iter()
                .map(|p| brute_force_reliability(&p.graph, &p.terminals))
                .product::<f64>()
    }

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
    fn full_pipeline_preserves_reliability() {
        let g = lollipop();
        for t in [vec![0, 4], vec![0, 7], vec![1, 4, 6], vec![0, 1]] {
            let expect = brute_force_reliability(&g, &t);
            let pre = preprocess(&g, &t, PreprocessConfig::default()).unwrap();
            let got = pipeline_reliability(&pre);
            assert!(
                (got - expect).abs() < 1e-12,
                "terminals {t:?}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn each_phase_alone_preserves_reliability() {
        let g = lollipop();
        let t = vec![0, 6];
        let expect = brute_force_reliability(&g, &t);
        for cfg in [
            PreprocessConfig {
                decompose: false,
                transform: false,
                ..Default::default()
            },
            PreprocessConfig {
                prune: false,
                transform: false,
                ..Default::default()
            },
            PreprocessConfig {
                prune: false,
                decompose: false,
                ..Default::default()
            },
            PreprocessConfig::disabled(),
        ] {
            let pre = preprocess(&g, &t, cfg).unwrap();
            let got = pipeline_reliability(&pre);
            assert!((got - expect).abs() < 1e-12, "{cfg:?}: {got} vs {expect}");
        }
    }

    #[test]
    fn stats_reflect_shrinkage() {
        let g = lollipop();
        let pre = preprocess(&g, &[0, 4], PreprocessConfig::default()).unwrap();
        assert_eq!(pre.stats.original_edges, 9);
        assert!(pre.stats.pruned_edges < 9);
        assert!(pre.stats.reduced_ratio < 1.0);
        assert!(pre.stats.num_parts >= 1);
    }

    #[test]
    fn single_terminal_trivial() {
        let g = lollipop();
        let pre = preprocess(&g, &[3], PreprocessConfig::default()).unwrap();
        assert!(!pre.trivially_zero);
        assert!(pre.parts.is_empty());
        assert_eq!(pre.pb, 1.0);
    }

    #[test]
    fn disconnected_terminals_zero_with_and_without_prune() {
        let g = UncertainGraph::new(4, [(0, 1, 0.5), (2, 3, 0.5)]).unwrap();
        for cfg in [PreprocessConfig::default(), PreprocessConfig::disabled()] {
            let pre = preprocess(&g, &[0, 2], cfg).unwrap();
            assert!(pre.trivially_zero, "{cfg:?}");
        }
    }

    #[test]
    fn with_index_identical_to_oneshot_for_every_phase_mix() {
        let g = lollipop();
        let idx = GraphIndex::build(&g);
        for t in [vec![0, 4], vec![0, 7], vec![1, 4, 6], vec![3]] {
            for cfg in [
                PreprocessConfig::default(),
                PreprocessConfig {
                    prune: false,
                    ..Default::default()
                },
                PreprocessConfig {
                    decompose: false,
                    ..Default::default()
                },
                PreprocessConfig::disabled(),
            ] {
                let a = preprocess(&g, &t, cfg).unwrap();
                let b = preprocess_with_index(&g, &idx, &t, cfg).unwrap();
                assert_eq!(a.pb.to_bits(), b.pb.to_bits(), "{t:?} {cfg:?}");
                assert_eq!(a.trivially_zero, b.trivially_zero);
                assert_eq!(a.parts.len(), b.parts.len());
                for (pa, pb_) in a.parts.iter().zip(&b.parts) {
                    assert_eq!(pa.terminals, pb_.terminals);
                    assert_eq!(pa.graph.edges(), pb_.graph.edges());
                }
                assert_eq!(a.stats.num_parts, b.stats.num_parts);
                assert_eq!(a.stats.max_part_edges, b.stats.max_part_edges);
                assert_eq!(a.stats.transform_rules, b.stats.transform_rules);
            }
        }
    }

    #[test]
    fn pure_tree_fully_resolved() {
        let g = UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.7)]).unwrap();
        let pre = preprocess(&g, &[0, 3], PreprocessConfig::default()).unwrap();
        assert!(pre.parts.is_empty(), "a tree needs no sampling at all");
        assert!((pre.pb - 0.9 * 0.8 * 0.7).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// The headline invariant: preprocessing preserves exact reliability
        /// on arbitrary small graphs, for every phase combination.
        #[test]
        fn pipeline_preserves_reliability_on_random_graphs(
            edges in proptest::collection::vec((0usize..8, 0usize..8, 0.05f64..1.0), 1..14),
            t0 in 0usize..8,
            t1 in 0usize..8,
            t2 in 0usize..8,
            phases in 0usize..4,
        ) {
            let mut seen = std::collections::HashSet::new();
            let list: Vec<(usize, usize, f64)> = edges
                .into_iter()
                .filter_map(|(u, v, p)| {
                    if u == v { return None; }
                    let key = (u.min(v), u.max(v));
                    seen.insert(key).then_some((key.0, key.1, p))
                })
                .collect();
            prop_assume!(!list.is_empty());
            let g = UncertainGraph::new(8, list).unwrap();
            let mut t = vec![t0, t1, t2];
            t.sort_unstable();
            t.dedup();
            prop_assume!(t.len() >= 2);
            let cfg = match phases {
                0 => PreprocessConfig::default(),
                1 => PreprocessConfig { transform: false, ..Default::default() },
                2 => PreprocessConfig { decompose: false, ..Default::default() },
                _ => PreprocessConfig { prune_dangling: false, ..Default::default() },
            };
            let expect = brute_force_reliability(&g, &t);
            let pre = preprocess(&g, &t, cfg).unwrap();
            let got = pipeline_reliability(&pre);
            prop_assert!((got - expect).abs() < 1e-9, "{} vs {}", got, expect);
        }
    }
}
