//! The materialized frontier-based BDD baseline ("BDD-based approach").
//!
//! Builds the *entire* diagram — every layer's nodes and arcs — exactly like
//! TdZDD-style exact solvers, then computes reliability by propagating path
//! probability mass from the root. Memory grows with the diagram, which is
//! why the paper reports DNF for this baseline on all large datasets
//! (Figure 3); the `node_limit` makes that failure mode explicit and safe.

use crate::frontier::{FrontierMachine, LayerArena, Lookup, MergeRule, Scratch, Transition};
use netrel_numeric::NeumaierSum;
use netrel_ugraph::ordering::EdgeOrder;
use netrel_ugraph::{EdgeId, GraphError, UncertainGraph, VertexId};

/// Arc target: index into the next layer, or one of the two sinks.
pub const ARC_ZERO: u32 = u32::MAX;
/// Arc target sentinel for the 1-sink.
pub const ARC_ONE: u32 = u32::MAX - 1;

/// A BDD node: `lo` = 0-arc (edge absent), `hi` = 1-arc (edge present).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BddNode {
    /// 0-arc target.
    pub lo: u32,
    /// 1-arc target.
    pub hi: u32,
}

/// Configuration for the materialized BDD.
#[derive(Clone, Copy, Debug)]
pub struct FullBddConfig {
    /// Abort construction when the total node count exceeds this (the
    /// paper's baseline runs out of memory on graphs beyond a few hundred
    /// edges; 4M nodes keeps the failure graceful).
    pub node_limit: usize,
    /// Edge processing order.
    pub order: EdgeOrder,
    /// Node-merging rule.
    pub merge_rule: MergeRule,
}

impl Default for FullBddConfig {
    fn default() -> Self {
        FullBddConfig {
            node_limit: 4_000_000,
            order: EdgeOrder::Bfs,
            merge_rule: MergeRule::Pattern,
        }
    }
}

/// Why the materialized BDD could not be built.
#[derive(Debug)]
pub enum FullBddError {
    /// The diagram exceeded `node_limit` nodes ("DNF" in the paper's plots).
    NodeLimit {
        /// Nodes materialized before aborting.
        built: usize,
    },
    /// Invalid input graph/terminals.
    Graph(GraphError),
}

impl std::fmt::Display for FullBddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FullBddError::NodeLimit { built } => {
                write!(f, "BDD node limit exceeded after {built} nodes (DNF)")
            }
            FullBddError::Graph(e) => write!(f, "invalid input: {e}"),
        }
    }
}

impl std::error::Error for FullBddError {}

impl From<GraphError> for FullBddError {
    fn from(e: GraphError) -> Self {
        FullBddError::Graph(e)
    }
}

/// A fully materialized k-terminal reliability BDD.
#[derive(Clone, Debug)]
pub struct FullBdd {
    /// Nodes per layer; arcs point into the following layer (or sinks).
    pub layers: Vec<Vec<BddNode>>,
    /// Original edge id labelling each layer.
    pub edge_labels: Vec<EdgeId>,
    /// Existence probability of each layer's edge.
    pub probs: Vec<f64>,
    /// Exact network reliability `R[G, T]`.
    pub reliability: f64,
    /// Total node count (the paper's BDD "size").
    pub node_count: usize,
    /// Peak bytes held by the two layer arenas during construction.
    pub peak_state_bytes: usize,
}

impl FullBdd {
    /// Build the full diagram and compute exact reliability.
    pub fn build(
        g: &UncertainGraph,
        terminals: &[VertexId],
        cfg: FullBddConfig,
    ) -> Result<FullBdd, FullBddError> {
        let t = g.validate_terminals(terminals)?;
        let mut machine = FrontierMachine::new(g, &t, cfg.order)?;
        if let Some(r) = machine.trivial() {
            return Ok(FullBdd {
                layers: Vec::new(),
                edge_labels: Vec::new(),
                probs: Vec::new(),
                reliability: r,
                node_count: 0,
                peak_state_bytes: 0,
            });
        }

        let mut scratch = Scratch::default();
        let mut layers: Vec<Vec<BddNode>> = Vec::with_capacity(machine.layers());
        let mut edge_labels = Vec::with_capacity(machine.layers());
        let mut probs = Vec::with_capacity(machine.layers());
        let mut states = LayerArena::new(cfg.merge_rule);
        states.find_or_insert(true); // the root
        let mut next_states = LayerArena::new(cfg.merge_rule);
        let mut node_count = 0usize;
        let mut peak_state_bytes = 0usize;

        for _ in 0..machine.layers() {
            let e = machine.current_edge();
            edge_labels.push(e.id);
            probs.push(e.p);
            next_states.reset(machine.next_frontier().len());
            let mut level: Vec<BddNode> = Vec::with_capacity(states.len());
            for h in 0..states.len() {
                let mut arc = [ARC_ZERO; 2];
                for (slot, take) in [(0usize, false), (1usize, true)] {
                    arc[slot] =
                        match machine.apply(states.row(h), take, &mut scratch, &mut next_states) {
                            Transition::Zero => ARC_ZERO,
                            Transition::One => ARC_ONE,
                            Transition::Next => match next_states.find_or_insert(true) {
                                Lookup::Found(i) | Lookup::Inserted(i) => i,
                                Lookup::Absent => unreachable!("insertion requested"),
                            },
                        };
                }
                level.push(BddNode {
                    lo: arc[0],
                    hi: arc[1],
                });
            }
            node_count += level.len();
            if node_count > cfg.node_limit {
                return Err(FullBddError::NodeLimit { built: node_count });
            }
            peak_state_bytes = peak_state_bytes.max(states.bytes() + next_states.bytes());
            layers.push(level);
            std::mem::swap(&mut states, &mut next_states);
            machine.advance();
        }
        debug_assert!(
            states.is_empty(),
            "all paths must reach a sink by the last layer"
        );

        let reliability = forward_mass(&layers, &probs);
        Ok(FullBdd {
            layers,
            edge_labels,
            probs,
            reliability,
            node_count,
            peak_state_bytes,
        })
    }

    /// Rough resident-memory estimate of the materialized diagram.
    pub fn memory_bytes(&self) -> usize {
        self.node_count * std::mem::size_of::<BddNode>() + self.peak_state_bytes
    }
}

/// Propagate probability mass from the root; returns mass reaching the 1-sink.
fn forward_mass(layers: &[Vec<BddNode>], probs: &[f64]) -> f64 {
    if layers.is_empty() {
        return 0.0;
    }
    let mut mass: Vec<f64> = vec![1.0];
    let mut one = NeumaierSum::new();
    for (level, &p) in layers.iter().zip(probs) {
        let next_len = level
            .iter()
            .flat_map(|n| [n.lo, n.hi])
            .filter(|&a| a != ARC_ZERO && a != ARC_ONE)
            .map(|a| a as usize + 1)
            .max()
            .unwrap_or(0);
        let mut next = vec![0.0f64; next_len];
        for (node, &m) in level.iter().zip(&mass) {
            for (target, w) in [(node.lo, m * (1.0 - p)), (node.hi, m * p)] {
                match target {
                    ARC_ONE => one.add(w),
                    ARC_ZERO => {}
                    i => next[i as usize] += w,
                }
            }
        }
        mass = next;
    }
    one.total()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_reliability;
    use proptest::prelude::*;

    fn build(g: &UncertainGraph, t: &[usize]) -> FullBdd {
        FullBdd::build(g, t, FullBddConfig::default()).unwrap()
    }

    #[test]
    fn trivial_graphs() {
        let g = UncertainGraph::new(2, [(0, 1, 0.4)]).unwrap();
        assert_eq!(build(&g, &[0]).reliability, 1.0);
        let b = build(&g, &[0, 1]);
        assert!((b.reliability - 0.4).abs() < 1e-12);
        assert!(b.node_count >= 1);
    }

    #[test]
    fn matches_brute_force_on_small_fixtures() {
        let cases: Vec<(UncertainGraph, Vec<usize>)> = vec![
            (
                UncertainGraph::new(
                    5,
                    [
                        (0, 1, 0.7),
                        (0, 2, 0.7),
                        (1, 2, 0.7),
                        (1, 3, 0.7),
                        (2, 4, 0.7),
                        (3, 4, 0.7),
                    ],
                )
                .unwrap(),
                vec![0, 3, 4],
            ),
            (
                UncertainGraph::new(
                    6,
                    [
                        (0, 1, 0.3),
                        (1, 2, 0.9),
                        (2, 3, 0.5),
                        (3, 4, 0.6),
                        (4, 5, 0.8),
                        (5, 0, 0.2),
                        (1, 4, 0.4),
                    ],
                )
                .unwrap(),
                vec![0, 3],
            ),
        ];
        for (g, t) in cases {
            let expect = brute_force_reliability(&g, &t);
            for rule in [MergeRule::Pattern, MergeRule::ExactCounts] {
                for order in [EdgeOrder::Input, EdgeOrder::Bfs, EdgeOrder::Dfs] {
                    let cfg = FullBddConfig {
                        order,
                        merge_rule: rule,
                        ..Default::default()
                    };
                    let b = FullBdd::build(&g, &t, cfg).unwrap();
                    assert!(
                        (b.reliability - expect).abs() < 1e-12,
                        "{rule:?}/{order:?}: {} vs {expect}",
                        b.reliability
                    );
                }
            }
        }
    }

    #[test]
    fn pattern_rule_never_larger_than_exact() {
        let g = UncertainGraph::new(
            7,
            [
                (0, 1, 0.5),
                (1, 2, 0.5),
                (2, 3, 0.5),
                (3, 4, 0.5),
                (4, 5, 0.5),
                (5, 6, 0.5),
                (6, 0, 0.5),
                (1, 4, 0.5),
                (2, 5, 0.5),
            ],
        )
        .unwrap();
        let t = vec![0, 3, 5];
        let pat = FullBdd::build(
            &g,
            &t,
            FullBddConfig {
                merge_rule: MergeRule::Pattern,
                ..Default::default()
            },
        )
        .unwrap();
        let exact = FullBdd::build(
            &g,
            &t,
            FullBddConfig {
                merge_rule: MergeRule::ExactCounts,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(pat.node_count <= exact.node_count);
        assert!((pat.reliability - exact.reliability).abs() < 1e-12);
    }

    #[test]
    fn node_limit_reports_dnf() {
        // A 5x5 grid with a tiny limit must abort.
        let mut edges = Vec::new();
        for r in 0..5usize {
            for c in 0..5usize {
                let v = r * 5 + c;
                if c + 1 < 5 {
                    edges.push((v, v + 1, 0.5));
                }
                if r + 1 < 5 {
                    edges.push((v, v + 5, 0.5));
                }
            }
        }
        let g = UncertainGraph::new(25, edges).unwrap();
        let err = FullBdd::build(
            &g,
            &[0, 24],
            FullBddConfig {
                node_limit: 10,
                ..Default::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, FullBddError::NodeLimit { built } if built > 10));
    }

    #[test]
    fn memory_accounting_positive() {
        let g =
            UncertainGraph::new(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5)]).unwrap();
        let b = build(&g, &[0, 2]);
        assert!(b.memory_bytes() > 0);
        assert_eq!(b.layers.len(), 4);
        assert_eq!(b.node_count, b.layers.iter().map(Vec::len).sum::<usize>());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn agrees_with_brute_force(
            edges in proptest::collection::vec((0usize..7, 0usize..7, 0.05f64..1.0), 1..13),
            t0 in 0usize..7,
            t1 in 0usize..7,
            t2 in 0usize..7,
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
            let g = UncertainGraph::new(7, list).unwrap();
            let mut t = vec![t0, t1, t2];
            t.sort_unstable();
            t.dedup();
            let expect = brute_force_reliability(&g, &t);
            let b = build(&g, &t);
            prop_assert!((b.reliability - expect).abs() < 1e-9,
                "bdd {} vs brute {}", b.reliability, expect);
        }
    }
}
