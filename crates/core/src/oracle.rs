//! Brute-force possible-world oracle for *any* reliability semantics.
//!
//! Enumerates all `2^|E|` possible worlds of an uncertain graph and sums
//! `Pr[world] · value(world)`, where the per-world value is evaluated
//! independently of the production pipeline (plain BFS — no preprocessing,
//! no S2BDD, no sampling). That independence is the point: the oracle is
//! the ground truth every [`SemanticsSpec`] is validated against in
//! `tests/semantics_contract.rs`.
//! Exponential by construction — worlds are capped at
//! [`ORACLE_EDGE_LIMIT`] edges.

use crate::semantics::SemanticsSpec;
use netrel_ugraph::{GraphError, UncertainGraph, VertexId};

/// Largest edge count the oracle accepts (`2^25` worlds ≈ 33M — seconds,
/// not hours). Larger inputs return an error instead of silently hanging.
pub const ORACLE_EDGE_LIMIT: usize = 25;

/// Reused BFS buffers: per-vertex visit epochs and the two frontier queues.
struct Scratch {
    visited: Vec<u32>,
    frontier: Vec<usize>,
    next: Vec<usize>,
}

impl Scratch {
    fn new(num_vertices: usize) -> Self {
        Scratch {
            visited: vec![0; num_vertices],
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// BFS from `start` over present edges, depth-limited iff `max_hops` is
    /// finite; marks reached vertices with `epoch` and returns the count.
    fn bfs(
        &mut self,
        g: &UncertainGraph,
        present: &[bool],
        epoch: u32,
        start: usize,
        max_hops: u32,
    ) -> usize {
        self.frontier.clear();
        self.visited[start] = epoch;
        self.frontier.push(start);
        let mut reached = 1usize;
        let mut hops = 0u32;
        while !self.frontier.is_empty() && hops < max_hops {
            self.next.clear();
            for &v in self.frontier.iter() {
                for &(w, e) in g.neighbors(v) {
                    if present[e] && self.visited[w] != epoch {
                        self.visited[w] = epoch;
                        reached += 1;
                        self.next.push(w);
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            hops += 1;
        }
        reached
    }
}

/// Per-world value of a semantics, evaluated by BFS over the world's
/// present-edge mask.
fn world_value(
    g: &UncertainGraph,
    spec: SemanticsSpec,
    terminals: &[VertexId],
    present: &[bool],
    epoch: u32,
    scratch: &mut Scratch,
) -> f64 {
    match spec {
        SemanticsSpec::TwoTerminal | SemanticsSpec::KTerminal => {
            scratch.bfs(g, present, epoch, terminals[0], u32::MAX);
            let connected = terminals.iter().all(|&t| scratch.visited[t] == epoch);
            connected as u32 as f64
        }
        SemanticsSpec::AllTerminal => {
            let reached = scratch.bfs(g, present, epoch, 0, u32::MAX);
            (reached == g.num_vertices()) as u32 as f64
        }
        SemanticsSpec::DHop { d } => {
            scratch.bfs(g, present, epoch, terminals[0], d);
            (scratch.visited[terminals[1]] == epoch) as u32 as f64
        }
        SemanticsSpec::ReachSet => scratch.bfs(g, present, epoch, terminals[0], u32::MAX) as f64,
    }
}

/// Ground-truth value of `spec` on `(g, terminals)` by exhaustive
/// possible-world enumeration: `Σ_world Pr[world] · value(world)`.
///
/// Terminal arity follows the semantics (two distinct for two-terminal and
/// d-hop, one source for reach-set, any non-empty set for k-terminal;
/// all-terminal ignores the list but the graph must be non-empty). Errors
/// on invalid terminals or more than [`ORACLE_EDGE_LIMIT`] edges.
pub fn oracle_value(
    g: &UncertainGraph,
    spec: SemanticsSpec,
    terminals: &[VertexId],
) -> Result<f64, GraphError> {
    let m = g.num_edges();
    if m > ORACLE_EDGE_LIMIT {
        return Err(GraphError::InvalidTerminals {
            reason: format!(
                "oracle is exponential: {m} edges exceeds the {ORACLE_EDGE_LIMIT}-edge cap"
            ),
        });
    }
    let terminals: Vec<VertexId> = match spec {
        SemanticsSpec::TwoTerminal | SemanticsSpec::DHop { .. } => {
            let t = g.validate_terminals(terminals)?;
            if t.len() != 2 {
                return Err(GraphError::InvalidTerminals {
                    reason: format!("{} needs exactly two distinct terminals", spec.name()),
                });
            }
            t
        }
        SemanticsSpec::KTerminal => g.validate_terminals(terminals)?,
        SemanticsSpec::AllTerminal => {
            if g.num_vertices() == 0 {
                return Err(GraphError::InvalidTerminals {
                    reason: "all-terminal oracle on an empty graph".into(),
                });
            }
            Vec::new()
        }
        SemanticsSpec::ReachSet => {
            let t = g.validate_terminals(terminals)?;
            if t.len() != 1 {
                return Err(GraphError::InvalidTerminals {
                    reason: "reach-set takes exactly one source terminal".into(),
                });
            }
            t
        }
    };
    if matches!(spec, SemanticsSpec::KTerminal) && terminals.len() <= 1 {
        return Ok(1.0);
    }
    let edges = g.edges();
    let mut present = vec![false; m];
    let mut scratch = Scratch::new(g.num_vertices());
    let mut total = 0.0f64;
    for world in 0u64..(1u64 << m) {
        let mut pr = 1.0f64;
        for (i, e) in edges.iter().enumerate() {
            let exists = world >> i & 1 == 1;
            present[i] = exists;
            pr *= if exists { e.p } else { 1.0 - e.p };
        }
        let epoch = world as u32 + 1;
        total += pr * world_value(g, spec, &terminals, &present, epoch, &mut scratch);
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_terminal_matches_brute_force_reference() {
        let g = UncertainGraph::new(
            4,
            [
                (0, 1, 0.8),
                (1, 2, 0.7),
                (2, 3, 0.9),
                (0, 3, 0.5),
                (1, 3, 0.6),
            ],
        )
        .unwrap();
        let expect = netrel_bdd::brute_force_reliability(&g, &[0, 2]);
        let got = oracle_value(&g, SemanticsSpec::KTerminal, &[0, 2]).unwrap();
        assert!((got - expect).abs() < 1e-12);
        // A repeated terminal names the same distinct pair.
        for t in [[0, 2].as_slice(), &[2, 2, 0]] {
            let tt = oracle_value(&g, SemanticsSpec::TwoTerminal, t).unwrap();
            assert_eq!(got.to_bits(), tt.to_bits(), "{t:?}");
        }
    }

    #[test]
    fn all_terminal_on_a_triangle() {
        // Triangle, all p = 0.5: connected iff ≥ 2 of 3 edges present
        // (3·(1/8)) or all 3 (1/8) → 1/2.
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.5)]).unwrap();
        let got = oracle_value(&g, SemanticsSpec::AllTerminal, &[]).unwrap();
        assert!((got - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dhop_on_a_path() {
        let g = UncertainGraph::new(3, [(0, 1, 0.6), (1, 2, 0.5)]).unwrap();
        // A repeated terminal names the same distinct pair.
        for t in [[0, 2].as_slice(), &[2, 2, 0]] {
            assert_eq!(
                oracle_value(&g, SemanticsSpec::DHop { d: 1 }, t).unwrap(),
                0.0,
                "{t:?}"
            );
            let d2 = oracle_value(&g, SemanticsSpec::DHop { d: 2 }, t).unwrap();
            assert!((d2 - 0.3).abs() < 1e-12, "{t:?}: {d2}");
        }
    }

    #[test]
    fn reach_set_on_a_path() {
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let got = oracle_value(&g, SemanticsSpec::ReachSet, &[0]).unwrap();
        assert!((got - 1.75).abs() < 1e-12);
    }

    #[test]
    fn oversized_graphs_are_rejected() {
        let edges: Vec<(usize, usize, f64)> = (0..26).map(|i| (i, i + 1, 0.5)).collect();
        let g = UncertainGraph::new(27, edges).unwrap();
        assert!(oracle_value(&g, SemanticsSpec::KTerminal, &[0, 26]).is_err());
    }
}
