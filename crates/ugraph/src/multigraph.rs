//! A mutable undirected multigraph for the preprocessing transform rules.
//!
//! The series/parallel/loop reductions (paper §5, Transform) temporarily
//! create parallel edges and self-loops, so they operate on this structure
//! rather than on the simple [`UncertainGraph`]. Edges are tombstoned on
//! removal; adjacency lists are cleaned lazily.

use crate::error::Result;
use crate::graph::{UncertainGraph, VertexId};

/// A multigraph edge; `u == v` encodes a self-loop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MEdge {
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint (may equal `u`).
    pub v: VertexId,
    /// Existence probability in `(0, 1]`.
    pub p: f64,
}

/// Undirected multigraph with tombstoned edge removal.
#[derive(Clone, Debug)]
pub struct MultiGraph {
    n: usize,
    edges: Vec<Option<MEdge>>,
    adj: Vec<Vec<usize>>, // edge ids, possibly stale
    alive: usize,
}

impl MultiGraph {
    /// Empty multigraph on `n` vertices.
    pub fn new(n: usize) -> Self {
        MultiGraph {
            n,
            edges: Vec::new(),
            adj: vec![Vec::new(); n],
            alive: 0,
        }
    }

    /// Copy of a simple uncertain graph.
    pub fn from_uncertain(g: &UncertainGraph) -> Self {
        let mut mg = MultiGraph::new(g.num_vertices());
        for e in g.edges() {
            mg.add_edge(e.u, e.v, e.p);
        }
        mg
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of live edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.alive
    }

    /// Add an edge (loops and parallels allowed); returns its id.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, p: f64) -> usize {
        assert!(u < self.n && v < self.n, "endpoint out of range");
        assert!(p > 0.0 && p <= 1.0, "probability out of range");
        let id = self.edges.len();
        self.edges.push(Some(MEdge { u, v, p }));
        self.adj[u].push(id);
        if v != u {
            self.adj[v].push(id);
        }
        self.alive += 1;
        id
    }

    /// The edge with id `e`, if alive.
    #[inline]
    pub fn edge(&self, e: usize) -> Option<MEdge> {
        self.edges.get(e).copied().flatten()
    }

    /// Remove edge `e`. Returns the removed edge; `None` if already gone.
    pub fn remove_edge(&mut self, e: usize) -> Option<MEdge> {
        let slot = self.edges.get_mut(e)?;
        let removed = slot.take();
        if removed.is_some() {
            self.alive -= 1;
        }
        removed
    }

    /// Live incident edges of `v` as `(edge_id, other_endpoint)`; self-loops
    /// appear once with `other == v`. Cleans tombstones from the adjacency
    /// list as a side effect.
    pub fn incident(&mut self, v: VertexId) -> Vec<(usize, VertexId)> {
        let edges = &self.edges;
        self.adj[v].retain(|&id| edges[id].is_some());
        self.adj[v]
            .iter()
            .map(|&id| {
                let e = self.edges[id].expect("retained edge is alive");
                (id, if e.u == v { e.v } else { e.u })
            })
            .collect()
    }

    /// Degree of `v` counting live edges; a self-loop contributes 1 here
    /// (the transform rules treat loops separately).
    pub fn degree(&mut self, v: VertexId) -> usize {
        let edges = &self.edges;
        self.adj[v].retain(|&id| edges[id].is_some());
        self.adj[v].len()
    }

    /// Iterate live edges as `(id, edge)`.
    pub fn live_edges(&self) -> impl Iterator<Item = (usize, MEdge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.map(|e| (i, e)))
    }

    /// Convert to a simple [`UncertainGraph`], dropping isolated vertices.
    ///
    /// Fails with [`SelfLoop`](crate::GraphError::SelfLoop) /
    /// [`DuplicateEdge`](crate::GraphError::DuplicateEdge) if
    /// loops or parallel edges remain (the transform fixpoint guarantees they
    /// don't). Returns the graph and the old→new vertex map.
    pub fn to_uncertain(&self) -> Result<(UncertainGraph, Vec<Option<VertexId>>)> {
        let mut used = vec![false; self.n];
        for (_, e) in self.live_edges() {
            used[e.u] = true;
            used[e.v] = true;
        }
        let mut map = vec![None; self.n];
        let mut next = 0usize;
        for v in 0..self.n {
            if used[v] {
                map[v] = Some(next);
                next += 1;
            }
        }
        let edge_list: Vec<(usize, usize, f64)> = self
            .live_edges()
            .map(|(_, e)| {
                (
                    map[e.u].expect("endpoint marked used"),
                    map[e.v].expect("endpoint marked used"),
                    e.p,
                )
            })
            .collect();
        let g = UncertainGraph::new(next, edge_list)?;
        Ok((g, map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_remove_roundtrip() {
        let mut mg = MultiGraph::new(3);
        let a = mg.add_edge(0, 1, 0.5);
        let b = mg.add_edge(1, 2, 0.6);
        assert_eq!(mg.num_edges(), 2);
        assert_eq!(mg.remove_edge(a).unwrap().p, 0.5);
        assert_eq!(mg.num_edges(), 1);
        assert!(mg.remove_edge(a).is_none(), "double remove is a no-op");
        assert_eq!(mg.edge(b).unwrap().u, 1);
    }

    #[test]
    fn parallel_edges_and_loops_allowed() {
        let mut mg = MultiGraph::new(2);
        mg.add_edge(0, 1, 0.5);
        mg.add_edge(0, 1, 0.7);
        mg.add_edge(0, 0, 0.9);
        assert_eq!(mg.num_edges(), 3);
        assert_eq!(mg.degree(0), 3);
        assert_eq!(mg.degree(1), 2);
        let inc: Vec<_> = mg.incident(0);
        assert_eq!(inc.len(), 3);
        assert!(inc.iter().any(|&(_, o)| o == 0), "loop reports itself");
    }

    #[test]
    fn incident_cleans_tombstones() {
        let mut mg = MultiGraph::new(2);
        let a = mg.add_edge(0, 1, 0.5);
        mg.add_edge(0, 1, 0.6);
        mg.remove_edge(a);
        assert_eq!(mg.incident(0).len(), 1);
        assert_eq!(mg.degree(1), 1);
    }

    #[test]
    fn to_uncertain_drops_isolated_and_renumbers() {
        let mut mg = MultiGraph::new(4);
        mg.add_edge(1, 3, 0.5);
        let (g, map) = mg.to_uncertain().unwrap();
        assert_eq!(g.num_vertices(), 2);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(map, vec![None, Some(0), None, Some(1)]);
    }

    #[test]
    fn to_uncertain_rejects_multi() {
        let mut mg = MultiGraph::new(2);
        mg.add_edge(0, 1, 0.5);
        mg.add_edge(1, 0, 0.6);
        assert!(mg.to_uncertain().is_err());
        let mut mg2 = MultiGraph::new(1);
        mg2.add_edge(0, 0, 0.5);
        assert!(mg2.to_uncertain().is_err());
    }

    #[test]
    fn from_uncertain_preserves_everything() {
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.6)]).unwrap();
        let mg = MultiGraph::from_uncertain(&g);
        assert_eq!(mg.num_edges(), 2);
        let (g2, map) = mg.to_uncertain().unwrap();
        assert_eq!(map, vec![Some(0), Some(1), Some(2)]);
        assert_eq!(g2.edges(), g.edges());
    }
}
