//! The benchmark's own view of a graph's structure: adjacency, hop
//! distances, bridges and 2-edge-connected components.
//!
//! The traffic generator vets terminal sets with this module only, never
//! with the library's planner or pruner, so a seed's op sequence depends on
//! the seed and the graph alone: a change to routing, pruning or the cost
//! model cannot change which requests the server is sent.

use netrel_ugraph::VertexId;
use std::collections::VecDeque;

/// Structure of one graph, computed once from its edge list.
pub struct Topology {
    /// Per vertex: `(neighbour, edge id)`.
    adj: Vec<Vec<(VertexId, usize)>>,
    edges: Vec<(VertexId, VertexId)>,
    /// Per vertex: its 2-edge-connected component.
    comp: Vec<usize>,
    /// The 2-edge-connected component with the most edges.
    giant: usize,
    /// Per component: the entry into the giant component of the branch of
    /// the bridge forest it hangs in (the giant's endpoint of the bridge
    /// that leads towards it), and that branch's id. `None` for the giant
    /// itself and for components in other trees.
    toward_giant: Vec<Option<(VertexId, usize)>>,
}

impl Topology {
    pub fn new(num_vertices: usize, edges: &[(VertexId, VertexId)]) -> Self {
        let mut adj = vec![Vec::new(); num_vertices];
        for (e, &(u, v)) in edges.iter().enumerate() {
            adj[u].push((v, e));
            adj[v].push((u, e));
        }
        let bridge = bridges(&adj, edges.len());
        // Components: connected pieces once the bridges are cut.
        let mut comp = vec![usize::MAX; num_vertices];
        let mut count = 0;
        for s in 0..num_vertices {
            if comp[s] != usize::MAX {
                continue;
            }
            comp[s] = count;
            let mut stack = vec![s];
            while let Some(v) = stack.pop() {
                for &(w, e) in &adj[v] {
                    if !bridge[e] && comp[w] == usize::MAX {
                        comp[w] = count;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        let mut size = vec![0usize; count];
        for (e, &(u, _)) in edges.iter().enumerate() {
            if !bridge[e] {
                size[comp[u]] += 1;
            }
        }
        let giant = (0..count)
            .max_by_key(|&c| (size[c], usize::MAX - c))
            .unwrap_or(0);
        // Walk the bridge forest out from the giant component.
        let mut forest = vec![Vec::new(); count];
        for (e, &(u, v)) in edges.iter().enumerate() {
            if bridge[e] {
                forest[comp[u]].push((comp[v], u));
                forest[comp[v]].push((comp[u], v));
            }
        }
        let mut toward_giant = vec![None; count];
        let mut seen = vec![false; count];
        seen[giant] = true;
        let mut queue = VecDeque::new();
        // Each branch starts at a component next to the giant one; `at` is
        // the giant's endpoint of the bridge between them.
        for &(c, at) in &forest[giant] {
            seen[c] = true;
            toward_giant[c] = Some((at, c));
            queue.push_back(c);
        }
        while let Some(c) = queue.pop_front() {
            for &(d, _) in &forest[c] {
                if !seen[d] {
                    seen[d] = true;
                    toward_giant[d] = toward_giant[c];
                    queue.push_back(d);
                }
            }
        }
        Topology {
            adj,
            edges: edges.to_vec(),
            comp,
            giant,
            toward_giant,
        }
    }

    /// Hop distance from `s` to every vertex (`usize::MAX` if unreachable).
    pub fn hops_from(&self, s: VertexId) -> Vec<usize> {
        self.bfs(s, |_| true)
    }

    fn bfs(&self, s: VertexId, keep: impl Fn(usize) -> bool) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.adj.len()];
        dist[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for &(w, e) in &self.adj[v] {
                if dist[w] == usize::MAX && keep(e) {
                    dist[w] = dist[v] + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Vertices of the largest connected component, sorted (ties go to
    /// the component with the smallest vertex).
    pub fn largest_component(&self) -> Vec<VertexId> {
        let mut best: Vec<VertexId> = Vec::new();
        let mut seen = vec![false; self.adj.len()];
        for s in 0..self.adj.len() {
            if seen[s] {
                continue;
            }
            let dist = self.hops_from(s);
            let members: Vec<VertexId> =
                (0..dist.len()).filter(|&v| dist[v] != usize::MAX).collect();
            for &v in &members {
                seen[v] = true;
            }
            if members.len() > best.len() {
                best = members;
            }
        }
        best
    }

    /// The edges of the giant 2-edge-connected component, as endpoint pairs.
    pub fn giant_edges(&self) -> Vec<(VertexId, VertexId)> {
        self.edges
            .iter()
            .copied()
            .filter(|&(u, v)| self.comp[u] == self.giant && self.comp[v] == self.giant)
            .collect()
    }

    /// Where a query for `terminals` enters the giant 2-edge-connected
    /// component, sorted: the terminals inside it, and for each branch of
    /// the bridge forest that holds a terminal, the giant's endpoint of the
    /// bridge into that branch. `None` when the query does not keep the
    /// giant component: no terminal is in it and they all hang in one
    /// branch (or in another tree), so no path between them crosses it.
    pub fn giant_entries(&self, terminals: &[VertexId]) -> Option<Vec<VertexId>> {
        let mut entries = Vec::new();
        let mut branches = Vec::new();
        let mut inside = false;
        for &t in terminals {
            let c = self.comp[t];
            if c == self.giant {
                entries.push(t);
                inside = true;
            } else {
                let (entry, branch) = self.toward_giant[c]?;
                entries.push(entry);
                branches.push(branch);
            }
        }
        branches.sort_unstable();
        branches.dedup();
        if !inside && branches.len() < 2 {
            return None;
        }
        entries.sort_unstable();
        entries.dedup();
        Some(entries)
    }

    /// The largest BFS layer of the giant component seen from `v` (a
    /// vertex of it), walking its own edges only: how wide a breadth-first
    /// sweep of the component that starts at `v` gets.
    pub fn giant_sweep_width(&self, v: VertexId) -> usize {
        let inside = |e: usize| {
            let (a, b) = self.edges[e];
            self.comp[a] == self.giant && self.comp[b] == self.giant
        };
        let dist = self.bfs(v, inside);
        let mut layers: Vec<usize> = Vec::new();
        for d in dist.into_iter().filter(|&d| d != usize::MAX) {
            if layers.len() <= d {
                layers.resize(d + 1, 0);
            }
            layers[d] += 1;
        }
        layers.into_iter().max().unwrap_or(0)
    }
}

/// Per edge: whether it is a bridge (Tarjan's low-link, iterative; the
/// tree edge back to the parent is skipped by id, so parallel edges are
/// never bridges).
fn bridges(adj: &[Vec<(VertexId, usize)>], num_edges: usize) -> Vec<bool> {
    let n = adj.len();
    let mut bridge = vec![false; num_edges];
    let mut order = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut next = 0;
    for root in 0..n {
        if order[root] != usize::MAX {
            continue;
        }
        order[root] = next;
        low[root] = next;
        next += 1;
        // (vertex, edge it was entered by, next adjacency slot)
        let mut stack = vec![(root, usize::MAX, 0usize)];
        while let Some(&mut (v, via, ref mut slot)) = stack.last_mut() {
            if let Some(&(w, e)) = adj[v].get(*slot) {
                *slot += 1;
                if e == via {
                    continue;
                }
                if order[w] == usize::MAX {
                    order[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push((w, e, 0));
                } else {
                    low[v] = low[v].min(order[w]);
                }
            } else {
                stack.pop();
                if let Some(&(parent, _, _)) = stack.last() {
                    low[parent] = low[parent].min(low[v]);
                    if low[v] > order[parent] {
                        bridge[via] = true;
                    }
                }
            }
        }
    }
    bridge
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle {0,1,2} — bridge 2-3 — square {3,4,5,6} — pendant 6-7,
    /// and a branch 1-8 off the triangle.
    fn lollipop() -> Topology {
        Topology::new(
            9,
            &[
                (0, 1),
                (1, 2),
                (0, 2),
                (2, 3),
                (3, 4),
                (4, 5),
                (5, 6),
                (3, 6),
                (6, 7),
                (1, 8),
            ],
        )
    }

    #[test]
    fn finds_bridges_and_the_giant_component() {
        let t = lollipop();
        let b = bridges(&t.adj, t.edges.len());
        let found: Vec<usize> = (0..b.len()).filter(|&e| b[e]).collect();
        assert_eq!(found, vec![3, 8, 9]);
        let mut giant = t.giant_edges();
        giant.sort_unstable();
        assert_eq!(giant, vec![(3, 4), (3, 6), (4, 5), (5, 6)]);
    }

    #[test]
    fn entries_follow_the_bridge_forest() {
        let t = lollipop();
        // 0 and 7 hang on opposite sides of the square: enter at 3 and 6.
        assert_eq!(t.giant_entries(&[0, 7]), Some(vec![3, 6]));
        // A terminal inside the square enters as itself.
        assert_eq!(t.giant_entries(&[5, 8]), Some(vec![3, 5]));
        // 0 and 8 share the triangle's branch: the square is pruned away.
        assert_eq!(t.giant_entries(&[0, 8]), None);
        assert_eq!(t.giant_entries(&[4, 5]), Some(vec![4, 5]));
    }

    #[test]
    fn sweep_width_stays_inside_the_giant_component() {
        let t = lollipop();
        // From 3: {3}, {4, 6}, {5}; the pendant 7 and the triangle are out.
        assert_eq!(t.giant_sweep_width(3), 2);
        assert_eq!(t.hops_from(0)[7], 4);
        assert_eq!(t.largest_component().len(), 9);
    }
}
