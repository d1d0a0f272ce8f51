//! Seeded synthetic graph generators.
//!
//! Every generator emits a *weighted* edge list `(u, v, weight)` over `n`
//! vertices — weights feed the probability models in [`crate::prob`] — and
//! guarantees the result is connected and simple (no loops, no parallels).

pub mod affiliation;
pub mod coauthor;
pub mod grid;
pub mod ppi;

pub use affiliation::affiliation;
pub use coauthor::coauthor;
pub use grid::road_grid;
pub use ppi::protein_interaction;

use netrel_ugraph::Dsu;
use rand::Rng;

/// A weighted edge list over `n` vertices.
pub type WeightedEdges = Vec<(usize, usize, f64)>;

/// Deduplicate (normalizing endpoint order) and drop self-loops.
pub(crate) fn dedup_simple(edges: WeightedEdges) -> WeightedEdges {
    let mut seen = std::collections::HashSet::new();
    edges
        .into_iter()
        .filter_map(|(u, v, w)| {
            if u == v {
                return None;
            }
            let key = (u.min(v), u.max(v));
            seen.insert(key).then_some((key.0, key.1, w))
        })
        .collect()
}

/// Append minimum-count bridging edges (weight `w`) so the graph on
/// `0..n` becomes connected.
pub(crate) fn connect_components<R: Rng + ?Sized>(
    n: usize,
    edges: &mut WeightedEdges,
    w: f64,
    rng: &mut R,
) {
    if n == 0 {
        return;
    }
    let mut dsu = Dsu::new(n);
    for &(u, v, _) in edges.iter() {
        dsu.union(u, v);
    }
    // Collect one representative per component, then chain them randomly.
    let mut reps = Vec::new();
    let mut seen_root = std::collections::HashSet::new();
    for v in 0..n {
        let r = dsu.find(v);
        if seen_root.insert(r) {
            reps.push(v);
        }
    }
    for pair in reps.windows(2) {
        // Wire a random member near each representative to avoid always
        // touching vertex 0; representatives themselves are fine too.
        let (a, b) = (pair[0], pair[1]);
        let _ = rng.gen::<u64>(); // keep the stream moving for reproducibility
        edges.push((a.min(b), a.max(b), w));
        dsu.union(a, b);
    }
    debug_assert_eq!(dsu.components(), 1);
}

#[cfg(test)]
pub(crate) fn assert_connected_simple(n: usize, edges: &WeightedEdges) {
    let g = netrel_ugraph::UncertainGraph::new(n, edges.iter().map(|&(u, v, _)| (u, v, 0.5)))
        .expect("generator must emit a simple graph");
    assert!(g.is_connected(), "generator must emit a connected graph");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dedup_normalizes_and_drops_loops() {
        let edges = vec![(1, 0, 1.0), (0, 1, 2.0), (2, 2, 3.0), (1, 2, 4.0)];
        let out = dedup_simple(edges);
        assert_eq!(out, vec![(0, 1, 1.0), (1, 2, 4.0)]);
    }

    #[test]
    fn connect_components_joins_everything() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut edges = vec![(0, 1, 1.0), (2, 3, 1.0), (4, 5, 1.0)];
        connect_components(6, &mut edges, 1.0, &mut rng);
        assert_connected_simple(6, &dedup_simple(edges));
    }

    #[test]
    fn connect_components_noop_when_connected() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut edges = vec![(0, 1, 1.0), (1, 2, 1.0)];
        let before = edges.len();
        connect_components(3, &mut edges, 1.0, &mut rng);
        assert_eq!(edges.len(), before);
    }
}
