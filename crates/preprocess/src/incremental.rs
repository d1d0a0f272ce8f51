//! Incremental maintenance of a [`GraphIndex`] under single-edge mutations.
//!
//! A mutated graph could always rebuild its index from scratch, but the
//! paper's decomposition makes most mutations *local*: a probability
//! update touches no structure at all, an edge added inside a
//! 2-edge-connected component changes nothing but its own bridge flag, and
//! an edge removed from inside one either leaves the partition as it was or
//! splits that component. The patch functions here exploit exactly that
//! locality and fall back to a full rebuild whenever a mutation merges or
//! splits components (a new bridge, a removed bridge, or an
//! inter-component edge).
//!
//! The contract — enforced by the property tests below and by the
//! engine's rebuild-equivalence suite — is that a patched index is
//! **field-for-field identical** to `GraphIndex::build` on the mutated
//! graph. The key invariants making the cheap paths sound:
//!
//! * `TwoEcc` numbers components by first-seen vertex in `0..n` order, so
//!   an unchanged partition yields unchanged labels.
//! * Any cycle through an edge lies entirely inside one 2ECC (a cycle
//!   cannot cross a bridge), so bridge-ness of an edge in component `C`
//!   equals its bridge-ness in the induced subgraph `G[C]`.
//! * `forest_adj` lists bridges in ascending edge id, and shifting every id
//!   above a removed edge down by one keeps that order.

// Answer-affecting region (docs/lints.md): no clock reads, thread-count
// probes or hash-order iteration.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::shared::GraphIndex;
use netrel_ugraph::bridges::cut_structure;
use netrel_ugraph::{EdgeId, UncertainGraph, VertexId};

/// How a mutation was absorbed into the index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexPatch {
    /// The index was patched in place, touching only the affected
    /// component (probability updates touch nothing at all).
    Patched,
    /// The mutation merged or split components; the index was rebuilt
    /// from scratch.
    Rebuilt,
}

/// Absorb an `update_edge_prob` mutation. The index stores topology only
/// (bridges, components, forest), so this never touches it — the function
/// exists to make the engine's mutation dispatch uniform and the
/// invariant explicit.
#[inline]
pub fn patch_update_prob(_index: &mut GraphIndex) -> IndexPatch {
    IndexPatch::Patched
}

/// Absorb an `add_edge` mutation. `g` is the graph *after* the edge with
/// id `eid` (necessarily the highest id) was appended.
///
/// If both endpoints lie in the same 2ECC the new edge cannot be a
/// bridge, cannot change any other edge's bridge-ness (every new cycle it
/// closes stays inside the component), and cannot relabel components, so
/// the patch only appends its flag. Any inter-component edge merges forest
/// nodes or links forest trees: full rebuild.
pub fn patch_add_edge(g: &UncertainGraph, index: &mut GraphIndex, eid: EdgeId) -> IndexPatch {
    let e = g.edge(eid);
    if index.ecc.comp[e.u] != index.ecc.comp[e.v] {
        *index = GraphIndex::build(g);
        return IndexPatch::Rebuilt;
    }
    index.cut.is_bridge.push(false);
    IndexPatch::Patched
}

/// Absorb a `remove_edge` mutation. `g` is the graph *after* edge `eid`
/// was removed; `endpoint` is either endpoint of the removed edge and
/// `was_bridge` is the edge's pre-mutation bridge flag.
///
/// Removing a bridge splits a forest tree: full rebuild. Removing a
/// non-bridge keeps its component connected (a 2-edge-connected graph
/// survives any single edge removal), so the component either stays
/// 2-edge-connected — edge ids above the removed one shift down by one — or
/// develops internal bridges, which splits it: full rebuild.
pub fn patch_remove_edge(
    g: &UncertainGraph,
    index: &mut GraphIndex,
    eid: EdgeId,
    endpoint: VertexId,
    was_bridge: bool,
) -> IndexPatch {
    if was_bridge {
        *index = GraphIndex::build(g);
        return IndexPatch::Rebuilt;
    }
    let c = index.ecc.comp[endpoint];
    let keep: Vec<bool> = index.ecc.comp.iter().map(|&cc| cc == c).collect();
    let (sub, _) = g.induced_subgraph(&keep);
    let sub_cut = cut_structure(&sub);
    if sub_cut.is_bridge.iter().any(|&b| b) {
        // The component split into two or more 2ECCs.
        *index = GraphIndex::build(g);
        return IndexPatch::Rebuilt;
    }
    // Partition unchanged; shift edge ids above the removed one down.
    index.cut.is_bridge.remove(eid);
    for adj in &mut index.forest_adj {
        for (_, id) in adj.iter_mut() {
            if *id > eid {
                *id -= 1;
            }
        }
    }
    IndexPatch::Patched
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn assert_index_eq(patched: &GraphIndex, fresh: &GraphIndex, what: &str) {
        assert_eq!(
            patched.cut.is_bridge, fresh.cut.is_bridge,
            "{what}: is_bridge"
        );
        assert_eq!(patched.ecc.comp, fresh.ecc.comp, "{what}: ecc.comp");
        assert_eq!(
            patched.ecc.num_comps, fresh.ecc.num_comps,
            "{what}: num_comps"
        );
        assert_eq!(patched.forest_adj, fresh.forest_adj, "{what}: forest_adj");
    }

    /// Triangle {0,1,2} — bridge — triangle {3,4,5} — pendant 5-6-7.
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
    fn prob_update_needs_no_patch() {
        let mut g = lollipop();
        let mut index = GraphIndex::build(&g);
        g.update_edge_prob(3, 0.123).unwrap();
        assert_eq!(patch_update_prob(&mut index), IndexPatch::Patched);
        assert_index_eq(&index, &GraphIndex::build(&g), "prob update");
    }

    #[test]
    fn intra_component_add_is_patched() {
        let mut g = lollipop();
        let mut index = GraphIndex::build(&g);
        // Chord inside the second triangle's component? It is already a
        // triangle; instead chord the pendant path into the component by
        // hand: add 1-2? exists. Use a square fixture below for that; here
        // add an edge between two vertices of the first triangle's 2ECC
        // after growing it: 0-1-2 is complete, so extend via 5-7 (merges
        // pendant into a cycle — inter-component, rebuilt) and 3-4? exists.
        // The genuinely intra-component case: a 4-cycle with a chord.
        let mut sq = UncertainGraph::new(
            5,
            [
                (0, 1, 0.5),
                (1, 2, 0.6),
                (2, 3, 0.7),
                (3, 0, 0.8),
                (3, 4, 0.9),
            ],
        )
        .unwrap();
        let mut sq_index = GraphIndex::build(&sq);
        let eid = sq.add_edge(0, 2, 0.4).unwrap();
        assert_eq!(patch_add_edge(&sq, &mut sq_index, eid), IndexPatch::Patched);
        assert_index_eq(&sq_index, &GraphIndex::build(&sq), "intra add");

        // Inter-component add on the lollipop: merges components.
        let eid = g.add_edge(2, 4, 0.5).unwrap();
        assert_eq!(patch_add_edge(&g, &mut index, eid), IndexPatch::Rebuilt);
        assert_index_eq(&index, &GraphIndex::build(&g), "inter add");
    }

    #[test]
    fn chord_removal_is_patched_cycle_removal_rebuilds() {
        // 4-cycle with a chord: removing the chord keeps one 2ECC
        // (patched); removing a cycle edge afterwards splits it (rebuilt).
        let mut g = UncertainGraph::new(
            4,
            [
                (0, 1, 0.5),
                (1, 2, 0.6),
                (2, 3, 0.7),
                (3, 0, 0.8),
                (0, 2, 0.9),
            ],
        )
        .unwrap();
        let mut index = GraphIndex::build(&g);
        let chord = 4;
        assert!(!index.cut.is_bridge[chord]);
        let removed = g.remove_edge(chord).unwrap();
        assert_eq!(
            patch_remove_edge(&g, &mut index, chord, removed.u, false),
            IndexPatch::Patched
        );
        assert_index_eq(&index, &GraphIndex::build(&g), "chord removal");

        let removed = g.remove_edge(1).unwrap();
        assert_eq!(
            patch_remove_edge(&g, &mut index, 1, removed.u, false),
            IndexPatch::Rebuilt
        );
        assert_index_eq(&index, &GraphIndex::build(&g), "cycle-edge removal");
    }

    #[test]
    fn bridge_removal_rebuilds() {
        let mut g = lollipop();
        let mut index = GraphIndex::build(&g);
        let bridge = 3; // edge (2, 3)
        assert!(index.cut.is_bridge[bridge]);
        let removed = g.remove_edge(bridge).unwrap();
        assert_eq!(
            patch_remove_edge(&g, &mut index, bridge, removed.u, true),
            IndexPatch::Rebuilt
        );
        assert_index_eq(&index, &GraphIndex::build(&g), "bridge removal");
    }

    #[test]
    fn edge_id_shift_keeps_forest_labels_aligned() {
        // Bridges with ids above the removed edge must shift down in both
        // is_bridge and forest_adj. Chorded square (edges 0..=4) plus a
        // pendant bridge with the highest id.
        let mut g = UncertainGraph::new(
            5,
            [
                (0, 1, 0.5),
                (1, 2, 0.6),
                (2, 3, 0.7),
                (3, 0, 0.8),
                (0, 2, 0.9),
                (3, 4, 0.4),
            ],
        )
        .unwrap();
        let mut index = GraphIndex::build(&g);
        assert_eq!(index.forest_adj, vec![vec![(1, 5)], vec![(0, 5)]]);
        let removed = g.remove_edge(4).unwrap(); // the chord
        assert_eq!(
            patch_remove_edge(&g, &mut index, 4, removed.u, false),
            IndexPatch::Patched
        );
        assert_eq!(index.cut.is_bridge, vec![false, false, false, false, true]);
        assert_eq!(index.forest_adj, vec![vec![(1, 4)], vec![(0, 4)]]);
        assert_index_eq(&index, &GraphIndex::build(&g), "id shift");
    }

    /// Random mutation sequences on random graphs: after every step the
    /// (patched or rebuilt) index must equal a fresh build. This is the
    /// structural half of the engine's rebuild-equivalence guarantee.
    #[test]
    fn random_mutation_sequences_match_fresh_builds() {
        for seed in 0..30u64 {
            let mut rng = StdRng::seed_from_u64(0xF00D + seed);
            let n = rng.gen_range(2..12usize);
            let mut edges = Vec::new();
            for u in 0..n {
                for v in (u + 1)..n {
                    if rng.gen_bool(0.35) {
                        edges.push((u, v, rng.gen_range(0.05..=1.0f64)));
                    }
                }
            }
            let mut g = UncertainGraph::new(n, edges).unwrap();
            let mut index = GraphIndex::build(&g);
            for step in 0..25 {
                let what = format!("seed {seed} step {step}");
                match rng.gen_range(0..3u8) {
                    0 if g.num_edges() > 0 => {
                        let e = rng.gen_range(0..g.num_edges());
                        g.update_edge_prob(e, rng.gen_range(0.05..=1.0f64)).unwrap();
                        patch_update_prob(&mut index);
                    }
                    1 => {
                        let u = rng.gen_range(0..n);
                        let v = rng.gen_range(0..n);
                        if u == v || g.neighbors(u).iter().any(|&(w, _)| w == v) {
                            continue;
                        }
                        let eid = g.add_edge(u, v, rng.gen_range(0.05..=1.0f64)).unwrap();
                        patch_add_edge(&g, &mut index, eid);
                    }
                    _ if g.num_edges() > 0 => {
                        let e = rng.gen_range(0..g.num_edges());
                        let was_bridge = index.cut.is_bridge[e];
                        let removed = g.remove_edge(e).unwrap();
                        patch_remove_edge(&g, &mut index, e, removed.u, was_bridge);
                    }
                    _ => continue,
                }
                assert_index_eq(&index, &GraphIndex::build(&g), &what);
            }
        }
    }
}
