//! Distance-constrained (d-hop) two-terminal reliability solvers.
//!
//! The d-hop indicator — "does a sampled world contain an `s`–`t` path of
//! at most `d` edges?" — depends on path *length*, which the S2BDD's
//! frontier-connectivity states do not track. This module provides the two
//! part-level solvers the [`DHop`](crate::SemanticsSpec::DHop) semantics
//! plugs into the pipeline instead:
//!
//! * [`dhop_exact_reliability`] — exact recursive edge conditioning
//!   (factoring): condition on one undecided edge at a time, pruning whole
//!   subtrees with a pessimistic/optimistic BFS pair. Worst case `O(2^|E|)`
//!   but the bounds close most branches early; callers cap part size at
//!   [`DHOP_EXACT_EDGE_LIMIT`].
//! * [`sample_dhop_reliability`] — flat possible-world sampling of the same
//!   indicator through the crate's shared seed-stable stream driver, with
//!   both MC and Horvitz–Thompson estimators.

use crate::sampling::{estimate_indicator, sampled_part_result, SamplingConfig, SamplingResult};
use crate::semantics::SemPart;
use netrel_s2bdd::S2BddResult;
use netrel_ugraph::{GraphError, HopBfs, HopSampler, UncertainGraph, VertexId};

/// Largest edge count for which d-hop parts are solved by exact recursive
/// conditioning; beyond it the deterministic route falls back to hop-bounded
/// sampling (and the engine's planner routes to its sampling solver). `2^20`
/// conditioning leaves is the worst case; the BFS bounds usually close far
/// earlier.
pub const DHOP_EXACT_EDGE_LIMIT: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq)]
enum EdgeState {
    Present,
    Absent,
    Undecided,
}

fn condition(
    g: &UncertainGraph,
    s: VertexId,
    t: VertexId,
    d: u32,
    states: &mut [EdgeState],
    from: usize,
    bfs: &mut HopBfs,
) -> f64 {
    // The pessimistic pass (decided-present edges only) proves the
    // indicator 1; a failed optimistic pass (every edge not yet absent)
    // proves it 0.
    if bfs.reaches(g, s, t, d, |e| states[e] == EdgeState::Present) {
        return 1.0;
    }
    if !bfs.reaches(g, s, t, d, |e| states[e] != EdgeState::Absent) {
        return 0.0;
    }
    // Neither bound closed, so at least one edge is still undecided: a fully
    // assigned state is always resolved by one of the two passes.
    let j = (from..g.num_edges())
        .find(|&j| states[j] == EdgeState::Undecided)
        .expect("undecided state survives the bound checks");
    let p = g.edges()[j].p;
    states[j] = EdgeState::Present;
    let with = condition(g, s, t, d, states, j + 1, bfs);
    states[j] = EdgeState::Absent;
    let without = condition(g, s, t, d, states, j + 1, bfs);
    states[j] = EdgeState::Undecided;
    p * with + (1.0 - p) * without
}

/// Exact probability that `g` contains an `s`–`t` path of at most `d`
/// edges, by recursive edge conditioning. Deterministic and seed-free; the
/// branch order is the graph's edge order, so the floating-point result is
/// bit-stable across runs. `s == t` is vacuously 1. Worst case `O(2^|E|)` —
/// callers bound `|E|` (see [`DHOP_EXACT_EDGE_LIMIT`]).
pub fn dhop_exact_reliability(
    g: &UncertainGraph,
    s: VertexId,
    t: VertexId,
    d: u32,
) -> Result<f64, GraphError> {
    let terms = g.validate_terminals(&[s, t])?;
    if terms.len() < 2 {
        return Ok(1.0);
    }
    let mut states = vec![EdgeState::Undecided; g.num_edges()];
    let mut bfs = HopBfs::new(g.num_vertices());
    Ok(condition(g, s, t, d, &mut states, 0, &mut bfs))
}

/// Estimate the d-hop reliability by flat possible-world sampling, through
/// the same seed-stable stream partition as
/// [`sample_reliability`](crate::sample_reliability): the result is a pure
/// function of `(samples, estimator, seed)`, independent of `cfg.threads`.
pub fn sample_dhop_reliability(
    g: &UncertainGraph,
    s: VertexId,
    t: VertexId,
    d: u32,
    cfg: SamplingConfig,
) -> Result<SamplingResult, GraphError> {
    let terms = g.validate_terminals(&[s, t])?;
    if terms.len() < 2 {
        return Ok(SamplingResult {
            estimate: 1.0,
            samples: 0,
            hits: 0,
            variance_estimate: 0.0,
        });
    }
    Ok(estimate_indicator(
        cfg,
        |share, mut rng| {
            let mut sampler = HopSampler::new(g.num_vertices(), g.num_edges());
            (0..share)
                .filter(|_| sampler.sample_within_hops(g, s, t, d, &mut rng))
                .count()
        },
        |share, mut rng| {
            let mut sampler = HopSampler::new(g.num_vertices(), g.num_edges());
            (0..share)
                .map(|_| sampler.sample_world_within_hops(g, s, t, d, &mut rng))
                .collect::<Vec<_>>()
        },
    ))
}

fn part_terminals(part: &SemPart) -> Result<(VertexId, VertexId), GraphError> {
    match *part.terminals.as_slice() {
        [s, t] => Ok((s, t)),
        ref other => Err(GraphError::InvalidTerminals {
            reason: format!(
                "d-hop part needs exactly two terminals, got {}",
                other.len()
            ),
        }),
    }
}

/// Solve a d-hop part exactly and shape the outcome as an [`S2BddResult`]
/// (tight bounds, `exact = true`, zero samples), so it composes with other
/// parts through
/// [`combine_part_results`](crate::combine_part_results).
pub fn dhop_exact_part(part: &SemPart, d: u32) -> Result<S2BddResult, GraphError> {
    let (s, t) = part_terminals(part)?;
    let r = dhop_exact_reliability(&part.graph, s, t, d)?;
    let m = part.graph.num_edges();
    Ok(S2BddResult {
        estimate: r,
        lower_bound: r,
        upper_bound: r,
        exact: true,
        samples_requested: 0,
        samples_used: 0,
        s_prime_final: 0,
        strata: 1,
        deleted_nodes: 0,
        variance_estimate: 0.0,
        peak_width: 0,
        peak_memory_bytes: 0,
        layers_completed: m,
        layers_total: m,
        early_exit: false,
        node_cap_hit: false,
        nodes_created: 0,
    })
}

/// Flat-sample a d-hop part and shape the outcome as an [`S2BddResult`]
/// with the trivial `[0, 1]` proven bounds — the d-hop analogue of
/// [`sample_part_result`](crate::sample_part_result).
pub fn sample_dhop_part(
    part: &SemPart,
    d: u32,
    cfg: SamplingConfig,
) -> Result<S2BddResult, GraphError> {
    let (s, t) = part_terminals(part)?;
    let r = sample_dhop_reliability(&part.graph, s, t, d, cfg)?;
    Ok(sampled_part_result(r, cfg.samples, part.graph.num_edges()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_s2bdd::EstimatorKind;

    fn square_with_chord() -> UncertainGraph {
        UncertainGraph::new(
            4,
            [
                (0, 1, 0.5),
                (1, 2, 0.5),
                (2, 3, 0.5),
                (3, 0, 0.5),
                (0, 2, 0.3),
            ],
        )
        .unwrap()
    }

    #[test]
    fn exact_matches_hand_computation() {
        let g = square_with_chord();
        // Within 1 hop: only the chord.
        let r1 = dhop_exact_reliability(&g, 0, 2, 1).unwrap();
        assert!((r1 - 0.3).abs() < 1e-12);
        // Within 2 hops: chord or either 2-edge path.
        let truth2 = 1.0 - (1.0 - 0.3f64) * (1.0 - 0.25) * (1.0 - 0.25);
        let r2 = dhop_exact_reliability(&g, 0, 2, 2).unwrap();
        assert!((r2 - truth2).abs() < 1e-12, "{r2} vs {truth2}");
        // d large enough: plain two-terminal reliability.
        let r4 = dhop_exact_reliability(&g, 0, 2, 4).unwrap();
        let flat = netrel_bdd::brute_force_reliability(&g, &[0, 2]);
        assert!((r4 - flat).abs() < 1e-12);
    }

    #[test]
    fn exact_handles_trivial_cases() {
        let g = square_with_chord();
        assert_eq!(dhop_exact_reliability(&g, 1, 1, 0).unwrap(), 1.0);
        // d = 0 with distinct terminals: no path of length 0.
        assert_eq!(dhop_exact_reliability(&g, 0, 2, 0).unwrap(), 0.0);
    }

    #[test]
    fn sampling_converges_to_exact_with_both_estimators() {
        let g = square_with_chord();
        let truth = dhop_exact_reliability(&g, 0, 2, 2).unwrap();
        for estimator in [EstimatorKind::MonteCarlo, EstimatorKind::HorvitzThompson] {
            let cfg = SamplingConfig {
                samples: 100_000,
                estimator,
                seed: 17,
                ..Default::default()
            };
            let r = sample_dhop_reliability(&g, 0, 2, 2, cfg).unwrap();
            assert!(
                (r.estimate - truth).abs() < 0.01,
                "{estimator:?}: {} vs {truth}",
                r.estimate
            );
        }
    }

    #[test]
    fn sampling_is_thread_invariant() {
        let g = square_with_chord();
        let base = SamplingConfig {
            samples: 20_000,
            seed: 23,
            ..Default::default()
        };
        let a = sample_dhop_reliability(&g, 0, 2, 2, base).unwrap();
        for threads in [0, 3, 64] {
            let b =
                sample_dhop_reliability(&g, 0, 2, 2, SamplingConfig { threads, ..base }).unwrap();
            assert_eq!(a.hits, b.hits, "threads={threads}");
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        }
    }

    #[test]
    fn part_shapes_compose() {
        let g = square_with_chord();
        let part = SemPart {
            graph: g.clone(),
            terminals: vec![0, 2],
            computation: crate::semantics::PartComputation::DHop { d: 2 },
        };
        let exact = dhop_exact_part(&part, 2).unwrap();
        assert!(exact.exact);
        assert_eq!(exact.lower_bound, exact.upper_bound);
        let sampled = sample_dhop_part(
            &part,
            2,
            SamplingConfig {
                samples: 50_000,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!sampled.exact);
        assert_eq!((sampled.lower_bound, sampled.upper_bound), (0.0, 1.0));
        assert!((sampled.estimate - exact.estimate).abs() < 0.01);
        let combined = crate::combine_part_results(1.0, Default::default(), vec![sampled]);
        assert!(combined.variance_estimate > 0.0);
    }
}
