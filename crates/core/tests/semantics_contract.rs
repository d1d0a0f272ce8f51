//! Contract suite for the reliability semantics: every [`SemanticsSpec`]
//! must agree with the exhaustive possible-world oracle, and the k-terminal
//! path must stay bit-identical to one-shot `pro_reliability`.

use netrel_core::{
    combine_semantics_plan, exact_semantics_value, oracle_value, pro_reliability,
    sample_semantics_part, semantics_reliability, PartComputation, ProConfig, SamplingConfig,
    SemPart, SemanticsSpec,
};
use netrel_preprocess::GraphIndex;
use netrel_s2bdd::{EstimatorKind, S2BddConfig};
use netrel_ugraph::UncertainGraph;
use proptest::prelude::*;

/// Small fixtures exercising bridges, cycles, chords, and dangling tails —
/// all ≤ 12 edges, well inside the oracle's range.
fn fixtures() -> Vec<UncertainGraph> {
    vec![
        // Path with a tail.
        UncertainGraph::new(4, [(0, 1, 0.8), (1, 2, 0.6), (2, 3, 0.9)]).unwrap(),
        // 4-cycle plus chord.
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
        .unwrap(),
        // Two triangles joined by a bridge (decomposition-heavy).
        UncertainGraph::new(
            6,
            [
                (0, 1, 0.7),
                (1, 2, 0.8),
                (0, 2, 0.9),
                (2, 3, 0.6),
                (3, 4, 0.7),
                (4, 5, 0.8),
                (3, 5, 0.9),
            ],
        )
        .unwrap(),
        // Dense-ish: K4 plus a pendant.
        UncertainGraph::new(
            5,
            [
                (0, 1, 0.4),
                (0, 2, 0.5),
                (0, 3, 0.6),
                (1, 2, 0.7),
                (1, 3, 0.8),
                (2, 3, 0.9),
                (3, 4, 0.5),
            ],
        )
        .unwrap(),
        // Disconnected pair of edges (trivially-zero cases).
        UncertainGraph::new(4, [(0, 1, 0.9), (2, 3, 0.9)]).unwrap(),
    ]
}

fn specs_for(g: &UncertainGraph) -> Vec<(SemanticsSpec, Vec<usize>)> {
    let n = g.num_vertices();
    let far = n - 1;
    let mut cases = vec![
        (SemanticsSpec::TwoTerminal, vec![0, far]),
        (SemanticsSpec::KTerminal, vec![0, far]),
        (SemanticsSpec::KTerminal, vec![0, 1, far]),
        (SemanticsSpec::AllTerminal, vec![0]),
        (SemanticsSpec::DHop { d: 1 }, vec![0, far]),
        (SemanticsSpec::DHop { d: 2 }, vec![0, far]),
        (SemanticsSpec::DHop { d: n as u32 }, vec![0, far]),
        (SemanticsSpec::ReachSet, vec![0]),
        (SemanticsSpec::ReachSet, vec![far]),
    ];
    cases.retain(|(_, t)| t.iter().all(|&v| v < n));
    cases
}

#[test]
fn exact_route_agrees_with_oracle_on_all_semantics() {
    for g in fixtures() {
        for (spec, t) in specs_for(&g) {
            let truth = oracle_value(&g, spec, &t).unwrap();
            let got = exact_semantics_value(&g, spec, &t).unwrap();
            assert!(
                (got - truth).abs() < 1e-9,
                "{spec:?} {t:?}: {got} vs oracle {truth}"
            );
        }
    }
}

#[test]
fn default_config_route_agrees_with_oracle_on_all_semantics() {
    // The default ProConfig is exact on graphs this small, so the one-shot
    // entry point must also land on the oracle.
    for g in fixtures() {
        for (spec, t) in specs_for(&g) {
            let truth = oracle_value(&g, spec, &t).unwrap();
            let r = semantics_reliability(&g, spec, &t, ProConfig::default()).unwrap();
            assert!(
                (r.estimate - truth).abs() < 1e-9,
                "{spec:?} {t:?}: {} vs oracle {truth}",
                r.estimate
            );
            assert!(
                r.lower_bound <= r.estimate + 1e-12 && r.estimate <= r.upper_bound + 1e-12,
                "{spec:?} {t:?}: bounds [{}, {}] must bracket {}",
                r.lower_bound,
                r.upper_bound,
                r.estimate
            );
        }
    }
}

#[test]
fn sampling_route_converges_to_oracle_per_part() {
    // Flat-sample every part of every plan (both estimators) and recombine:
    // the composed estimate must converge to the oracle value.
    for g in fixtures() {
        for (spec, t) in specs_for(&g) {
            let truth = oracle_value(&g, spec, &t).unwrap();
            for estimator in [EstimatorKind::MonteCarlo, EstimatorKind::HorvitzThompson] {
                let index = GraphIndex::build(&g);
                let plan = spec.plan(&g, &index, &t, Default::default()).unwrap();
                let solved = plan
                    .parts
                    .iter()
                    .enumerate()
                    .map(|(i, part)| {
                        sample_semantics_part(
                            part,
                            SamplingConfig {
                                samples: 60_000,
                                estimator,
                                seed: 0xC0FFEE ^ i as u64,
                                ..Default::default()
                            },
                        )
                        .unwrap()
                    })
                    .collect();
                let r = combine_semantics_plan(&plan, solved);
                let tol = 0.02 * spec.value_upper(&g).max(1.0);
                assert!(
                    (r.estimate - truth).abs() < tol,
                    "{spec:?} {t:?} {estimator:?}: {} vs oracle {truth}",
                    r.estimate
                );
            }
        }
    }
}

#[test]
fn sampling_fallback_inside_solve_is_used_for_wide_dhop_parts() {
    // K7 (21 edges): every vertex is at distance 1 from both endpoints, so
    // d = 2 prunes nothing and the part stays above DHOP_EXACT_EDGE_LIMIT —
    // the deterministic route must fall back to hop-bounded sampling and
    // still land near the oracle.
    let mut edges = Vec::new();
    for u in 0..7usize {
        for v in (u + 1)..7 {
            edges.push((u, v, 0.15 + 0.1 * ((u + v) % 5) as f64));
        }
    }
    let g = UncertainGraph::new(7, edges).unwrap();
    assert!(g.num_edges() > netrel_core::DHOP_EXACT_EDGE_LIMIT);
    let spec = SemanticsSpec::DHop { d: 2 };
    let truth = oracle_value(&g, spec, &[0, 6]).unwrap();
    let cfg = ProConfig {
        s2bdd: S2BddConfig {
            samples: 60_000,
            seed: 11,
            ..Default::default()
        },
        ..Default::default()
    };
    let r = semantics_reliability(&g, spec, &[0, 6], cfg).unwrap();
    assert!(
        r.preprocess_stats.max_part_edges > netrel_core::DHOP_EXACT_EDGE_LIMIT,
        "the pruned part must stay above the exact-enumeration limit"
    );
    assert!(!r.exact, "oversized d-hop part must not claim exactness");
    assert!(r.samples_used > 0);
    assert!(
        (r.estimate - truth).abs() < 0.02,
        "{} vs oracle {truth}",
        r.estimate
    );
}

#[test]
fn two_terminal_is_bit_identical_to_pro_reliability() {
    // The refactor's anchor: routing two-terminal queries through the
    // semantics boundary reproduces the one-shot pipeline bit for bit, for
    // exact, width-bounded, and sampling-heavy configurations.
    let configs = [
        ProConfig::default(),
        ProConfig::paper_default(42),
        ProConfig {
            s2bdd: S2BddConfig {
                max_width: 2,
                samples: 2_000,
                seed: 7,
                ..Default::default()
            },
            ..Default::default()
        },
        ProConfig {
            s2bdd: S2BddConfig {
                max_width: 1,
                samples: 500,
                estimator: EstimatorKind::HorvitzThompson,
                seed: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    ];
    for g in fixtures() {
        let far = g.num_vertices() - 1;
        for cfg in configs {
            let a = pro_reliability(&g, &[0, far], cfg).unwrap();
            for spec in [SemanticsSpec::TwoTerminal, SemanticsSpec::KTerminal] {
                let b = semantics_reliability(&g, spec, &[0, far], cfg).unwrap();
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{spec:?}");
                assert_eq!(a.lower_bound.to_bits(), b.lower_bound.to_bits());
                assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
                assert_eq!(a.variance_estimate.to_bits(), b.variance_estimate.to_bits());
                assert_eq!(a.samples_used, b.samples_used);
                assert_eq!(a.exact, b.exact);
                assert_eq!(a.pb.to_bits(), b.pb.to_bits());
            }
        }
    }
}

#[test]
fn dhop_part_solver_dispatch_is_size_gated() {
    // The same part solved through the deterministic route: exact (tight
    // bounds) under the edge limit.
    let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.5), (0, 2, 0.25)]).unwrap();
    let part = SemPart {
        graph: g,
        terminals: vec![0, 2],
        computation: PartComputation::DHop { d: 1 },
    };
    let r = netrel_core::solve_semantics_part(&part, S2BddConfig::default()).unwrap();
    assert!(r.exact);
    assert!((r.estimate - 0.25).abs() < 1e-12);
}

/// Random sparse graph on up to 8 vertices with ≤ 12 edges, as an edge-list
/// strategy (may be disconnected — trivially-zero paths are part of the
/// contract).
fn random_graph() -> impl Strategy<Value = UncertainGraph> {
    proptest::collection::vec((0usize..8, 0usize..8, 0.05f64..1.0), 1..13).prop_filter_map(
        "needs at least one simple edge",
        |edges| {
            let mut seen = std::collections::HashSet::new();
            let list: Vec<(usize, usize, f64)> = edges
                .into_iter()
                .filter_map(|(u, v, p)| {
                    if u == v {
                        return None;
                    }
                    let key = (u.min(v), u.max(v));
                    seen.insert(key).then_some((key.0, key.1, p))
                })
                .collect();
            if list.is_empty() {
                return None;
            }
            UncertainGraph::new(8, list).ok()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every semantics, random graphs: the exact route equals the oracle.
    #[test]
    fn random_graphs_agree_with_oracle(
        g in random_graph(),
        t0 in 0usize..8,
        t1 in 0usize..8,
        d in 1u32..6,
    ) {
        prop_assume!(t0 != t1);
        let pair = vec![t0, t1];
        let mut cases = vec![
            (SemanticsSpec::TwoTerminal, pair.clone()),
            (SemanticsSpec::KTerminal, pair.clone()),
            (SemanticsSpec::AllTerminal, vec![0]),
            (SemanticsSpec::DHop { d }, pair),
            (SemanticsSpec::ReachSet, vec![t0]),
        ];
        cases.push((SemanticsSpec::KTerminal, vec![t0.min(t1), 7]));
        for (spec, t) in cases {
            let truth = oracle_value(&g, spec, &t).unwrap();
            let got = exact_semantics_value(&g, spec, &t).unwrap();
            prop_assert!(
                (got - truth).abs() < 1e-9,
                "{:?} {:?}: {} vs oracle {}", spec, t, got, truth
            );
        }
    }
}
