//! A tour of the pluggable reliability semantics: one uncertain graph, five
//! questions — k-terminal, strict two-terminal, all-terminal, hop-bounded
//! (d-hop), and expected reachable-set size — all answered through the same
//! engine, each checked against the brute-force possible-world oracle.
//!
//! Run with: `cargo run --release --example semantics_tour`

use network_reliability::prelude::*;
use network_reliability::solvers::{oracle_value, ProConfig, SemanticsSpec};

fn main() {
    // Two triangles joined by a bridge, plus a dangling tail — small enough
    // (8 edges) for the exhaustive 2^|E| oracle, rich enough to exercise
    // pruning, bridge decomposition, and hop bounds.
    let g = UncertainGraph::new(
        7,
        [
            (0, 1, 0.7),
            (1, 2, 0.8),
            (0, 2, 0.9),
            (2, 3, 0.6),
            (3, 4, 0.7),
            (4, 5, 0.8),
            (3, 5, 0.9),
            (5, 6, 0.5),
        ],
    )
    .unwrap();

    let mut engine = Engine::new(EngineConfig::default());
    let id = engine.register("tour", g.clone());

    let cases: Vec<(SemanticsSpec, Vec<usize>, &str)> = vec![
        (
            SemanticsSpec::KTerminal,
            vec![0, 4, 6],
            "P[0, 4, 6 all connected]",
        ),
        (SemanticsSpec::TwoTerminal, vec![0, 6], "P[0 ~ 6]"),
        (SemanticsSpec::AllTerminal, vec![], "P[graph connected]"),
        (
            SemanticsSpec::DHop { d: 4 },
            vec![0, 6],
            "P[0 ~ 6 within 4 hops]",
        ),
        (SemanticsSpec::ReachSet, vec![0], "E[|reachable from 0|]"),
    ];

    println!(
        "fixture: {} vertices, {} edges\n",
        g.num_vertices(),
        g.num_edges()
    );
    for (spec, terminals, what) in cases {
        let q = PlannedQuery::fixed(spec, terminals.clone(), ProConfig::default());
        let a = engine.run_planned(id, &q).unwrap();
        let truth = oracle_value(&g, spec, &terminals).unwrap();
        assert!(
            (a.estimate - truth).abs() < 1e-9,
            "{spec:?}: engine answered {} but the oracle says {truth}",
            a.estimate
        );
        println!(
            "{:12}  {:26}  = {:.6}  (oracle {:.6}{})",
            spec.name(),
            what,
            a.estimate,
            truth,
            if a.exact { ", exact" } else { "" }
        );
    }

    // The adaptive planner routes per part and per semantics: on a complete
    // graph at d = 2 nothing is prunable, the single d-hop part stays far
    // above the exact-enumeration limit, and the planner falls back to
    // hop-bounded sampling with a confidence interval.
    let dense = network_reliability::datasets::clique_uniform(30, 0.3);
    let did = engine.register("dense", dense);
    let q = PlannedQuery::with_semantics(
        SemanticsSpec::DHop { d: 2 },
        vec![0, 29],
        ProConfig::default(),
        PlanBudget::default(),
    );
    let a = engine.run_planned(did, &q).unwrap();
    assert!(!a.exact && a.samples_used > 0);
    assert!(a.ci.contains(a.estimate));
    println!(
        "\nplanned d-hop on K30 (d = 2): {:.4} in CI [{:.4}, {:.4}] via {:?} ({} samples)",
        a.estimate, a.ci.lower, a.ci.upper, a.routes, a.samples_used
    );
}
