//! Bit-identity regression suite for the observability layer. Every engine
//! records metrics, so the plain reference is the one-shot
//! [`semantics_reliability`], which holds no recorder: fixed-policy answers
//! from a recording engine with per-query tracing must equal it bit for
//! bit, across all five semantics, after each mutation and for a what-if.
//! Budgeted answers have no one-shot twin, so there a traced query is
//! compared with an untraced one. Instrumentation reads clocks and bumps
//! atomics — it must never touch an RNG or reorder work.

use netrel_core::{semantics_reliability, ProConfig, SemanticsSpec};
use netrel_engine::{Engine, EngineConfig, PlanBudget, PlannedQuery, ReliabilityAnswer};
use netrel_s2bdd::S2BddConfig;
use netrel_ugraph::UncertainGraph;

/// The lollipop fixture: bridges, a 2ECC, and a pendant path, so every
/// preprocessing rule fires.
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

/// Width-bounded sampling config, so approximate per-part RNG paths are
/// exercised (the regime where a perturbed seed would be visible).
fn sampling_cfg(seed: u64) -> ProConfig {
    ProConfig {
        s2bdd: S2BddConfig {
            max_width: 2,
            samples: 400,
            seed,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn five_semantics() -> Vec<(SemanticsSpec, Vec<usize>)> {
    vec![
        (SemanticsSpec::TwoTerminal, vec![0, 7]),
        (SemanticsSpec::KTerminal, vec![1, 4, 6]),
        (SemanticsSpec::AllTerminal, vec![]),
        (SemanticsSpec::DHop { d: 6 }, vec![0, 7]),
        (SemanticsSpec::ReachSet, vec![3]),
    ]
}

/// Traced fixed-policy queries over the five semantics.
fn traced_fixed_queries() -> Vec<PlannedQuery> {
    five_semantics()
        .into_iter()
        .map(|(s, t)| PlannedQuery::fixed(s, t, sampling_cfg(11)).with_trace())
        .collect()
}

/// `answer` to `query` on `g` equals the one-shot pipeline bit for bit.
fn assert_matches_one_shot(g: &UncertainGraph, query: &PlannedQuery, answer: &ReliabilityAnswer) {
    let plain = semantics_reliability(g, query.semantics, &query.terminals, query.config).unwrap();
    let what = query.semantics;
    assert_eq!(
        answer.estimate.to_bits(),
        plain.estimate.to_bits(),
        "{what:?}"
    );
    assert_eq!(answer.lower_bound.to_bits(), plain.lower_bound.to_bits());
    assert_eq!(answer.upper_bound.to_bits(), plain.upper_bound.to_bits());
    assert_eq!(
        answer.variance_estimate.to_bits(),
        plain.variance_estimate.to_bits()
    );
    assert_eq!(answer.samples_used, plain.samples_used);
    assert_eq!(answer.exact, plain.exact);
}

#[test]
fn classic_answers_are_bit_identical_under_instrumentation() {
    // Tracing on top of metrics: the maximally-instrumented path.
    let queries = traced_fixed_queries();
    let mut engine = Engine::new(EngineConfig::default());
    let id = engine.register("g", lollipop());

    let answers = engine.run_planned_batch(id, &queries).unwrap();
    for (q, a) in queries.iter().zip(&answers) {
        let a = a.as_ref().unwrap();
        assert_matches_one_shot(&lollipop(), q, a);
        let trace = a.trace.as_ref().expect("traced query carries a span tree");
        assert!(trace.find("query").is_some());
        assert!(trace.find("combine").is_some(), "{:?}", q.semantics);
    }
    // The recorder actually recorded the traced batch.
    let m = engine.metrics_snapshot();
    assert_eq!(m.queries_classic, queries.len() as u64);
    assert!(m.jobs > 0);
}

#[test]
fn planned_answers_are_bit_identical_under_instrumentation_and_tracing() {
    let cases = five_semantics();
    // Separate engines, so the traced query cannot be served from the
    // untraced one's cache entries.
    let mut untraced = Engine::new(EngineConfig::default());
    let uid = untraced.register("g", lollipop());
    let mut traced = Engine::new(EngineConfig::default());
    let tid = traced.register("g", lollipop());

    for (spec, terminals) in cases {
        let q =
            PlannedQuery::with_semantics(spec, terminals, sampling_cfg(11), PlanBudget::default());
        let x = untraced.run_planned(uid, &q).unwrap();
        let y = traced.run_planned(tid, &q.clone().with_trace()).unwrap();
        assert_eq!(x.estimate.to_bits(), y.estimate.to_bits(), "{spec:?}");
        assert_eq!(x.lower_bound.to_bits(), y.lower_bound.to_bits());
        assert_eq!(x.upper_bound.to_bits(), y.upper_bound.to_bits());
        assert_eq!(x.ci.lower.to_bits(), y.ci.lower.to_bits());
        assert_eq!(x.ci.upper.to_bits(), y.ci.upper.to_bits());
        assert_eq!(x.samples_used, y.samples_used);
        assert_eq!(x.routes, y.routes);
        assert!(x.trace.is_none(), "untraced query must not carry a trace");
        let trace = y.trace.expect("traced query carries a span tree");
        assert!(trace.find("query").is_some());
        assert!(trace.find("combine").is_some(), "{spec:?}");
    }
}

#[test]
fn bit_sampling_path_is_bit_identical_under_instrumentation_and_tracing() {
    // A 45-clique routes to the bit-parallel sampler (frontier width > 40)
    // for both plain and hop-bounded semantics; a traced query must return
    // the untraced answer byte for byte while the recorder counts the
    // packed route and its lane-utilization histogram.
    let g = netrel_datasets::clique(45);
    let mut untraced = Engine::new(EngineConfig::default());
    let uid = untraced.register("clique45", g.clone());
    let mut traced = Engine::new(EngineConfig::default());
    let tid = traced.register("clique45", g);

    for (spec, terminals) in [
        (SemanticsSpec::KTerminal, vec![0, 44]),
        (SemanticsSpec::DHop { d: 2 }, vec![0, 44]),
    ] {
        let q =
            PlannedQuery::with_semantics(spec, terminals, sampling_cfg(11), PlanBudget::default());
        let x = untraced.run_planned(uid, &q).unwrap();
        let y = traced.run_planned(tid, &q.clone().with_trace()).unwrap();
        assert!(
            x.routes.contains(&netrel_engine::Route::BitSampling),
            "{spec:?} must route to the packed sampler: {:?}",
            x.routes
        );
        assert_eq!(x.estimate.to_bits(), y.estimate.to_bits(), "{spec:?}");
        assert_eq!(x.ci.lower.to_bits(), y.ci.lower.to_bits());
        assert_eq!(x.ci.upper.to_bits(), y.ci.upper.to_bits());
        assert_eq!(x.variance_estimate.to_bits(), y.variance_estimate.to_bits());
        assert_eq!(x.samples_used, y.samples_used);
        assert_eq!(x.routes, y.routes);
        let trace = y.trace.expect("traced query carries a span tree");
        let route_span = trace.find("route").expect("route span");
        let routes_attr = route_span
            .attrs
            .iter()
            .find(|(k, _)| k == "routes")
            .expect("routes attribute");
        assert!(
            routes_attr.1.contains("bit_sampling"),
            "trace must name the packed route: {routes_attr:?}"
        );
    }
    let m = traced.metrics_snapshot();
    assert!(m.routes.bit_sampling >= 2, "{:?}", m.routes);
    assert!(
        m.bit_lane_utilization_percent.count >= 2,
        "lane-utilization histogram must observe packed parts"
    );
}

#[test]
fn trace_spans_are_well_formed_and_round_trip_through_serde() {
    use serde::Serialize as _;

    let mut engine = Engine::new(EngineConfig::sequential());
    let id = engine.register("g", lollipop());
    let q = PlannedQuery::new(vec![0, 7], PlanBudget::default()).with_trace();
    let a = engine.run_planned(id, &q).unwrap();
    let trace = a.trace.expect("trace requested");

    // Root first; every other span's parent is an earlier span; monotone
    // local timestamps.
    assert_eq!(trace.spans[0].name, "query");
    assert!(trace.spans[0].parent.is_none());
    for (i, s) in trace.spans.iter().enumerate().skip(1) {
        let p = s.parent.expect("non-root spans have parents") as usize;
        assert!(p < i, "parent {p} of span {i} must come earlier");
        assert!(s.end_ns >= s.start_ns, "span {i} runs backwards");
    }
    for expected in [
        "plan.k-terminal",
        "route",
        "cache.lookup",
        "part.solve",
        "combine",
    ] {
        assert!(trace.find(expected).is_some(), "missing span `{expected}`");
    }

    let json = serde_json::to_string(&trace.to_value()).unwrap();
    let back: netrel_engine::QueryTrace = serde_json::from_str(&json).unwrap();
    assert_eq!(back.spans.len(), trace.spans.len());
    assert_eq!(back.dropped, trace.dropped);
    for (a, b) in trace.spans.iter().zip(&back.spans) {
        assert_eq!(a.name, b.name);
        assert_eq!(a.start_ns, b.start_ns);
        assert_eq!(a.end_ns, b.end_ns);
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.attrs, b.attrs);
    }
}

#[test]
fn mutation_path_is_bit_identical_under_instrumentation() {
    use netrel_engine::Mutation;

    // After each committed mutation, every traced answer equals the
    // one-shot pipeline on the engine's current graph; the what-if equals
    // it on the hypothetical graph; and the mutation counters move.
    let mutations = [
        Mutation::UpdateProb { edge: 2, p: 0.45 },
        Mutation::AddEdge {
            u: 1,
            v: 3,
            p: 0.35,
        },
        Mutation::RemoveEdge { edge: 5 },
    ];
    let queries = traced_fixed_queries();
    let mut engine = Engine::new(EngineConfig::default());
    let id = engine.register("g", lollipop());

    for m in mutations {
        engine.apply_mutation(id, m).unwrap();
        let g = engine.graph(id).unwrap();
        let answers = engine.run_planned_batch(id, &queries).unwrap();
        for (q, a) in queries.iter().zip(&answers) {
            assert_matches_one_shot(g, q, a.as_ref().unwrap());
        }
    }
    let q = &queries[0];
    let hyp = [Mutation::UpdateProb { edge: 0, p: 0.2 }];
    let mut hypothetical = engine.graph(id).unwrap().clone();
    hypothetical.update_edge_prob(0, 0.2).unwrap();
    let a = engine.evaluate_with(id, &hyp, q).unwrap();
    assert_matches_one_shot(&hypothetical, q, &a);

    let m = engine.metrics_snapshot();
    assert_eq!(m.mutations_update_prob, 1);
    assert_eq!(m.mutations_add_edge, 1);
    assert_eq!(m.mutations_remove_edge, 1);
    assert_eq!(m.index_patched + m.index_rebuilt, 3);
    assert_eq!(m.whatif_queries, 1);
}

#[test]
fn worker_count_does_not_change_instrumented_answers() {
    let q = PlannedQuery::with_config(vec![0, 7], sampling_cfg(5), PlanBudget::default());
    let mut seq = Engine::new(EngineConfig {
        workers: 1,
        plan_cache_capacity: 0,
    });
    let sid = seq.register("g", lollipop());
    let mut par = Engine::new(EngineConfig {
        workers: 8,
        plan_cache_capacity: 0,
    });
    let pid = par.register("g", lollipop());
    let a = seq.run_planned(sid, &q.clone().with_trace()).unwrap();
    let b = par.run_planned(pid, &q.with_trace()).unwrap();
    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    assert_eq!(a.samples_used, b.samples_used);
    assert_eq!(a.routes, b.routes);
}
