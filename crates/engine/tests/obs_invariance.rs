//! Bit-identity regression suite for the observability layer. Every engine
//! records metrics, so the plain references hold no recorder: fixed-policy
//! answers must equal the one-shot [`semantics_reliability`] bit for bit,
//! across all five semantics, after each mutation and for a what-if, and
//! budgeted answers must equal [`reference_pipeline`], the planned
//! pipeline rebuilt from public functions. Instrumentation reads clocks and
//! bumps atomics — it must never touch an RNG or reorder work.

use netrel_core::{
    combine_semantics_plan, exact_semantics_part, sample_semantics_part, semantics_reliability,
    solve_semantics_part, BitSamplingConfig, ProConfig, ProResult, SamplingConfig, SemanticsSpec,
    WorldBank,
};
use netrel_engine::{
    plan_part, Engine, EngineConfig, PartSolver, PlanBudget, PlannedQuery, ReliabilityAnswer, Route,
};
use netrel_preprocess::GraphIndex;
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

/// Fixed-policy queries over the five semantics.
fn fixed_queries() -> Vec<PlannedQuery> {
    five_semantics()
        .into_iter()
        .map(|(s, t)| PlannedQuery::fixed(s, t, sampling_cfg(11)))
        .collect()
}

/// `answer` to `query` on `g` equals the one-shot pipeline bit for bit.
fn assert_matches_one_shot(g: &UncertainGraph, query: &PlannedQuery, answer: &ReliabilityAnswer) {
    let plain = semantics_reliability(g, query.semantics, &query.terminals, query.config).unwrap();
    assert_same_bits(answer, &plain, query.semantics);
}

/// `answer` equals the recorder-free result `plain` bit for bit.
fn assert_same_bits(answer: &ReliabilityAnswer, plain: &ProResult, what: SemanticsSpec) {
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

/// A budgeted query's answer on `g` without an engine: index, semantics
/// plan, per-part budget and route, the routed solver (single-threaded
/// samplers, a fresh `WorldBank` per packed part), then the recombination,
/// with the route of each part.
fn reference_pipeline(g: &UncertainGraph, query: &PlannedQuery) -> (ProResult, Vec<Route>) {
    let index = GraphIndex::build(g);
    let plan = query
        .semantics
        .plan(g, &index, &query.terminals, query.config.preprocess)
        .unwrap();
    let part_budget = query.budget.for_parts(plan.parts.len());
    let mut routes = Vec::new();
    let solved = plan
        .parts
        .iter()
        .enumerate()
        .map(|(pi, part)| {
            let solver = plan_part(part, query.config.s2bdd, pi, &part_budget).solver;
            routes.push(solver.route());
            match solver {
                PartSolver::S2Bdd(cfg) => solve_semantics_part(part, cfg),
                PartSolver::Enumeration => exact_semantics_part(part),
                PartSolver::Sampling {
                    samples,
                    estimator,
                    seed,
                } => sample_semantics_part(
                    part,
                    SamplingConfig {
                        samples,
                        estimator,
                        seed,
                        threads: 1,
                    },
                ),
                PartSolver::BitSampling { samples, seed } => WorldBank::new().part(
                    part,
                    BitSamplingConfig {
                        samples,
                        seed,
                        threads: 1,
                    },
                ),
            }
            .unwrap()
        })
        .collect();
    (combine_semantics_plan(&plan, solved), routes)
}

/// `answer` to the budgeted `query` on `g` equals [`reference_pipeline`]
/// bit for bit.
fn assert_matches_reference(g: &UncertainGraph, query: &PlannedQuery, answer: &ReliabilityAnswer) {
    let (plain, routes) = reference_pipeline(g, query);
    assert_same_bits(answer, &plain, query.semantics);
    assert_eq!(answer.routes, routes, "{:?}", query.semantics);
}

#[test]
fn classic_answers_are_bit_identical_under_instrumentation() {
    let queries = fixed_queries();
    let mut engine = Engine::new(EngineConfig::default());
    let id = engine.register("g", lollipop());

    let answers = engine.run_planned_batch(id, &queries).unwrap();
    for (q, a) in queries.iter().zip(&answers) {
        assert_matches_one_shot(&lollipop(), q, a.as_ref().unwrap());
    }
    // The recorder actually recorded the batch.
    let m = engine.metrics_snapshot();
    assert_eq!(m.queries_classic, queries.len() as u64);
    assert!(m.jobs > 0);
}

#[test]
fn planned_answers_are_bit_identical_under_instrumentation() {
    let mut engine = Engine::new(EngineConfig::default());
    let id = engine.register("g", lollipop());

    for (spec, terminals) in five_semantics() {
        let q =
            PlannedQuery::with_semantics(spec, terminals, sampling_cfg(11), PlanBudget::default());
        let a = engine.run_planned(id, &q).unwrap();
        assert_matches_reference(&lollipop(), &q, &a);
    }
}

#[test]
fn bit_sampling_path_is_bit_identical_under_instrumentation() {
    // A 45-clique routes to the bit-parallel sampler (frontier width > 40)
    // for both plain and hop-bounded semantics; each answer must equal the
    // engine-free pipeline byte for byte while the recorder counts the
    // packed route and its lane-utilization histogram. At p = 0.4–0.59
    // every drawn world connects the terminals, so the sparse p = 0.05
    // clique is the input whose answers depend on the per-part seeds.
    let mut engine = Engine::new(EngineConfig::default());
    for g in [
        netrel_datasets::clique(45),
        netrel_datasets::clique_uniform(45, 0.05),
    ] {
        let id = engine.register("clique45", g.clone());
        for (spec, terminals) in [
            (SemanticsSpec::KTerminal, vec![0, 44]),
            (SemanticsSpec::DHop { d: 2 }, vec![0, 44]),
        ] {
            let q = PlannedQuery::with_semantics(
                spec,
                terminals,
                sampling_cfg(11),
                PlanBudget::default(),
            );
            let a = engine.run_planned(id, &q).unwrap();
            assert!(
                a.routes.contains(&Route::BitSampling),
                "{spec:?} must route to the packed sampler: {:?}",
                a.routes
            );
            assert_matches_reference(&g, &q, &a);
        }
    }
    let m = engine.metrics_snapshot();
    assert!(m.routes.bit_sampling >= 2, "{:?}", m.routes);
    assert!(
        m.bit_lane_utilization_percent.count >= 2,
        "lane-utilization histogram must observe packed parts"
    );
}

#[test]
fn mutation_path_is_bit_identical_under_instrumentation() {
    use netrel_engine::Mutation;

    // After each committed mutation, every answer equals the
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
    let queries = fixed_queries();
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
    let a = seq.run_planned(sid, &q).unwrap();
    let b = par.run_planned(pid, &q).unwrap();
    assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    assert_eq!(a.samples_used, b.samples_used);
    assert_eq!(a.routes, b.routes);
}
