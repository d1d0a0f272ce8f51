//! Criterion microbench: the adaptive planner against the fixed policy —
//! planning overhead on sparse workloads (where every part routes exact)
//! and completion of dense batches the capped exact path cannot finish.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netrel_core::SemanticsSpec;
use netrel_datasets::{clique, Dataset};
use netrel_engine::{Engine, EngineConfig, PlanBudget, PlannedQuery};
use netrel_s2bdd::S2BddConfig;

fn bench_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("planner");
    group.sample_size(10);

    // Sparse workload: the planner must pick the exact route; its cost
    // model is the only overhead over the fixed policy.
    let sparse = Dataset::Tokyo.generate(0.01, 7);
    let pairs = netrel_bench::overlapping_terminal_pairs(&sparse, 5, 7);
    let classic: Vec<PlannedQuery> = pairs
        .iter()
        .map(|t| {
            PlannedQuery::fixed(
                SemanticsSpec::KTerminal,
                t.clone(),
                netrel_core::ProConfig {
                    s2bdd: S2BddConfig::exact(),
                    ..Default::default()
                },
            )
        })
        .collect();
    let planned: Vec<PlannedQuery> = pairs
        .iter()
        .map(|t| PlannedQuery::new(t.clone(), PlanBudget::default()))
        .collect();

    group.bench_function(BenchmarkId::from_parameter("sparse_classic"), |b| {
        b.iter(|| {
            let mut engine = Engine::new(EngineConfig::sequential());
            let id = engine.register("tokyo", sparse.clone());
            engine
                .run_planned_batch(id, &classic)
                .unwrap()
                .into_iter()
                .map(|a| a.unwrap().estimate)
                .sum::<f64>()
        })
    });
    group.bench_function(BenchmarkId::from_parameter("sparse_planned"), |b| {
        b.iter(|| {
            let mut engine = Engine::new(EngineConfig::sequential());
            let id = engine.register("tokyo", sparse.clone());
            engine
                .run_planned_batch(id, &planned)
                .unwrap()
                .into_iter()
                .map(|a| a.unwrap().estimate)
                .sum::<f64>()
        })
    });

    // Dense workload: the exact path cannot finish under the node cap; the
    // planner routes to sampling and completes.
    let dense = clique(50);
    let dense_queries: Vec<PlannedQuery> = (0..10)
        .map(|i| PlannedQuery::new(vec![i, 25 + i], PlanBudget::default()))
        .collect();
    group.bench_function(BenchmarkId::from_parameter("dense_planned"), |b| {
        b.iter(|| {
            let mut engine = Engine::new(EngineConfig::sequential());
            let id = engine.register("clique50", dense.clone());
            engine
                .run_planned_batch(id, &dense_queries)
                .unwrap()
                .into_iter()
                .map(|a| a.unwrap().estimate)
                .sum::<f64>()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_planner);
criterion_main!(benches);
