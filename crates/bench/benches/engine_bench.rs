//! Criterion microbench: batched engine throughput, cold vs. warm plan
//! cache, against independent one-shot `pro_reliability` calls.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netrel_bench::overlapping_terminal_pairs;
use netrel_core::{pro_reliability, ProConfig, SemanticsSpec};
use netrel_datasets::Dataset;
use netrel_engine::{Engine, EngineConfig, PlannedQuery};
use netrel_s2bdd::S2BddConfig;

fn workload(scale: f64) -> (netrel_ugraph::UncertainGraph, Vec<PlannedQuery>) {
    let g = Dataset::Dblp1.generate(scale, 7);
    let cfg = ProConfig {
        s2bdd: S2BddConfig {
            max_width: 16,
            samples: 500,
            seed: 7,
            ..Default::default()
        },
        ..Default::default()
    };
    let pairs = overlapping_terminal_pairs(&g, 5, 7);
    let queries = (0..20)
        .map(|i| {
            PlannedQuery::fixed(
                SemanticsSpec::KTerminal,
                pairs[i % pairs.len()].clone(),
                cfg,
            )
        })
        .collect();
    (g, queries)
}

fn bench_engine(c: &mut Criterion) {
    let (g, queries) = workload(0.01);
    let mut group = c.benchmark_group("engine_20q_dblp1");
    group.sample_size(10);

    group.bench_function(BenchmarkId::from_parameter("oneshot"), |b| {
        b.iter(|| {
            queries
                .iter()
                .map(|q| {
                    pro_reliability(&g, &q.terminals, q.config)
                        .unwrap()
                        .estimate
                })
                .sum::<f64>()
        })
    });

    group.bench_function(BenchmarkId::from_parameter("engine_cold"), |b| {
        b.iter(|| {
            let mut engine = Engine::new(EngineConfig::sequential());
            let id = engine.register("dblp1", g.clone());
            engine
                .run_planned_batch(id, &queries)
                .unwrap()
                .into_iter()
                .map(|a| a.unwrap().estimate)
                .sum::<f64>()
        })
    });

    // One engine across iterations: after the warmup pass the plan cache is
    // fully populated, so this measures the steady-state hot-pair path.
    let mut engine = Engine::new(EngineConfig::sequential());
    let id = engine.register("dblp1", g.clone());
    group.bench_function(BenchmarkId::from_parameter("engine_warm"), |b| {
        b.iter(|| {
            engine
                .run_planned_batch(id, &queries)
                .unwrap()
                .into_iter()
                .map(|a| a.unwrap().estimate)
                .sum::<f64>()
        })
    });

    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
