//! The three throughput suites behind the `netrel-testrunner` bin.
//!
//! * [`engine_suite`] — fixed-policy cold/warm batch throughput against
//!   independent one-shot `pro_reliability` calls (the former
//!   `engine_throughput` bin; baseline `BENCH_engine.json`).
//! * [`planner_suite`] — adaptive-planner completion and routing on dense
//!   batches the capped exact path cannot finish (the former
//!   `planner_throughput` bin; baseline `BENCH_planner.json`).
//! * [`mutation_suite`] — incremental one-edge updates + re-query against
//!   full rebuild + cold query, plus what-if throughput (baseline
//!   `BENCH_mutation.json`).
//!
//! All three emit rows in the unified [`netrel_obs::BenchReport`] schema so
//! the committed `BENCH_*.json` baselines stay machine-comparable with
//! `bench-diff`.

use crate::{fmt_secs, overlapping_terminal_pairs, time, RunArgs};
use netrel_core::{pro_reliability, ProConfig, SemanticsSpec};
use netrel_datasets::{clique, Dataset};
use netrel_engine::{
    Engine, EngineConfig, Mutation, PlanBudget, PlannedQuery, Recorder, ReliabilityAnswer,
};
use netrel_obs::{BenchReport, BenchRow, CacheCounts, RouteCounts};
use netrel_s2bdd::S2BddConfig;
use netrel_ugraph::UncertainGraph;

const ENGINE_QUERIES: usize = 100;
const ENGINE_DISTINCT_PAIRS: usize = 10;
const ENGINE_BATCH: usize = 10;

/// Fixed-policy throughput: cold vs. warm batch queries/sec against
/// independent one-shot `pro_reliability` calls, on the Tokyo-like (road,
/// tree-like) and DBLP-like (coauthor, dense-core) generators. Asserts
/// bit-identity between one-shot, cold, and warm answers.
pub fn engine_suite(args: &RunArgs) -> BenchReport {
    let cfg = ProConfig {
        s2bdd: S2BddConfig {
            max_width: 32,
            samples: 2_000,
            seed: args.seed,
            ..Default::default()
        },
        ..Default::default()
    };

    let mut report = BenchReport::new("netrel-testrunner/engine", args.scale, args.seed);
    println!(
        "{:<8} {:>9} {:>9} {:>10} {:>10} {:>10} {:>8} {:>8}",
        "dataset", "oneshot", "cold", "warm", "cold q/s", "warm q/s", "cold x", "warm x"
    );
    for ds in [Dataset::Tokyo, Dataset::Dblp1] {
        let g = ds.generate(args.scale, args.seed);
        let pairs = overlapping_terminal_pairs(&g, ENGINE_DISTINCT_PAIRS, args.seed);
        let queries: Vec<PlannedQuery> = (0..ENGINE_QUERIES)
            .map(|i| {
                PlannedQuery::fixed(
                    SemanticsSpec::KTerminal,
                    pairs[i % pairs.len()].clone(),
                    cfg,
                )
            })
            .collect();

        // Independent one-shot calls: full preprocessing per call, no cache.
        let (solo, oneshot_secs) = time(|| {
            queries
                .iter()
                .map(|q| pro_reliability(&g, &q.terminals, q.config).unwrap())
                .collect::<Vec<_>>()
        });

        // Cold engine: index build + batched answering in arrival order.
        // The live recorder demonstrates (and regression-guards) that the
        // instrumented hot path keeps its throughput.
        let mut engine = Engine::with_recorder(EngineConfig::sequential(), Recorder::enabled());
        let id = engine.register(ds.spec().abbr, g.clone());
        let (cold, cold_secs) = time(|| run_chunks(&engine, id, &queries));

        // Warm engine: the same workload against the now-populated cache.
        let (warm, warm_secs) = time(|| run_chunks(&engine, id, &queries));

        for ((s, c), w) in solo.iter().zip(&cold).zip(&warm) {
            assert_eq!(s.estimate.to_bits(), c.estimate.to_bits(), "cold mismatch");
            assert_eq!(s.estimate.to_bits(), w.estimate.to_bits(), "warm mismatch");
        }

        let snapshot = engine.metrics_snapshot().expect("recorder is enabled");
        let cold_qps = ENGINE_QUERIES as f64 / cold_secs;
        let warm_qps = ENGINE_QUERIES as f64 / warm_secs;
        let row = BenchRow {
            name: ds.spec().abbr.to_string(),
            semantics: "k-terminal".to_string(),
            vertices: g.num_vertices() as u64,
            edges: g.num_edges() as u64,
            queries: ENGINE_QUERIES as u64,
            secs: cold_secs,
            qps: cold_qps,
            // The fixed policy routes nothing through the planner.
            routes: RouteCounts::default(),
            cache: CacheCounts {
                hits: snapshot.cache_hits,
                misses: snapshot.cache_misses,
                evictions: snapshot.cache_evictions,
                entries: engine.cache_stats().entries as u64,
            },
            extra: vec![
                ("oneshot_secs".to_string(), oneshot_secs),
                ("warm_secs".to_string(), warm_secs),
                (
                    "oneshot_qps".to_string(),
                    ENGINE_QUERIES as f64 / oneshot_secs,
                ),
                ("warm_qps".to_string(), warm_qps),
                ("cold_speedup".to_string(), oneshot_secs / cold_secs),
                ("warm_speedup".to_string(), oneshot_secs / warm_secs),
                ("distinct_pairs".to_string(), ENGINE_DISTINCT_PAIRS as f64),
            ],
        };
        println!(
            "{:<8} {:>9} {:>9} {:>10} {:>10.1} {:>10.1} {:>7.1}x {:>7.1}x",
            row.name,
            fmt_secs(oneshot_secs),
            fmt_secs(cold_secs),
            fmt_secs(warm_secs),
            cold_qps,
            warm_qps,
            oneshot_secs / cold_secs,
            oneshot_secs / warm_secs,
        );
        report.rows.push(row);
    }
    report
}

/// Answer the workload in service-sized batches, preserving query order.
fn run_chunks(
    engine: &Engine,
    id: netrel_engine::GraphId,
    queries: &[PlannedQuery],
) -> Vec<ReliabilityAnswer> {
    let mut answers = Vec::with_capacity(queries.len());
    for chunk in queries.chunks(ENGINE_BATCH) {
        for a in engine
            .run_planned_batch(id, chunk)
            .expect("graph registered")
        {
            answers.push(a.expect("valid query"));
        }
    }
    answers
}

fn informative(exact: bool, ci_width: f64) -> bool {
    exact || ci_width < 0.5
}

/// Adaptive-planner baseline: dense-graph batches the exact path cannot
/// finish under the node cap, completed through the planner with
/// CI-carrying answers, plus the planner's overhead on sparse workloads
/// where it must pick the exact route. An answer counts as **completed**
/// when it is exact or its 95% CI is narrower than 0.5 — the capped
/// exact-only path on a dense graph returns a `[~0, ~1]` envelope and
/// fails that bar.
pub fn planner_suite(args: &RunArgs) -> BenchReport {
    let budget = PlanBudget::default();

    let tokyo = Dataset::Tokyo.generate(args.scale, args.seed);
    let tokyo_pairs = overlapping_terminal_pairs(&tokyo, 10, args.seed);
    // Four-terminal "city block" sets: the generator lays vertices out
    // row-major on a ~√n × √n grid, so `v`, `v+1`, `v+side`, `v+side+1`
    // form a unit square of nearby (hence non-vanishing) terminals.
    let side = (tokyo.num_vertices() as f64).sqrt() as usize;
    let tokyo_quads: Vec<Vec<usize>> = (0..10)
        .map(|i| {
            let v = i * (side + 1);
            vec![v, v + 1, v + side, v + side + 1]
        })
        .collect();
    let dense_pairs: Vec<Vec<usize>> = (0..20).map(|i| vec![i % 20, 30 + (i * 7) % 25]).collect();
    let workloads: Vec<(String, UncertainGraph, SemanticsSpec, Vec<Vec<usize>>)> = vec![
        (
            "clique55-dense".into(),
            clique(55),
            SemanticsSpec::KTerminal,
            dense_pairs.clone(),
        ),
        // Same dense pairs under the hop bound: nothing is prunable at
        // d = 2 on a clique, so every part exceeds the exact-enumeration
        // limit and the planner must route to hop-bounded sampling.
        (
            "clique55-dhop".into(),
            clique(55),
            SemanticsSpec::DHop { d: 2 },
            dense_pairs.clone(),
        ),
        // A wider clique (3160 edges): stresses the packed kernel's
        // per-edge RNG cost, which dominates once the frontier saturates.
        (
            "clique80-dense".into(),
            clique(80),
            SemanticsSpec::KTerminal,
            dense_pairs,
        ),
        (
            "tokyo-sparse".into(),
            tokyo.clone(),
            SemanticsSpec::KTerminal,
            tokyo_pairs,
        ),
        (
            "tokyo-kterminal".into(),
            tokyo,
            SemanticsSpec::KTerminal,
            tokyo_quads,
        ),
    ];

    let mut report = BenchReport::new("netrel-testrunner/planner", args.scale, args.seed);
    println!(
        "{:<16} {:>7} {:>9} {:>9} {:>7} {:>7} {:>9} {:>22}",
        "workload",
        "queries",
        "exact",
        "planner",
        "ex done",
        "pl done",
        "qps",
        "routes (e/b/s/p/n)"
    );
    for (workload, g, spec, terminal_sets) in workloads {
        let n_queries = terminal_sets.len();
        let mut engine = Engine::with_recorder(EngineConfig::sequential(), Recorder::enabled());
        let id = engine.register(workload.clone(), g.clone());

        // Exact-only under the same node cap the planner gets. The fixed
        // policy bumps no route counters, so the snapshot below isolates the
        // planner run's routing.
        let exact_queries: Vec<PlannedQuery> = terminal_sets
            .iter()
            .map(|t| {
                PlannedQuery::fixed(
                    spec,
                    t.clone(),
                    ProConfig {
                        s2bdd: S2BddConfig {
                            node_cap: budget.node_budget,
                            seed: args.seed,
                            ..S2BddConfig::exact()
                        },
                        ..Default::default()
                    },
                )
            })
            .collect();
        let (exact_answers, exact_only_secs) =
            time(|| engine.run_planned_batch(id, &exact_queries).unwrap());
        let exact_only_completed = exact_answers
            .iter()
            .filter(|a| {
                let a = a.as_ref().unwrap();
                informative(a.exact, a.upper_bound - a.lower_bound)
            })
            .count();

        // The planner, fresh cache, same budget. Cache counters for the row
        // are deltas across the planner run alone, so the exact-only phase
        // cannot skew them.
        engine.clear_cache();
        let before = engine.metrics_snapshot().expect("recorder is enabled");
        let planned: Vec<PlannedQuery> = terminal_sets
            .iter()
            .map(|t| PlannedQuery::with_semantics(spec, t.clone(), ProConfig::default(), budget))
            .collect();
        let (answers, planner_secs) = time(|| engine.run_planned_batch(id, &planned).unwrap());
        let after = engine.metrics_snapshot().expect("recorder is enabled");

        let (mut done, mut ci_sum) = (0usize, 0.0f64);
        for a in &answers {
            let a = a.as_ref().unwrap();
            if informative(a.exact, a.ci.width()) {
                done += 1;
            }
            ci_sum += a.ci.width();
        }
        let routes = RouteCounts {
            exact: after.routes.exact - before.routes.exact,
            bounded: after.routes.bounded - before.routes.bounded,
            sampling: after.routes.sampling - before.routes.sampling,
            bit_sampling: after.routes.bit_sampling - before.routes.bit_sampling,
            enumeration: after.routes.enumeration - before.routes.enumeration,
        };

        let row = BenchRow {
            name: workload.clone(),
            semantics: spec.name().into(),
            vertices: g.num_vertices() as u64,
            edges: g.num_edges() as u64,
            queries: n_queries as u64,
            secs: planner_secs,
            qps: n_queries as f64 / planner_secs,
            routes,
            cache: CacheCounts {
                hits: after.cache_hits - before.cache_hits,
                misses: after.cache_misses - before.cache_misses,
                evictions: after.cache_evictions - before.cache_evictions,
                entries: engine.cache_stats().entries as u64,
            },
            extra: vec![
                ("exact_only_secs".to_string(), exact_only_secs),
                (
                    "exact_only_completed".to_string(),
                    exact_only_completed as f64,
                ),
                ("planner_completed".to_string(), done as f64),
                ("mean_ci_width".to_string(), ci_sum / n_queries as f64),
            ],
        };
        println!(
            "{:<16} {:>7} {:>9} {:>9} {:>4}/{:<2} {:>4}/{:<2} {:>9.1} {:>6}/{}/{}/{}/{}",
            row.name,
            row.queries,
            fmt_secs(exact_only_secs),
            fmt_secs(planner_secs),
            exact_only_completed,
            row.queries,
            done,
            row.queries,
            row.qps,
            row.routes.exact,
            row.routes.bounded,
            row.routes.sampling,
            row.routes.bit_sampling,
            row.routes.enumeration,
        );
        assert_eq!(done, n_queries, "the planner must complete every query");
        report.rows.push(row);
    }
    report
}

const MUTATION_ROUNDS: usize = 10;
const WHATIF_ROUNDS: usize = 25;

/// Incremental-maintenance baseline (ISSUE 10's acceptance metric): per
/// workload, `MUTATION_ROUNDS` rounds of one-edge `update_edge_prob`
/// (index patch + scoped invalidation) and warm re-query on a live engine
/// are timed against the same mutation sequence replayed as full rebuilds
/// (fresh engine registration + cold query), asserting bit-identical
/// answers every round. The `update_vs_rebuild` extra is the headline
/// ratio — the mutation op alone against a rebuild round — and must stay
/// under 10% on the largest (tokyo) fixture, because the index patch is
/// local and invalidation only touches keys covering the edge. A what-if
/// loop against the warm committed engine rounds out the row.
pub fn mutation_suite(args: &RunArgs) -> BenchReport {
    let budget = PlanBudget::default();
    let tokyo = Dataset::Tokyo.generate(args.scale, args.seed);
    let tokyo_terminals = overlapping_terminal_pairs(&tokyo, 4, args.seed)[0].clone();
    // Tokyo is the largest fixture (sparse, exact route, many independent
    // parts); clique55 pins the same contract on the bit-sampling route,
    // where every update hits the single whole-graph part.
    let workloads: Vec<(String, UncertainGraph, Vec<usize>)> = vec![
        ("mutation-tokyo".into(), tokyo, tokyo_terminals),
        ("mutation-clique55".into(), clique(55), vec![0, 54]),
    ];

    let mut report = BenchReport::new("netrel-testrunner/mutation", args.scale, args.seed);
    println!(
        "{:<18} {:>7} {:>10} {:>10} {:>10} {:>8} {:>11}",
        "workload", "rounds", "update", "requery", "rebuild", "ratio", "whatif q/s"
    );
    for (workload, g, terminals) in workloads {
        let q = PlannedQuery::with_semantics(
            SemanticsSpec::KTerminal,
            terminals,
            ProConfig::default(),
            budget,
        );
        let mut engine = Engine::with_recorder(EngineConfig::sequential(), Recorder::enabled());
        let id = engine.register(workload.clone(), g.clone());
        let (_, cold_secs) = time(|| engine.run_planned(id, &q).unwrap());

        // A deterministic schedule touching spread-out edges with
        // probabilities strictly inside (0, 1).
        let m = g.num_edges();
        let schedule: Vec<(usize, f64)> = (0..MUTATION_ROUNDS)
            .map(|i| ((i * 37) % m, 0.35 + (i % 50) as f64 * 0.01))
            .collect();

        // Incremental path: commit one update (index patch + scoped
        // invalidation — the op the acceptance ratio is about), then
        // re-answer the query against the surviving warm cache.
        let before = engine.metrics_snapshot().expect("recorder is enabled");
        let mut live = Vec::with_capacity(MUTATION_ROUNDS);
        let (mut update_secs, mut requery_secs) = (0.0f64, 0.0f64);
        for &(e, p) in &schedule {
            let (_, t) = time(|| engine.update_edge_prob(id, e, p).unwrap());
            update_secs += t;
            let (a, t) = time(|| engine.run_planned(id, &q).unwrap());
            requery_secs += t;
            live.push(a);
        }
        let after = engine.metrics_snapshot().expect("recorder is enabled");

        // Rebuild path: the identical mutation prefix applied to a copy,
        // answered by a brand-new engine (index build + cold cache) each
        // round — exactly what a client without the mutation layer pays.
        let mut g2 = g.clone();
        let mut rebuilt = Vec::with_capacity(MUTATION_ROUNDS);
        let (_, rebuild_secs) = time(|| {
            for &(e, p) in &schedule {
                g2.update_edge_prob(e, p).unwrap();
                let mut fresh = Engine::new(EngineConfig::sequential());
                let fid = fresh.register("fresh", g2.clone());
                rebuilt.push(fresh.run_planned(fid, &q).unwrap());
            }
        });
        for (i, (a, b)) in live.iter().zip(&rebuilt).enumerate() {
            assert_eq!(
                a.estimate.to_bits(),
                b.estimate.to_bits(),
                "{workload} round {i}: mutated engine diverged from rebuild"
            );
        }

        // What-if throughput against the warm committed engine: hypotheses
        // re-key per evaluation and commit nothing.
        let (_, whatif_secs) = time(|| {
            for i in 0..WHATIF_ROUNDS {
                let hypo = Mutation::UpdateProb {
                    edge: (i * 13) % m,
                    p: 0.5,
                };
                engine.evaluate_with(id, &[hypo], &q).unwrap();
            }
        });

        let update_vs_rebuild = update_secs / rebuild_secs;
        let whatif_qps = WHATIF_ROUNDS as f64 / whatif_secs;
        let live_secs = update_secs + requery_secs;
        let row = BenchRow {
            name: workload.clone(),
            semantics: "k-terminal".to_string(),
            vertices: g.num_vertices() as u64,
            edges: g.num_edges() as u64,
            queries: MUTATION_ROUNDS as u64,
            secs: live_secs,
            qps: MUTATION_ROUNDS as f64 / live_secs,
            routes: RouteCounts {
                exact: after.routes.exact - before.routes.exact,
                bounded: after.routes.bounded - before.routes.bounded,
                sampling: after.routes.sampling - before.routes.sampling,
                bit_sampling: after.routes.bit_sampling - before.routes.bit_sampling,
                enumeration: after.routes.enumeration - before.routes.enumeration,
            },
            cache: CacheCounts {
                hits: after.cache_hits - before.cache_hits,
                misses: after.cache_misses - before.cache_misses,
                evictions: after.cache_evictions - before.cache_evictions,
                entries: engine.cache_stats().entries as u64,
            },
            extra: vec![
                ("cold_secs".to_string(), cold_secs),
                (
                    "update_secs_per_op".to_string(),
                    update_secs / MUTATION_ROUNDS as f64,
                ),
                (
                    "requery_secs_per_op".to_string(),
                    requery_secs / MUTATION_ROUNDS as f64,
                ),
                (
                    "rebuild_secs_per_op".to_string(),
                    rebuild_secs / MUTATION_ROUNDS as f64,
                ),
                ("update_vs_rebuild".to_string(), update_vs_rebuild),
                ("whatif_qps".to_string(), whatif_qps),
                (
                    "index_patched".to_string(),
                    (after.index_patched - before.index_patched) as f64,
                ),
                (
                    "index_rebuilt".to_string(),
                    (after.index_rebuilt - before.index_rebuilt) as f64,
                ),
                (
                    "invalidated_plans".to_string(),
                    (after.invalidated_plans - before.invalidated_plans) as f64,
                ),
                (
                    "invalidated_worlds".to_string(),
                    (after.invalidated_worlds - before.invalidated_worlds) as f64,
                ),
            ],
        };
        println!(
            "{:<18} {:>7} {:>10} {:>10} {:>10} {:>8.4} {:>11.1}",
            row.name,
            row.queries,
            fmt_secs(update_secs / MUTATION_ROUNDS as f64),
            fmt_secs(requery_secs / MUTATION_ROUNDS as f64),
            fmt_secs(rebuild_secs / MUTATION_ROUNDS as f64),
            update_vs_rebuild,
            whatif_qps,
        );
        report.rows.push(row);
    }
    report
}
