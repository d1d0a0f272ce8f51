//! Integration contract of the adaptive planner (DESIGN.md §9):
//!
//! 1. On small/sparse instances the planner picks the exact route and its
//!    answers are **bit-identical** to one-shot exact `pro_reliability`.
//! 2. A dense-graph batch the exact-only path cannot finish under the node
//!    cap completes through the planner with CI-carrying answers.
//! 3. Planned answers are deterministic across engines, worker counts, and
//!    cache states.
//! 4. On five fixed workloads (dense cliques, d-hop, road pairs and city
//!    blocks) the planner's routes are pinned, and it completes every query:
//!    each answer is exact or carries a CI narrower than 0.5.

use netrel_core::{pro_reliability, ProConfig, SemanticsSpec};
use netrel_engine::{Engine, EngineConfig, PlanBudget, PlannedQuery, Route};
use netrel_s2bdd::S2BddConfig;
use netrel_ugraph::UncertainGraph;

fn exact_cfg() -> ProConfig {
    ProConfig {
        s2bdd: S2BddConfig::exact(),
        ..Default::default()
    }
}

/// The small/sparse fixture set used across the repo's tests.
fn sparse_fixtures() -> Vec<(&'static str, UncertainGraph, Vec<Vec<usize>>)> {
    let lollipop = UncertainGraph::new(
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
    .unwrap();
    let path = UncertainGraph::new(10, (0..9).map(|i| (i, i + 1, 0.9))).unwrap();
    let cycle = UncertainGraph::new(8, (0..8).map(|i| (i, (i + 1) % 8, 0.8))).unwrap();
    let mut grid_edges = Vec::new();
    let id = |x: usize, y: usize| y * 4 + x;
    for y in 0..4 {
        for x in 0..4 {
            if x + 1 < 4 {
                grid_edges.push((id(x, y), id(x + 1, y), 0.7));
            }
            if y + 1 < 4 {
                grid_edges.push((id(x, y), id(x, y + 1), 0.6));
            }
        }
    }
    let grid = UncertainGraph::new(16, grid_edges).unwrap();
    vec![
        (
            "lollipop",
            lollipop,
            vec![vec![0, 4], vec![0, 7], vec![1, 4, 6]],
        ),
        ("path", path, vec![vec![0, 9], vec![2, 7]]),
        ("cycle", cycle, vec![vec![0, 4], vec![1, 5, 7]]),
        ("grid4x4", grid, vec![vec![0, 15], vec![3, 12]]),
    ]
}

use netrel_datasets::{clique, Dataset};

#[test]
fn sparse_fixtures_route_exact_and_match_pro_bitwise() {
    for (name, g, terminal_sets) in sparse_fixtures() {
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register(name, g.clone());
        let queries: Vec<PlannedQuery> = terminal_sets
            .iter()
            .map(|t| PlannedQuery::new(t.clone(), PlanBudget::default()))
            .collect();
        let answers = engine.run_planned_batch(id, &queries).unwrap();
        for (t, a) in terminal_sets.iter().zip(answers) {
            let a = a.unwrap();
            assert!(
                a.routes.iter().all(|&r| r == Route::Exact),
                "{name} {t:?}: {:?}",
                a.routes
            );
            assert!(a.exact, "{name} {t:?}");
            assert_eq!(a.samples_used, 0);
            assert_eq!((a.ci.lower, a.ci.upper), (a.estimate, a.estimate));
            let solo = pro_reliability(&g, t, exact_cfg()).unwrap();
            assert_eq!(
                a.estimate.to_bits(),
                solo.estimate.to_bits(),
                "{name} {t:?}: {} vs {}",
                a.estimate,
                solo.estimate
            );
            assert_eq!(a.lower_bound.to_bits(), solo.lower_bound.to_bits());
            assert_eq!(a.upper_bound.to_bits(), solo.upper_bound.to_bits());
        }
    }
}

#[test]
fn dense_batch_unfinishable_exactly_completes_through_the_planner() {
    let budget = PlanBudget::default();
    let g = clique(55);
    let mut engine = Engine::new(EngineConfig::default());
    let id = engine.register("clique55", g.clone());

    // Exact-only under the same node cap: the solver trips the cap and,
    // with no sampling budget, degrades to a useless [~0, ~1] envelope —
    // this is the failure mode the planner exists to avoid.
    let capped_exact = PlannedQuery::fixed(
        SemanticsSpec::KTerminal,
        vec![0, 54],
        ProConfig {
            s2bdd: S2BddConfig {
                node_cap: budget.node_budget,
                ..S2BddConfig::exact()
            },
            ..Default::default()
        },
    );
    let crashed = engine.run_planned(id, &capped_exact).unwrap();
    assert!(
        !crashed.exact,
        "a 55-clique cannot finish under the node cap"
    );
    assert!(crashed.parts.iter().any(|p| p.node_cap_hit));
    assert!(
        crashed.upper_bound - crashed.lower_bound > 0.9,
        "exact-only leaves an uninformative envelope: [{}, {}]",
        crashed.lower_bound,
        crashed.upper_bound
    );

    // The planner routes the same batch to the bit-parallel sampler and
    // completes with CI-carrying answers.
    let queries: Vec<PlannedQuery> = [vec![0, 54], vec![1, 30], vec![7, 20, 40]]
        .into_iter()
        .map(|t| PlannedQuery::new(t, budget))
        .collect();
    let answers = engine.run_planned_batch(id, &queries).unwrap();
    for a in answers {
        let a = a.unwrap();
        assert!(a.routes.contains(&Route::BitSampling), "{:?}", a.routes);
        assert!(!a.exact);
        assert!(a.samples_used > 0);
        assert!(a.ci.contains(a.estimate));
        assert!(
            a.ci.width() > 0.0,
            "an estimated answer must never claim certainty: {:?}",
            a.ci
        );
        assert!(a.lower_bound <= a.estimate && a.estimate <= a.upper_bound);
        // A 55-clique with p ≈ 0.5 edges is connected almost surely.
        assert!(a.estimate > 0.99, "estimate {}", a.estimate);
    }
}

/// Ten distinct pairs from the largest component of Tokyo at scale 0.05,
/// seed 7, drawn once with a seeded RNG and written out so the workload
/// cannot drift with the drawing code.
const TOKYO_PAIRS: [[usize; 2]; 10] = [
    [71, 223],
    [94, 1273],
    [126, 641],
    [142, 1023],
    [146, 951],
    [148, 222],
    [211, 239],
    [427, 938],
    [553, 929],
    [603, 1248],
];

#[test]
fn planner_routes_and_completes_the_fixed_workloads() {
    let tokyo = Dataset::Tokyo.generate(0.05, 7);
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
    let tokyo_pairs: Vec<Vec<usize>> = TOKYO_PAIRS.iter().map(|p| p.to_vec()).collect();
    let dense_pairs: Vec<Vec<usize>> = (0..20).map(|i| vec![i % 20, 30 + (i * 7) % 25]).collect();
    // Routes over the batch: exact, bounded, sampling, bit_sampling,
    // enumeration. At d = 2 nothing on a clique is prunable, so every
    // d-hop part exceeds the exact-enumeration limit and is sampled.
    let workloads = [
        (
            "clique55-dense",
            clique(55),
            SemanticsSpec::KTerminal,
            dense_pairs.clone(),
            [0, 0, 0, 20, 0],
        ),
        (
            "clique55-dhop",
            clique(55),
            SemanticsSpec::DHop { d: 2 },
            dense_pairs.clone(),
            [0, 0, 0, 20, 0],
        ),
        (
            "clique80-dense",
            clique(80),
            SemanticsSpec::KTerminal,
            dense_pairs,
            [0, 0, 0, 20, 0],
        ),
        (
            "tokyo-sparse",
            tokyo.clone(),
            SemanticsSpec::KTerminal,
            tokyo_pairs,
            [4, 9, 0, 1, 0],
        ),
        (
            "tokyo-kterminal",
            tokyo,
            SemanticsSpec::KTerminal,
            tokyo_quads,
            [0, 9, 0, 0, 0],
        ),
    ];
    for (name, g, spec, terminal_sets, routes) in workloads {
        let mut engine = Engine::new(EngineConfig::sequential());
        let id = engine.register(name, g);
        let queries: Vec<PlannedQuery> = terminal_sets
            .iter()
            .map(|t| {
                PlannedQuery::with_semantics(
                    spec,
                    t.clone(),
                    ProConfig::default(),
                    PlanBudget::default(),
                )
            })
            .collect();
        let answers = engine.run_planned_batch(id, &queries).unwrap();
        for (t, a) in terminal_sets.iter().zip(answers) {
            let a = a.unwrap();
            assert!(
                a.exact || a.ci.width() < 0.5,
                "{name} {t:?}: not completed, ci {:?}",
                a.ci
            );
        }
        let r = engine.metrics_snapshot().routes;
        assert_eq!(
            [
                r.exact,
                r.bounded,
                r.sampling,
                r.bit_sampling,
                r.enumeration
            ],
            routes,
            "{name}"
        );
    }
}

#[test]
fn planned_answers_identical_across_engines_and_worker_counts() {
    // Every world of `clique(45)` connects, so any kernel answers 1 there;
    // the sparse-probability clique is sampled too but answers ~0.6–0.7,
    // so its hit counts pin the packed kernels and the world bank's
    // component labels.
    let inputs = [
        (clique(45), vec![vec![0, 44], vec![3, 17]]),
        (
            netrel_datasets::fixtures::clique_uniform(45, 0.05),
            vec![vec![0, 44], vec![3, 17], vec![5, 20, 33]],
        ),
    ];
    for (g, terminal_sets) in inputs {
        let queries: Vec<PlannedQuery> = terminal_sets
            .into_iter()
            .map(|t| PlannedQuery::new(t, PlanBudget::default()))
            .collect();
        let bits_of = |a: netrel_engine::ReliabilityAnswer| {
            (
                a.estimate.to_bits(),
                a.ci.lower.to_bits(),
                a.ci.upper.to_bits(),
            )
        };
        let mut reference: Option<Vec<(u64, u64, u64)>> = None;
        for cfg in [
            EngineConfig::sequential(),
            EngineConfig {
                workers: 8,
                plan_cache_capacity: 0,
            },
            EngineConfig::default(),
        ] {
            let mut engine = Engine::new(cfg);
            let id = engine.register("clique45", g.clone());
            let bits: Vec<(u64, u64, u64)> = engine
                .run_planned_batch(id, &queries)
                .unwrap()
                .into_iter()
                .map(|a| bits_of(a.unwrap()))
                .collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "{cfg:?}"),
            }
        }
        // One query at a time, in reverse order: a different terminal set
        // now draws the world bank's masks and builds its component labels,
        // and every answer must still equal the batch's.
        let mut engine = Engine::new(EngineConfig::sequential());
        let id = engine.register("clique45", g.clone());
        let mut bits: Vec<(u64, u64, u64)> = queries
            .iter()
            .rev()
            .map(|q| bits_of(engine.run_planned(id, q).unwrap()))
            .collect();
        bits.reverse();
        assert_eq!(reference.as_ref(), Some(&bits), "one at a time, reversed");
    }
}

#[test]
fn mixed_batch_routes_per_part() {
    // One engine, one batch: a sparse query stays exact while a dense one
    // is sampled — routing is per part, not per batch.
    let mut engine = Engine::new(EngineConfig::default());
    let sparse = UncertainGraph::new(6, (0..5).map(|i| (i, i + 1, 0.9))).unwrap();
    let dense = clique(50);
    let sid = engine.register("sparse", sparse);
    let did = engine.register("dense", dense);
    let a = engine
        .run_planned(sid, &PlannedQuery::new(vec![0, 5], PlanBudget::default()))
        .unwrap();
    assert!(a.exact);
    let b = engine
        .run_planned(did, &PlannedQuery::new(vec![0, 49], PlanBudget::default()))
        .unwrap();
    assert!(!b.exact);
    assert!(b.routes.contains(&Route::BitSampling));
}

#[test]
fn every_budget_field_changes_the_answer() {
    use netrel_numeric::ConfidenceLevel;

    // A 4×8 grid: too many predicted nodes for a 100-node budget, narrow
    // enough for the bounded route, so the sample budget is spent.
    let (w, l) = (4usize, 8usize);
    let id = |x: usize, y: usize| y * w + x;
    let mut edges = Vec::new();
    for y in 0..l {
        for x in 0..w {
            if x + 1 < w {
                edges.push((id(x, y), id(x + 1, y), 0.7));
            }
            if y + 1 < l {
                edges.push((id(x, y), id(x, y + 1), 0.6));
            }
        }
    }
    let g = UncertainGraph::new(w * l, edges).unwrap();
    let answer = |budget: PlanBudget| {
        let mut engine = Engine::new(EngineConfig::sequential());
        let gid = engine.register("grid4x8", g.clone());
        engine
            .run_planned(gid, &PlannedQuery::new(vec![0, w * l - 1], budget))
            .unwrap()
    };

    let base = PlanBudget {
        node_budget: 100,
        ..PlanBudget::default()
    };
    // No `..`: a new budget field fails to compile here until this test
    // shows that changing it changes the answer.
    let PlanBudget {
        node_budget,
        sample_budget,
        time_hint_ms,
        confidence,
    } = base;
    let a = answer(base);
    assert_eq!(a.routes, [Route::Bounded]);
    assert!(a.samples_used > 0);

    let roomy = answer(PlanBudget {
        node_budget: node_budget * 1_000_000,
        ..base
    });
    assert_ne!(roomy.routes, a.routes, "node_budget");

    let fewer = answer(PlanBudget {
        sample_budget: sample_budget / 4,
        ..base
    });
    assert_ne!(fewer.samples_used, a.samples_used, "sample_budget");

    assert_eq!(time_hint_ms, None);
    let hinted = answer(PlanBudget {
        time_hint_ms: Some(1),
        ..base
    });
    assert_ne!(hinted.samples_used, a.samples_used, "time_hint_ms");

    let other_level = match confidence {
        ConfidenceLevel::P90 | ConfidenceLevel::P95 => ConfidenceLevel::P99,
        ConfidenceLevel::P99 => ConfidenceLevel::P90,
    };
    let leveled = answer(PlanBudget {
        confidence: other_level,
        ..base
    });
    assert_eq!(a.ci.level, confidence);
    assert_eq!(leveled.ci.level, other_level, "confidence");
}
