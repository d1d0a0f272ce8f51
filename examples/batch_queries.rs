//! Batched multi-query reliability with `netrel-engine`: register a graph
//! once, answer a stream of overlapping terminal-pair queries through shared
//! preprocessing and the part-level plan cache, and compare against
//! independent one-shot `pro_reliability` calls.
//!
//! Run with: `cargo run --release --example batch_queries`

use network_reliability::prelude::*;
use network_reliability::solvers::pro_reliability;
use network_reliability::solvers::ProConfig;
use std::time::Instant;

fn main() {
    // A Tokyo-like road network: tree-like after 2ECC contraction, so the
    // terminal-independent structure pass dominates a one-shot query.
    let g = Dataset::Tokyo.generate(0.05, 7);
    println!(
        "graph: Tokyo-like, {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    );

    // A hot-pair workload: 60 queries cycling over 6 terminal pairs, the
    // access pattern of s-t benchmark suites and perturbation search.
    // Nearby pairs keep the reliabilities non-vanishing (on a road network,
    // far-apart terminals are almost never connected). The generator lays
    // vertices out row-major on a ~√n × √n grid, so `v` and `v + side` are
    // vertical neighbors.
    let side = (g.num_vertices() as f64).sqrt() as usize;
    let pairs: [[usize; 2]; 6] = [
        [0, 1],
        [side, side + 1],
        [0, 3 * side + 3], // a few blocks apart: leaves parts for the solver
        [0, 1],            // duplicates on purpose: they hit the plan cache
        [0, 3 * side + 3],
        [side, side + 1],
    ];
    // A demo-sized solver budget (the paper default of w = s = 10 000 makes
    // each medium-range query a multi-second solve).
    let cfg = ProConfig {
        s2bdd: S2BddConfig {
            max_width: 64,
            samples: 2_000,
            seed: 7,
            ..Default::default()
        },
        ..Default::default()
    };
    let queries: Vec<PlannedQuery> = (0..60)
        .map(|i| {
            PlannedQuery::fixed(
                SemanticsSpec::KTerminal,
                pairs[i % pairs.len()].to_vec(),
                cfg,
            )
        })
        .collect();

    // One-shot: every call redoes bridges + 2ECC + forest from scratch.
    let t0 = Instant::now();
    let solo: Vec<f64> = queries
        .iter()
        .map(|q| {
            pro_reliability(&g, &q.terminals, q.config)
                .unwrap()
                .estimate
        })
        .collect();
    let oneshot = t0.elapsed();

    // Engine: structure once at register time, then batched answering with
    // the part-level plan cache (here in service-sized batches of 10).
    let t1 = Instant::now();
    let mut engine = Engine::new(EngineConfig::default());
    let id = engine.register("tokyo", g.clone());
    let mut answers: Vec<ReliabilityAnswer> = Vec::with_capacity(queries.len());
    for chunk in queries.chunks(10) {
        for a in engine.run_planned_batch(id, chunk).unwrap() {
            answers.push(a.unwrap());
        }
    }
    let batched = t1.elapsed();

    for (a, s) in answers.iter().zip(&solo) {
        assert_eq!(
            a.estimate.to_bits(),
            s.to_bits(),
            "engine answers are bit-identical to one-shot Pro"
        );
    }

    let stats = engine.cache_stats();
    println!(
        "60 queries  one-shot: {:>8.1?}   engine: {:>8.1?}   speedup: {:.1}x",
        oneshot,
        batched,
        oneshot.as_secs_f64() / batched.as_secs_f64().max(1e-9)
    );
    println!(
        "plan cache: {} hits, {} misses, {} entries",
        stats.hits, stats.misses, stats.entries
    );
    let sample = &answers[0];
    println!(
        "R[{:?}] = {:.6} in [{:.6}, {:.6}]{}",
        queries[0].terminals,
        sample.estimate,
        sample.lower_bound,
        sample.upper_bound,
        if sample.exact { " (exact)" } else { "" }
    );
}
