//! Observability overhead gate: the instrumented engine hot path must stay
//! within 5% of the uninstrumented baseline on a planner-throughput-style
//! workload.
//!
//! Not a criterion bench: the assertion needs a deterministic pass/fail
//! exit, so this is a custom harness that interleaves `Recorder::noop()`
//! and `Recorder::enabled()` rounds and gates on the median of the
//! per-round paired ratios `instrumented / baseline`. Pairing cancels drift
//! slower than one round pair, and the median ignores up to seven disturbed
//! pairs. The min-of-rounds figure is printed for information only: its
//! two minima come from different rounds, so host drift between them is
//! not cancelled. The gate only trips when `OBS_OVERHEAD_GATE=1` (set by
//! CI); without it the numbers are informational.
//!
//! Answers are additionally asserted bit-identical across the two engines —
//! the overhead gate doubles as an end-to-end invariance check.

use netrel_core::ProConfig;
use netrel_engine::{Engine, EngineConfig, PlanBudget, PlannedQuery, Recorder};
use netrel_ugraph::UncertainGraph;
use std::time::Instant;

const ROUNDS: usize = 15;
const BATCHES_PER_ROUND: usize = 30;
/// The gate: the median paired ratio may exceed 1 by at most 5%.
const MAX_RATIO: f64 = 1.05;

/// The planner-throughput workload shape: a sparse graph with overlapping
/// two-terminal queries, exact routes, warm cache after the first batch —
/// the regime where per-query bookkeeping is the largest relative cost.
fn workload_graph() -> UncertainGraph {
    // A 40-vertex ladder (two rails + rungs): sparse, bridge-rich, and
    // cheap per query, so fixed instrumentation cost is maximally visible.
    let mut edges = Vec::new();
    for i in 0..19usize {
        edges.push((2 * i, 2 * i + 2, 0.9));
        edges.push((2 * i + 1, 2 * i + 3, 0.8));
    }
    for i in 0..20usize {
        edges.push((2 * i, 2 * i + 1, 0.7));
    }
    UncertainGraph::new(40, edges).unwrap()
}

fn queries() -> Vec<PlannedQuery> {
    (0..16)
        .map(|i| {
            PlannedQuery::with_config(
                vec![2 * (i % 5), 30 + (i % 7)],
                ProConfig::default(),
                PlanBudget::default(),
            )
        })
        .collect()
}

/// Seconds for one round: `BATCHES_PER_ROUND` planned batches on a fresh
/// engine (cold first batch, warm rest — the service steady state).
fn round(recorder: Recorder, queries: &[PlannedQuery]) -> (f64, u64) {
    let mut engine = Engine::with_recorder(EngineConfig::sequential(), recorder);
    let id = engine.register("ladder", workload_graph());
    let t0 = Instant::now();
    let mut bits = 0u64;
    for _ in 0..BATCHES_PER_ROUND {
        for a in engine.run_planned_batch(id, queries).unwrap() {
            bits ^= a.unwrap().estimate.to_bits();
        }
    }
    (t0.elapsed().as_secs_f64(), bits)
}

fn main() {
    // `cargo bench` passes harness flags (e.g. `--bench`); ignore them.
    let queries = queries();

    // Warmup round (not recorded) to fault in code and allocator state.
    let (_, warm_bits) = round(Recorder::noop(), &queries);

    let mut ratios = Vec::with_capacity(ROUNDS);
    let mut base_min = f64::INFINITY;
    let mut inst_min = f64::INFINITY;
    for _ in 0..ROUNDS {
        let (base_secs, base_bits) = round(Recorder::noop(), &queries);
        let (inst_secs, inst_bits) = round(Recorder::enabled(), &queries);
        assert_eq!(base_bits, warm_bits, "uninstrumented answers drifted");
        assert_eq!(inst_bits, warm_bits, "instrumentation changed answers");
        ratios.push(inst_secs / base_secs);
        base_min = base_min.min(base_secs);
        inst_min = inst_min.min(inst_secs);
    }
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ROUNDS / 2];

    println!(
        "obs overhead: median paired {:+.2}% over {ROUNDS} rounds \
         (min-of-rounds: baseline {:.3}ms, instrumented {:.3}ms, {:+.2}%)",
        (median - 1.0) * 100.0,
        base_min * 1e3,
        inst_min * 1e3,
        (inst_min / base_min - 1.0) * 100.0
    );

    if median > MAX_RATIO {
        let message = format!(
            "instrumented hot path too slow: median paired overhead {:+.2}% > +5%",
            (median - 1.0) * 100.0
        );
        if std::env::var("OBS_OVERHEAD_GATE").as_deref() == Ok("1") {
            panic!("{message}");
        }
        eprintln!("warning (gate disabled): {message}");
    }
}
