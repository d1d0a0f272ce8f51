//! Counters, histograms, the fixed metric catalogue, and its snapshots.
//!
//! The catalogue is a *fixed struct*, not a dynamic registry: every family
//! the stack records is a named field of [`Metrics`], so a metric cannot be
//! misspelled at a record site, and recording and snapshotting are plain
//! field accesses with no map lookups. [`MetricsSnapshot`] serializes each
//! field under its own name, so the JSON keys are the catalogue.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotone event counter. `add` saturates at `u64::MAX` instead of
/// wrapping, so a (pathologically) overflowed counter pins at the ceiling
/// rather than appearing to reset.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`, saturating at `u64::MAX`.
    #[inline]
    pub fn add(&self, n: u64) {
        // `fetch_update` with a total function never yields `Err`.
        let _ = self
            .0
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
                Some(c.saturating_add(n))
            });
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Bucket upper bounds (seconds) for latency histograms: 1µs to 60s in a
/// coarse exponential ladder. The final implicit bucket is `+Inf`.
pub const TIME_EDGES_SECONDS: [f64; 12] = [
    1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 2.5e-2, 1e-1, 2.5e-1, 1.0, 5.0, 15.0, 60.0,
];

/// Bucket upper bounds for size/count histograms (node counts, cache ages,
/// parts per query): powers of ten from 1 to 1e9, `+Inf` beyond.
pub const COUNT_EDGES: [f64; 10] = [1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];

/// Bucket upper bounds for percentage histograms (lane utilization): a
/// decile ladder up to 100. Everything a well-formed percentage can be
/// lands in an explicit bucket; `+Inf` only catches bad inputs.
pub const PERCENT_EDGES: [f64; 10] = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];

/// A fixed-bucket histogram with atomic bucket counts and a lock-free sum.
///
/// Bucket edges are `'static` upper bounds; an observation lands in the
/// first bucket whose edge is `>= v` (the last, implicit bucket is `+Inf`,
/// which also absorbs NaN). Counts saturate like [`Counter`]; the sum is an
/// `f64` updated by a compare-exchange loop on its bit pattern.
#[derive(Debug)]
pub struct Histogram {
    edges: &'static [f64],
    buckets: Vec<AtomicU64>,
    sum_bits: AtomicU64,
}

impl Histogram {
    /// A histogram over explicit `'static` bucket edges (ascending).
    pub fn with_edges(edges: &'static [f64]) -> Self {
        Histogram {
            edges,
            buckets: (0..=edges.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
        }
    }

    /// A latency histogram over [`TIME_EDGES_SECONDS`].
    pub fn time() -> Self {
        Self::with_edges(&TIME_EDGES_SECONDS)
    }

    /// A size/count histogram over [`COUNT_EDGES`].
    pub fn count() -> Self {
        Self::with_edges(&COUNT_EDGES)
    }

    /// A percentage histogram over [`PERCENT_EDGES`].
    pub fn percent() -> Self {
        Self::with_edges(&PERCENT_EDGES)
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: f64) {
        let i = self
            .edges
            .iter()
            .position(|&e| v <= e)
            .unwrap_or(self.edges.len());
        let _ = self.buckets[i].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| {
            Some(c.saturating_add(1))
        });
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record a duration in seconds.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_secs_f64());
    }

    /// Record a count (histograms over [`COUNT_EDGES`]). Saturating cast.
    #[inline]
    pub fn observe_count(&self, n: usize) {
        self.observe(n as f64);
    }

    /// An immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = counts.iter().fold(0u64, |a, &c| a.saturating_add(c));
        HistogramSnapshot {
            edges: self.edges.to_vec(),
            counts,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            count,
        }
    }
}

/// Frozen histogram state: per-bucket counts (the last entry is the
/// implicit `+Inf` bucket, so `counts.len() == edges.len() + 1`), the sum
/// of observations, and the total count.
#[derive(Clone, Debug, serde::Serialize)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds, ascending.
    pub edges: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; one longer than
    /// `edges` for the `+Inf` bucket.
    pub counts: Vec<u64>,
    /// Sum of all observed values.
    pub sum: f64,
    /// Total observations.
    pub count: u64,
}

/// The fixed metric catalogue for the whole stack. Record sites live in
/// `netrel-engine` (and its service); the catalogue itself is
/// engine-agnostic so lower layers can stay dependency-light.
#[derive(Debug)]
pub struct Metrics {
    // -- engine --------------------------------------------------------
    /// Queries answered through the classic (non-planned) path.
    pub queries_classic: Counter,
    /// Queries answered through the adaptive planner.
    pub queries_planned: Counter,
    /// Queries that failed planning or solving.
    pub query_errors: Counter,
    /// Batches executed (a single `run` counts as a one-query batch).
    pub batches: Counter,
    /// Per-query semantics-planning latency (preprocess + routing).
    pub plan_seconds: Histogram,
    /// Per-query recombination latency.
    pub combine_seconds: Histogram,
    /// Decomposed parts per query.
    pub parts_per_query: Histogram,
    /// `GraphIndex` build latency at registration.
    pub index_build_seconds: Histogram,
    // -- mutations -----------------------------------------------------
    /// `update_edge_prob` mutations committed.
    pub mutations_update_prob: Counter,
    /// `add_edge` mutations committed.
    pub mutations_add_edge: Counter,
    /// `remove_edge` mutations committed.
    pub mutations_remove_edge: Counter,
    /// Mutations whose `GraphIndex` was patched in place.
    pub index_patched: Counter,
    /// Mutations that fell back to a full `GraphIndex` rebuild.
    pub index_rebuilt: Counter,
    /// Plan-cache entries invalidated by mutations.
    pub invalidated_plans: Counter,
    /// World-bank entries invalidated by mutations.
    pub invalidated_worlds: Counter,
    /// What-if evaluations (`evaluate_with`, including maximizer probes).
    pub whatif_queries: Counter,
    // -- planner -------------------------------------------------------
    /// Parts routed to the unbounded-width exact S2BDD.
    pub route_exact: Counter,
    /// Parts routed to the width-bounded S2BDD.
    pub route_bounded: Counter,
    /// Parts routed to flat possible-world sampling.
    pub route_sampling: Counter,
    /// Parts routed to the bit-parallel (64 worlds per `u64`) sampler.
    pub route_bit_sampling: Counter,
    /// Parts routed to exact d-hop enumeration.
    pub route_enumeration: Counter,
    /// Lane utilization (percent of the final 64-lane block used) per
    /// bit-sampling-routed part. 100 means `samples` was a multiple of 64;
    /// low values flag budgets wasting most of their last packed word.
    pub bit_lane_utilization_percent: Histogram,
    /// Solves whose in-solver node cap tripped (cost-model underestimate).
    pub node_cap_hits: Counter,
    /// Cost-model predicted S2BDD node counts, one observation per planned
    /// part (saturated predictions land in `+Inf`).
    pub predicted_nodes: Histogram,
    /// Actual S2BDD nodes created, one observation per fresh S2BDD solve.
    pub actual_nodes: Histogram,
    // -- plan cache ----------------------------------------------------
    /// Part lookups served from the plan cache.
    pub cache_hits: Counter,
    /// Part lookups that required a solve (or joined an in-batch job).
    pub cache_misses: Counter,
    /// Results published to the cache.
    pub cache_insertions: Counter,
    /// Entries evicted to make room.
    pub cache_evictions: Counter,
    /// Age (in cache ticks since last use) of evicted entries.
    pub cache_eviction_age: Histogram,
    // -- executor ------------------------------------------------------
    /// Deduplicated part-solve jobs dispatched to the worker pool.
    pub jobs: Counter,
    /// Per-job solve latency.
    pub part_solve_seconds: Histogram,
    /// Per-job queue wait: batch dispatch to job start.
    pub queue_wait_seconds: Histogram,
    /// Per-worker busy time per batch (sum of its job durations).
    pub worker_busy_seconds: Histogram,
    // -- service -------------------------------------------------------
    /// `register` requests handled.
    pub requests_register: Counter,
    /// `query` requests handled.
    pub requests_query: Counter,
    /// `batch` requests handled.
    pub requests_batch: Counter,
    /// `stats` requests handled.
    pub requests_stats: Counter,
    /// `metrics` requests handled.
    pub requests_metrics: Counter,
    /// `mutate` requests handled.
    pub requests_mutate: Counter,
    /// `whatif` requests handled.
    pub requests_whatif: Counter,
    /// `maximize` requests handled.
    pub requests_maximize: Counter,
    /// Requests answered with `"ok": false`.
    pub request_errors: Counter,
    /// Per-request handling latency.
    pub request_seconds: Histogram,
}

impl Metrics {
    /// A zeroed catalogue.
    pub fn new() -> Self {
        Metrics {
            queries_classic: Counter::new(),
            queries_planned: Counter::new(),
            query_errors: Counter::new(),
            batches: Counter::new(),
            plan_seconds: Histogram::time(),
            combine_seconds: Histogram::time(),
            parts_per_query: Histogram::count(),
            index_build_seconds: Histogram::time(),
            mutations_update_prob: Counter::new(),
            mutations_add_edge: Counter::new(),
            mutations_remove_edge: Counter::new(),
            index_patched: Counter::new(),
            index_rebuilt: Counter::new(),
            invalidated_plans: Counter::new(),
            invalidated_worlds: Counter::new(),
            whatif_queries: Counter::new(),
            route_exact: Counter::new(),
            route_bounded: Counter::new(),
            route_sampling: Counter::new(),
            route_bit_sampling: Counter::new(),
            route_enumeration: Counter::new(),
            bit_lane_utilization_percent: Histogram::percent(),
            node_cap_hits: Counter::new(),
            predicted_nodes: Histogram::count(),
            actual_nodes: Histogram::count(),
            cache_hits: Counter::new(),
            cache_misses: Counter::new(),
            cache_insertions: Counter::new(),
            cache_evictions: Counter::new(),
            cache_eviction_age: Histogram::count(),
            jobs: Counter::new(),
            part_solve_seconds: Histogram::time(),
            queue_wait_seconds: Histogram::time(),
            worker_busy_seconds: Histogram::time(),
            requests_register: Counter::new(),
            requests_query: Counter::new(),
            requests_batch: Counter::new(),
            requests_stats: Counter::new(),
            requests_metrics: Counter::new(),
            requests_mutate: Counter::new(),
            requests_whatif: Counter::new(),
            requests_maximize: Counter::new(),
            request_errors: Counter::new(),
            request_seconds: Histogram::time(),
        }
    }

    /// Freeze the catalogue into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            queries_classic: self.queries_classic.get(),
            queries_planned: self.queries_planned.get(),
            query_errors: self.query_errors.get(),
            batches: self.batches.get(),
            plan_seconds: self.plan_seconds.snapshot(),
            combine_seconds: self.combine_seconds.snapshot(),
            parts_per_query: self.parts_per_query.snapshot(),
            index_build_seconds: self.index_build_seconds.snapshot(),
            mutations_update_prob: self.mutations_update_prob.get(),
            mutations_add_edge: self.mutations_add_edge.get(),
            mutations_remove_edge: self.mutations_remove_edge.get(),
            index_patched: self.index_patched.get(),
            index_rebuilt: self.index_rebuilt.get(),
            invalidated_plans: self.invalidated_plans.get(),
            invalidated_worlds: self.invalidated_worlds.get(),
            whatif_queries: self.whatif_queries.get(),
            routes: RouteCounts {
                exact: self.route_exact.get(),
                bounded: self.route_bounded.get(),
                sampling: self.route_sampling.get(),
                bit_sampling: self.route_bit_sampling.get(),
                enumeration: self.route_enumeration.get(),
            },
            bit_lane_utilization_percent: self.bit_lane_utilization_percent.snapshot(),
            node_cap_hits: self.node_cap_hits.get(),
            predicted_nodes: self.predicted_nodes.snapshot(),
            actual_nodes: self.actual_nodes.snapshot(),
            cache_hits: self.cache_hits.get(),
            cache_misses: self.cache_misses.get(),
            cache_insertions: self.cache_insertions.get(),
            cache_evictions: self.cache_evictions.get(),
            cache_eviction_age: self.cache_eviction_age.snapshot(),
            jobs: self.jobs.get(),
            part_solve_seconds: self.part_solve_seconds.snapshot(),
            queue_wait_seconds: self.queue_wait_seconds.snapshot(),
            worker_busy_seconds: self.worker_busy_seconds.snapshot(),
            requests_register: self.requests_register.get(),
            requests_query: self.requests_query.get(),
            requests_batch: self.requests_batch.get(),
            requests_stats: self.requests_stats.get(),
            requests_metrics: self.requests_metrics.get(),
            requests_mutate: self.requests_mutate.get(),
            requests_whatif: self.requests_whatif.get(),
            requests_maximize: self.requests_maximize.get(),
            request_errors: self.request_errors.get(),
            request_seconds: self.request_seconds.snapshot(),
        }
    }
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new()
    }
}

/// Planner route decisions, one counter per route (the `routes` field of
/// [`MetricsSnapshot`]).
#[derive(Clone, Copy, Debug, serde::Serialize)]
pub struct RouteCounts {
    /// Parts routed to the unbounded-width exact S2BDD.
    pub exact: u64,
    /// Parts routed to the width-bounded S2BDD.
    pub bounded: u64,
    /// Parts routed to flat possible-world sampling.
    pub sampling: u64,
    /// Parts routed to the bit-parallel (64 worlds per `u64`) sampler.
    pub bit_sampling: u64,
    /// Parts routed to exact d-hop enumeration.
    pub enumeration: u64,
}

/// A frozen, serializable copy of the whole [`Metrics`] catalogue: the JSON
/// the service's `metrics` op returns.
#[derive(Clone, Debug, serde::Serialize)]
pub struct MetricsSnapshot {
    /// Queries answered through the classic path.
    pub queries_classic: u64,
    /// Queries answered through the adaptive planner.
    pub queries_planned: u64,
    /// Queries that failed planning or solving.
    pub query_errors: u64,
    /// Batches executed.
    pub batches: u64,
    /// Per-query semantics-planning latency.
    pub plan_seconds: HistogramSnapshot,
    /// Per-query recombination latency.
    pub combine_seconds: HistogramSnapshot,
    /// Decomposed parts per query.
    pub parts_per_query: HistogramSnapshot,
    /// `GraphIndex` build latency.
    pub index_build_seconds: HistogramSnapshot,
    /// `update_edge_prob` mutations committed.
    pub mutations_update_prob: u64,
    /// `add_edge` mutations committed.
    pub mutations_add_edge: u64,
    /// `remove_edge` mutations committed.
    pub mutations_remove_edge: u64,
    /// Mutations whose `GraphIndex` was patched in place.
    pub index_patched: u64,
    /// Mutations that fell back to a full `GraphIndex` rebuild.
    pub index_rebuilt: u64,
    /// Plan-cache entries invalidated by mutations.
    pub invalidated_plans: u64,
    /// World-bank entries invalidated by mutations.
    pub invalidated_worlds: u64,
    /// What-if evaluations (including maximizer probes).
    pub whatif_queries: u64,
    /// Planner route decisions.
    pub routes: RouteCounts,
    /// Final-block lane utilization per bit-sampling-routed part.
    pub bit_lane_utilization_percent: HistogramSnapshot,
    /// Node-cap safety-net trips.
    pub node_cap_hits: u64,
    /// Cost-model node predictions.
    pub predicted_nodes: HistogramSnapshot,
    /// Actual S2BDD nodes created.
    pub actual_nodes: HistogramSnapshot,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Plan-cache insertions.
    pub cache_insertions: u64,
    /// Plan-cache evictions.
    pub cache_evictions: u64,
    /// Tick age of evicted entries.
    pub cache_eviction_age: HistogramSnapshot,
    /// Part-solve jobs dispatched.
    pub jobs: u64,
    /// Per-job solve latency.
    pub part_solve_seconds: HistogramSnapshot,
    /// Per-job queue wait.
    pub queue_wait_seconds: HistogramSnapshot,
    /// Per-worker busy time per batch.
    pub worker_busy_seconds: HistogramSnapshot,
    /// `register` requests handled.
    pub requests_register: u64,
    /// `query` requests handled.
    pub requests_query: u64,
    /// `batch` requests handled.
    pub requests_batch: u64,
    /// `stats` requests handled.
    pub requests_stats: u64,
    /// `metrics` requests handled.
    pub requests_metrics: u64,
    /// `mutate` requests handled.
    pub requests_mutate: u64,
    /// `whatif` requests handled.
    pub requests_whatif: u64,
    /// `maximize` requests handled.
    pub requests_maximize: u64,
    /// Requests answered with an error.
    pub request_errors: u64,
    /// Per-request handling latency.
    pub request_seconds: HistogramSnapshot,
}

/// A cloneable handle to a shared [`Metrics`] catalogue.
///
/// Every engine records: the served path is the one that runs, so there is
/// no second, unrecorded mode to keep equal to it. Recording cannot change
/// behavior: the recorder owns no RNG and no scheduling decision, only
/// counters and clocks.
#[derive(Clone, Debug)]
pub struct Recorder(Arc<Metrics>);

impl Recorder {
    /// A recorder over a fresh catalogue.
    pub fn enabled() -> Self {
        Recorder(Arc::new(Metrics::new()))
    }

    /// The catalogue.
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.0
    }

    /// Snapshot the catalogue.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.0.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_instead_of_wrapping() {
        let c = Counter::new();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX, "must saturate, not wrap");
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let h = Histogram::with_edges(&[1.0, 10.0, 100.0]);
        // Exactly on an edge lands in that edge's bucket (le semantics).
        h.observe(1.0);
        h.observe(10.0);
        h.observe(100.0);
        // Strictly above the last edge lands in +Inf.
        h.observe(100.5);
        // Below the first edge lands in the first bucket.
        h.observe(0.0);
        let s = h.snapshot();
        assert_eq!(s.counts, vec![2, 1, 1, 1]);
        assert_eq!(s.count, 5);
        assert!((s.sum - 211.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_absorbs_nan_and_infinity_in_the_overflow_bucket() {
        let h = Histogram::with_edges(&[1.0]);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        let s = h.snapshot();
        assert_eq!(s.counts[1], 2);
    }

    #[test]
    fn time_and_count_ladders_are_ascending() {
        for w in TIME_EDGES_SECONDS.windows(2) {
            assert!(w[0] < w[1]);
        }
        for w in COUNT_EDGES.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn snapshot_serializes_to_json() {
        use serde::Serialize as _;
        let m = Metrics::new();
        m.cache_misses.add(7);
        let v = m.snapshot().to_value();
        assert_eq!(v.get("cache_misses"), Some(&serde::Value::U64(7)));
        assert!(v
            .get("plan_seconds")
            .and_then(|h| h.get("counts"))
            .is_some());
        let Some(serde::Value::Map(routes)) = v.get("routes") else {
            panic!("routes is not an object");
        };
        let keys: Vec<&str> = routes.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "exact",
                "bounded",
                "sampling",
                "bit_sampling",
                "enumeration"
            ]
        );
    }

    #[test]
    fn documented_catalogue_matches_the_exposition() {
        use serde::Serialize as _;
        let doc = include_str!("../../../docs/observability.md");
        let section = doc
            .split("## Metric catalogue")
            .nth(1)
            .and_then(|rest| rest.split("\n## ").next())
            .expect("docs/observability.md has a metric catalogue section");
        // Each table row is `| names | kind | meaning |`; a row may name
        // several backticked snapshot keys.
        let documented: Vec<(String, &str)> = section
            .lines()
            .filter(|row| row.starts_with("| `"))
            .flat_map(|row| {
                let cells: Vec<&str> = row.split(" | ").collect();
                let kind = cells[1];
                cells[0]
                    .split('`')
                    .skip(1)
                    .step_by(2)
                    .map(move |name| (name.to_string(), kind))
            })
            .collect();
        // The snapshot's keys in wire order: an integer is a counter, an
        // object with `counts` a histogram, and `routes` one counter per
        // route.
        let serde::Value::Map(fields) = Metrics::new().snapshot().to_value() else {
            panic!("the snapshot is not an object");
        };
        let mut exposed: Vec<(String, &str)> = Vec::new();
        for (key, value) in &fields {
            match value {
                serde::Value::U64(_) => exposed.push((key.clone(), "counter")),
                serde::Value::Map(routes) if key == "routes" => {
                    for (route, count) in routes {
                        assert!(matches!(count, serde::Value::U64(_)), "{key}.{route}");
                        exposed.push((format!("{key}.{route}"), "counter"));
                    }
                }
                v if v.get("counts").is_some() => exposed.push((key.clone(), "histogram")),
                other => panic!("`{key}` is neither a counter nor a histogram: {other:?}"),
            }
        }
        assert_eq!(documented, exposed);
    }
}
