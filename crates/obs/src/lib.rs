//! # netrel-obs — the in-tree observability substrate
//!
//! Every later engineering item on the roadmap (incremental mutations,
//! multi-tenant serving, perf-regression gating) needs to *see* what the
//! query pipeline did: which route the planner picked per part, how far the
//! cost model missed, whether the plan cache thrashed, where a slow query's
//! time went. This crate is that substrate, built under two hard
//! constraints:
//!
//! 1. **Bit-invariance** — instrumentation may read clocks and bump
//!    counters, but it must never touch an RNG, reorder work, or change a
//!    single answer bit. Everything here is passive: atomic counters,
//!    fixed-bucket histograms, and span builders that record monotonic
//!    timestamps ([`std::time::Instant`], never wall clocks).
//! 2. **One recorded path** — every engine holds a live [`Recorder`], so
//!    the path that serves traffic is the one that tests and benchmarks
//!    measure; record sites are plain atomic adds on an `Arc`. Per-query
//!    tracing stays opt-in: the thread-local trace hook ([`trace::span`])
//!    is a single thread-local read when no trace is installed.
//!
//! Two layers:
//!
//! * [`metrics`] — [`Counter`] (saturating atomic), [`Histogram`]
//!   (fixed exponential bucket edges, Prometheus cumulative-`le`
//!   semantics), the fixed [`Metrics`] catalogue, and
//!   [`MetricsSnapshot`] with both JSON (serde) and Prometheus-text
//!   ([`MetricsSnapshot::to_prometheus`]) exposition.
//! * [`trace`] — bounded per-query span trees: [`TraceBuilder`] accumulates
//!   [`TraceSpan`]s against one monotonic anchor; [`QueryTrace`] is the
//!   serializable (and round-trippable) result. A thread-local hook lets
//!   deep layers (preprocessing, semantics planning) emit spans without
//!   threading a builder through every signature.
//!
//! Performance is measured by the serve benchmark (`perfbench/`): it
//! drives `netrel-serve` over its pipe and, in traced mode, replays each op
//! layer by layer in-process and checks its counts against the server's
//! [`MetricsSnapshot`]. The metric catalogue, span taxonomy, and exposition
//! formats are documented in `docs/observability.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod metrics;
pub mod trace;

pub use metrics::{
    Counter, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot, Recorder, RouteCounts,
};
pub use trace::{QueryTrace, SpanGuard, TraceBuilder, TraceSpan};
