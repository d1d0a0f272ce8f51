//! # netrel-obs — the in-tree observability substrate
//!
//! Every later engineering item on the roadmap (incremental mutations,
//! multi-tenant serving, perf-regression gating) needs to *see* what the
//! query pipeline did: which route the planner picked per part, how far the
//! cost model missed, whether the plan cache thrashed, where a slow
//! request's time went. This crate is that substrate, built under two hard
//! constraints:
//!
//! 1. **Bit-invariance** — instrumentation may read clocks and bump
//!    counters, but it must never touch an RNG, reorder work, or change a
//!    single answer bit. Everything here is passive: atomic counters and
//!    fixed-bucket histograms fed from monotonic durations
//!    ([`std::time::Instant`], never wall clocks).
//! 2. **One recorded path** — every engine holds a live [`Recorder`], so
//!    the path that serves traffic is the one that tests and benchmarks
//!    measure; record sites are plain atomic adds on an `Arc`.
//!
//! [`metrics`] holds [`Counter`] (saturating atomic), [`Histogram`] (fixed
//! exponential bucket edges, inclusive upper bounds), the fixed [`Metrics`]
//! catalogue, and [`MetricsSnapshot`], which serializes to the JSON the
//! service's `metrics` op returns.
//!
//! Performance is measured by the serve benchmark (`perfbench/`): it
//! drives `netrel-serve` over its pipe and, in traced mode (`--trace 1`),
//! replays each op layer by layer in-process and checks its counts against
//! the server's [`MetricsSnapshot`]. The metric catalogue is documented in
//! `docs/observability.md`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod metrics;

pub use metrics::{
    Counter, Histogram, HistogramSnapshot, Metrics, MetricsSnapshot, Recorder, RouteCounts,
};
