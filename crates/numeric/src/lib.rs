//! Numeric substrate for the network-reliability workspace.
//!
//! The paper multiplies per-edge probabilities over hundreds of thousands of
//! edges, which underflows `f64` (e.g. `0.2^248770`); the authors used
//! Boost.Multiprecision with 10 000 decimal digits. All *reported* quantities
//! are ratios and sums in `[0, 1]`, so full precision is unnecessary — what is
//! needed is dynamic range. [`WideFloat`] provides an `f64` mantissa with an
//! `i64` binary exponent: ~16 significant digits over a range of `2^±(2^63)`,
//! which dominates sampling error by many orders of magnitude.
//!
//! The crate also provides compensated summation ([`NeumaierSum`]) and the
//! accuracy metrics used by the paper's evaluation ([`stats::accuracy`]).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Answer-affecting region (docs/lints.md): no clock reads, thread-count
// probes or hash-order iteration.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

pub mod fxhash;
pub mod kahan;
pub mod stats;
pub mod widefloat;

pub use fxhash::FxBuildHasher;
pub use kahan::NeumaierSum;
pub use stats::{accuracy, normal_ci, AccuracyReport, ConfidenceInterval, ConfidenceLevel};
pub use widefloat::WideFloat;
