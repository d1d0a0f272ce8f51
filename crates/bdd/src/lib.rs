//! Exact k-terminal reliability machinery.
//!
//! Three pieces live here:
//!
//! * [`brute`]: `O(2^|E|)` enumeration over all possible worlds — the oracle
//!   every other solver is validated against,
//! * [`frontier`]: the frontier-based state machine shared by the materialized
//!   BDD baseline and the S2BDD (paper §3.2.1): canonical component/terminal
//!   states, sink detection, and per-layer bookkeeping,
//! * [`full`]: the materialized, all-layers BDD baseline (what the paper calls
//!   "the BDD-based approach", TdZDD-style), with node accounting and a node
//!   limit so the Figure 3 DNF behaviour is reproducible.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Answer-affecting region (docs/lints.md): no clock reads, thread-count
// probes or hash-order iteration.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

pub mod brute;
pub mod frontier;
pub mod full;

pub use brute::brute_force_reliability;
pub use frontier::{FrontierMachine, LayerArena, StateRow, Transition};
pub use full::{FullBdd, FullBddConfig, FullBddError};
