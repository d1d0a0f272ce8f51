//! # network-reliability
//!
//! A Rust reproduction of *"Efficient Network Reliability Computation in
//! Uncertain Graphs"* (Sasaki, Fujiwara, Onizuka — EDBT 2019): k-terminal
//! reliability in uncertain graphs via an S2BDD (scalable & sampling binary
//! decision diagram) with bound-driven stratified sampling, plus the
//! 2-edge-connected-component extension technique, the Monte Carlo /
//! Horvitz–Thompson baselines, an exact solver, datasets, and the full
//! benchmark harness that regenerates every table and figure of the paper.
//! Beyond the paper, a pluggable [`solvers::Semantics`] trait answers five
//! reliability questions (k-terminal, two-terminal, all-terminal, d-hop,
//! expected reachable-set size) through the same decompose/solve/combine
//! pipeline and the same multi-query engine.
//!
//! Quick start:
//!
//! ```
//! use network_reliability::prelude::*;
//!
//! let g = UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.9), (3, 0, 0.7)]).unwrap();
//! let r = pro_reliability(&g, &[0, 2], ProConfig::default()).unwrap();
//! assert!(r.lower_bound <= r.estimate && r.estimate <= r.upper_bound);
//! ```
//!
//! Crate map (see `DESIGN.md` for the full inventory):
//!
//! | module | contents |
//! |---|---|
//! | [`graph`] | uncertain graphs, union-find, bridges, 2ECC, orderings |
//! | [`numeric`] | extended-exponent floats, compensated sums, statistics |
//! | [`datasets`] | embedded karate club + Table 2 synthetic stand-ins |
//! | [`bdd`] | brute force, frontier machine, materialized BDD baseline |
//! | [`s2bdd`] | the paper's S2BDD solver |
//! | [`preprocessing`] | prune / decompose / transform |
//! | [`solvers`] | `Sampling(MC/HT)`, `Pro`, exact, the `Semantics` trait + oracle |
//! | [`engine`] | batched multi-query engine: shared preprocessing, semantics-generic adaptive planner, plan cache, JSON service |

#![forbid(unsafe_code)]
#![deny(missing_docs)]

// Compile and run every Rust snippet in the README as part of
// `cargo test --doc`, so the quickstarts can never drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use netrel_bdd as bdd;
pub use netrel_core as solvers;
pub use netrel_datasets as datasets;
pub use netrel_engine as engine;
pub use netrel_numeric as numeric;
pub use netrel_preprocess as preprocessing;
pub use netrel_s2bdd as s2bdd;
pub use netrel_ugraph as graph;

/// Everything a typical user needs.
pub mod prelude {
    pub use netrel_core::prelude::*;
    pub use netrel_datasets::{Dataset, ProbModel};
    pub use netrel_engine::{
        Engine, EngineConfig, PlanBudget, PlannedQuery, Policy, ReliabilityAnswer, Route,
    };
    pub use netrel_ugraph::{GraphStats, UncertainGraph};
}
