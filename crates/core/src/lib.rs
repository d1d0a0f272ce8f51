//! # network-reliability core
//!
//! Public API for k-terminal network reliability in uncertain graphs,
//! reproducing *"Efficient Network Reliability Computation in Uncertain
//! Graphs"* (Sasaki, Fujiwara, Onizuka — EDBT 2019).
//!
//! Three solver families:
//!
//! * [`sampling`] — the classical Monte Carlo / Horvitz–Thompson possible-
//!   world samplers (the paper's `Sampling(MC)` / `Sampling(HT)` baselines),
//!   plus the [`bitsample`] kernel packing 64 Monte Carlo worlds per `u64`
//!   for word-parallel connectivity,
//! * [`pro`] — the paper's approach (`Pro`): preprocessing via 2-edge-
//!   connected components, then one width-bounded S2BDD per decomposed
//!   component, with bound-driven sample reduction (Algorithm 1),
//! * [`exact`] — exact reliability via the unbounded S2BDD (small graphs) or
//!   brute-force enumeration (tiny graphs).
//!
//! Beyond k-terminal connectivity, the [`semantics`] module makes the
//! decompose-then-combine pipeline generic over *what* a query computes:
//! strict two-terminal, k-terminal, all-terminal, distance-constrained
//! ([`dhop`]) reliability, and expected reachable-set size, each validated
//! against the exhaustive possible-world [`oracle`].
//!
//! ```
//! use netrel_core::prelude::*;
//!
//! // A 4-cycle with flaky edges; how reliably are opposite corners connected?
//! let g = UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9), (3, 0, 0.9)]).unwrap();
//! let exact = exact_reliability(&g, &[0, 2]).unwrap();
//! let approx = pro_reliability(&g, &[0, 2], ProConfig::default()).unwrap();
//! assert!((approx.estimate - exact).abs() < 0.05);
//! assert!(approx.lower_bound <= exact && exact <= approx.upper_bound);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bitsample;
pub mod dhop;
pub mod exact;
pub mod oracle;
pub mod pro;
pub mod sampling;
pub mod semantics;

pub use bitsample::{
    bitsample_dhop_reliability, bitsample_part, bitsample_reliability, lane_utilization_percent,
    BitSamplingConfig, CsrAdjacency, WorldBank, LANES,
};
pub use dhop::{dhop_exact_reliability, sample_dhop_reliability, DHOP_EXACT_EDGE_LIMIT};
pub use exact::{exact_reliability, exact_semantics_value};
pub use oracle::{oracle_value, ORACLE_EDGE_LIMIT};
pub use pro::{
    combine_part_results, part_s2bdd_config, pro_reliability, pro_reliability_with_index,
    st_reliability, zero_pro_result, ProConfig, ProResult,
};
pub use sampling::{
    sample_part_result, sample_reliability, SamplingConfig, SamplingResult, RNG_STREAMS,
};
pub use semantics::{
    combine_semantics_plan, exact_semantics_part, sample_semantics_part, semantics_reliability,
    semantics_reliability_with_index, solve_semantics_part, PartComputation, PartGroup, SemPart,
    SemanticsPlan, SemanticsSpec,
};

/// Convenience re-exports for downstream users.
pub mod prelude {
    pub use crate::exact::exact_reliability;
    pub use crate::pro::{pro_reliability, st_reliability, ProConfig, ProResult};
    pub use crate::sampling::{sample_reliability, SamplingConfig, SamplingResult};
    pub use crate::semantics::{semantics_reliability, SemanticsSpec};
    pub use netrel_preprocess::{preprocess, PreprocessConfig};
    pub use netrel_s2bdd::{EstimatorKind, S2Bdd, S2BddConfig, S2BddResult};
    pub use netrel_ugraph::{GraphError, UncertainGraph};
}
