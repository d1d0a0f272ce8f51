//! S2BDD — the scalable and sampling BDD (paper §4).
//!
//! The S2BDD keeps **one layer** of a frontier-based reliability BDD plus the
//! two sinks. While expanding layer by layer it accumulates the probability
//! mass that provably reaches the 1-sink (`p_c`, terminals connected) and the
//! 0-sink (`p_d`, terminals disconnected), which bound the reliability:
//! `p_c ≤ R ≤ 1 − p_d`. When a layer would exceed the width bound `w`,
//! lowest-priority nodes (heuristic `h(n)`, Eq. 10) are deleted, and the
//! possible worlds they represent are estimated by *stratified sampling*
//! (§4.3.3): each deleted layer forms a stratum whose sample allocation is
//! proportional to its probability mass, with the per-sample world drawn by
//! dynamic programming from the deleted node's frontier state. The sample
//! budget itself shrinks as the bounds tighten (Theorems 1–2, [`reduce`]).
//!
//! With unbounded width the S2BDD never deletes, `p_c + p_d = 1`, and the
//! result is **exact** — that is the solver used for the paper's Tables 3–4
//! ground truth.
//!
//! ```
//! use netrel_s2bdd::{S2Bdd, S2BddConfig};
//! use netrel_ugraph::UncertainGraph;
//!
//! // The paper's Figure 1 graph: 5 vertices, 6 edges, p = 0.7 each,
//! // terminals {a, d, e} = {0, 3, 4}.
//! let g = UncertainGraph::new(5, [
//!     (0, 1, 0.7), (0, 2, 0.7), (1, 2, 0.7),
//!     (1, 3, 0.7), (2, 4, 0.7), (3, 4, 0.7),
//! ]).unwrap();
//!
//! // Exact: unbounded width, no sampling.
//! let exact = S2Bdd::solve(&g, &[0, 3, 4], S2BddConfig::exact()).unwrap();
//! assert!(exact.exact);
//!
//! // Width-bounded: proven bounds bracket the exact value.
//! let approx = S2Bdd::solve(&g, &[0, 3, 4], S2BddConfig {
//!     max_width: 2,
//!     samples: 10_000,
//!     ..Default::default()
//! }).unwrap();
//! assert!(approx.lower_bound <= exact.estimate + 1e-12);
//! assert!(approx.upper_bound >= exact.estimate - 1e-12);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
// Answer-affecting region (docs/lints.md): no clock reads, thread-count
// probes or hash-order iteration.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

pub mod builder;
pub mod config;
pub mod reduce;
pub mod result;
pub mod sampler;
pub mod strata;

pub use builder::S2Bdd;
pub use config::{EstimatorKind, S2BddConfig};
pub use reduce::reduced_samples;
pub use result::S2BddResult;
