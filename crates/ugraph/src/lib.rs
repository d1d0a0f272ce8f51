//! Uncertain-graph data structures and the graph algorithms the paper's
//! pipeline depends on.
//!
//! An [`UncertainGraph`] is a connected, undirected, simple graph whose edges
//! carry independent existence probabilities in `(0, 1]` (paper §3.1). The
//! crate also provides:
//!
//! * [`MultiGraph`]: a mutable multigraph (parallel edges, self-loops) used by
//!   the preprocessing transform rules,
//! * [`Dsu`]: union-find with union-by-size and path halving,
//! * [`bridges`]: iterative Tarjan bridges,
//! * [`twoecc`]: 2-edge-connected component labels (`netrel-preprocess`'s
//!   `GraphIndex` contracts them into the bridge forest),
//! * [`steiner`]: minimal terminal-spanning subtree of a tree,
//! * [`ordering`]: edge orderings and frontier planning for BDD construction,
//! * [`sample`]: possible-world sampling with early-exit connectivity, and
//!   the hop-bounded BFS ([`HopBfs`]) behind d-hop reachability.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bridges;
pub mod dsu;
pub mod error;
pub mod graph;
pub mod multigraph;
pub mod ordering;
pub mod sample;
pub mod stats;
pub mod steiner;
pub mod traversal;
pub mod twoecc;

pub use dsu::Dsu;
pub use error::{GraphError, Result};
pub use graph::{EdgeId, UEdge, UncertainGraph, VertexId};
pub use multigraph::MultiGraph;
pub use ordering::{EdgeOrder, FrontierPlan};
pub use sample::{HopBfs, HopSampler, WorldSampler};
pub use stats::GraphStats;
