//! Result type returned by the S2BDD solver.

/// Outcome of one S2BDD run.
#[derive(Clone, Debug)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct S2BddResult {
    /// Approximate (or exact) network reliability `R̂[G, T]`, always within
    /// `[lower_bound, upper_bound]`.
    pub estimate: f64,
    /// Proven lower bound `p_c` (mass that reached the 1-sink).
    pub lower_bound: f64,
    /// Proven upper bound `1 − p_d` (complement of 0-sink mass).
    pub upper_bound: f64,
    /// `true` when no node was deleted and no early exit occurred — the
    /// estimate equals the exact reliability.
    pub exact: bool,
    /// The requested sample count `s`.
    pub samples_requested: usize,
    /// Samples actually drawn across all strata.
    pub samples_used: usize,
    /// Final reduced budget `s′` (Theorem 1/2).
    pub s_prime_final: usize,
    /// Number of sampling strata (deleted layers + possible live stratum).
    pub strata: usize,
    /// Total nodes deleted over all layers.
    pub deleted_nodes: usize,
    /// Estimated estimator variance `Σ mass² r̂(1−r̂)/s` over strata.
    pub variance_estimate: f64,
    /// Maximum live-layer width reached.
    pub peak_width: usize,
    /// Peak bytes allocated by the layer arenas (current layer, next layer
    /// and deleted pool).
    pub peak_memory_bytes: usize,
    /// Layers fully processed.
    pub layers_completed: usize,
    /// Total layers (= edges).
    pub layers_total: usize,
    /// Whether construction stopped early because the sample budget was
    /// exhausted (Algorithm 2, lines 26–30).
    pub early_exit: bool,
    /// Whether construction aborted because the configured
    /// [`node_cap`](crate::S2BddConfig::node_cap) was exceeded — the live
    /// layer was surfaced to the fallback stratum sampler (or, with a zero
    /// sample budget, its mass was left between the bounds).
    pub node_cap_hit: bool,
    /// Total S2BDD nodes created during construction (the actual cost the
    /// planner's `predicted_nodes` estimate is judged against); `0` for
    /// results that never built a diagram (trivial instances, flat
    /// sampling, d-hop enumeration).
    pub nodes_created: usize,
}

impl S2BddResult {
    /// An exact result with no construction (trivial instances).
    pub(crate) fn trivial(r: f64, samples_requested: usize) -> Self {
        S2BddResult {
            estimate: r,
            lower_bound: r,
            upper_bound: r,
            exact: true,
            samples_requested,
            samples_used: 0,
            s_prime_final: 0,
            strata: 0,
            deleted_nodes: 0,
            variance_estimate: 0.0,
            peak_width: 0,
            peak_memory_bytes: 0,
            layers_completed: 0,
            layers_total: 0,
            early_exit: false,
            node_cap_hit: false,
            nodes_created: 0,
        }
    }

    /// Width of the proven bound interval `upper − lower`.
    pub fn bound_gap(&self) -> f64 {
        (self.upper_bound - self.lower_bound).max(0.0)
    }
}

impl std::fmt::Display for S2BddResult {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "R̂={:.6} in [{:.6}, {:.6}]{} ({} samples, {} strata)",
            self.estimate,
            self.lower_bound,
            self.upper_bound,
            if self.exact { " exact" } else { "" },
            self.samples_used,
            self.strata
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_result_shape() {
        let r = S2BddResult::trivial(1.0, 100);
        assert!(r.exact);
        assert_eq!(r.estimate, 1.0);
        assert_eq!(r.bound_gap(), 0.0);
        let txt = format!("{r}");
        assert!(txt.contains("exact"), "{txt}");
    }
}
