//! Configuration for the S2BDD solver.

use netrel_bdd::frontier::MergeRule;
use netrel_ugraph::ordering::EdgeOrder;

/// Which estimator aggregates the stratified samples (paper §4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum EstimatorKind {
    /// Monte Carlo estimator (sample mean of the connectivity indicator).
    #[default]
    MonteCarlo,
    /// Horvitz–Thompson estimator over distinct sampled worlds with
    /// `π_i = 1 − (1 − Pr[G_pi])^s` (paper §4.2). Requires full-world draws,
    /// so it is somewhat slower per sample.
    HorvitzThompson,
}

/// S2BDD solver configuration.
///
/// `Eq`/`Hash` cover every field (there are no floats), so a configuration
/// can key a plan cache: two configs differing in any knob — width, samples,
/// estimator, order, merge rule, seed, reduction — never alias.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct S2BddConfig {
    /// Maximum number of nodes kept per layer (the paper's `w`).
    /// `usize::MAX` disables deletion, making the solver exact.
    pub max_width: usize,
    /// Requested number of samples `s` (before Theorem 1/2 reduction).
    pub samples: usize,
    /// Estimator for the stratified samples.
    pub estimator: EstimatorKind,
    /// Edge processing order.
    pub order: EdgeOrder,
    /// Node-merging rule (paper Lemma 4.3 by default).
    pub merge_rule: MergeRule,
    /// RNG seed for the sampling procedures (the construction itself is
    /// deterministic).
    pub seed: u64,
    /// Apply Theorem 1/2 sample-count reduction as the bounds tighten.
    /// Disable to ablate the reduction while keeping the stratification.
    pub reduce_samples: bool,
    /// Abort construction once the total number of live nodes created
    /// across all layers exceeds this cap: the still-live layer is handed to
    /// the conditional [`StratumSampler`](crate::sampler::StratumSampler) as
    /// one final stratum (the same mechanism as the budget early exit), so
    /// the run still returns proven bounds and an unbiased estimate instead
    /// of blowing up. `usize::MAX` (the default) disables the cap. Used by
    /// the engine's adaptive planner as the safety net of its exact route.
    pub node_cap: usize,
}

impl Default for S2BddConfig {
    fn default() -> Self {
        S2BddConfig {
            max_width: 10_000,
            samples: 10_000,
            estimator: EstimatorKind::MonteCarlo,
            order: EdgeOrder::Bfs,
            merge_rule: MergeRule::Pattern,
            seed: 0x5eed,
            reduce_samples: true,
            node_cap: usize::MAX,
        }
    }
}

impl S2BddConfig {
    /// Exact configuration: unbounded width, no sampling.
    pub fn exact() -> Self {
        S2BddConfig {
            max_width: usize::MAX,
            samples: 0,
            ..Default::default()
        }
    }

    /// The paper's default experimental setting (`w` = 10 000, `s` = 10 000).
    pub fn paper_default(seed: u64) -> Self {
        S2BddConfig {
            seed,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = S2BddConfig::default();
        assert_eq!(c.max_width, 10_000);
        assert_eq!(c.samples, 10_000);
        assert_eq!(c.estimator, EstimatorKind::MonteCarlo);
        assert!(c.reduce_samples);
    }

    #[test]
    fn exact_config_disables_sampling() {
        let c = S2BddConfig::exact();
        assert_eq!(c.max_width, usize::MAX);
        assert_eq!(c.samples, 0);
        assert_eq!(c.node_cap, usize::MAX);
    }
}
