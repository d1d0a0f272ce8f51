//! The paper's approach — `Pro` (Algorithm 1).
//!
//! Preprocess the uncertain graph with the extension technique (§5), then run
//! one S2BDD per decomposed component and multiply:
//! `R̂[G, T] = p_b · Π_i R̂[G_i, T_i]`. Besides the speedup from smaller
//! graphs, decomposition provably lowers the estimator variance (Theorem 4).

use netrel_preprocess::{GraphIndex, PreprocessConfig, PreprocessStats};
use netrel_s2bdd::{S2BddConfig, S2BddResult};
use netrel_ugraph::{GraphError, UncertainGraph, VertexId};

/// Configuration of the full approach.
#[derive(Clone, Copy, Debug, Default)]
pub struct ProConfig {
    /// Per-component S2BDD settings (width `w`, samples `s`, estimator, …).
    pub s2bdd: S2BddConfig,
    /// Extension-technique settings. Use [`PreprocessConfig::disabled`] for
    /// the paper's "Pro w/o ext" ablation.
    pub preprocess: PreprocessConfig,
}

impl ProConfig {
    /// The paper's default experiment setting (`w` = `s` = 10 000, extension
    /// on).
    pub fn paper_default(seed: u64) -> Self {
        ProConfig {
            s2bdd: S2BddConfig::paper_default(seed),
            preprocess: PreprocessConfig::default(),
        }
    }
}

/// Result of a `Pro` run.
#[derive(Clone, Debug)]
pub struct ProResult {
    /// Estimated reliability `R̂[G, T]`.
    pub estimate: f64,
    /// Proven lower bound (product of per-part lower bounds times `p_b`).
    pub lower_bound: f64,
    /// Proven upper bound.
    pub upper_bound: f64,
    /// All parts were computed exactly — the estimate is the exact `R`.
    pub exact: bool,
    /// Bridge-probability factor from decomposition.
    pub pb: f64,
    /// Total samples drawn across all parts.
    pub samples_used: usize,
    /// Preprocessing statistics (Table 5 metrics).
    pub preprocess_stats: PreprocessStats,
    /// Per-part solver results, in part order.
    pub parts: Vec<S2BddResult>,
    /// Variance of the product estimator (paper Theorem 4 composition).
    pub variance_estimate: f64,
}

/// The S2BDD configuration used for part number `part_index` of a
/// decomposition: the base configuration with a per-part seed, so the
/// per-part sampling streams are decorrelated and independent of both the
/// thread schedule and the surrounding batch. Exposed so multi-query engines
/// reproduce `pro_reliability`'s draws exactly (and so cached part results
/// stay interchangeable with freshly solved ones).
pub fn part_s2bdd_config(base: S2BddConfig, part_index: usize) -> S2BddConfig {
    let mut part_cfg = base;
    part_cfg.seed = base.seed ^ (part_index as u64 + 1).wrapping_mul(0xA24BAED4963EE407);
    part_cfg
}

/// The `Pro` result for a trivially-zero instance (terminals provably
/// disconnected): exact 0 with no parts.
pub fn zero_pro_result(preprocess_stats: PreprocessStats) -> ProResult {
    ProResult {
        estimate: 0.0,
        lower_bound: 0.0,
        upper_bound: 0.0,
        exact: true,
        pb: 0.0,
        samples_used: 0,
        preprocess_stats,
        parts: Vec::new(),
        variance_estimate: 0.0,
    }
}

/// Recombine solved per-part results into the final `Pro` answer:
/// `R̂ = p_b · Π R̂ᵢ`, bounds multiplied likewise, and the product-estimator
/// variance composed per Theorem 4. `solved` must be in part order. This is
/// the exact recombination `pro_reliability` performs, factored out so
/// engines that source part results from a cache assemble identical answers.
pub fn combine_part_results(
    pb: f64,
    preprocess_stats: PreprocessStats,
    solved: Vec<S2BddResult>,
) -> ProResult {
    let mut estimate = pb;
    let mut lower = pb;
    let mut upper = pb;
    let mut exact = true;
    let mut samples_used = 0usize;
    // Variance of a product of independent estimators (Theorem 4):
    // Var[c·ΠXᵢ] = c²(Π(Var[Xᵢ] + E[Xᵢ]²) − Π E[Xᵢ]²).
    let mut prod_second_moment = 1.0f64;
    let mut prod_mean_sq = 1.0f64;
    let mut parts = Vec::with_capacity(solved.len());
    for r in solved {
        estimate *= r.estimate;
        lower *= r.lower_bound;
        upper *= r.upper_bound;
        exact &= r.exact;
        samples_used += r.samples_used;
        prod_second_moment *= r.variance_estimate + r.estimate * r.estimate;
        prod_mean_sq *= r.estimate * r.estimate;
        parts.push(r);
    }
    let variance_estimate = (pb * pb * (prod_second_moment - prod_mean_sq)).max(0.0);
    ProResult {
        estimate,
        lower_bound: lower,
        upper_bound: upper.max(lower),
        exact,
        pb,
        samples_used,
        preprocess_stats,
        parts,
        variance_estimate,
    }
}

/// Run the paper's approach on `(g, terminals)`.
///
/// ```
/// use netrel_core::{pro_reliability, ProConfig};
/// use netrel_ugraph::UncertainGraph;
///
/// // A 4-cycle: R[{0,2}] = both 2-edge paths fail only together.
/// let g = UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9), (3, 0, 0.9)]).unwrap();
/// let r = pro_reliability(&g, &[0, 2], ProConfig::default()).unwrap();
/// assert!(r.exact, "small graphs fit under the default width");
/// let truth = 1.0 - (1.0 - 0.81f64) * (1.0 - 0.81);
/// assert!((r.estimate - truth).abs() < 1e-12);
/// assert!(r.lower_bound <= r.estimate && r.estimate <= r.upper_bound);
/// ```
pub fn pro_reliability(
    g: &UncertainGraph,
    terminals: &[VertexId],
    cfg: ProConfig,
) -> Result<ProResult, GraphError> {
    let index = GraphIndex::build(g);
    pro_reliability_with_index(g, &index, terminals, cfg)
}

/// [`pro_reliability`] against a precomputed terminal-independent
/// [`GraphIndex`] of `g` (see `netrel-preprocess`). Behavior and draws are
/// identical to [`pro_reliability`]; the index only removes per-call
/// recomputation of terminal-independent structure.
///
/// This is the k-terminal instantiation of the generic pipeline
/// ([`semantics_reliability_with_index`](crate::semantics_reliability_with_index)):
/// the k-terminal plan is a single group over the preprocessed parts and its
/// combine step delegates to [`combine_part_results`] verbatim, so the
/// generic plan/combine pipeline yields the paper's `p_b · Π R̂ᵢ`
/// composition bit for bit (pinned by `tests/semantics_contract.rs`).
pub fn pro_reliability_with_index(
    g: &UncertainGraph,
    index: &GraphIndex,
    terminals: &[VertexId],
    cfg: ProConfig,
) -> Result<ProResult, GraphError> {
    crate::semantics::semantics_reliability_with_index(
        g,
        index,
        crate::semantics::SemanticsSpec::KTerminal,
        terminals,
        cfg,
    )
}

/// Two-terminal (s–t) reliability — the classical special case (`k = 2`,
/// "reachability in uncertain graphs" in the related-work sense).
pub fn st_reliability(
    g: &UncertainGraph,
    s: VertexId,
    t: VertexId,
    cfg: ProConfig,
) -> Result<ProResult, GraphError> {
    pro_reliability(g, &[s, t], cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_bdd::brute_force_reliability;
    use netrel_s2bdd::EstimatorKind;
    use proptest::prelude::*;

    fn lollipop() -> UncertainGraph {
        UncertainGraph::new(
            8,
            [
                (0, 1, 0.5),
                (1, 2, 0.6),
                (0, 2, 0.7),
                (2, 3, 0.8),
                (3, 4, 0.5),
                (4, 5, 0.6),
                (3, 5, 0.7),
                (5, 6, 0.9),
                (6, 7, 0.9),
            ],
        )
        .unwrap()
    }

    #[test]
    fn exact_when_width_unbounded() {
        let g = lollipop();
        for t in [vec![0, 4], vec![0, 7], vec![1, 4, 6]] {
            let expect = brute_force_reliability(&g, &t);
            let cfg = ProConfig {
                s2bdd: S2BddConfig::exact(),
                ..Default::default()
            };
            let r = pro_reliability(&g, &t, cfg).unwrap();
            assert!(r.exact);
            assert!(
                (r.estimate - expect).abs() < 1e-12,
                "{t:?}: {} vs {expect}",
                r.estimate
            );
        }
    }

    #[test]
    fn bounds_bracket_truth_when_width_bounded() {
        let g = lollipop();
        let t = vec![0, 4];
        let expect = brute_force_reliability(&g, &t);
        let cfg = ProConfig {
            s2bdd: S2BddConfig {
                max_width: 1,
                samples: 20_000,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = pro_reliability(&g, &t, cfg).unwrap();
        assert!(r.lower_bound <= expect + 1e-12);
        assert!(r.upper_bound >= expect - 1e-12);
        assert!(
            (r.estimate - expect).abs() < 0.05,
            "{} vs {expect}",
            r.estimate
        );
    }

    #[test]
    fn tree_like_graphs_become_exact_even_with_tiny_width() {
        // The Am-Rv phenomenon (paper Table 4): on bridge-heavy graphs the
        // extension collapses everything, so Pro is exact regardless of w.
        let g = UncertainGraph::new(
            6,
            [
                (0, 1, 0.9),
                (1, 2, 0.8),
                (2, 3, 0.7),
                (3, 4, 0.6),
                (4, 5, 0.5),
            ],
        )
        .unwrap();
        let cfg = ProConfig {
            s2bdd: S2BddConfig {
                max_width: 1,
                samples: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = pro_reliability(&g, &[0, 5], cfg).unwrap();
        assert!(r.exact);
        let expect = brute_force_reliability(&g, &[0, 5]);
        assert!((r.estimate - expect).abs() < 1e-12);
        assert_eq!(r.samples_used, 0);
    }

    #[test]
    fn without_extension_still_correct() {
        let g = lollipop();
        let t = vec![0, 4];
        let expect = brute_force_reliability(&g, &t);
        let cfg = ProConfig {
            s2bdd: S2BddConfig {
                max_width: 4,
                samples: 50_000,
                ..S2BddConfig::paper_default(3)
            },
            preprocess: PreprocessConfig::disabled(),
        };
        let r = pro_reliability(&g, &t, cfg).unwrap();
        assert!(
            (r.estimate - expect).abs() < 0.05,
            "{} vs {expect}",
            r.estimate
        );
        assert_eq!(r.preprocess_stats.num_parts, 1);
    }

    #[test]
    fn ht_estimator_path() {
        let g = lollipop();
        let t = vec![0, 4];
        let expect = brute_force_reliability(&g, &t);
        let cfg = ProConfig {
            s2bdd: S2BddConfig {
                max_width: 2,
                samples: 50_000,
                estimator: EstimatorKind::HorvitzThompson,
                ..Default::default()
            },
            ..Default::default()
        };
        let r = pro_reliability(&g, &t, cfg).unwrap();
        assert!(
            (r.estimate - expect).abs() < 0.05,
            "{} vs {expect}",
            r.estimate
        );
    }

    #[test]
    fn disconnected_is_zero_and_exact() {
        let g = UncertainGraph::new(4, [(0, 1, 0.9), (2, 3, 0.9)]).unwrap();
        let r = pro_reliability(&g, &[0, 2], ProConfig::default()).unwrap();
        assert_eq!(r.estimate, 0.0);
        assert!(r.exact);
    }

    #[test]
    fn st_reliability_is_two_terminal_pro() {
        let g = lollipop();
        let a = st_reliability(&g, 0, 7, ProConfig::default()).unwrap();
        let b = pro_reliability(&g, &[0, 7], ProConfig::default()).unwrap();
        assert_eq!(a.estimate, b.estimate);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// End-to-end: Pro with unbounded width is exact on random graphs.
        #[test]
        fn pro_exact_matches_brute_force(
            edges in proptest::collection::vec((0usize..8, 0usize..8, 0.05f64..1.0), 1..14),
            t0 in 0usize..8,
            t1 in 0usize..8,
        ) {
            let mut seen = std::collections::HashSet::new();
            let list: Vec<(usize, usize, f64)> = edges
                .into_iter()
                .filter_map(|(u, v, p)| {
                    if u == v { return None; }
                    let key = (u.min(v), u.max(v));
                    seen.insert(key).then_some((key.0, key.1, p))
                })
                .collect();
            prop_assume!(!list.is_empty());
            let g = UncertainGraph::new(8, list).unwrap();
            let mut t = vec![t0, t1];
            t.sort_unstable();
            t.dedup();
            let expect = brute_force_reliability(&g, &t);
            let cfg = ProConfig { s2bdd: S2BddConfig::exact(), ..Default::default() };
            let r = pro_reliability(&g, &t, cfg).unwrap();
            prop_assert!((r.estimate - expect).abs() < 1e-9, "{} vs {}", r.estimate, expect);
        }
    }
}
