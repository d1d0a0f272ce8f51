//! The adaptive query planner: budgeted exact/approx solver selection.
//!
//! The paper's S2BDD is exact but its frontier can blow up on dense or wide
//! graphs, while flat possible-world sampling scales to any graph at the
//! cost of variance — and no single estimator dominates across graph
//! density and query shape (Ke et al., arXiv:1904.05300). The planner picks
//! per decomposed *part*, under a per-query [`PlanBudget`]:
//!
//! * [`Route::Exact`] — unbounded-width S2BDD with the budget's
//!   [`node cap`](netrel_s2bdd::S2BddConfig::node_cap) as a safety net:
//!   if the cost model underestimated and the cap trips, the solver hands
//!   the live layer to the conditional `StratumSampler` and still returns
//!   proven bounds plus an unbiased estimate.
//! * [`Route::Bounded`] — the paper's width-bounded S2BDD with a width
//!   derived from the node budget and a computed sample budget.
//! * [`Route::BitSampling`] — bit-parallel Monte Carlo sampling
//!   ([`bitsample_part`](netrel_core::bitsample_part)) for parts whose
//!   frontier is so wide that a bounded diagram would prove nothing: 64
//!   possible worlds packed per `u64`, one word-wide BFS per block.
//! * [`Route::Sampling`] — flat possible-world sampling
//!   ([`sample_part_result`](netrel_core::sample_part_result)), kept for
//!   Horvitz–Thompson-estimated parts (HT needs per-world occurrence
//!   probabilities the packed kernel does not track).
//!
//! The **cost model** is a cheap pre-pass over each part: it builds the
//! same [`FrontierPlan`] the solver would use (the chosen edge ordering's
//! vertex-frontier width is a pathwidth proxy) and estimates the number of
//! distinct frontier states per layer by the Bell number of the layer
//! width — states are set partitions of the frontier, so `B(w)` is the
//! dominant term (see [`states_upper_bound`] for the `k ≥ 3` caveat).
//! Summed over layers and saturated, that predicts the diagram size the
//! exact route would have to pay; misprediction degrades gracefully via
//! the node-cap safety net rather than blowing up.
//!
//! The exactness/CI contract of the answers produced through this module
//! is specified in `DESIGN.md` §9.
//!
//! ```
//! use netrel_engine::{Engine, EngineConfig, PlanBudget, PlannedQuery};
//! use netrel_ugraph::UncertainGraph;
//!
//! let g = UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.9), (3, 0, 0.7)]).unwrap();
//! let mut engine = Engine::new(EngineConfig::default());
//! let id = engine.register("demo", g);
//! let a = engine
//!     .run_planned(id, &PlannedQuery::new(vec![0, 2], PlanBudget::default()))
//!     .unwrap();
//! // Small sparse part: the planner takes the exact route.
//! assert!(a.exact);
//! assert_eq!((a.ci.lower, a.ci.upper), (a.estimate, a.estimate));
//! ```

// Answer-affecting region (docs/lints.md): no clock reads, thread-count
// probes or hash-order iteration.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use netrel_core::{part_s2bdd_config, PartComputation, SemPart};
use netrel_numeric::ConfidenceLevel;
use netrel_s2bdd::{EstimatorKind, S2BddConfig};
use netrel_ugraph::ordering::FrontierPlan;
use netrel_ugraph::{UncertainGraph, VertexId};

/// Per-query resource budget the planner routes under.
///
/// The budget is a *planning* input, not a runtime watchdog: it is folded
/// into solver configurations (node caps, widths, sample counts) before any
/// solving starts, so two runs with the same budget produce bit-identical
/// answers regardless of machine load. See `DESIGN.md` §9.3 for how the
/// time hint is calibrated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanBudget {
    /// Maximum S2BDD nodes a part may create. Parts predicted to stay under
    /// this go the exact route (with this value as the in-solver
    /// [`node_cap`](netrel_s2bdd::S2BddConfig::node_cap) safety net).
    pub node_budget: usize,
    /// Possible-world samples granted to each sampling-routed part (and to
    /// the stratified fallback of a capped exact part).
    pub sample_budget: usize,
    /// Optional soft wall-clock hint in milliseconds **for the whole
    /// query**. Converted *deterministically* into tighter node/sample
    /// budgets via the calibration constants [`NODES_PER_MS`] /
    /// [`SAMPLES_PER_MS`] and apportioned evenly across the query's
    /// decomposed parts ([`PlanBudget::for_parts`]); the planner never
    /// reads a clock, so answers stay reproducible.
    pub time_hint_ms: Option<u64>,
    /// Confidence level of the interval attached to estimated answers.
    pub confidence: ConfidenceLevel,
}

impl Default for PlanBudget {
    fn default() -> Self {
        PlanBudget {
            node_budget: 250_000,
            sample_budget: 10_000,
            time_hint_ms: None,
            confidence: ConfidenceLevel::P95,
        }
    }
}

/// Throughput calibration for [`PlanBudget::time_hint_ms`]: S2BDD nodes one
/// millisecond is assumed to buy. A hand-set constant, not a measurement:
/// a traced run of the serve benchmark (`perfbench/`, `--trace 1`) reports
/// the rate the solver actually reaches as `s2bdd.nodes_per_ms`.
pub const NODES_PER_MS: usize = 5_000;

/// Throughput calibration for [`PlanBudget::time_hint_ms`]: possible-world
/// samples one millisecond is assumed to buy; hand-set like
/// [`NODES_PER_MS`].
pub const SAMPLES_PER_MS: usize = 2_000;

/// Frontier width beyond which a *bounded* S2BDD stops being useful: at
/// width `> BOUNDED_WIDTH_LIMIT` vertices the retained slice of each layer
/// is so thin that the proven bounds stay near `[0, 1]` and the stratified
/// sampler degenerates to flat sampling with diagram overhead on top — so
/// the planner routes straight to [`Route::Sampling`].
pub const BOUNDED_WIDTH_LIMIT: usize = 40;

/// Floor for the derived width of a [`Route::Bounded`] part.
pub const MIN_BOUNDED_WIDTH: usize = 16;

impl PlanBudget {
    /// The node budget after applying the time hint.
    pub fn effective_node_budget(&self) -> usize {
        match self.time_hint_ms {
            Some(ms) => (ms as usize)
                .saturating_mul(NODES_PER_MS)
                .min(self.node_budget)
                .max(1),
            None => self.node_budget.max(1),
        }
    }

    /// The sample budget after applying the time hint.
    pub fn effective_sample_budget(&self) -> usize {
        match self.time_hint_ms {
            Some(ms) => (ms as usize)
                .saturating_mul(SAMPLES_PER_MS)
                .min(self.sample_budget)
                .max(1),
            None => self.sample_budget.max(1),
        }
    }

    /// The budget one of `num_parts` decomposed parts receives.
    ///
    /// `node_budget` and `sample_budget` are *per-part* caps and pass
    /// through unchanged, but the wall-clock hint covers the whole query:
    /// its converted node/sample allowance is split evenly across parts, so
    /// a 10-part query cannot spend 10× the hinted time. With no hint this
    /// is the identity.
    pub fn for_parts(&self, num_parts: usize) -> PlanBudget {
        match self.time_hint_ms {
            Some(ms) => PlanBudget {
                time_hint_ms: Some(ms / num_parts.max(1) as u64),
                ..*self
            },
            None => *self,
        }
    }
}

/// Which solver family a part was routed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Route {
    /// Unbounded-width S2BDD with the budget's node cap as a safety net.
    Exact,
    /// Width-bounded S2BDD with stratified sampling (the paper's solver).
    Bounded,
    /// Flat possible-world sampling over the whole part.
    Sampling,
    /// Bit-parallel Monte Carlo sampling: 64 packed worlds per word
    /// ([`netrel_core::bitsample`]). The default sampling route for
    /// Monte-Carlo-estimated parts; Horvitz–Thompson parts stay on
    /// [`Route::Sampling`].
    BitSampling,
}

impl Route {
    /// Stable lowercase name (used by the JSON service).
    pub fn name(self) -> &'static str {
        match self {
            Route::Exact => "exact",
            Route::Bounded => "bounded",
            Route::Sampling => "sampling",
            Route::BitSampling => "bit_sampling",
        }
    }
}

// Manual impl: the vendored serde_derive shim handles only structs.
impl serde::Serialize for Route {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().into())
    }
}

/// The fully materialized solver for one part — everything that determines
/// the result, and therefore everything a cache key needs. Two parts with
/// the same graph, terminals, and `PartSolver` are interchangeable bit for
/// bit, whichever query (or budget) derived them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartSolver {
    /// One S2BDD run under the complete configuration (exact, capped-exact,
    /// and width-bounded routes all land here).
    S2Bdd(S2BddConfig),
    /// One flat-sampling run
    /// ([`sample_semantics_part`](netrel_core::sample_semantics_part) —
    /// connectivity parts use the terminal-connectivity sampler, d-hop
    /// parts the hop-bounded one); thread count is pinned by the
    /// seed-stable stream partition, so it is not part of the identity.
    Sampling {
        /// Possible worlds to draw.
        samples: usize,
        /// Estimator aggregating them.
        estimator: EstimatorKind,
        /// Stream seed.
        seed: u64,
    },
    /// One bit-parallel Monte Carlo run
    /// ([`bitsample_part`](netrel_core::bitsample_part)): 64 worlds packed
    /// per `u64`, word-wide frontier propagation, MC estimator only (no
    /// estimator field — Horvitz–Thompson routes to [`PartSolver::Sampling`]
    /// instead). Thread count is pinned by the seed-stable block partition,
    /// so it is not part of the identity; a packed run never aliases a flat
    /// [`PartSolver::Sampling`] run because the two kernels consume the RNG
    /// differently and are only statistically — not bitwise — equivalent.
    BitSampling {
        /// Possible worlds to draw (lanes across all 64-wide blocks).
        samples: usize,
        /// Block-partition seed.
        seed: u64,
    },
    /// Exact enumeration for parts whose indicator the S2BDD cannot
    /// express (d-hop parts: recursive edge conditioning,
    /// [`dhop_exact_reliability`](netrel_core::dhop_exact_reliability)).
    /// Deterministic and seed-free, so the variant carries no
    /// configuration — the part identity (and its
    /// [`PartComputation`]) fully determines the result.
    Enumeration,
}

impl PartSolver {
    /// The [`Route`] this solver belongs to, as answers report it: an
    /// S2BDD run is [`Route::Exact`] at unbounded width and
    /// [`Route::Bounded`] otherwise, and enumeration is exact. The planner's
    /// own routes follow the same mapping, so answers name routes the same
    /// way under either [`Policy`](crate::Policy).
    pub fn route(self) -> Route {
        match self {
            PartSolver::S2Bdd(cfg) if cfg.max_width == usize::MAX => Route::Exact,
            PartSolver::S2Bdd(_) => Route::Bounded,
            PartSolver::Enumeration => Route::Exact,
            PartSolver::Sampling { .. } => Route::Sampling,
            PartSolver::BitSampling { .. } => Route::BitSampling,
        }
    }
}

/// What the cost model predicted for one part.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CostEstimate {
    /// Peak number of simultaneously live frontier *vertices* under the
    /// chosen edge ordering — the pathwidth proxy.
    pub frontier_width: usize,
    /// Layers the construction would run (= part edges).
    pub layers: usize,
    /// Predicted S2BDD node count: `Σ_l B(w_l)` saturating, where `w_l` is
    /// the frontier width during layer `l` and `B` the Bell number (a
    /// heuristic cap — see [`states_upper_bound`] for the `k ≥ 3` caveat).
    pub predicted_nodes: usize,
}

/// The plan for one part: the route taken, the materialized solver, and the
/// prediction that justified it.
#[derive(Clone, Copy, Debug)]
pub struct PartPlan {
    /// Route decision.
    pub route: Route,
    /// Solver configuration the executor will run (also the cache-key
    /// discriminant).
    pub solver: PartSolver,
    /// The cost-model output behind the decision.
    pub estimate: CostEstimate,
}

/// Bell numbers `B(0)..=B(25)`; `B(26)` already exceeds `u64`, and any
/// frontier that wide saturates the prediction anyway.
const BELL: [u64; 26] = [
    1,
    1,
    2,
    5,
    15,
    52,
    203,
    877,
    4_140,
    21_147,
    115_975,
    678_570,
    4_213_597,
    27_644_437,
    190_899_322,
    1_382_958_545,
    10_480_142_147,
    82_864_869_804,
    682_076_806_159,
    5_832_742_205_057,
    51_724_158_235_372,
    474_869_816_156_751,
    4_506_715_738_447_323,
    44_152_005_855_084_346,
    445_958_869_294_805_289,
    4_638_590_332_229_999_353,
];

/// Cost-model estimate of the distinct frontier states a layer of `w`
/// vertices can hold: the Bell number `B(w)`, the count of set partitions
/// of the frontier. Saturates at `usize::MAX` for `w > 25`.
///
/// This is a *heuristic* cap, not a proof: for two-terminal queries the
/// state is the partition alone (terminal membership is fixed), but with
/// `k ≥ 3` terminals a departed terminal's component assignment adds a
/// (small) multiplicity on top of `B(w)`, so the real layer can exceed it.
/// The planner tolerates under-prediction by construction — the exact
/// route carries the node-cap safety net, which degrades a mispredicted
/// part to a bounds-plus-CI answer instead of a blow-up.
pub fn states_upper_bound(w: usize) -> usize {
    match BELL.get(w) {
        Some(&b) => usize::try_from(b).unwrap_or(usize::MAX),
        None => usize::MAX,
    }
}

/// Run the cost model on one part: build the [`FrontierPlan`] the solver
/// itself would use (ordering seeded from the smallest terminal, exactly as
/// `FrontierMachine::new` does) and sum per-layer state bounds.
pub fn estimate_part(
    graph: &UncertainGraph,
    terminals: &[VertexId],
    order: netrel_ugraph::ordering::EdgeOrder,
) -> CostEstimate {
    let start = terminals.iter().copied().min().unwrap_or(0);
    let plan = FrontierPlan::for_strategy(graph, order, start);
    let predicted_nodes = plan
        .layer_widths()
        .fold(0usize, |acc, w| acc.saturating_add(states_upper_bound(w)));
    CostEstimate {
        frontier_width: plan.max_width,
        layers: plan.layers(),
        predicted_nodes,
    }
}

/// Route one semantics part under `budget`, dispatching on the part's
/// [`PartComputation`]: connectivity parts go through the S2BDD cost model
/// ([`estimate_part`]), d-hop parts through the enumeration cost model
/// ([`estimate_dhop_part`]).
///
/// `base` supplies the knobs the planner does not decide (estimator, edge
/// order, merge rule, seed); width, samples, and node
/// cap are overridden per route. `part_index` feeds the same seed
/// derivation `pro_reliability` uses, so exact-routed parts are
/// bit-interchangeable with one-shot solves.
pub fn plan_part(
    part: &SemPart,
    base: S2BddConfig,
    part_index: usize,
    budget: &PlanBudget,
) -> PartPlan {
    match part.computation {
        PartComputation::Connectivity => {
            plan_connectivity_part(&part.graph, &part.terminals, base, part_index, budget)
        }
        PartComputation::DHop { .. } => plan_dhop_part(part, base, part_index, budget),
    }
}

/// The sampling fallback for a part no exact or bounded route can serve:
/// the bit-parallel packed sampler when the configured estimator is Monte
/// Carlo (the default — one BFS pass answers 64 worlds), flat sampling when
/// it is Horvitz–Thompson (HT needs per-world occurrence probabilities the
/// packed kernel does not track). Both carry the per-part seed, so routing
/// is still a pure function of `(part, config, budget)`.
fn sampling_fallback(part_cfg: S2BddConfig, samples: usize, estimate: CostEstimate) -> PartPlan {
    match part_cfg.estimator {
        EstimatorKind::MonteCarlo => PartPlan {
            route: Route::BitSampling,
            solver: PartSolver::BitSampling {
                samples,
                seed: part_cfg.seed,
            },
            estimate,
        },
        EstimatorKind::HorvitzThompson => PartPlan {
            route: Route::Sampling,
            solver: PartSolver::Sampling {
                samples,
                estimator: part_cfg.estimator,
                seed: part_cfg.seed,
            },
            estimate,
        },
    }
}

/// Cost model for a d-hop part: recursive edge conditioning visits at most
/// `2^|E|` leaves (the BFS bounds prune most in practice, but the planner
/// budgets for the worst case), so the predicted "node" count is
/// `2^layers`, saturating. The frontier width is reported as 0 — no
/// decision diagram is built.
pub fn estimate_dhop_part(graph: &UncertainGraph) -> CostEstimate {
    let layers = graph.num_edges();
    let predicted_nodes = if layers >= usize::BITS as usize {
        usize::MAX
    } else {
        1usize << layers
    };
    CostEstimate {
        frontier_width: 0,
        layers,
        predicted_nodes,
    }
}

/// Route one d-hop part: exact recursive conditioning
/// ([`PartSolver::Enumeration`]) if the worst-case `2^|E|` leaf count fits
/// the node budget, else hop-bounded sampling (bit-parallel for MC, flat
/// for HT — see [`sampling_fallback`]). There is no bounded middle route —
/// the width-bounded S2BDD cannot express the hop-count indicator.
fn plan_dhop_part(
    part: &SemPart,
    base: S2BddConfig,
    part_index: usize,
    budget: &PlanBudget,
) -> PartPlan {
    let estimate = estimate_dhop_part(&part.graph);
    let part_cfg = part_s2bdd_config(base, part_index);
    if estimate.predicted_nodes <= budget.effective_node_budget() {
        PartPlan {
            route: Route::Exact,
            solver: PartSolver::Enumeration,
            estimate,
        }
    } else {
        sampling_fallback(part_cfg, budget.effective_sample_budget(), estimate)
    }
}

fn plan_connectivity_part(
    graph: &UncertainGraph,
    terminals: &[VertexId],
    base: S2BddConfig,
    part_index: usize,
    budget: &PlanBudget,
) -> PartPlan {
    let estimate = estimate_part(graph, terminals, base.order);
    let part_cfg = part_s2bdd_config(base, part_index);
    let node_budget = budget.effective_node_budget();
    let sample_budget = budget.effective_sample_budget();

    if estimate.predicted_nodes <= node_budget {
        // Predicted to fit: solve exactly, with the cap as the safety net
        // and the sample budget funding the fallback stratum if it trips.
        // `reduce_samples` is off so the budget early exit cannot fire on a
        // run that never deletes (it would spuriously de-exactify).
        let solver = PartSolver::S2Bdd(S2BddConfig {
            max_width: usize::MAX,
            samples: sample_budget,
            reduce_samples: false,
            node_cap: node_budget,
            ..part_cfg
        });
        PartPlan {
            route: Route::Exact,
            solver,
            estimate,
        }
    } else if estimate.frontier_width <= BOUNDED_WIDTH_LIMIT {
        // Too big to finish exactly, narrow enough that a width-bounded
        // diagram still proves useful mass: the paper's solver, with the
        // width chosen so `width · layers` stays near the node budget. The
        // node cap stays armed: the width floor means a long-enough part
        // could otherwise create `MIN_BOUNDED_WIDTH · layers` nodes and
        // silently blow the budget the caller asked for.
        let width = (node_budget / estimate.layers.max(1)).clamp(MIN_BOUNDED_WIDTH, 10_000);
        let solver = PartSolver::S2Bdd(S2BddConfig {
            max_width: width,
            samples: sample_budget,
            reduce_samples: true,
            node_cap: node_budget,
            ..part_cfg
        });
        PartPlan {
            route: Route::Bounded,
            solver,
            estimate,
        }
    } else {
        // Frontier too wide for any useful diagram: sampling (bit-parallel
        // for MC, flat for HT).
        sampling_fallback(part_cfg, sample_budget, estimate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_ugraph::ordering::EdgeOrder;

    fn path(n: usize) -> UncertainGraph {
        UncertainGraph::new(n, (0..n - 1).map(|i| (i, i + 1, 0.5))).unwrap()
    }

    fn clique(n: usize) -> UncertainGraph {
        netrel_datasets::clique_uniform(n, 0.5)
    }

    fn conn(g: &UncertainGraph, t: &[VertexId]) -> SemPart {
        SemPart::connectivity(g.clone(), t.to_vec())
    }

    fn dhop(g: &UncertainGraph, t: &[VertexId], d: u32) -> SemPart {
        SemPart {
            graph: g.clone(),
            terminals: t.to_vec(),
            computation: PartComputation::DHop { d },
        }
    }

    #[test]
    fn bell_table_and_saturation() {
        assert_eq!(states_upper_bound(0), 1);
        assert_eq!(states_upper_bound(3), 5);
        assert_eq!(states_upper_bound(10), 115_975);
        assert_eq!(states_upper_bound(26), usize::MAX);
        assert_eq!(states_upper_bound(1000), usize::MAX);
    }

    #[test]
    fn path_graph_predicts_tiny_and_routes_exact() {
        let g = path(50);
        let est = estimate_part(&g, &[0, 49], EdgeOrder::Bfs);
        assert_eq!(est.frontier_width, 2);
        assert!(est.predicted_nodes <= 2 * est.layers);
        let plan = plan_part(
            &conn(&g, &[0, 49]),
            S2BddConfig::default(),
            0,
            &PlanBudget::default(),
        );
        assert_eq!(plan.route, Route::Exact);
        assert_eq!(plan.route, plan.solver.route());
        match plan.solver {
            PartSolver::S2Bdd(cfg) => {
                assert_eq!(cfg.max_width, usize::MAX);
                assert_eq!(cfg.node_cap, PlanBudget::default().node_budget);
                assert!(!cfg.reduce_samples);
            }
            other => panic!("expected S2BDD solver, got {other:?}"),
        }
    }

    #[test]
    fn wide_clique_routes_to_bit_sampling() {
        let g = clique(60); // frontier width 60 > BOUNDED_WIDTH_LIMIT
        let est = estimate_part(&g, &[0, 59], EdgeOrder::Bfs);
        assert!(est.frontier_width > BOUNDED_WIDTH_LIMIT);
        assert_eq!(est.predicted_nodes, usize::MAX);
        // Default estimator is Monte Carlo → the packed kernel.
        let plan = plan_part(
            &conn(&g, &[0, 59]),
            S2BddConfig::default(),
            0,
            &PlanBudget::default(),
        );
        assert_eq!(plan.route, Route::BitSampling);
        assert_eq!(plan.route, plan.solver.route());
        match plan.solver {
            PartSolver::BitSampling { samples, .. } => {
                assert_eq!(samples, PlanBudget::default().sample_budget);
            }
            other => panic!("expected bit-sampling solver, got {other:?}"),
        }
    }

    #[test]
    fn horvitz_thompson_parts_keep_the_flat_sampling_route() {
        // HT needs per-world occurrence probabilities the packed kernel
        // does not track, so the estimator knob steers the fallback.
        let g = clique(60);
        let base = S2BddConfig {
            estimator: EstimatorKind::HorvitzThompson,
            ..S2BddConfig::default()
        };
        let plan = plan_part(&conn(&g, &[0, 59]), base, 0, &PlanBudget::default());
        assert_eq!(plan.route, Route::Sampling);
        assert_eq!(plan.route, plan.solver.route());
        match plan.solver {
            PartSolver::Sampling { estimator, .. } => {
                assert_eq!(estimator, EstimatorKind::HorvitzThompson);
            }
            other => panic!("expected flat sampling solver, got {other:?}"),
        }
        // Same for oversized d-hop parts.
        let plan = plan_part(&dhop(&g, &[0, 59], 2), base, 0, &PlanBudget::default());
        assert_eq!(plan.route, Route::Sampling);
    }

    #[test]
    fn small_dhop_part_routes_to_enumeration() {
        let g = path(10); // 9 edges → 512 predicted leaves
        let plan = plan_part(
            &dhop(&g, &[0, 9], 9),
            S2BddConfig::default(),
            0,
            &PlanBudget::default(),
        );
        assert_eq!(plan.route, Route::Exact);
        assert_eq!(plan.solver, PartSolver::Enumeration);
        assert_eq!(plan.route, plan.solver.route());
        assert_eq!(plan.estimate.predicted_nodes, 512);
        assert_eq!(plan.estimate.frontier_width, 0);
    }

    #[test]
    fn wide_dhop_part_routes_to_bit_sampling_with_part_seed() {
        let g = clique(30); // 435 edges → 2^435 saturates
        let base = S2BddConfig::default();
        let plan = plan_part(&dhop(&g, &[0, 29], 2), base, 4, &PlanBudget::default());
        assert_eq!(plan.route, Route::BitSampling);
        assert_eq!(plan.estimate.predicted_nodes, usize::MAX);
        match plan.solver {
            PartSolver::BitSampling { samples, seed } => {
                assert_eq!(samples, PlanBudget::default().sample_budget);
                assert_eq!(seed, part_s2bdd_config(base, 4).seed);
            }
            other => panic!("expected bit-sampling solver, got {other:?}"),
        }
    }

    #[test]
    fn dhop_node_budget_gates_enumeration() {
        let g = path(10); // 9 edges → 512 leaves
        let tight = PlanBudget {
            node_budget: 511,
            ..Default::default()
        };
        let plan = plan_part(&dhop(&g, &[0, 9], 9), S2BddConfig::default(), 0, &tight);
        assert_eq!(plan.route, Route::BitSampling);
        let roomy = PlanBudget {
            node_budget: 512,
            ..Default::default()
        };
        let plan = plan_part(&dhop(&g, &[0, 9], 9), S2BddConfig::default(), 0, &roomy);
        assert_eq!(plan.solver, PartSolver::Enumeration);
    }

    #[test]
    fn moderate_width_routes_bounded() {
        // A 12-wide, 60-long grid: frontier width ~13 (B(13) ≈ 2.7e7 per
        // layer blows the default budget) but far below the sampling limit.
        let (w, l) = (12usize, 60usize);
        let mut edges = Vec::new();
        let id = |x: usize, y: usize| y * w + x;
        for y in 0..l {
            for x in 0..w {
                if x + 1 < w {
                    edges.push((id(x, y), id(x + 1, y), 0.5));
                }
                if y + 1 < l {
                    edges.push((id(x, y), id(x, y + 1), 0.5));
                }
            }
        }
        let g = UncertainGraph::new(w * l, edges).unwrap();
        let t = vec![0, w * l - 1];
        let est = estimate_part(&g, &t, EdgeOrder::Bfs);
        assert!(est.frontier_width > 2 && est.frontier_width <= BOUNDED_WIDTH_LIMIT);
        let budget = PlanBudget::default();
        assert!(est.predicted_nodes > budget.node_budget);
        let plan = plan_part(&conn(&g, &t), S2BddConfig::default(), 0, &budget);
        assert_eq!(plan.route, Route::Bounded);
        assert_eq!(plan.route, plan.solver.route());
        match plan.solver {
            PartSolver::S2Bdd(cfg) => {
                assert!(cfg.max_width >= MIN_BOUNDED_WIDTH && cfg.max_width <= 10_000);
                assert!(cfg.reduce_samples);
            }
            other => panic!("expected S2BDD solver, got {other:?}"),
        }
    }

    #[test]
    fn time_hint_tightens_budgets_deterministically() {
        let b = PlanBudget {
            time_hint_ms: Some(2),
            ..Default::default()
        };
        assert_eq!(b.effective_node_budget(), 2 * NODES_PER_MS);
        assert_eq!(b.effective_sample_budget(), 4_000);
        // A generous hint never loosens beyond the explicit budgets.
        let roomy = PlanBudget {
            time_hint_ms: Some(1_000_000),
            ..Default::default()
        };
        assert_eq!(roomy.effective_node_budget(), roomy.node_budget);
        assert_eq!(roomy.effective_sample_budget(), roomy.sample_budget);
    }

    #[test]
    fn time_hint_is_apportioned_across_parts() {
        let b = PlanBudget {
            time_hint_ms: Some(10),
            ..Default::default()
        };
        // A 5-part query gives each part a fifth of the hinted allowance.
        let per_part = b.for_parts(5);
        assert_eq!(per_part.effective_node_budget(), 2 * NODES_PER_MS);
        assert_eq!(per_part.effective_sample_budget(), 4_000);
        // No hint: the per-part budgets pass through untouched.
        let unhinted = PlanBudget::default().for_parts(5);
        assert_eq!(unhinted, PlanBudget::default());
        // Degenerate inputs stay sane.
        assert_eq!(
            b.for_parts(0).effective_node_budget(),
            b.effective_node_budget()
        );
        assert!(b.for_parts(1_000_000).effective_sample_budget() >= 1);
    }

    #[test]
    fn seed_derivation_matches_pro() {
        let g = path(5);
        let base = S2BddConfig::default();
        let plan = plan_part(&conn(&g, &[0, 4]), base, 3, &PlanBudget::default());
        let PartSolver::S2Bdd(cfg) = plan.solver else {
            panic!("exact route expected");
        };
        assert_eq!(cfg.seed, part_s2bdd_config(base, 3).seed);
    }

    #[test]
    fn routes_serialize_as_names() {
        use serde::Serialize;
        assert_eq!(Route::Exact.to_value(), serde::Value::Str("exact".into()));
        assert_eq!(Route::Sampling.name(), "sampling");
        assert_eq!(
            Route::BitSampling.to_value(),
            serde::Value::Str("bit_sampling".into())
        );
    }
}
