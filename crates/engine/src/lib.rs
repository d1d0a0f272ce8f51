//! # netrel-engine — batched multi-query reliability
//!
//! The paper computes one `R[G, T]` per invocation; every real workload in
//! the surrounding literature is *many queries against one uncertain graph*
//! (benchmark suites issue thousands of terminal sets, reliability
//! maximization re-evaluates `R` under small perturbations in an inner
//! loop). This crate answers batches of [`PlannedQuery`] values against
//! registered graphs through a three-stage pipeline:
//!
//! 1. **Semantics planning** — each query names a reliability semantics
//!    ([`SemanticsSpec`]: k-terminal,
//!    two-terminal, all-terminal, d-hop, expected reachable-set size) that
//!    decomposes `(G, T)` into parts. The terminal-independent structure
//!    (bridges, 2ECC labelling, bridge forest:
//!    `netrel_preprocess::GraphIndex`) is computed once at
//!    [`Engine::register`] time and reused by every query; only the
//!    terminal-dependent decompose step runs per query. The query's
//!    [`Policy`] then gives each part its solver: [`Policy::Fixed`] runs
//!    the configured solver as the one-shot pipeline does, and
//!    [`Policy::Budgeted`] lets the adaptive [`planner`] route each part
//!    to exact S2BDD, width-bounded S2BDD, exact hop-bounded enumeration,
//!    or sampling under the query's [`PlanBudget`].
//! 2. **Plan cache** — each decomposed part is keyed by its canonical
//!    structure, terminal set, part computation (connectivity vs. hop
//!    bound), and full solver config ([`PlanKey`]); results are LRU-cached
//!    so repeated and overlapping queries skip the solve entirely.
//!    Identical parts *within* one batch are also deduped and solved once.
//! 3. **Parallel executor** — remaining part jobs run on scoped worker
//!    threads with deterministic seeds and deterministic reassembly:
//!    answers do not depend on batch composition, cache state, or worker
//!    count, and [`Policy::Fixed`] answers are bit-identical to the
//!    one-shot [`semantics_reliability`](netrel_core::semantics_reliability)
//!    (and hence, for k-terminal queries, to
//!    [`pro_reliability`](netrel_core::pro_reliability)).
//!
//! Every query returns a [`ReliabilityAnswer`] carrying the semantics it
//! answered, the exactness status, a confidence interval, and the route of
//! each part (`DESIGN.md` §9 is the accuracy contract).
//!
//! ```
//! use netrel_core::{ProConfig, SemanticsSpec};
//! use netrel_engine::{Engine, EngineConfig, PlannedQuery};
//! use netrel_ugraph::UncertainGraph;
//!
//! let g = UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.9), (3, 0, 0.7)]).unwrap();
//! let mut engine = Engine::new(EngineConfig::default());
//! let id = engine.register("demo", g);
//! let query = |t| PlannedQuery::fixed(SemanticsSpec::KTerminal, t, ProConfig::default());
//! let answers = engine
//!     .run_planned_batch(id, &[query(vec![0, 2]), query(vec![1, 3])])
//!     .unwrap();
//! for a in answers {
//!     let a = a.unwrap();
//!     assert!(a.lower_bound <= a.estimate && a.estimate <= a.upper_bound);
//!     assert!(a.ci.contains(a.estimate));
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod cache;
mod executor;
pub mod mutate;
pub mod planner;
pub mod service;

use netrel_core::{
    combine_semantics_plan, exact_semantics_part, lane_utilization_percent, part_s2bdd_config,
    sample_semantics_part, solve_semantics_part, BitSamplingConfig, PartComputation, ProConfig,
    ProResult, SamplingConfig, SemPart, SemanticsPlan, SemanticsSpec, WorldBank,
    DHOP_EXACT_EDGE_LIMIT,
};
use netrel_numeric::{normal_ci, ConfidenceInterval, ConfidenceLevel};
use netrel_obs::trace as obs_trace;
use netrel_obs::TraceBuilder;
use netrel_preprocess::GraphIndex;
use netrel_s2bdd::{S2BddConfig, S2BddResult};
use netrel_ugraph::{GraphError, UncertainGraph, VertexId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub use cache::{CacheStats, PlanCache, PlanKey};
pub use mutate::{MaximizeResult, MaximizeStep, Mutation, MutationOutcome};
pub use netrel_obs::{MetricsSnapshot, QueryTrace, Recorder};
pub use netrel_preprocess::IndexPatch;
pub use planner::{plan_part, CostEstimate, PartPlan, PartSolver, PlanBudget, Route};

/// Engine-level configuration.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Maximum entries in the part-level plan cache (0 disables caching).
    pub plan_cache_capacity: usize,
    /// Worker threads for part solving; `<= 1` solves sequentially. Results
    /// are identical either way — only wall-clock changes.
    pub workers: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            plan_cache_capacity: 4096,
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl EngineConfig {
    /// Single-threaded configuration (deterministic wall-clock, e.g. for
    /// fair benchmarking of the algorithmic savings alone).
    pub fn sequential() -> Self {
        EngineConfig {
            workers: 1,
            ..Default::default()
        }
    }
}

/// Handle to a registered graph (index into the engine's registry).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GraphId(usize);

/// How a query's decomposed parts get their solvers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Policy {
    /// The paper's configuration: every part runs `config.s2bdd` as given
    /// (with its per-part seed), except that d-hop parts enumerate exactly
    /// up to [`DHOP_EXACT_EDGE_LIMIT`] edges and sample beyond. Answers are
    /// bit-identical to the one-shot
    /// [`semantics_reliability`](netrel_core::semantics_reliability); the
    /// budget only sets the confidence level of their interval.
    Fixed,
    /// The adaptive planner: the cost model in [`planner`] routes each part
    /// under the query's budget, overriding the width, samples, and node
    /// cap of `config.s2bdd`.
    Budgeted,
}

/// One reliability query: a semantics, a terminal set, the base solver
/// configuration, and the [`Policy`] (plus [`PlanBudget`]) that picks each
/// part's solver.
#[derive(Clone, Debug)]
pub struct PlannedQuery {
    /// What the query computes (defaults to k-terminal connectivity).
    pub semantics: SemanticsSpec,
    /// Terminal vertices, interpreted per the semantics (connect-all for
    /// k-terminal, `(s, t)` for two-terminal/d-hop, the source for
    /// reach-set; ignored by all-terminal).
    pub terminals: Vec<VertexId>,
    /// Solver configuration. Under [`Policy::Budgeted`] the width/samples
    /// knobs of `config.s2bdd` are advisory only — the planner overrides
    /// them per part; the estimator, edge order, merge rule, and seed are
    /// honored.
    pub config: ProConfig,
    /// How parts are routed.
    pub policy: Policy,
    /// Per-query resource budget the planner routes under; its
    /// `confidence` also sets the level of [`ReliabilityAnswer::ci`] under
    /// either policy.
    pub budget: PlanBudget,
    /// Request a [`QueryTrace`] span tree with the answer (see
    /// [`PlannedQuery::with_trace`]). Tracing never changes the answer —
    /// only [`ReliabilityAnswer::trace`].
    pub trace: bool,
}

impl PlannedQuery {
    /// A planned k-terminal query with the default `Pro` base configuration.
    pub fn new(terminals: Vec<VertexId>, budget: PlanBudget) -> Self {
        Self::with_semantics(
            SemanticsSpec::default(),
            terminals,
            ProConfig::default(),
            budget,
        )
    }

    /// A planned k-terminal query with an explicit base configuration.
    pub fn with_config(terminals: Vec<VertexId>, config: ProConfig, budget: PlanBudget) -> Self {
        Self::with_semantics(SemanticsSpec::default(), terminals, config, budget)
    }

    /// A planned query under an explicit semantics.
    pub fn with_semantics(
        semantics: SemanticsSpec,
        terminals: Vec<VertexId>,
        config: ProConfig,
        budget: PlanBudget,
    ) -> Self {
        PlannedQuery {
            semantics,
            terminals,
            config,
            policy: Policy::Budgeted,
            budget,
            trace: false,
        }
    }

    /// A [`Policy::Fixed`] query: `config` runs as given, bit-identical to
    /// the one-shot pipeline, and the answer's interval is at the default
    /// confidence level.
    pub fn fixed(semantics: SemanticsSpec, terminals: Vec<VertexId>, config: ProConfig) -> Self {
        PlannedQuery {
            policy: Policy::Fixed,
            ..Self::with_semantics(semantics, terminals, config, PlanBudget::default())
        }
    }

    /// Opt this query into span tracing: the answer's
    /// [`ReliabilityAnswer::trace`] carries the full span tree (plan,
    /// route, cache lookup, per-part solves, combine). Tracing is
    /// bit-invariant — it reads clocks, never an RNG.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }
}

/// Errors surfaced by the engine.
#[derive(Clone, Debug)]
pub enum EngineError {
    /// The [`GraphId`] or graph name is not registered.
    UnknownGraph(String),
    /// The underlying graph/solver rejected the query.
    Graph(GraphError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::UnknownGraph(name) => write!(f, "unknown graph `{name}`"),
            EngineError::Graph(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<GraphError> for EngineError {
    fn from(e: GraphError) -> Self {
        EngineError::Graph(e)
    }
}

/// Answer to one query: the recombined estimate with its proven bounds,
/// the exactness status, a confidence interval, and the per-part routes.
/// The exactness/CI contract is specified in `DESIGN.md` §9 and holds
/// under either [`Policy`]:
///
/// * `exact == true` — every part was solved exactly; `estimate` **is**
///   `R[G, T]` (up to f64 rounding of the recombination product) and the CI
///   is the degenerate `[estimate, estimate]`.
/// * `exact == false` — at least one part was estimated; `lower_bound` /
///   `upper_bound` are still *proven* envelopes, and `ci` is the
///   normal-approximation interval `estimate ± z·√variance` from the
///   product-estimator variance (paper Theorem 4 composition), widened by
///   the rule-of-three envelope `3/s` when the sample variance degenerates
///   to zero (so an estimated answer never claims certainty), intersected
///   with the proven bounds. The interval lives in the semantics' value
///   range (`[0, 1]` for probabilities, `[0, |V|]` for reach-set).
#[derive(Clone, Debug, serde::Serialize)]
pub struct ReliabilityAnswer {
    /// The semantics this answer computed.
    pub semantics: SemanticsSpec,
    /// Estimated (or exact) value `R̂[G, T]` under the semantics.
    pub estimate: f64,
    /// Proven lower bound (product of per-part proven lower bounds × `p_b`).
    pub lower_bound: f64,
    /// Proven upper bound.
    pub upper_bound: f64,
    /// Whether the estimate is the exact reliability.
    pub exact: bool,
    /// Confidence interval per the §9 contract (degenerate when exact).
    pub ci: ConfidenceInterval,
    /// Bridge-probability factor from decomposition.
    pub pb: f64,
    /// Total samples drawn across all parts (cached or fresh).
    pub samples_used: usize,
    /// Variance of the product estimator.
    pub variance_estimate: f64,
    /// Preprocessing statistics.
    pub preprocess_stats: netrel_preprocess::PreprocessStats,
    /// Per-part solver results, in part order.
    pub parts: Vec<S2BddResult>,
    /// Route of each part's solver ([`PartSolver::route`]), in part order.
    pub routes: Vec<Route>,
    /// Parts of this query served from the plan cache.
    pub cache_hits: usize,
    /// Parts of this query that required a solve (or joined an identical
    /// in-batch job).
    pub cache_misses: usize,
    /// Span tree of this query's execution, present when tracing was
    /// requested ([`PlannedQuery::with_trace`] or `trace: true` on the
    /// protocol); `None` otherwise.
    pub trace: Option<QueryTrace>,
}

/// The `DESIGN.md` §9.4 interval of a recombined answer at `level`.
/// `value_cap` is the semantics' `value_upper`: 1 for probabilities, `|V|`
/// for reach-set. The probability path goes through `normal_ci` unchanged
/// so k-terminal answers stay bit-identical to the pre-semantics engine.
fn confidence_interval(
    r: &ProResult,
    level: ConfidenceLevel,
    value_cap: f64,
) -> ConfidenceInterval {
    if r.exact {
        return ConfidenceInterval {
            lower: r.estimate.clamp(0.0, value_cap),
            upper: r.estimate.clamp(0.0, value_cap),
            level,
        };
    }
    let mut ci = if value_cap <= 1.0 {
        normal_ci(r.estimate, r.variance_estimate, level)
    } else {
        let sd = if r.variance_estimate.is_finite() && r.variance_estimate > 0.0 {
            r.variance_estimate.sqrt()
        } else {
            0.0
        };
        let half = level.z() * sd;
        ConfidenceInterval {
            lower: (r.estimate - half).clamp(0.0, value_cap),
            upper: (r.estimate + half).clamp(0.0, value_cap),
            level,
        }
    };
    // Degenerate-variance guard, applied per part: a sampled part whose
    // draws all agreed (all hits or all misses) reports Wald variance 0 and
    // would enter the Theorem-4 product as a variance-free constant, letting
    // the interval claim certainty it does not have — even when other parts
    // contribute variance. Widen by the rule-of-three envelope `3/sᵢ` (the
    // classic 95% bound for zero observed failures) for each such part;
    // since part estimates multiply within [0, 1], the additive slack is
    // conservative.
    let slack: f64 = r
        .parts
        .iter()
        .filter(|p| !p.exact && p.samples_used > 0 && p.variance_estimate <= 0.0)
        .map(|p| 3.0 / p.samples_used as f64)
        .sum();
    if slack > 0.0 {
        ci.lower = (ci.lower - slack).max(0.0);
        ci.upper = (ci.upper + slack).min(value_cap);
    }
    ci.clamp_to(r.lower_bound, r.upper_bound)
}

struct RegisteredGraph {
    name: String,
    graph: UncertainGraph,
    index: GraphIndex,
    /// Wall-clock cost of the `GraphIndex` build at registration.
    index_build: Duration,
    /// Monotone per-graph cache telemetry (occupancy, by contrast, is
    /// recomputed live from the cache map — see [`Engine::graph_stats`]).
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_inserts: AtomicU64,
}

/// Per-graph registration and cache telemetry, serializable for the
/// service's `stats` op.
#[derive(Clone, Debug, serde::Serialize)]
pub struct GraphStats {
    /// Registered name.
    pub name: String,
    /// Whether this registration is the one the name currently resolves to
    /// (re-registering a name keeps the old graph reachable by id).
    pub active: bool,
    /// Vertices in the graph.
    pub vertices: usize,
    /// Edges in the graph.
    pub edges: usize,
    /// Seconds spent building the terminal-independent [`GraphIndex`].
    pub index_build_secs: f64,
    /// Parts of this graph's queries served from the plan cache.
    pub cache_hits: u64,
    /// Parts that required a solve (or joined an in-batch job).
    pub cache_misses: u64,
    /// Results this graph's queries published to the plan cache.
    pub cache_inserts: u64,
    /// Plan-cache entries currently attributed to this graph — live
    /// occupancy recomputed from the cache map, so it is reset-safe
    /// (drops to 0 on [`Engine::clear_cache`], decays under eviction)
    /// while the counters above stay monotone.
    pub cache_entries: usize,
}

/// The batched multi-query reliability engine. See the crate docs for the
/// pipeline; [`Engine::run_planned_batch`] is the main entry point.
pub struct Engine {
    cfg: EngineConfig,
    graphs: Vec<RegisteredGraph>,
    by_name: HashMap<String, usize>,
    cache: Mutex<PlanCache>,
    /// Metrics recorder, always live. Recording is passive (atomic counters
    /// and clock reads only), so it never changes an answer bit.
    obs: Recorder,
    /// Memoized packed world masks for [`PartSolver::BitSampling`] parts:
    /// queries on the same graph/seed/budget share every drawn world, so
    /// repeat queries skip straight to the (cheap) propagation pass.
    /// Purely an accelerator — answers are byte-identical with or without
    /// a hit (see `netrel_core::WorldBank`).
    worlds: WorldBank,
}

/// Where a query's part result comes from during batch assembly.
enum PartSource {
    Cached(S2BddResult),
    Job(usize),
}

struct PreparedQuery {
    /// The semantics' decomposition of the query (parts, groups, offset).
    plan: SemanticsPlan,
    /// One materialized solver per part, chosen by the query's [`Policy`].
    solvers: Vec<PartSolver>,
    /// One [`PlanKey`] per part, built outside the cache lock and reused
    /// for the post-solve insert (the single key-derivation site).
    keys: Vec<PlanKey>,
    sources: Vec<PartSource>,
    cache_hits: usize,
    cache_misses: usize,
    /// Span builder for this query, carried from planning (which already
    /// recorded plan/preprocess spans into it) through execution; `None`
    /// when the query did not opt into tracing.
    trace: Option<TraceBuilder>,
}

/// Materialize the [`Policy::Fixed`] solver for one part, mirroring
/// `solve_semantics_part`'s dispatch exactly so engine answers stay
/// bit-identical to the one-shot pipeline: the configured S2BDD for
/// connectivity parts; for d-hop parts, exact enumeration up to
/// [`DHOP_EXACT_EDGE_LIMIT`] edges and hop-bounded sampling (same sample
/// budget, estimator, and per-part seed) beyond. Making the split explicit
/// here — rather than hiding it inside an opaque `S2Bdd` solver — keeps the
/// [`PlanKey`] honest about what actually ran.
fn fixed_solver(part: &SemPart, base: S2BddConfig, part_index: usize) -> PartSolver {
    let cfg = part_s2bdd_config(base, part_index);
    match part.computation {
        PartComputation::Connectivity => PartSolver::S2Bdd(cfg),
        PartComputation::DHop { .. } if part.graph.num_edges() <= DHOP_EXACT_EDGE_LIMIT => {
            PartSolver::Enumeration
        }
        PartComputation::DHop { .. } => PartSolver::Sampling {
            samples: cfg.samples,
            estimator: cfg.estimator,
            seed: cfg.seed,
        },
    }
}

impl Engine {
    /// A new engine with the given configuration, recording into a fresh
    /// metric catalogue.
    pub fn new(cfg: EngineConfig) -> Self {
        Self::with_recorder(cfg, Recorder::enabled())
    }

    /// A new engine recording metrics into `obs`, which may be shared with
    /// other engines.
    pub fn with_recorder(cfg: EngineConfig, obs: Recorder) -> Self {
        Engine {
            cfg,
            graphs: Vec::new(),
            by_name: HashMap::new(),
            cache: Mutex::new(PlanCache::new(cfg.plan_cache_capacity)),
            obs,
            worlds: WorldBank::new(),
        }
    }

    /// The engine's metrics recorder.
    pub fn recorder(&self) -> &Recorder {
        &self.obs
    }

    /// Snapshot of the metric catalogue.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.obs.snapshot()
    }

    /// Register a graph under `name`, computing its terminal-independent
    /// [`GraphIndex`] once. Re-registering a name points it at the new
    /// graph; previously returned ids stay valid for the old one.
    pub fn register(&mut self, name: impl Into<String>, graph: UncertainGraph) -> GraphId {
        let name = name.into();
        let t0 = Instant::now();
        let index = GraphIndex::build(&graph);
        let index_build = t0.elapsed();
        self.obs
            .metrics()
            .index_build_seconds
            .observe_duration(index_build);
        let id = self.graphs.len();
        self.by_name.insert(name.clone(), id);
        self.graphs.push(RegisteredGraph {
            name,
            graph,
            index,
            index_build,
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_inserts: AtomicU64::new(0),
        });
        GraphId(id)
    }

    /// Look up a registered graph by name.
    pub fn graph_id(&self, name: &str) -> Option<GraphId> {
        self.by_name.get(name).copied().map(GraphId)
    }

    /// The registered graph behind an id.
    pub fn graph(&self, id: GraphId) -> Option<&UncertainGraph> {
        self.graphs.get(id.0).map(|r| &r.graph)
    }

    /// Answer one query (a one-element batch of
    /// [`run_planned_batch`](Engine::run_planned_batch)).
    pub fn run_planned(
        &self,
        id: GraphId,
        query: &PlannedQuery,
    ) -> Result<ReliabilityAnswer, EngineError> {
        self.run_planned_batch(id, std::slice::from_ref(query))?
            .pop()
            .expect("one answer per query")
    }

    /// Answer a batch of queries against one registered graph.
    ///
    /// Each query's [`Policy`] picks its part solvers. [`Policy::Fixed`]
    /// runs the configured solver, so its answers are bit-identical to
    /// calling [`semantics_reliability`](netrel_core::semantics_reliability)
    /// — and so, for the default k-terminal semantics,
    /// [`pro_reliability`](netrel_core::pro_reliability) — per query with
    /// the same configuration. [`Policy::Budgeted`] routes each part to
    /// exact S2BDD, width-bounded S2BDD, enumeration, or sampling by the
    /// cost model in [`planner`], under the query's [`PlanBudget`]. Either
    /// way solvers are fully materialized before solving, so batch
    /// composition, cache state, and worker count never change a result,
    /// and every answer carries exactness status, proven bounds, and a
    /// confidence interval per the `DESIGN.md` §9 contract.
    ///
    /// The outer `Result` fails only for an unknown [`GraphId`]; per-query
    /// failures (e.g. out-of-range terminals) come back in their slot so one
    /// bad query cannot poison a batch.
    ///
    /// ```
    /// use netrel_core::{ProConfig, SemanticsSpec};
    /// use netrel_engine::{Engine, EngineConfig, PlanBudget, PlannedQuery};
    /// use netrel_ugraph::UncertainGraph;
    ///
    /// let g = UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.9)]).unwrap();
    /// let mut engine = Engine::new(EngineConfig::default());
    /// let id = engine.register("path", g);
    /// let queries = [
    ///     PlannedQuery::fixed(SemanticsSpec::KTerminal, vec![0, 3], ProConfig::default()),
    ///     PlannedQuery::new(vec![1, 2], PlanBudget::default()),
    /// ];
    /// let answers = engine.run_planned_batch(id, &queries).unwrap();
    /// assert_eq!(answers.len(), 2);
    /// let a = answers[0].as_ref().unwrap();
    /// // A path is all bridges: preprocessing resolves it exactly.
    /// assert!(a.exact);
    /// assert!((a.estimate - 0.9 * 0.8 * 0.9).abs() < 1e-12);
    /// assert_eq!((a.ci.lower, a.ci.upper), (a.estimate, a.estimate));
    /// assert!(answers[1].as_ref().unwrap().exact);
    /// ```
    pub fn run_planned_batch(
        &self,
        id: GraphId,
        queries: &[PlannedQuery],
    ) -> Result<Vec<Result<ReliabilityAnswer, EngineError>>, EngineError> {
        let rg = self.registered(id)?;
        Ok(self.execute(id.0, &rg.graph, &rg.index, queries))
    }

    /// Stage 1 against an explicit `(graph, index)` pair: semantics
    /// planning, then one materialized solver per part under the query's
    /// [`Policy`], and the cache key each solver implies (the single
    /// key-derivation site). A traced query runs planning with its builder
    /// installed in the thread-local hook, so the core/preprocess spans
    /// ("plan.*", "preprocess.*") nest under this query's root.
    fn prepare(
        &self,
        graph: &UncertainGraph,
        index: &GraphIndex,
        queries: &[PlannedQuery],
    ) -> Vec<Result<PreparedQuery, EngineError>> {
        let m = self.obs.metrics();
        queries
            .iter()
            .map(|q| {
                let t0 = Instant::now();
                if q.trace {
                    obs_trace::install(TraceBuilder::new());
                }
                let plan_result = q
                    .semantics
                    .plan(graph, index, &q.terminals, q.config.preprocess);
                let mut tb = if q.trace { obs_trace::take() } else { None };
                let plan = plan_result?; // a failed plan drops its trace
                m.plan_seconds.observe_duration(t0.elapsed());
                match q.policy {
                    Policy::Fixed => m.queries_classic.inc(),
                    Policy::Budgeted => m.queries_planned.inc(),
                }
                m.parts_per_query.observe_count(plan.parts.len());
                let route_span = tb.as_mut().and_then(|b| b.open("route"));
                let parts = plan.parts.iter().enumerate();
                let solvers: Vec<PartSolver> = match q.policy {
                    Policy::Fixed => parts
                        .map(|(pi, part)| fixed_solver(part, q.config.s2bdd, pi))
                        .collect(),
                    Policy::Budgeted => {
                        // The wall-clock hint covers the whole query: split
                        // its allowance across the decomposition first.
                        let part_budget = q.budget.for_parts(plan.parts.len());
                        parts
                            .map(|(pi, part)| {
                                let p = plan_part(part, q.config.s2bdd, pi, &part_budget);
                                Self::record_plan(m, &p);
                                p.solver
                            })
                            .collect()
                    }
                };
                if let (Some(b), Some(id)) = (tb.as_mut(), route_span) {
                    let names: Vec<&str> = solvers.iter().map(|s| s.route().name()).collect();
                    b.attr(id, "routes", names.join(","));
                    b.close(id);
                }
                let keys = plan
                    .parts
                    .iter()
                    .zip(&solvers)
                    .map(|(part, &solver)| PlanKey::for_part(part, solver))
                    .collect();
                Ok(PreparedQuery {
                    plan,
                    solvers,
                    keys,
                    sources: Vec::new(),
                    cache_hits: 0,
                    cache_misses: 0,
                    trace: tb,
                })
            })
            .collect()
    }

    /// Record one cost-model decision in the catalogue: its route counter,
    /// its node prediction, and the lane use of a packed sampling part.
    /// Enumeration is a solver, not a [`Route`] (d-hop parts under the
    /// exact enumeration limit carry `Route::Exact` +
    /// [`PartSolver::Enumeration`]), so the exposed route breakdown derives
    /// from the `(route, solver)` pair.
    fn record_plan(m: &netrel_obs::Metrics, p: &PartPlan) {
        let counter = match (p.route, p.solver) {
            (_, PartSolver::Enumeration) => &m.route_enumeration,
            (Route::Exact, _) => &m.route_exact,
            (Route::Bounded, _) => &m.route_bounded,
            (Route::Sampling, _) => &m.route_sampling,
            (Route::BitSampling, _) => &m.route_bit_sampling,
        };
        counter.inc();
        m.predicted_nodes.observe_count(p.estimate.predicted_nodes);
        if let PartSolver::BitSampling { samples, .. } = p.solver {
            m.bit_lane_utilization_percent
                .observe(lane_utilization_percent(samples));
        }
    }

    fn registered(&self, id: GraphId) -> Result<&RegisteredGraph, EngineError> {
        self.graphs
            .get(id.0)
            .ok_or_else(|| EngineError::UnknownGraph(format!("#{}", id.0)))
    }

    /// The query pipeline behind [`run_planned_batch`](Engine::run_planned_batch)
    /// and [`evaluate_with`](Engine::evaluate_with), against an explicit
    /// `(graph, index)` pair so a what-if can run against a hypothetical
    /// graph while sharing the structurally-keyed plan cache: stage-1
    /// preparation, plan-cache lookup and in-batch dedup, parallel solving
    /// of the remaining jobs, cache publication, and per-query recombination
    /// with the exact `combine_semantics_plan` composition the one-shot
    /// `semantics_reliability` uses.
    fn execute(
        &self,
        owner: usize,
        graph: &UncertainGraph,
        index: &GraphIndex,
        queries: &[PlannedQuery],
    ) -> Vec<Result<ReliabilityAnswer, EngineError>> {
        let mut prepared = self.prepare(graph, index, queries);
        let m = self.obs.metrics();
        m.batches.inc();

        // Plan-cache lookup and in-batch dedup per part, under the lock.
        // Jobs hold `(query, part)` indices into `prepared`, so part graphs
        // are borrowed, never cloned. Keys were built outside the lock, so
        // concurrent batches only contend on the lookups themselves.
        let mut jobs: Vec<(usize, usize)> = Vec::new();
        let mut job_ids: HashMap<PlanKey, usize, netrel_numeric::FxBuildHasher> =
            HashMap::default();
        let (mut total_hits, mut total_misses) = (0u64, 0u64);
        {
            let mut cache = self.cache.lock().expect("plan cache poisoned");
            for (qi, prep) in prepared.iter_mut().enumerate() {
                let Ok(prep) = prep.as_mut() else { continue };
                let lookup_start = prep.trace.as_ref().map(|_| Instant::now());
                let mut sources = Vec::with_capacity(prep.keys.len());
                for (pi, key) in prep.keys.iter().enumerate() {
                    if let Some(hit) = cache.get(key) {
                        prep.cache_hits += 1;
                        sources.push(PartSource::Cached(hit));
                    } else {
                        prep.cache_misses += 1;
                        let job = *job_ids.entry(key.clone()).or_insert_with(|| {
                            jobs.push((qi, pi));
                            jobs.len() - 1
                        });
                        sources.push(PartSource::Job(job));
                    }
                }
                prep.sources = sources;
                total_hits += prep.cache_hits as u64;
                total_misses += prep.cache_misses as u64;
                if let (Some(b), Some(s)) = (prep.trace.as_mut(), lookup_start) {
                    if let Some(id) = b.add_timed("cache.lookup", s, Instant::now()) {
                        b.attr(id, "hits", prep.cache_hits.to_string());
                        b.attr(id, "misses", prep.cache_misses.to_string());
                    }
                }
            }
        } // release the cache lock before solving
        m.cache_hits.add(total_hits);
        m.cache_misses.add(total_misses);
        m.jobs.add(jobs.len() as u64);
        if let Some(rg) = self.graphs.get(owner) {
            rg.cache_hits.fetch_add(total_hits, Ordering::Relaxed);
            rg.cache_misses.fetch_add(total_misses, Ordering::Relaxed);
        }

        // Stage 2: solve the deduped jobs on the worker pool. Each job's
        // solver is fully materialized (seed included), so results do not
        // depend on scheduling. Each job also reports the `(start, end)`
        // instants of its solve — queue wait is measured from the shared
        // `anchor` just before the pool starts.
        let anchor = Instant::now();
        let (solved, worker_busy) = executor::run_indexed_timed(
            jobs.len(),
            self.cfg.workers,
            |j| -> (Result<S2BddResult, GraphError>, (Instant, Instant)) {
                let start = Instant::now();
                let (qi, pi) = jobs[j];
                let prep = prepared[qi].as_ref().expect("jobs come from Ok queries");
                let part = &prep.plan.parts[pi];
                let result = match prep.solvers[pi] {
                    PartSolver::S2Bdd(cfg) => solve_semantics_part(part, cfg),
                    PartSolver::Enumeration => exact_semantics_part(part),
                    PartSolver::Sampling {
                        samples,
                        estimator,
                        seed,
                    } => sample_semantics_part(
                        part,
                        SamplingConfig {
                            samples,
                            estimator,
                            seed,
                            // The executor already parallelizes across jobs;
                            // the stream partition keeps this seed-stable.
                            threads: 1,
                        },
                    ),
                    PartSolver::BitSampling { samples, seed } => self.worlds.part(
                        part,
                        BitSamplingConfig {
                            samples,
                            seed,
                            // Same reasoning as flat sampling: jobs are the
                            // parallelism unit, and the block partition keeps
                            // draws thread-count invariant anyway.
                            threads: 1,
                        },
                    ),
                };
                (result, (start, Instant::now()))
            },
        );
        for busy in &worker_busy {
            m.worker_busy_seconds.observe_duration(*busy);
        }
        for (result, (s, e)) in &solved {
            m.part_solve_seconds.observe_duration(e.duration_since(*s));
            m.queue_wait_seconds
                .observe_duration(s.saturating_duration_since(anchor));
            if let Ok(r) = result {
                if r.nodes_created > 0 {
                    m.actual_nodes.observe_count(r.nodes_created);
                }
                if r.node_cap_hit {
                    m.node_cap_hits.inc();
                }
            }
        }

        // Stage 3: publish fresh results to the cache (in job order, for a
        // deterministic eviction sequence), then recombine per query.
        {
            let mut cache = self.cache.lock().expect("plan cache poisoned");
            for (j, (result, _)) in solved.iter().enumerate() {
                if let Ok(r) = result {
                    let (qi, pi) = jobs[j];
                    let prep = prepared[qi].as_ref().expect("jobs come from Ok queries");
                    let ins = cache.insert(prep.keys[pi].clone(), r.clone(), owner);
                    if ins.stored {
                        m.cache_insertions.inc();
                        if let Some(rg) = self.graphs.get(owner) {
                            rg.cache_inserts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    if let Some(age) = ins.evicted_age {
                        m.cache_evictions.inc();
                        m.cache_eviction_age.observe_count(age as usize);
                    }
                }
            }
        }

        let mut errors = 0u64;
        let out: Vec<Result<ReliabilityAnswer, EngineError>> = prepared
            .into_iter()
            .zip(queries)
            .map(|(prep, q)| {
                let mut prep = prep?;
                let mut tb = prep.trace.take();
                let routes: Vec<Route> = prep.solvers.iter().map(|s| s.route()).collect();
                let mut parts = Vec::with_capacity(prep.sources.len());
                for (pi, (source, route)) in prep.sources.into_iter().zip(&routes).enumerate() {
                    let (result, span) = match source {
                        PartSource::Cached(r) => (r, None),
                        PartSource::Job(j) => {
                            let (r, span) = &solved[j];
                            (r.clone()?, Some(*span))
                        }
                    };
                    if let Some(b) = tb.as_mut() {
                        let id = match span {
                            Some((s, e)) => b.add_timed("part.solve", s, e),
                            None => {
                                // Cached (or shared in-batch) part: record a
                                // zero-width span so the tree stays complete.
                                let now = Instant::now();
                                b.add_timed("part.solve", now, now)
                            }
                        };
                        if let Some(id) = id {
                            b.attr(id, "part", pi.to_string());
                            b.attr(id, "cached", if span.is_none() { "true" } else { "false" });
                            b.attr(id, "route", route.name());
                        }
                    }
                    parts.push(result);
                }
                // `combine_semantics_plan` handles trivially-zero plans
                // (empty parts) and reproduces `combine_part_results` bit
                // for bit on the classic single-group shape. When tracing,
                // the builder is installed around the call so the core's
                // "combine" span nests under this query's root.
                let t0 = Instant::now();
                let pro = if let Some(b) = tb.take() {
                    obs_trace::install(b);
                    let pro = combine_semantics_plan(&prep.plan, parts);
                    tb = obs_trace::take();
                    pro
                } else {
                    combine_semantics_plan(&prep.plan, parts)
                };
                m.combine_seconds.observe_duration(t0.elapsed());
                let value_cap = q.semantics.value_upper(graph);
                Ok(ReliabilityAnswer {
                    semantics: q.semantics,
                    estimate: pro.estimate,
                    lower_bound: pro.lower_bound,
                    upper_bound: pro.upper_bound,
                    exact: pro.exact,
                    ci: confidence_interval(&pro, q.budget.confidence, value_cap),
                    pb: pro.pb,
                    samples_used: pro.samples_used,
                    variance_estimate: pro.variance_estimate,
                    preprocess_stats: pro.preprocess_stats,
                    parts: pro.parts,
                    routes,
                    cache_hits: prep.cache_hits,
                    cache_misses: prep.cache_misses,
                    trace: tb.map(TraceBuilder::finish),
                })
            })
            .inspect(|r| {
                if r.is_err() {
                    errors += 1;
                }
            })
            .collect();
        m.query_errors.add(errors);
        out
    }

    /// Snapshot of the plan cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.lock().expect("plan cache poisoned").stats()
    }

    /// Per-graph registration and cache telemetry, in registration order.
    /// `cache_entries` is recomputed live from the cache map under one
    /// lock, so occupancies are reset-safe (they drop on
    /// [`clear_cache`](Engine::clear_cache) and decay under eviction) and
    /// always sum to at most the cache's current length.
    pub fn graph_stats(&self) -> Vec<GraphStats> {
        let occupancy = self
            .cache
            .lock()
            .expect("plan cache poisoned")
            .entries_by_owner(self.graphs.len());
        self.graphs
            .iter()
            .enumerate()
            .map(|(i, rg)| GraphStats {
                name: rg.name.clone(),
                active: self.by_name.get(&rg.name) == Some(&i),
                vertices: rg.graph.num_vertices(),
                edges: rg.graph.num_edges(),
                index_build_secs: rg.index_build.as_secs_f64(),
                cache_hits: rg.cache_hits.load(Ordering::Relaxed),
                cache_misses: rg.cache_misses.load(Ordering::Relaxed),
                cache_inserts: rg.cache_inserts.load(Ordering::Relaxed),
                cache_entries: occupancy[i],
            })
            .collect()
    }

    /// Drop all cached plans (counters are preserved).
    pub fn clear_cache(&self) {
        self.cache.lock().expect("plan cache poisoned").clear();
    }

    /// Names of the registered graphs, in registration order.
    pub fn graph_names(&self) -> impl Iterator<Item = &str> {
        self.graphs.iter().map(|r| r.name.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_core::pro_reliability;
    use netrel_s2bdd::S2BddConfig;

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

    fn kterminal(terminals: Vec<VertexId>, config: ProConfig) -> PlannedQuery {
        PlannedQuery::fixed(SemanticsSpec::KTerminal, terminals, config)
    }

    fn sampling_cfg(seed: u64) -> ProConfig {
        ProConfig {
            s2bdd: S2BddConfig {
                max_width: 2,
                samples: 400,
                seed,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn batch_answers_match_oneshot_bitwise() {
        let g = lollipop();
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("lollipop", g.clone());
        let queries: Vec<PlannedQuery> = [vec![0, 4], vec![0, 7], vec![1, 4, 6], vec![0, 4]]
            .into_iter()
            .map(|t| kterminal(t, sampling_cfg(11)))
            .collect();
        let answers = engine.run_planned_batch(id, &queries).unwrap();
        for (q, a) in queries.iter().zip(&answers) {
            let a = a.as_ref().unwrap();
            let solo = pro_reliability(&g, &q.terminals, q.config).unwrap();
            assert_eq!(a.estimate.to_bits(), solo.estimate.to_bits());
            assert_eq!(a.lower_bound.to_bits(), solo.lower_bound.to_bits());
            assert_eq!(a.upper_bound.to_bits(), solo.upper_bound.to_bits());
            assert_eq!(a.samples_used, solo.samples_used);
            assert_eq!(a.exact, solo.exact);
        }
        // Within one batch the duplicate 4th query joins the first query's
        // jobs (counted as misses — nothing was in the cache yet). A second
        // identical batch is then served entirely from the cache.
        let again = engine.run_planned_batch(id, &queries).unwrap();
        for (first, second) in answers.iter().zip(&again) {
            let (first, second) = (first.as_ref().unwrap(), second.as_ref().unwrap());
            assert_eq!(second.cache_misses, 0);
            assert_eq!(second.cache_hits, first.cache_hits + first.cache_misses);
            assert_eq!(first.estimate.to_bits(), second.estimate.to_bits());
        }
    }

    #[test]
    fn repeated_batches_hit_the_cache() {
        let g = lollipop();
        let mut engine = Engine::new(EngineConfig::sequential());
        let id = engine.register("lollipop", g);
        let q = [kterminal(vec![0, 7], sampling_cfg(3))];
        let a1 = engine.run_planned_batch(id, &q).unwrap().remove(0).unwrap();
        let a2 = engine.run_planned_batch(id, &q).unwrap().remove(0).unwrap();
        assert!(a1.cache_misses > 0);
        assert_eq!(a2.cache_misses, 0);
        assert_eq!(a2.cache_hits, a1.cache_hits + a1.cache_misses);
        assert_eq!(a1.estimate.to_bits(), a2.estimate.to_bits());
        let stats = engine.cache_stats();
        assert!(stats.hits >= 1 && stats.misses >= 1);
    }

    #[test]
    fn per_query_errors_do_not_poison_the_batch() {
        let g = lollipop();
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("lollipop", g);
        let queries = [
            kterminal(vec![0, 4], ProConfig::default()),
            kterminal(vec![0, 99], ProConfig::default()), // out of range
            kterminal(vec![], ProConfig::default()),      // empty
            kterminal(vec![0, 7], ProConfig::default()),
        ];
        let answers = engine.run_planned_batch(id, &queries).unwrap();
        assert!(answers[0].is_ok());
        assert!(matches!(answers[1], Err(EngineError::Graph(_))));
        assert!(matches!(answers[2], Err(EngineError::Graph(_))));
        assert!(answers[3].is_ok());
    }

    #[test]
    fn unknown_graph_is_an_outer_error() {
        let engine = Engine::new(EngineConfig::default());
        let bogus = GraphId(7);
        assert!(matches!(
            engine.run_planned_batch(bogus, &[]),
            Err(EngineError::UnknownGraph(_))
        ));
    }

    #[test]
    fn worker_count_does_not_change_answers() {
        let g = lollipop();
        let queries: Vec<PlannedQuery> = [vec![0, 7], vec![1, 4, 6], vec![0, 4]]
            .into_iter()
            .map(|t| kterminal(t, sampling_cfg(5)))
            .collect();
        let mut seq = Engine::new(EngineConfig {
            workers: 1,
            plan_cache_capacity: 0,
        });
        let sid = seq.register("g", g.clone());
        let mut par = Engine::new(EngineConfig {
            workers: 8,
            plan_cache_capacity: 0,
        });
        let pid = par.register("g", g);
        let a = seq.run_planned_batch(sid, &queries).unwrap();
        let b = par.run_planned_batch(pid, &queries).unwrap();
        for (x, y) in a.iter().zip(&b) {
            let (x, y) = (x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(x.estimate.to_bits(), y.estimate.to_bits());
            assert_eq!(x.samples_used, y.samples_used);
        }
    }

    #[test]
    fn disconnected_terminals_answer_exact_zero() {
        let g = UncertainGraph::new(4, [(0, 1, 0.9), (2, 3, 0.9)]).unwrap();
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("disc", g);
        let a = engine
            .run_planned(id, &kterminal(vec![0, 2], ProConfig::default()))
            .unwrap();
        assert_eq!(a.estimate, 0.0);
        assert!(a.exact);
    }

    /// Complete graph on `n` vertices, p = 0.5 everywhere.
    fn clique(n: usize) -> UncertainGraph {
        netrel_datasets::clique_uniform(n, 0.5)
    }

    #[test]
    fn planner_takes_exact_route_on_sparse_fixture_bit_identically() {
        let g = lollipop();
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("lollipop", g.clone());
        for terminals in [vec![0, 4], vec![0, 7], vec![1, 4, 6]] {
            let q = PlannedQuery::new(terminals.clone(), PlanBudget::default());
            let a = engine.run_planned(id, &q).unwrap();
            assert!(a.routes.iter().all(|&r| r == Route::Exact), "{terminals:?}");
            assert!(a.exact);
            assert_eq!(a.samples_used, 0);
            assert_eq!((a.ci.lower, a.ci.upper), (a.estimate, a.estimate));
            // Bit-identical to the one-shot exact Pro solve.
            let solo = pro_reliability(
                &g,
                &terminals,
                netrel_core::ProConfig {
                    s2bdd: S2BddConfig::exact(),
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(a.estimate.to_bits(), solo.estimate.to_bits());
            assert_eq!(a.lower_bound.to_bits(), solo.lower_bound.to_bits());
            assert_eq!(a.upper_bound.to_bits(), solo.upper_bound.to_bits());
        }
    }

    #[test]
    fn planner_routes_dense_graph_to_bit_sampling_and_attaches_ci() {
        let g = clique(60);
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("clique", g);
        let q = PlannedQuery::new(vec![0, 59], PlanBudget::default());
        let a = engine.run_planned(id, &q).unwrap();
        assert!(a.routes.contains(&Route::BitSampling), "{:?}", a.routes);
        assert!(!a.exact);
        assert!(a.samples_used > 0);
        assert!(a.ci.contains(a.estimate));
        assert!(a.ci.width() > 0.0 || a.variance_estimate == 0.0);
        assert!(a.lower_bound <= a.estimate && a.estimate <= a.upper_bound);
    }

    #[test]
    fn world_bank_reuse_never_leaks_into_answers() {
        // Two bit-sampled queries on one engine share the memoized
        // reachability matrix (same graph, same derived seed, same source);
        // a fresh engine that only ever sees the second query must still
        // produce it byte-identically — reuse is wall-clock only.
        let g = clique(55);
        let mut warm = Engine::new(EngineConfig::default());
        let wid = warm.register("clique", g.clone());
        let first = PlannedQuery::new(vec![0, 54], PlanBudget::default());
        let second = PlannedQuery::new(vec![0, 30], PlanBudget::default());
        let a1 = warm.run_planned(wid, &first).unwrap();
        let a2 = warm.run_planned(wid, &second).unwrap();
        assert!(a1.routes.contains(&Route::BitSampling), "{:?}", a1.routes);

        let mut cold = Engine::new(EngineConfig::default());
        let cid = cold.register("clique", g);
        let b2 = cold.run_planned(cid, &second).unwrap();
        assert_eq!(a2.estimate.to_bits(), b2.estimate.to_bits());
        assert_eq!(
            a2.variance_estimate.to_bits(),
            b2.variance_estimate.to_bits()
        );
        assert_eq!(a2.samples_used, b2.samples_used);
        assert_eq!(a2.routes, b2.routes);
    }

    #[test]
    fn planned_answers_are_deterministic_and_cacheable() {
        let g = clique(40);
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("clique", g.clone());
        let q = [PlannedQuery::new(vec![0, 39], PlanBudget::default())];
        let a1 = engine.run_planned_batch(id, &q).unwrap().remove(0).unwrap();
        let a2 = engine.run_planned_batch(id, &q).unwrap().remove(0).unwrap();
        assert!(a1.cache_misses > 0);
        assert_eq!(a2.cache_misses, 0, "second run is served from the cache");
        assert_eq!(a1.estimate.to_bits(), a2.estimate.to_bits());
        // A separate engine (fresh cache, different worker count) agrees.
        let mut other = Engine::new(EngineConfig::sequential());
        let oid = other.register("clique", g);
        let b = other.run_planned_batch(oid, &q).unwrap().remove(0).unwrap();
        assert_eq!(a1.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a1.routes, b.routes);
    }

    #[test]
    fn node_budget_safety_net_still_answers_when_model_is_forced_wrong() {
        // A budget of 2 nodes under-provisions even the lollipop: the exact
        // route cannot be chosen, and whatever route is, the answer must
        // come back with valid bounds and CI rather than an error.
        let g = lollipop();
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("lollipop", g.clone());
        let budget = PlanBudget {
            node_budget: 2,
            sample_budget: 2_000,
            ..Default::default()
        };
        let a = engine
            .run_planned(id, &PlannedQuery::new(vec![0, 7], budget))
            .unwrap();
        assert!(a.lower_bound <= a.estimate && a.estimate <= a.upper_bound);
        assert!(a.ci.contains(a.estimate));
        let truth = netrel_bdd::brute_force_reliability(&g, &[0, 7]);
        assert!(a.lower_bound <= truth + 1e-12 && truth - 1e-12 <= a.upper_bound);
    }

    #[test]
    fn degenerate_variance_never_yields_a_certain_estimate() {
        // Every sampled world connects, the Wald variance is exactly 0, and
        // without the rule-of-three guard the "95% CI" would be the lying
        // point interval [1, 1]. Planned: near-certain edges on a clique.
        // Fixed: a width-0 diagram on a 4-cycle whose 10 draws all agree.
        let cycle =
            UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.8), (2, 3, 0.9), (3, 0, 0.7)]).unwrap();
        let width0 = ProConfig {
            s2bdd: S2BddConfig {
                max_width: 0,
                samples: 10,
                ..Default::default()
            },
            ..Default::default()
        };
        for (g, q) in [
            (
                netrel_datasets::clique_uniform(50, 0.95),
                PlannedQuery::new(vec![0, 49], PlanBudget::default()),
            ),
            (cycle, kterminal(vec![0, 1, 2], width0)),
        ] {
            let mut engine = Engine::new(EngineConfig::default());
            let id = engine.register("g", g);
            let a = engine.run_planned(id, &q).unwrap();
            assert!(!a.exact);
            assert_eq!(a.estimate, 1.0, "every draw connects");
            assert_eq!(a.variance_estimate, 0.0);
            let slack = 3.0 / a.samples_used as f64;
            assert!((a.ci.lower - (1.0 - slack)).abs() < 1e-12, "{:?}", a.ci);
            assert_eq!(a.ci.upper, 1.0);
            assert!(a.ci.width() > 0.0);
        }
    }

    /// Complete graph on 7 vertices (21 edges — above the d-hop exact
    /// enumeration limit) with heterogeneous probabilities; at `d = 2`
    /// every vertex is one hop from both endpoints, so distance pruning
    /// keeps the part wide.
    fn k7() -> UncertainGraph {
        let mut edges = Vec::new();
        for u in 0..7usize {
            for v in (u + 1)..7 {
                edges.push((u, v, 0.15 + 0.1 * ((u + v) % 5) as f64));
            }
        }
        UncertainGraph::new(7, edges).unwrap()
    }

    #[test]
    fn semantics_batch_answers_match_oneshot_bitwise() {
        let g = lollipop();
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("lollipop", g.clone());
        let cases = [
            (SemanticsSpec::TwoTerminal, vec![0, 7]),
            (SemanticsSpec::KTerminal, vec![1, 4, 6]),
            (SemanticsSpec::AllTerminal, vec![]),
            (SemanticsSpec::DHop { d: 6 }, vec![0, 7]),
            (SemanticsSpec::DHop { d: 2 }, vec![0, 7]), // trivially zero
            (SemanticsSpec::ReachSet, vec![3]),
        ];
        let queries: Vec<PlannedQuery> = cases
            .iter()
            .map(|(s, t)| PlannedQuery::fixed(*s, t.clone(), sampling_cfg(11)))
            .collect();
        let answers = engine.run_planned_batch(id, &queries).unwrap();
        for (q, a) in queries.iter().zip(&answers) {
            let a = a.as_ref().unwrap();
            let solo = netrel_core::semantics_reliability(&g, q.semantics, &q.terminals, q.config)
                .unwrap();
            assert_eq!(
                a.estimate.to_bits(),
                solo.estimate.to_bits(),
                "{:?}",
                q.semantics
            );
            assert_eq!(a.lower_bound.to_bits(), solo.lower_bound.to_bits());
            assert_eq!(a.upper_bound.to_bits(), solo.upper_bound.to_bits());
            assert_eq!(a.samples_used, solo.samples_used);
            assert_eq!(a.exact, solo.exact);
            assert_eq!(a.semantics, q.semantics);
        }
    }

    #[test]
    fn semantics_answers_agree_with_oracle() {
        let g = lollipop();
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("lollipop", g.clone());
        let cases = [
            (SemanticsSpec::TwoTerminal, vec![0, 7]),
            (SemanticsSpec::KTerminal, vec![1, 4, 6]),
            (SemanticsSpec::AllTerminal, vec![]),
            (SemanticsSpec::DHop { d: 6 }, vec![0, 7]),
            (SemanticsSpec::ReachSet, vec![0]),
        ];
        for (spec, t) in cases {
            let truth = netrel_core::oracle_value(&g, spec, &t).unwrap();
            let a = engine
                .run_planned(id, &PlannedQuery::fixed(spec, t, ProConfig::default()))
                .unwrap();
            assert!(
                (a.estimate - truth).abs() < 1e-9,
                "{spec:?}: {} vs oracle {truth}",
                a.estimate
            );
        }
    }

    #[test]
    fn wide_dhop_batch_matches_oneshot_bitwise() {
        // 21 edges at d = 2: the fixed policy must take the hop-bounded
        // sampling fallback, with the same per-part seed as the one-shot
        // pipeline.
        let g = k7();
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("k7", g.clone());
        let q = PlannedQuery::fixed(SemanticsSpec::DHop { d: 2 }, vec![0, 6], sampling_cfg(9));
        let a = engine.run_planned(id, &q).unwrap();
        let solo =
            netrel_core::semantics_reliability(&g, q.semantics, &q.terminals, q.config).unwrap();
        assert!(!a.exact, "oversized d-hop part must be sampled");
        assert!(a.samples_used > 0);
        assert_eq!(a.estimate.to_bits(), solo.estimate.to_bits());
        assert_eq!(a.samples_used, solo.samples_used);
    }

    #[test]
    fn planned_dhop_small_part_is_exact_enumeration() {
        let g = lollipop();
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("lollipop", g.clone());
        let spec = SemanticsSpec::DHop { d: 6 };
        let q = PlannedQuery::with_semantics(
            spec,
            vec![0, 7],
            ProConfig::default(),
            PlanBudget::default(),
        );
        let a = engine.run_planned(id, &q).unwrap();
        assert!(
            a.routes.iter().all(|&r| r == Route::Exact),
            "{:?}",
            a.routes
        );
        assert!(a.exact);
        assert_eq!((a.ci.lower, a.ci.upper), (a.estimate, a.estimate));
        let truth = netrel_core::oracle_value(&g, spec, &[0, 7]).unwrap();
        assert!((a.estimate - truth).abs() < 1e-9);
    }

    #[test]
    fn planned_wide_dhop_routes_to_bit_sampling_with_ci() {
        let g = k7();
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("k7", g);
        let spec = SemanticsSpec::DHop { d: 2 };
        let q = PlannedQuery::with_semantics(
            spec,
            vec![0, 6],
            ProConfig::default(),
            PlanBudget::default(),
        );
        let a = engine.run_planned(id, &q).unwrap();
        assert!(a.routes.contains(&Route::BitSampling), "{:?}", a.routes);
        assert!(!a.exact);
        assert!(a.samples_used > 0);
        assert!(a.ci.contains(a.estimate));
        assert_eq!(a.semantics, spec);
    }

    #[test]
    fn reach_set_ci_lives_in_the_count_range() {
        // Near-certain 20-clique: the expected reachable-set size is close
        // to 20 — the CI must live in the count range, not be squashed into
        // [0, 1] like a probability.
        let g = netrel_datasets::clique_uniform(20, 0.9);
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("hot-clique", g);
        let q = PlannedQuery::with_semantics(
            SemanticsSpec::ReachSet,
            vec![0],
            ProConfig::default(),
            PlanBudget::default(),
        );
        let a = engine.run_planned(id, &q).unwrap();
        assert!(
            a.estimate > 10.0,
            "estimate {} should be near 20",
            a.estimate
        );
        assert!(a.ci.contains(a.estimate), "{:?} vs {}", a.ci, a.estimate);
        assert!(a.ci.upper <= 20.0 + 1e-9);
        assert!(a.upper_bound <= 20.0 + 1e-9);
    }

    #[test]
    fn time_hint_only_tightens_never_breaks() {
        let g = lollipop();
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("lollipop", g);
        let budget = PlanBudget {
            time_hint_ms: Some(1),
            ..Default::default()
        };
        let a = engine
            .run_planned(id, &PlannedQuery::new(vec![0, 7], budget))
            .unwrap();
        assert!(a.lower_bound <= a.estimate && a.estimate <= a.upper_bound);
        assert!(a.ci.contains(a.estimate));
    }
}
