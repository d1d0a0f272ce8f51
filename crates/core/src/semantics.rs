//! Reliability **semantics** over the decompose-then-combine pipeline.
//!
//! The paper's `Pro` pipeline (preprocess → per-part solve → combine) is
//! semantics-agnostic in principle: preprocessing yields small canonical
//! *parts*, each part computes some probability, and the part results
//! compose into the query answer. This module runs every [`SemanticsSpec`]
//! through that one pipeline:
//!
//! 1. **planning** — [`SemanticsSpec::plan`] decomposes `(graph, terminals)`
//!    into a [`SemanticsPlan`]: parts (each tagged with the
//!    [`PartComputation`] it answers), part *groups*, and an additive offset;
//! 2. **part solving** — each part is computed deterministically
//!    ([`solve_semantics_part`]) or by flat possible-world sampling
//!    ([`sample_semantics_part`]), dispatching on the part's computation
//!    alone;
//! 3. **combination** — [`combine_semantics_plan`] recombines the solved
//!    parts into the final [`ProResult`]: per group the classic product
//!    composition `pb_g · Π R̂ᵢ` of [`combine_part_results`], summed across
//!    groups plus the offset.
//!
//! Five semantics ship: k-terminal connectivity (the default — the paper's
//! query; two-terminal is the `k = 2` case), strict two-terminal,
//! all-terminal, distance-constrained d-hop, and the expected reachable-set
//! size.
//!
//! **Bit-identity contract**: for connectivity semantics the plan is one
//! group over all parts with offset 0, and [`combine_semantics_plan`]
//! delegates that shape verbatim to `combine_part_results` — so routing a
//! two-terminal (or any k-terminal) query through the plan/combine pipeline
//! produces answers bit-identical to one-shot
//! [`pro_reliability`](crate::pro_reliability). The contract is pinned by
//! `tests/semantics_contract.rs` and the engine's planner contract suite.
//!
//! ```
//! use netrel_core::semantics::{semantics_reliability, SemanticsSpec};
//! use netrel_core::ProConfig;
//! use netrel_ugraph::UncertainGraph;
//!
//! let g = UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9), (3, 0, 0.9)]).unwrap();
//! // Within 2 hops, opposite corners connect through either 2-edge path.
//! let r = semantics_reliability(&g, SemanticsSpec::DHop { d: 2 }, &[0, 2], ProConfig::default())
//!     .unwrap();
//! let truth = 1.0 - (1.0 - 0.81f64) * (1.0 - 0.81);
//! assert!(r.exact && (r.estimate - truth).abs() < 1e-12);
//! ```

// Answer-affecting region (docs/lints.md): no clock reads, thread-count
// probes or hash-order iteration, and every `SemanticsSpec` match names
// each variant.
#![deny(
    clippy::disallowed_methods,
    clippy::iter_over_hash_type,
    clippy::wildcard_enum_match_arm
)]

use crate::dhop::{dhop_exact_part, sample_dhop_part, DHOP_EXACT_EDGE_LIMIT};
use crate::pro::{combine_part_results, part_s2bdd_config, zero_pro_result, ProConfig, ProResult};
use crate::sampling::{sample_part_result, SamplingConfig};
use netrel_preprocess::{
    preprocess_with_index, GraphIndex, PreprocessConfig, PreprocessStats, Preprocessed,
};
use netrel_s2bdd::{S2Bdd, S2BddConfig, S2BddResult};
use netrel_ugraph::traversal::bfs_distances;
use netrel_ugraph::{GraphError, UncertainGraph, VertexId};

/// Value-level identifier of a reliability semantics: which question a
/// query asks of the uncertain graph. `Copy + Eq + Hash` so it can ride in
/// queries and cache keys; [`SemanticsSpec::plan`] decomposes a query under
/// it and [`SemanticsSpec::value_upper`] bounds its answers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SemanticsSpec {
    /// Strict two-terminal s–t reliability: exactly two distinct terminals
    /// required. Identical answers to [`SemanticsSpec::KTerminal`] on the
    /// same pair — the variant only adds arity validation.
    TwoTerminal,
    /// k-terminal reliability — the probability that all query terminals
    /// lie in one connected component (the paper's query; the seed
    /// behavior, hence the default). Two-terminal queries are the `k = 2`
    /// case.
    #[default]
    KTerminal,
    /// All-terminal reliability: the probability the sampled world is
    /// connected as a whole (`T = V`). The query's terminal list is
    /// ignored.
    AllTerminal,
    /// Distance-constrained two-terminal reliability: the probability an
    /// s–t path of at most `d` edges exists.
    DHop {
        /// Maximum path length in hops.
        d: u32,
    },
    /// Expected reachable-set size `E[|R(s)|]` from a single source
    /// terminal, in `[1, |V|]` (the source always reaches itself).
    ReachSet,
}

impl SemanticsSpec {
    /// Stable lowercase name (used by the JSON service and answers).
    pub fn name(self) -> &'static str {
        match self {
            SemanticsSpec::TwoTerminal => "two-terminal",
            SemanticsSpec::KTerminal => "k-terminal",
            SemanticsSpec::AllTerminal => "all-terminal",
            SemanticsSpec::DHop { .. } => "d-hop",
            SemanticsSpec::ReachSet => "reach-set",
        }
    }

    /// Decompose `(g, terminals)` into a [`SemanticsPlan`]. `index` is the
    /// terminal-independent [`GraphIndex`] of `g`; `cfg` carries the
    /// preprocessing toggles, which apply per semantics:
    ///
    /// * **k-terminal** — the classic `Pro` preprocessing: prune → bridge
    ///   decomposition → series/parallel transform, one group over all
    ///   parts.
    /// * **two-terminal** — k-terminal's plan after validating that exactly
    ///   two distinct terminals were given.
    /// * **all-terminal** — k-terminal with `T = V`; the query's terminal
    ///   list is ignored. Every bridge is mandatory and every 2ECC keeps all
    ///   its vertices as terminals, so the classic pipeline applies
    ///   unchanged.
    /// * **d-hop** — one hop-bounded part over the distance-pruned subgraph
    ///   (hop counts do not factor across bridges).
    /// * **reach-set** — one two-terminal group per target plus offset 1,
    ///   with parts shared between targets deduplicated.
    pub fn plan(
        self,
        g: &UncertainGraph,
        index: &GraphIndex,
        terminals: &[VertexId],
        cfg: PreprocessConfig,
    ) -> Result<SemanticsPlan, GraphError> {
        match self {
            SemanticsSpec::KTerminal => {
                let pre = preprocess_with_index(g, index, terminals, cfg)?;
                Ok(SemanticsPlan::from_preprocessed(self, pre))
            }
            SemanticsSpec::TwoTerminal => {
                let t = g.validate_terminals(terminals)?;
                if t.len() != 2 {
                    return Err(GraphError::InvalidTerminals {
                        reason: format!(
                            "two-terminal semantics needs exactly two distinct terminals, got {}",
                            t.len()
                        ),
                    });
                }
                let pre = preprocess_with_index(g, index, &t, cfg)?;
                Ok(SemanticsPlan::from_preprocessed(self, pre))
            }
            SemanticsSpec::AllTerminal => {
                if g.num_vertices() == 0 {
                    return Err(GraphError::InvalidTerminals {
                        reason: "all-terminal semantics on an empty graph".into(),
                    });
                }
                let all: Vec<VertexId> = (0..g.num_vertices()).collect();
                let pre = preprocess_with_index(g, index, &all, cfg)?;
                Ok(SemanticsPlan::from_preprocessed(self, pre))
            }
            SemanticsSpec::DHop { d } => plan_dhop(g, terminals, d, cfg),
            SemanticsSpec::ReachSet => plan_reach_set(g, index, terminals, cfg),
        }
    }

    /// Upper end of the value range this semantics answers: 1 for
    /// probabilities, `|V|` for expected reachable-set size. Consumers
    /// clamping confidence intervals must use this instead of a hard-coded
    /// 1.
    pub fn value_upper(self, g: &UncertainGraph) -> f64 {
        match self {
            SemanticsSpec::ReachSet => g.num_vertices() as f64,
            SemanticsSpec::TwoTerminal
            | SemanticsSpec::KTerminal
            | SemanticsSpec::AllTerminal
            | SemanticsSpec::DHop { .. } => 1.0,
        }
    }
}

// Manual impl (the vendored serde_derive shim handles only structs):
// serialized as `{"kind": <name>}` plus `"d"` for the d-hop variant.
#[cfg(feature = "serde")]
impl serde::Serialize for SemanticsSpec {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![(
            "kind".to_string(),
            serde::Value::Str(self.name().to_string()),
        )];
        if let SemanticsSpec::DHop { d } = self {
            fields.push(("d".to_string(), serde::Value::U64(u64::from(*d))));
        }
        serde::Value::Map(fields)
    }
}

/// What one decomposed part computes. Only two part-level computations
/// exist across all shipped semantics: plain terminal connectivity
/// (S2BDD-solvable — k-terminal, all-terminal, and reach-set plans all
/// reduce to it) and hop-bounded s–t reachability. Part caches must key on
/// this discriminant: a d-hop part over the same `(edges, terminals)` is a
/// different subproblem than a connectivity part, and distinct hop bounds
/// are distinct subproblems.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PartComputation {
    /// Probability that the part's terminals are all connected.
    #[default]
    Connectivity,
    /// Probability that the part's two terminals are joined by a path of at
    /// most `d` edges.
    DHop {
        /// Maximum path length in hops.
        d: u32,
    },
}

/// One decomposed subproblem of a semantics plan: a subgraph, its terminal
/// set, and the computation it answers.
#[derive(Clone, Debug)]
pub struct SemPart {
    /// Subgraph to solve (densely renumbered).
    pub graph: UncertainGraph,
    /// Terminals within the part.
    pub terminals: Vec<VertexId>,
    /// What the part computes.
    pub computation: PartComputation,
}

impl SemPart {
    /// A connectivity part (the classic `Pro` subproblem).
    pub fn connectivity(graph: UncertainGraph, terminals: Vec<VertexId>) -> Self {
        SemPart {
            graph,
            terminals,
            computation: PartComputation::Connectivity,
        }
    }
}

/// One multiplicative group of a plan: the member parts' results multiply
/// together with the group's bridge factor, `pb · Π_{i ∈ parts} R̂ᵢ`, and
/// the group values sum into the final answer.
#[derive(Clone, Debug)]
pub struct PartGroup {
    /// Bridge-probability factor of the group (Lemma 5.1).
    pub pb: f64,
    /// Indices into [`SemanticsPlan::parts`]. A part may belong to several
    /// groups (reach-set plans dedupe shared parts across targets).
    pub parts: Vec<usize>,
}

/// The decomposition [`SemanticsSpec::plan`] produced for one query:
/// `answer = offset + Σ_g pb_g · Π_{i ∈ g} R̂ᵢ` over the (deduplicated)
/// `parts`. Connectivity semantics produce a single group over all parts
/// with offset 0 — exactly the classic `Pro` shape.
#[derive(Clone, Debug)]
pub struct SemanticsPlan {
    /// The semantics that produced the plan.
    pub spec: SemanticsSpec,
    /// Additive constant (the already-decided mass; e.g. the source vertex
    /// itself for reach-set plans).
    pub offset: f64,
    /// The answer is provably 0 (connectivity semantics whose terminals
    /// cannot connect at all); groups and parts are empty.
    pub trivially_zero: bool,
    /// Multiplicative groups summed into the answer.
    pub groups: Vec<PartGroup>,
    /// Deduplicated parts, referenced by the groups. Per-part solver seeds
    /// derive from the index in this list ([`part_s2bdd_config`]).
    pub parts: Vec<SemPart>,
    /// Preprocessing statistics for the whole plan.
    pub stats: PreprocessStats,
}

impl SemanticsPlan {
    /// Wrap the classic preprocessing output as a single-group plan (the
    /// shape every connectivity semantics produces). The combine fast path
    /// reproduces `combine_part_results` on this shape bit for bit.
    pub fn from_preprocessed(spec: SemanticsSpec, pre: Preprocessed) -> Self {
        if pre.trivially_zero {
            return SemanticsPlan {
                spec,
                offset: 0.0,
                trivially_zero: true,
                groups: Vec::new(),
                parts: Vec::new(),
                stats: pre.stats,
            };
        }
        let parts: Vec<SemPart> = pre
            .parts
            .into_iter()
            .map(|p| SemPart::connectivity(p.graph, p.terminals))
            .collect();
        SemanticsPlan {
            spec,
            offset: 0.0,
            trivially_zero: false,
            groups: vec![PartGroup {
                pb: pre.pb,
                parts: (0..parts.len()).collect(),
            }],
            parts,
            stats: pre.stats,
        }
    }

    /// A provably-zero plan (connectivity semantics only).
    fn zero(spec: SemanticsSpec, stats: PreprocessStats) -> Self {
        SemanticsPlan {
            spec,
            offset: 0.0,
            trivially_zero: true,
            groups: Vec::new(),
            parts: Vec::new(),
            stats,
        }
    }
}

/// The d-hop plan. Hop counts do not factor across bridges (a bridge
/// spends a hop), so the bridge decomposition and series/parallel
/// transforms are *not* applicable. The plan is a single d-hop part over
/// the distance-pruned subgraph: vertex `v` survives iff
/// `dist(s, v) + dist(v, t) ≤ d` in the certain graph (a vertex off
/// every short-enough path cannot influence the indicator). `cfg.prune`
/// toggles the pruning for ablation; the trivially-zero check (`t`
/// unreachable, or `dist(s, t) > d` even with all edges present) always
/// runs. Distances are `u32::MAX` for unreachable vertices, so neither
/// test may let that value pass as a length of at most `d`.
fn plan_dhop(
    g: &UncertainGraph,
    terminals: &[VertexId],
    d: u32,
    cfg: PreprocessConfig,
) -> Result<SemanticsPlan, GraphError> {
    let t = g.validate_terminals(terminals)?;
    if t.len() != 2 {
        return Err(GraphError::InvalidTerminals {
            reason: format!(
                "d-hop semantics needs exactly two distinct terminals, got {}",
                t.len()
            ),
        });
    }
    let (s, target) = (t[0], t[1]);
    let original_edges = g.num_edges();
    let ds = bfs_distances(g, s);
    if ds[target] == u32::MAX || ds[target] > d {
        let stats = PreprocessStats {
            original_edges,
            pruned_edges: 0,
            num_parts: 0,
            max_part_edges: 0,
            reduced_ratio: 0.0,
            transform_rules: 0,
        };
        return Ok(SemanticsPlan::zero(SemanticsSpec::DHop { d }, stats));
    }
    let part = if cfg.prune {
        let dt = bfs_distances(g, target);
        let keep: Vec<bool> = (0..g.num_vertices())
            .map(|v| u64::from(ds[v]) + u64::from(dt[v]) <= u64::from(d))
            .collect();
        let (sub, map) = g.induced_subgraph(&keep);
        let terminals = vec![
            map[s].expect("s survives its own distance filter"),
            map[target].expect("t survives its own distance filter"),
        ];
        SemPart {
            graph: sub,
            terminals,
            computation: PartComputation::DHop { d },
        }
    } else {
        SemPart {
            graph: g.clone(),
            terminals: vec![s, target],
            computation: PartComputation::DHop { d },
        }
    };
    let part_edges = part.graph.num_edges();
    let stats = PreprocessStats {
        original_edges,
        pruned_edges: part_edges,
        num_parts: 1,
        max_part_edges: part_edges,
        reduced_ratio: if original_edges > 0 {
            part_edges as f64 / original_edges as f64
        } else {
            0.0
        },
        transform_rules: 0,
    };
    Ok(SemanticsPlan {
        spec: SemanticsSpec::DHop { d },
        offset: 0.0,
        trivially_zero: false,
        groups: vec![PartGroup {
            pb: 1.0,
            parts: vec![0],
        }],
        parts: vec![part],
        stats,
    })
}

/// The reach-set plan, by linearity of expectation:
/// `E[|R(s)|] = 1 + Σ_{v ≠ s} R[{s, v}]`, so the plan is one classic
/// two-terminal group per target `v` (each the full
/// prune/decompose/transform pipeline), with offset 1 for the source
/// itself. Targets provably unreachable contribute no group;
/// parts shared between targets (common on bridge-heavy graphs, where
/// many targets reduce to the same 2ECC subproblems) are deduplicated,
/// so each distinct subproblem is solved once.
fn plan_reach_set(
    g: &UncertainGraph,
    index: &GraphIndex,
    terminals: &[VertexId],
    cfg: PreprocessConfig,
) -> Result<SemanticsPlan, GraphError> {
    let t = g.validate_terminals(terminals)?;
    if t.len() != 1 {
        return Err(GraphError::InvalidTerminals {
            reason: format!(
                "reach-set semantics takes exactly one source terminal, got {}",
                t.len()
            ),
        });
    }
    let s = t[0];
    let mut plan = SemanticsPlan {
        spec: SemanticsSpec::ReachSet,
        offset: 1.0,
        trivially_zero: false,
        groups: Vec::new(),
        parts: Vec::new(),
        stats: PreprocessStats {
            original_edges: g.num_edges(),
            ..Default::default()
        },
    };
    // Structural fingerprint → index into `plan.parts` (same identity a
    // part-level plan cache uses: edge list with probability bits, plus
    // the terminal set — all parts here are connectivity parts).
    type Fingerprint = (Vec<(u32, u32, u64)>, Vec<u32>);
    let mut seen: std::collections::HashMap<Fingerprint, usize> = std::collections::HashMap::new();
    for v in 0..g.num_vertices() {
        if v == s {
            continue;
        }
        let pre = preprocess_with_index(g, index, &[s, v], cfg)?;
        plan.stats.pruned_edges = plan.stats.pruned_edges.max(pre.stats.pruned_edges);
        plan.stats.transform_rules += pre.stats.transform_rules;
        if pre.trivially_zero {
            continue;
        }
        let mut group = PartGroup {
            pb: pre.pb,
            parts: Vec::with_capacity(pre.parts.len()),
        };
        for part in pre.parts {
            let fp: Fingerprint = (
                part.graph
                    .edges()
                    .iter()
                    .map(|e| (e.u as u32, e.v as u32, e.p.to_bits()))
                    .collect(),
                part.terminals.iter().map(|&t| t as u32).collect(),
            );
            let idx = *seen.entry(fp).or_insert_with(|| {
                plan.parts
                    .push(SemPart::connectivity(part.graph, part.terminals));
                plan.parts.len() - 1
            });
            group.parts.push(idx);
        }
        plan.groups.push(group);
    }
    plan.stats.num_parts = plan.parts.len();
    plan.stats.max_part_edges = plan
        .parts
        .iter()
        .map(|p| p.graph.num_edges())
        .max()
        .unwrap_or(0);
    plan.stats.reduced_ratio = if plan.stats.original_edges > 0 {
        plan.stats.max_part_edges as f64 / plan.stats.original_edges as f64
    } else {
        0.0
    };
    Ok(plan)
}

/// Deterministic solver for one part: the configured S2BDD for
/// connectivity parts; for d-hop parts, exact recursive-conditioning enumeration when
/// the part has at most [`DHOP_EXACT_EDGE_LIMIT`] edges, otherwise
/// hop-bounded sampling funded by `cfg.samples` under `cfg.seed`.
pub fn solve_semantics_part(part: &SemPart, cfg: S2BddConfig) -> Result<S2BddResult, GraphError> {
    match part.computation {
        PartComputation::Connectivity => S2Bdd::solve(&part.graph, &part.terminals, cfg),
        PartComputation::DHop { d } => {
            if part.graph.num_edges() <= DHOP_EXACT_EDGE_LIMIT {
                dhop_exact_part(part, d)
            } else {
                sample_dhop_part(
                    part,
                    d,
                    SamplingConfig {
                        samples: cfg.samples,
                        estimator: cfg.estimator,
                        seed: cfg.seed,
                        threads: 1,
                    },
                )
            }
        }
    }
}

/// Exact-only solver for one part: unbounded-width S2BDD for connectivity
/// parts, full enumeration for d-hop parts *regardless of size* (cost
/// `O(2^|E|)` worst case — callers bound the part first; the engine's
/// planner routes oversized d-hop parts to sampling instead).
pub fn exact_semantics_part(part: &SemPart) -> Result<S2BddResult, GraphError> {
    match part.computation {
        PartComputation::Connectivity => {
            S2Bdd::solve(&part.graph, &part.terminals, S2BddConfig::exact())
        }
        PartComputation::DHop { d } => dhop_exact_part(part, d),
    }
}

/// Flat-sampling solver for one part (the planner's wide-part route):
/// [`sample_part_result`] for connectivity parts, the hop-bounded world sampler for d-hop parts. Either way the
/// outcome is shaped as an [`S2BddResult`] with the trivial `[0, 1]` proven
/// bounds, so it composes through [`combine_part_results`].
pub fn sample_semantics_part(
    part: &SemPart,
    cfg: SamplingConfig,
) -> Result<S2BddResult, GraphError> {
    match part.computation {
        PartComputation::Connectivity => sample_part_result(&part.graph, &part.terminals, cfg),
        PartComputation::DHop { d } => sample_dhop_part(part, d, cfg),
    }
}

/// Whether a group's member list is exactly `[0, 1, …, n-1]` — the classic
/// single-group shape whose combine must stay bit-identical to
/// [`combine_part_results`].
fn is_identity(parts: &[usize], n: usize) -> bool {
    parts.len() == n && parts.iter().enumerate().all(|(i, &p)| i == p)
}

/// Recombine solved parts (in [`SemanticsPlan::parts`] order) into the
/// final answer: `offset + Σ_g pb_g · Π_{i ∈ g} R̂ᵢ`.
///
/// * **Fast path** — a single identity group with offset 0 (every
///   connectivity semantics) delegates to [`combine_part_results`]
///   verbatim, preserving the bit-identity contract with one-shot
///   [`pro_reliability`](crate::pro_reliability).
/// * **General path** — per group the same product composition (estimate,
///   proven bounds, Theorem-4 variance), then summed across groups plus the
///   offset. Group bounds sum soundly without any independence assumption
///   (expectation is linear). Groups *share* edges and deduplicated parts,
///   so their estimators are correlated; the cross-group variance is the
///   conservative Cauchy–Schwarz bound `(Σ_g σ_g)²`, which is exact under
///   perfect positive correlation and an upper bound otherwise.
///
/// `pb` of the returned result is the single group's factor when the plan
/// has exactly one group, else 1.0 (a multi-group plan has no single bridge
/// factor).
pub fn combine_semantics_plan(plan: &SemanticsPlan, solved: Vec<S2BddResult>) -> ProResult {
    if plan.trivially_zero {
        return zero_pro_result(plan.stats);
    }
    if plan.offset == 0.0
        && plan.groups.len() == 1
        && is_identity(&plan.groups[0].parts, solved.len())
    {
        return combine_part_results(plan.groups[0].pb, plan.stats, solved);
    }
    let mut estimate = plan.offset;
    let mut lower = plan.offset;
    let mut upper = plan.offset;
    let mut exact = true;
    let mut sd_sum = 0.0f64;
    for group in &plan.groups {
        let members: Vec<S2BddResult> = group.parts.iter().map(|&i| solved[i].clone()).collect();
        let r = combine_part_results(group.pb, PreprocessStats::default(), members);
        estimate += r.estimate;
        lower += r.lower_bound;
        upper += r.upper_bound;
        exact &= r.exact;
        sd_sum += r.variance_estimate.sqrt();
    }
    let samples_used = solved.iter().map(|r| r.samples_used).sum();
    ProResult {
        estimate,
        lower_bound: lower,
        upper_bound: upper.max(lower),
        exact,
        pb: if plan.groups.len() == 1 {
            plan.groups[0].pb
        } else {
            1.0
        },
        samples_used,
        preprocess_stats: plan.stats,
        parts: solved,
        variance_estimate: sd_sum * sd_sum,
    }
}

/// Run a semantics end to end on `(g, terminals)` — the generalization of
/// [`pro_reliability`](crate::pro_reliability), which is exactly this with
/// [`SemanticsSpec::KTerminal`].
pub fn semantics_reliability(
    g: &UncertainGraph,
    spec: SemanticsSpec,
    terminals: &[VertexId],
    cfg: ProConfig,
) -> Result<ProResult, GraphError> {
    let index = GraphIndex::build(g);
    semantics_reliability_with_index(g, &index, spec, terminals, cfg)
}

/// [`semantics_reliability`] against a precomputed terminal-independent
/// [`GraphIndex`] of `g`. Behavior and draws are identical; the index only
/// removes per-call recomputation of terminal-independent structure.
///
/// Plan, solve each part in part order with [`solve_semantics_part`], and
/// combine. Part seeds derive from the part index ([`part_s2bdd_config`]),
/// so the engine, which schedules the same parts across a whole batch,
/// reproduces these draws exactly.
pub fn semantics_reliability_with_index(
    g: &UncertainGraph,
    index: &GraphIndex,
    spec: SemanticsSpec,
    terminals: &[VertexId],
    cfg: ProConfig,
) -> Result<ProResult, GraphError> {
    let plan = spec.plan(g, index, terminals, cfg.preprocess)?;
    let solved = plan
        .parts
        .iter()
        .enumerate()
        .map(|(i, part)| solve_semantics_part(part, part_s2bdd_config(cfg.s2bdd, i)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(combine_semantics_plan(&plan, solved))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pro_reliability;

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
    fn kterminal_is_bit_identical_to_pro() {
        let g = lollipop();
        for t in [vec![0, 4], vec![0, 7], vec![1, 4, 6]] {
            for cfg in [
                ProConfig::default(),
                ProConfig {
                    s2bdd: S2BddConfig {
                        max_width: 2,
                        samples: 500,
                        seed: 9,
                        ..Default::default()
                    },
                    ..Default::default()
                },
            ] {
                let a = pro_reliability(&g, &t, cfg).unwrap();
                let b = semantics_reliability(&g, SemanticsSpec::KTerminal, &t, cfg).unwrap();
                assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{t:?}");
                assert_eq!(a.lower_bound.to_bits(), b.lower_bound.to_bits());
                assert_eq!(a.upper_bound.to_bits(), b.upper_bound.to_bits());
                assert_eq!(a.samples_used, b.samples_used);
                assert_eq!(a.exact, b.exact);
            }
        }
    }

    #[test]
    fn two_terminal_validates_arity() {
        let g = lollipop();
        for bad in [vec![0], vec![0, 1, 2], vec![3, 3]] {
            let r =
                semantics_reliability(&g, SemanticsSpec::TwoTerminal, &bad, ProConfig::default());
            assert!(r.is_err(), "{bad:?} must be rejected");
        }
        let ok = semantics_reliability(
            &g,
            SemanticsSpec::TwoTerminal,
            &[0, 7],
            ProConfig::default(),
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn dhop_trivially_zero_beyond_diameter() {
        let g = UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.9), (2, 3, 0.9)]).unwrap();
        let r = semantics_reliability(
            &g,
            SemanticsSpec::DHop { d: 2 },
            &[0, 3],
            ProConfig::default(),
        )
        .unwrap();
        assert_eq!(r.estimate, 0.0);
        assert!(r.exact);
    }

    #[test]
    fn dhop_prune_keeps_only_short_path_vertices() {
        // 0-1-2 chain plus a long detour 0-3-4-2: within 2 hops the detour
        // is unusable and must be pruned away.
        let g = UncertainGraph::new(
            5,
            [
                (0, 1, 0.5),
                (1, 2, 0.5),
                (0, 3, 0.9),
                (3, 4, 0.9),
                (4, 2, 0.9),
            ],
        )
        .unwrap();
        let plan = SemanticsSpec::DHop { d: 2 }
            .plan(
                &g,
                &GraphIndex::build(&g),
                &[0, 2],
                PreprocessConfig::default(),
            )
            .unwrap();
        assert_eq!(plan.parts.len(), 1);
        assert_eq!(plan.parts[0].graph.num_vertices(), 3);
        assert_eq!(plan.parts[0].graph.num_edges(), 2);
        let r = semantics_reliability(
            &g,
            SemanticsSpec::DHop { d: 2 },
            &[0, 2],
            ProConfig::default(),
        )
        .unwrap();
        assert!(r.exact);
        assert!((r.estimate - 0.25).abs() < 1e-12);
    }

    #[test]
    fn dhop_plan_at_the_largest_bound_drops_unreachable_vertices() {
        // Components {0, 1, 2} (a path) and {3, 4, 5} (a triangle).
        let g = UncertainGraph::new(
            6,
            [
                (0, 1, 0.5),
                (1, 2, 0.5),
                (3, 4, 0.5),
                (4, 5, 0.5),
                (3, 5, 0.5),
            ],
        )
        .unwrap();
        let index = GraphIndex::build(&g);
        for d in [u32::MAX - 1, u32::MAX] {
            let spec = SemanticsSpec::DHop { d };
            let plan = spec
                .plan(&g, &index, &[0, 2], PreprocessConfig::default())
                .unwrap();
            assert_eq!(plan.parts.len(), 1, "d = {d}");
            assert_eq!(plan.parts[0].graph.num_edges(), 2, "d = {d}");
            assert_eq!(plan.stats.pruned_edges, 2, "d = {d}");
            let apart = spec
                .plan(&g, &index, &[0, 3], PreprocessConfig::default())
                .unwrap();
            assert!(apart.trivially_zero, "d = {d}");
            assert!(apart.parts.is_empty(), "d = {d}");
        }
    }

    #[test]
    fn reach_set_on_a_path_sums_prefix_products() {
        // Path 0-1-2 with p = 0.5: E|R(0)| = 1 + 0.5 + 0.25.
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let r =
            semantics_reliability(&g, SemanticsSpec::ReachSet, &[0], ProConfig::default()).unwrap();
        assert!(r.exact);
        assert!((r.estimate - 1.75).abs() < 1e-12, "{}", r.estimate);
        assert!(r.lower_bound <= r.estimate && r.estimate <= r.upper_bound);
        assert!(r.upper_bound <= 3.0 + 1e-12);
    }

    #[test]
    fn reach_set_dedupes_shared_parts() {
        // Path 0-1-2-3: targets 2 and 3 share the 0~2 bridge chain; every
        // per-target query collapses to bridges, so no parts remain at all,
        // and the groups are pure pb factors.
        let g = UncertainGraph::new(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)]).unwrap();
        let plan = SemanticsSpec::ReachSet
            .plan(
                &g,
                &GraphIndex::build(&g),
                &[0],
                PreprocessConfig::default(),
            )
            .unwrap();
        assert_eq!(plan.groups.len(), 3);
        assert!(plan.parts.is_empty(), "bridge chains collapse to pb");
        let r = combine_semantics_plan(&plan, Vec::new());
        assert!((r.estimate - (1.0 + 0.5 + 0.25 + 0.125)).abs() < 1e-12);
        assert!(r.exact);
    }

    #[test]
    fn all_terminal_matches_kterminal_with_every_vertex() {
        let g = lollipop();
        let a = semantics_reliability(&g, SemanticsSpec::AllTerminal, &[0], ProConfig::default())
            .unwrap();
        let every: Vec<usize> = (0..8).collect();
        let b = pro_reliability(&g, &every, ProConfig::default()).unwrap();
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
    }

    #[test]
    fn spec_names_are_stable() {
        assert_eq!(SemanticsSpec::TwoTerminal.name(), "two-terminal");
        assert_eq!(SemanticsSpec::KTerminal.name(), "k-terminal");
        assert_eq!(SemanticsSpec::AllTerminal.name(), "all-terminal");
        assert_eq!(SemanticsSpec::DHop { d: 3 }.name(), "d-hop");
        assert_eq!(SemanticsSpec::ReachSet.name(), "reach-set");
        assert_eq!(SemanticsSpec::default(), SemanticsSpec::KTerminal);
    }
}
