//! Live graph mutations, what-if evaluation, and greedy reliability
//! maximization.
//!
//! A registered graph is not frozen: [`Engine::update_edge_prob`],
//! [`Engine::add_edge`], and [`Engine::remove_edge`] change it in place.
//! Each mutation
//!
//! 1. applies the primitive to the stored [`UncertainGraph`] (whose
//!    mutation methods reproduce a fresh build on the mutated edge list
//!    byte for byte),
//! 2. patches the bridge/2ECC/bridge-forest [`GraphIndex`] incrementally
//!    via `netrel_preprocess::incremental` — recomputing only the
//!    affected 2-edge-connected component, with a full rebuild as the
//!    fallback when the mutation merges or splits components — and
//! 3. invalidates the plan-cache entries and packed-world bank entries
//!    whose structural key covers the touched edge (matched by the old
//!    probability bits, owner-scoped for the plan cache).
//!
//! Step 3 is **memory hygiene, not a correctness requirement**: every
//! cache key embeds the full part edge list with probability bits, so a
//! post-mutation lookup re-keys and can never alias a stale entry (see
//! `cache::PlanKey` and the invalidation-soundness argument in
//! DESIGN.md §13). The headline guarantee — enforced by the
//! rebuild-equivalence property suite — is that a mutated engine answers
//! every query bit-identically to a fresh engine built from the mutated
//! graph, for all semantics, both solver paths, and any worker count.
//!
//! On top of committed mutations sit two drivers:
//!
//! * [`Engine::evaluate_with`] answers a query against a
//!   *hypothetical* mutation set without committing anything — the
//!   mutations are applied to a clone, a fresh index is built, and the
//!   answer is bit-identical to committing the set and querying.
//! * [`Engine::maximize_reliability`] runs the greedy reliability-
//!   maximization loop ("which `k` upgrades help `s`–`t` most?"): each
//!   round it what-if-evaluates every remaining candidate on top of the
//!   already-chosen set and commits (to the *plan*, not the graph) the
//!   argmax, ties broken toward the lowest candidate index. Because the
//!   what-if path shares the engine's structurally-keyed plan cache,
//!   overlapping candidate evaluations reuse each other's part solves.

// Answer-affecting region (docs/lints.md): no clock reads, thread-count
// probes or hash-order iteration.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::{Engine, EngineError, GraphId, PlanBudget, PlannedQuery, ReliabilityAnswer};
use netrel_core::{ProConfig, SemanticsSpec};
use netrel_preprocess::{
    patch_add_edge, patch_remove_edge, patch_update_prob, GraphIndex, IndexPatch,
};
use netrel_ugraph::{EdgeId, GraphError, UncertainGraph, VertexId};

/// One graph mutation, committable ([`Engine::apply_mutation`]) or
/// hypothetical ([`Engine::evaluate_with`]).
///
/// Edge ids are interpreted against the graph state the mutation is
/// applied to: within a mutation set, a `RemoveEdge` shifts later ids
/// down by one exactly like [`UncertainGraph::remove_edge`], and an
/// `AddEdge` receives the next dense id.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Mutation {
    /// Replace edge `edge`'s existence probability with `p`.
    UpdateProb {
        /// Edge id to update.
        edge: EdgeId,
        /// New probability in `(0, 1]`.
        p: f64,
    },
    /// Insert a new edge `(u, v)` with probability `p`.
    AddEdge {
        /// First endpoint.
        u: VertexId,
        /// Second endpoint.
        v: VertexId,
        /// Existence probability in `(0, 1]`.
        p: f64,
    },
    /// Remove edge `edge`; ids above it shift down by one.
    RemoveEdge {
        /// Edge id to remove.
        edge: EdgeId,
    },
}

/// What one committed mutation did to the engine's shared state.
#[derive(Clone, Copy, Debug)]
pub struct MutationOutcome {
    /// The edge id the mutation resolved to: the updated id, the id
    /// assigned to an added edge, or the removed id.
    pub edge: EdgeId,
    /// Whether the [`GraphIndex`] was patched in place or rebuilt.
    pub patch: IndexPatch,
    /// Plan-cache entries dropped by the scoped invalidation.
    pub invalidated_plans: usize,
    /// Packed-world-bank entries dropped by the scoped invalidation.
    pub invalidated_worlds: usize,
}

/// One greedy round of [`Engine::maximize_reliability`].
#[derive(Clone, Copy, Debug)]
pub struct MaximizeStep {
    /// Index into the candidate slice of the chosen mutation.
    pub candidate: usize,
    /// The chosen mutation.
    pub mutation: Mutation,
    /// `s`–`t` reliability with every mutation chosen so far applied.
    pub reliability: f64,
    /// Whether that reliability is exact (see `ReliabilityAnswer::exact`).
    pub exact: bool,
}

/// Result of the greedy reliability-maximization driver.
#[derive(Clone, Debug)]
pub struct MaximizeResult {
    /// `s`–`t` reliability of the unmutated graph.
    pub baseline: f64,
    /// The greedy choices in selection order (at most `k`; shorter when
    /// the candidate pool is exhausted or every remaining candidate is
    /// inapplicable).
    pub steps: Vec<MaximizeStep>,
}

impl MaximizeResult {
    /// Reliability after the last chosen mutation (the baseline when no
    /// candidate was chosen).
    pub fn final_reliability(&self) -> f64 {
        self.steps.last().map_or(self.baseline, |s| s.reliability)
    }
}

/// Apply one mutation to a graph, returning the edge id it resolved to.
fn apply_to_graph(g: &mut UncertainGraph, m: &Mutation) -> Result<EdgeId, GraphError> {
    match *m {
        Mutation::UpdateProb { edge, p } => {
            g.update_edge_prob(edge, p)?;
            Ok(edge)
        }
        Mutation::AddEdge { u, v, p } => g.add_edge(u, v, p),
        Mutation::RemoveEdge { edge } => {
            g.remove_edge(edge)?;
            Ok(edge)
        }
    }
}

impl Engine {
    /// Replace edge `edge`'s probability on a registered graph.
    ///
    /// The cheapest mutation: the [`GraphIndex`] stores topology only, so
    /// nothing is recomputed — the graph is updated in place and cache
    /// entries keyed on the old probability bits are dropped. Answers
    /// after the call are bit-identical to a fresh engine built from the
    /// mutated graph.
    pub fn update_edge_prob(
        &mut self,
        id: GraphId,
        edge: EdgeId,
        p: f64,
    ) -> Result<MutationOutcome, EngineError> {
        self.apply_mutation(id, Mutation::UpdateProb { edge, p })
    }

    /// Insert edge `(u, v)` with probability `p` on a registered graph,
    /// returning the outcome (its `edge` field is the new edge's id).
    ///
    /// An edge inside one 2-edge-connected component patches the index
    /// locally; an edge between components merges forest nodes and
    /// rebuilds it. No cache entry is invalidated — a key written before
    /// the edge existed cannot cover it, so every entry stays valid.
    pub fn add_edge(
        &mut self,
        id: GraphId,
        u: VertexId,
        v: VertexId,
        p: f64,
    ) -> Result<MutationOutcome, EngineError> {
        self.apply_mutation(id, Mutation::AddEdge { u, v, p })
    }

    /// Remove edge `edge` from a registered graph (ids above it shift
    /// down by one, as in [`UncertainGraph::remove_edge`]).
    ///
    /// Removing a non-bridge that leaves its component 2-edge-connected
    /// patches the index locally; removing a bridge — or splitting a
    /// component — rebuilds it. Cache entries keyed on the removed edge's
    /// probability bits are dropped.
    pub fn remove_edge(
        &mut self,
        id: GraphId,
        edge: EdgeId,
    ) -> Result<MutationOutcome, EngineError> {
        self.apply_mutation(id, Mutation::RemoveEdge { edge })
    }

    /// Commit one [`Mutation`] to a registered graph: apply the graph
    /// primitive, incrementally patch (or rebuild) the index, run the
    /// scoped cache/world-bank invalidation, and record metrics. A rejected
    /// mutation (bad edge id, duplicate edge, invalid probability, …)
    /// changes nothing.
    pub fn apply_mutation(
        &mut self,
        id: GraphId,
        mutation: Mutation,
    ) -> Result<MutationOutcome, EngineError> {
        let owner = id.0;
        let rg = self
            .graphs
            .get_mut(owner)
            .ok_or_else(|| EngineError::UnknownGraph(format!("#{owner}")))?;

        // Invalidation matches on the touched edge's *old* probability
        // bits; capture them before the primitive runs. `None` means
        // nothing to invalidate (additions).
        let old_bits = match mutation {
            Mutation::UpdateProb { edge, .. } | Mutation::RemoveEdge { edge } => {
                if edge >= rg.graph.num_edges() {
                    return Err(GraphError::EdgeOutOfRange {
                        edge,
                        edges: rg.graph.num_edges(),
                    }
                    .into());
                }
                Some(rg.graph.prob(edge).to_bits())
            }
            Mutation::AddEdge { .. } => None,
        };
        // Either endpoint of a removed edge identifies the affected
        // component (vertex labels survive the edge-id shift); the bridge
        // flag must be read before the removal invalidates it.
        let (endpoint, was_bridge) = match mutation {
            Mutation::RemoveEdge { edge } => (rg.graph.edge(edge).u, rg.index.cut.is_bridge[edge]),
            _ => (0, false),
        };

        let edge = apply_to_graph(&mut rg.graph, &mutation)?;
        let patch = match mutation {
            Mutation::UpdateProb { .. } => patch_update_prob(&mut rg.index),
            Mutation::AddEdge { .. } => patch_add_edge(&rg.graph, &mut rg.index, edge),
            Mutation::RemoveEdge { .. } => {
                patch_remove_edge(&rg.graph, &mut rg.index, edge, endpoint, was_bridge)
            }
        };

        let (invalidated_plans, invalidated_worlds) = match old_bits {
            Some(bits) => (
                self.cache
                    .lock()
                    .expect("plan cache poisoned")
                    .invalidate_prob(owner, bits),
                self.worlds.invalidate_prob(bits),
            ),
            None => (0, 0),
        };

        let m = self.obs.metrics();
        match mutation {
            Mutation::UpdateProb { .. } => m.mutations_update_prob.inc(),
            Mutation::AddEdge { .. } => m.mutations_add_edge.inc(),
            Mutation::RemoveEdge { .. } => m.mutations_remove_edge.inc(),
        }
        match patch {
            IndexPatch::Patched => m.index_patched.inc(),
            IndexPatch::Rebuilt => m.index_rebuilt.inc(),
        }
        m.invalidated_plans.add(invalidated_plans as u64);
        m.invalidated_worlds.add(invalidated_worlds as u64);

        Ok(MutationOutcome {
            edge,
            patch,
            invalidated_plans,
            invalidated_worlds,
        })
    }

    /// Answer a query against a **hypothetical** mutation set, committing
    /// nothing: the mutations are applied in order to a clone of the
    /// registered graph, a fresh index is built for it, and the query runs
    /// through the normal query pipeline. The answer is bit-identical to
    /// committing the set and calling
    /// [`run_planned`](Engine::run_planned) — the rebuild-equivalence
    /// guarantee makes the committed index equal the fresh one, and the
    /// pipeline is deterministic in `(graph, index, query)`.
    ///
    /// The engine's plan cache is shared (keys embed the hypothetical
    /// edge probabilities, so entries can never leak across hypotheses);
    /// repeated what-ifs over overlapping mutation sets — the maximizer's
    /// access pattern — reuse each other's unchanged parts.
    pub fn evaluate_with(
        &self,
        id: GraphId,
        mutations: &[Mutation],
        query: &PlannedQuery,
    ) -> Result<ReliabilityAnswer, EngineError> {
        let rg = self.registered(id)?;
        let mut graph = rg.graph.clone();
        for m in mutations {
            apply_to_graph(&mut graph, m)?;
        }
        let index = GraphIndex::build(&graph);
        self.obs.metrics().whatif_queries.inc();
        self.execute(id.0, &graph, &index, std::slice::from_ref(query))
            .pop()
            .expect("one result per query")
    }

    /// Greedy reliability maximization: choose up to `k` of `candidates`
    /// to maximize the two-terminal reliability `R[s, t]`, evaluating
    /// every candidate hypothetically via [`evaluate_with`](Engine::evaluate_with)
    /// and never committing to the registered graph.
    ///
    /// Each round evaluates the chosen set plus each remaining candidate
    /// (in candidate order, ids interpreted after the already-chosen
    /// mutations) and keeps the strict argmax — ties break toward the
    /// lowest candidate index, so the result is deterministic. Candidates
    /// whose mutation set is inapplicable (duplicate edge, stale id, …)
    /// are skipped for that round. Rounds end early when no applicable
    /// candidate remains.
    pub fn maximize_reliability(
        &self,
        id: GraphId,
        s: VertexId,
        t: VertexId,
        k: usize,
        candidates: &[Mutation],
        budget: PlanBudget,
    ) -> Result<MaximizeResult, EngineError> {
        let query = PlannedQuery::with_semantics(
            SemanticsSpec::TwoTerminal,
            vec![s, t],
            ProConfig::default(),
            budget,
        );
        let baseline = self.evaluate_with(id, &[], &query)?.estimate;
        let mut chosen: Vec<usize> = Vec::new();
        let mut steps = Vec::new();
        while steps.len() < k && chosen.len() < candidates.len() {
            let mut best: Option<(f64, usize, bool)> = None;
            for (ci, _) in candidates.iter().enumerate() {
                if chosen.contains(&ci) {
                    continue;
                }
                let set: Vec<Mutation> = chosen
                    .iter()
                    .chain(std::iter::once(&ci))
                    .map(|&i| candidates[i])
                    .collect();
                let Ok(answer) = self.evaluate_with(id, &set, &query) else {
                    continue; // inapplicable on top of the chosen set
                };
                let better = match best {
                    None => true,
                    Some((r, _, _)) => answer.estimate > r,
                };
                if better {
                    best = Some((answer.estimate, ci, answer.exact));
                }
            }
            let Some((reliability, ci, exact)) = best else {
                break; // every remaining candidate is inapplicable
            };
            chosen.push(ci);
            steps.push(MaximizeStep {
                candidate: ci,
                mutation: candidates[ci],
                reliability,
                exact,
            });
        }
        Ok(MaximizeResult { baseline, steps })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EngineConfig;

    /// 4-cycle with a chord: edges 0–1, 1–2, 2–3, 3–0, 0–2.
    fn chorded_cycle() -> UncertainGraph {
        UncertainGraph::new(
            4,
            vec![
                (0, 1, 0.9),
                (1, 2, 0.8),
                (2, 3, 0.9),
                (3, 0, 0.7),
                (0, 2, 0.6),
            ],
        )
        .unwrap()
    }

    #[test]
    fn committed_mutations_report_their_edges_and_apply_in_order() {
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("g", chorded_cycle());
        assert_eq!(engine.update_edge_prob(id, 0, 0.5).unwrap().edge, 0);
        assert_eq!(engine.add_edge(id, 1, 3, 0.4).unwrap().edge, 5);
        assert_eq!(engine.remove_edge(id, 1).unwrap().edge, 1);
        let expected = UncertainGraph::new(
            4,
            vec![
                (0, 1, 0.5),
                (2, 3, 0.9),
                (3, 0, 0.7),
                (0, 2, 0.6),
                (1, 3, 0.4),
            ],
        )
        .unwrap();
        assert_eq!(engine.graph(id).unwrap().edges(), expected.edges());
    }

    #[test]
    fn rejected_mutations_change_nothing() {
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("g", chorded_cycle());
        for bad in [
            Mutation::UpdateProb { edge: 99, p: 0.5 },
            Mutation::UpdateProb { edge: 0, p: 1.5 },
            Mutation::RemoveEdge { edge: 99 },
            Mutation::AddEdge { u: 0, v: 1, p: 0.5 }, // duplicate
            Mutation::AddEdge { u: 2, v: 2, p: 0.5 }, // self-loop
        ] {
            assert!(engine.apply_mutation(id, bad).is_err(), "{bad:?}");
        }
        assert_eq!(engine.graph(id).unwrap().edges(), chorded_cycle().edges());
    }

    #[test]
    fn add_edge_invalidates_nothing_and_update_is_scoped() {
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("g", chorded_cycle());
        // Warm the cache, then mutate.
        let q = PlannedQuery::with_semantics(
            SemanticsSpec::TwoTerminal,
            vec![0, 2],
            ProConfig::default(),
            PlanBudget::default(),
        );
        engine.run_planned(id, &q).unwrap();
        let added = engine.add_edge(id, 1, 3, 0.4).unwrap();
        assert_eq!(added.invalidated_plans, 0);
        assert_eq!(added.invalidated_worlds, 0);
        // An edge that never existed before the warmup cannot appear in
        // any key; an update to the touched edge drops its entries.
        let recorder = engine.recorder().clone();
        let m = recorder.metrics();
        assert_eq!(m.mutations_add_edge.get(), 1);
        assert_eq!(m.invalidated_plans.get(), 0);
        engine.update_edge_prob(id, 4, 0.55).unwrap();
        assert_eq!(m.mutations_update_prob.get(), 1);
        assert!(m.index_patched.get() >= 1);
    }

    #[test]
    fn evaluate_with_rejects_inapplicable_sets_without_side_effects() {
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("g", chorded_cycle());
        let q = PlannedQuery::with_semantics(
            SemanticsSpec::TwoTerminal,
            vec![0, 2],
            ProConfig::default(),
            PlanBudget::default(),
        );
        let bad = [Mutation::RemoveEdge { edge: 99 }];
        assert!(engine.evaluate_with(id, &bad, &q).is_err());
        assert_eq!(engine.graph(id).unwrap().edges(), chorded_cycle().edges());
        // An applicable hypothesis answers without committing.
        let hyp = [Mutation::UpdateProb { edge: 0, p: 0.1 }];
        let answer = engine.evaluate_with(id, &hyp, &q).unwrap();
        assert!((0.0..=1.0).contains(&answer.estimate));
        assert_eq!(engine.graph(id).unwrap().edges(), chorded_cycle().edges());
    }

    #[test]
    fn maximize_breaks_ties_toward_the_lowest_candidate_index() {
        let mut engine = Engine::new(EngineConfig::default());
        let id = engine.register("g", chorded_cycle());
        // Two identical candidates: greedy must choose index 0 first.
        let candidates = [
            Mutation::UpdateProb { edge: 4, p: 0.95 },
            Mutation::UpdateProb { edge: 4, p: 0.95 },
        ];
        let result = engine
            .maximize_reliability(id, 0, 2, 1, &candidates, PlanBudget::default())
            .unwrap();
        assert_eq!(result.steps.len(), 1);
        assert_eq!(result.steps[0].candidate, 0);
        assert!(result.final_reliability() >= result.baseline);
    }
}
