//! The part-level plan cache.
//!
//! Preprocessing decomposes every query into *parts* — small canonical
//! subproblems `(graph, terminals)` solved by one S2BDD run each. Real
//! workloads (s-t benchmark suites, reliability-maximization inner loops,
//! hot terminal pairs) re-derive the same parts over and over: repeated
//! queries obviously, but also *overlapping* queries whose decompositions
//! share components. Caching at part granularity therefore hits strictly
//! more often than caching whole answers would.
//!
//! Keys are **full structural keys**, not hashes: the part's edge list
//! (endpoints + probability bits), its terminal set, the
//! [`PartComputation`] the part answers (a connectivity part and a d-hop
//! part over the same subgraph are different subproblems, as are two d-hop
//! parts with different hop bounds), and the complete solver
//! discriminant — a [`PartSolver`] naming the solver family *and* its full
//! configuration (for S2BDD runs the complete
//! [`S2BddConfig`](netrel_s2bdd::S2BddConfig), per-part
//! seed included; for flat sampling the sample count, estimator, and
//! seed). Two subproblems alias only if every one of those is identical —
//! in which case the solver is deterministic and the cached result *is*
//! the result. A config change (width, samples, seed, estimator, order,
//! merge rule, node cap, …) always changes the key, a planner-routed
//! sampling run can never alias an S2BDD run, and no semantics variant can
//! ever alias a cached two-terminal (connectivity) plan.

// Answer-affecting region (docs/lints.md): no clock reads, thread-count
// probes or hash-order iteration.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use crate::planner::PartSolver;
use netrel_core::{PartComputation, SemPart};
use netrel_s2bdd::S2BddResult;
use std::collections::HashMap;

/// Canonical identity of one part-level solve.
///
/// Parts come out of preprocessing densely renumbered in a deterministic
/// order, so structurally identical subproblems produce identical keys no
/// matter which query (or graph) they came from.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// `(u, v, p.to_bits())` per edge, in part edge order.
    edges: Box<[(u32, u32, u64)]>,
    /// Sorted terminal ids within the part.
    terminals: Box<[u32]>,
    /// What the part computes — the semantics discriminant. A d-hop part
    /// over the same `(edges, terminals)` is a different subproblem than a
    /// connectivity part, and distinct hop bounds are distinct subproblems;
    /// keying on the computation means semantics variants can never alias
    /// each other's cached results.
    computation: PartComputation,
    /// The solver-family discriminant plus its exact configuration.
    solver: PartSolver,
}

impl PlanKey {
    /// Build the key for solving a semantics [`SemPart`] (which carries its
    /// own [`PartComputation`]) with `solver`.
    pub fn for_part(part: &SemPart, solver: PartSolver) -> Self {
        let edges: Box<[(u32, u32, u64)]> = part
            .graph
            .edges()
            .iter()
            .map(|e| (e.u as u32, e.v as u32, e.p.to_bits()))
            .collect();
        let mut terminals: Box<[u32]> = part.terminals.iter().map(|&t| t as u32).collect();
        terminals.sort_unstable();
        PlanKey {
            edges,
            terminals,
            computation: part.computation,
            solver,
        }
    }
}

/// Aggregate cache counters, serializable for the service's `stats` op.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct CacheStats {
    /// Entries currently held.
    pub entries: usize,
    /// Maximum entries before eviction (0 disables the cache).
    pub capacity: usize,
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that required a fresh solve.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

struct Entry {
    result: S2BddResult,
    last_used: u64,
    /// Registry index of the graph whose query produced this entry, for
    /// per-graph occupancy reporting. Not part of the key: structurally
    /// identical parts from different graphs intentionally share entries,
    /// and a shared entry is attributed to its most recent producer.
    owner: usize,
}

/// What [`PlanCache::insert`] did, for the caller's metrics.
#[derive(Clone, Copy, Debug)]
pub struct Inserted {
    /// Whether the entry was stored (false only when capacity is 0).
    pub stored: bool,
    /// Tick age (`now − last_used`) of the entry evicted to make room.
    pub evicted_age: Option<u64>,
}

/// LRU cache of part-level solver results.
///
/// Recency is tracked with a monotone tick stamped on every hit/insert;
/// eviction scans for the minimum stamp. That is `O(len)` per eviction —
/// deliberate: capacities are small (thousands), evictions only happen at
/// capacity, and the scan avoids the unsafe code or extra indirection of an
/// intrusive list.
pub struct PlanCache {
    capacity: usize,
    map: HashMap<PlanKey, Entry, netrel_numeric::FxBuildHasher>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` entries (0 disables
    /// caching: every lookup misses and nothing is stored).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            map: HashMap::default(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up a plan, bumping its recency. Counts a hit or a miss.
    pub fn get(&mut self, key: &PlanKey) -> Option<S2BddResult> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = self.tick;
                self.hits += 1;
                Some(entry.result.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Store a solved plan for the graph at registry index `owner`,
    /// evicting the least-recently-used entry if the cache is full.
    /// Re-inserting an existing key refreshes its recency (and owner).
    /// Returns what happened, including the tick age of any evicted entry.
    pub fn insert(&mut self, key: PlanKey, result: S2BddResult, owner: usize) -> Inserted {
        if self.capacity == 0 {
            return Inserted {
                stored: false,
                evicted_age: None,
            };
        }
        self.tick += 1;
        let mut evicted_age = None;
        if self.map.len() >= self.capacity && !self.map.contains_key(&key) {
            // Unkeyed iteration is sound here: `last_used` ticks are unique
            // (stamped from a monotone counter), so the min is the same in
            // any iteration order — and eviction can only change wall-clock,
            // never a result (see the module header).
            #[expect(
                clippy::disallowed_methods,
                reason = "min over unique monotone ticks is order-independent; eviction never changes an answer"
            )]
            let lru = self.map.iter().min_by_key(|(_, e)| e.last_used);
            if let Some((lru, age)) = lru.map(|(k, e)| (k.clone(), self.tick - e.last_used)) {
                self.map.remove(&lru);
                self.evictions += 1;
                evicted_age = Some(age);
            }
        }
        self.map.insert(
            key,
            Entry {
                result,
                last_used: self.tick,
                owner,
            },
        );
        Inserted {
            stored: true,
            evicted_age,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Live entries attributed to each of `num_owners` graphs (index =
    /// registry index; entries with an out-of-range owner are dropped).
    /// O(len) — this backs the service's `stats` op, not a hot path. The
    /// counts are computed from the live map, so they stay correct across
    /// [`PlanCache::clear`] and evictions (reset-safe occupancy, unlike the
    /// monotone hit/miss counters).
    pub fn entries_by_owner(&self, num_owners: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_owners];
        #[expect(
            clippy::disallowed_methods,
            clippy::iter_over_hash_type,
            reason = "commutative count fold — the tally is identical in any iteration order"
        )]
        for entry in self.map.values() {
            if let Some(c) = counts.get_mut(entry.owner) {
                *c += 1;
            }
        }
        counts
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drop every entry attributed to the graph at registry index `owner`
    /// whose key embeds an edge with probability bits `prob_bits`; returns
    /// how many were dropped. This is the mutation layer's scoped
    /// invalidation: keys are full structural keys (edges + probability
    /// bits), so a stale entry can never alias a post-mutation lookup and
    /// dropping is memory hygiene, not a correctness requirement. Matching
    /// on the touched edge's old probability bits is a sound
    /// over-approximation of "covers the mutated edge" — parts renumber
    /// vertices densely, so endpoint ids cannot identify the edge, but any
    /// key without those probability bits provably does not contain it.
    pub fn invalidate_prob(&mut self, owner: usize, prob_bits: u64) -> usize {
        let before = self.map.len();
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a per-entry predicate drops the same set in any iteration order"
        )]
        self.map.retain(|key, entry| {
            entry.owner != owner || key.edges.iter().all(|&(_, _, pb)| pb != prob_bits)
        });
        before - self.map.len()
    }

    /// Drop all entries (counters are preserved).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.map.len(),
            capacity: self.capacity,
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_bdd::frontier::MergeRule;
    use netrel_s2bdd::{EstimatorKind, S2BddConfig};
    use netrel_ugraph::ordering::EdgeOrder;
    use netrel_ugraph::{UncertainGraph, VertexId};

    /// The key of a connectivity part solved by `solver`.
    fn conn_key(g: &UncertainGraph, t: &[VertexId], solver: PartSolver) -> PlanKey {
        PlanKey::for_part(&SemPart::connectivity(g.clone(), t.to_vec()), solver)
    }

    fn part(tag: u64) -> (UncertainGraph, Vec<VertexId>) {
        // Distinct graphs per tag: a 2-path with a tag-dependent probability.
        let p = 0.25 + (tag as f64) / 1000.0;
        let g = UncertainGraph::new(3, [(0, 1, p), (1, 2, 0.5)]).unwrap();
        (g, vec![0, 2])
    }

    fn key(tag: u64, cfg: S2BddConfig) -> PlanKey {
        let (g, t) = part(tag);
        conn_key(&g, &t, PartSolver::S2Bdd(cfg))
    }

    fn result(x: f64) -> S2BddResult {
        S2BddResult {
            estimate: x,
            lower_bound: x,
            upper_bound: x,
            exact: true,
            samples_requested: 0,
            samples_used: (x * 1000.0) as usize,
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

    #[test]
    fn hit_and_miss_counters() {
        let mut c = PlanCache::new(8);
        let k = key(1, S2BddConfig::default());
        assert!(c.get(&k).is_none());
        c.insert(k.clone(), result(0.5), 0);
        assert_eq!(c.get(&k).unwrap().estimate, 0.5);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let mut c = PlanCache::new(2);
        let cfg = S2BddConfig::default();
        let (k1, k2, k3) = (key(1, cfg), key(2, cfg), key(3, cfg));
        c.insert(k1.clone(), result(0.1), 0);
        c.insert(k2.clone(), result(0.2), 0);
        // Touch k1 so k2 becomes the LRU entry.
        assert!(c.get(&k1).is_some());
        c.insert(k3.clone(), result(0.3), 0);
        assert_eq!(c.len(), 2);
        assert!(c.get(&k2).is_none(), "k2 was LRU and must be evicted");
        assert!(c.get(&k1).is_some());
        assert!(c.get(&k3).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn eviction_order_is_recency_not_insertion() {
        let mut c = PlanCache::new(3);
        let cfg = S2BddConfig::default();
        let keys: Vec<PlanKey> = (0..3).map(|i| key(i, cfg)).collect();
        for (i, k) in keys.iter().enumerate() {
            c.insert(k.clone(), result(i as f64 / 10.0), 0);
        }
        // Refresh insertion-oldest entries; the middle one becomes LRU.
        assert!(c.get(&keys[0]).is_some());
        assert!(c.get(&keys[2]).is_some());
        c.insert(key(9, cfg), result(0.9), 0);
        assert!(c.get(&keys[1]).is_none(), "recency order, not FIFO");
        assert!(c.get(&keys[0]).is_some());
    }

    #[test]
    fn config_change_never_aliases() {
        let base = S2BddConfig::default();
        // No `..`: a new config field fails to compile here until a variant
        // below shows that changing it changes the key.
        let S2BddConfig {
            max_width,
            samples,
            estimator,
            order,
            merge_rule,
            seed,
            reduce_samples,
            node_cap,
        } = base;
        let variants = [
            S2BddConfig {
                max_width: max_width + 1,
                ..base
            },
            S2BddConfig {
                samples: samples + 1,
                ..base
            },
            S2BddConfig {
                estimator: match estimator {
                    EstimatorKind::MonteCarlo => EstimatorKind::HorvitzThompson,
                    EstimatorKind::HorvitzThompson => EstimatorKind::MonteCarlo,
                },
                ..base
            },
            S2BddConfig {
                order: match order {
                    EdgeOrder::Bfs => EdgeOrder::Dfs,
                    EdgeOrder::Input | EdgeOrder::Dfs => EdgeOrder::Bfs,
                },
                ..base
            },
            S2BddConfig {
                merge_rule: match merge_rule {
                    MergeRule::Pattern => MergeRule::ExactCounts,
                    MergeRule::ExactCounts => MergeRule::Pattern,
                },
                ..base
            },
            S2BddConfig {
                seed: seed ^ 1,
                ..base
            },
            S2BddConfig {
                reduce_samples: !reduce_samples,
                ..base
            },
            S2BddConfig {
                node_cap: node_cap - 1,
                ..base
            },
        ];
        let mut c = PlanCache::new(64);
        c.insert(key(1, base), result(0.5), 0);
        for v in variants {
            assert_ne!(key(1, base), key(1, v), "{v:?} must change the key");
            assert!(c.get(&key(1, v)).is_none(), "{v:?} aliased a cache entry");
        }
        // Same config, different part → different key too.
        assert!(c.get(&key(2, base)).is_none());
        // And the original still hits.
        assert!(c.get(&key(1, base)).is_some());
    }

    #[test]
    fn solver_family_is_part_of_the_key() {
        // A planner-routed flat-sampling run must never alias an S2BDD run
        // on the same part, even with matching samples/estimator/seed.
        let (g, t) = part(1);
        let cfg = S2BddConfig::default();
        let s2bdd_key = conn_key(&g, &t, PartSolver::S2Bdd(cfg));
        let sampling_key = conn_key(
            &g,
            &t,
            PartSolver::Sampling {
                samples: cfg.samples,
                estimator: cfg.estimator,
                seed: cfg.seed,
            },
        );
        assert_ne!(s2bdd_key, sampling_key);
        let mut c = PlanCache::new(8);
        c.insert(s2bdd_key, result(0.5), 0);
        assert!(c.get(&sampling_key).is_none());
    }

    #[test]
    fn bit_sampling_never_aliases_other_solver_families() {
        // The packed sampler draws a different world sequence than the flat
        // sampler at the same (samples, seed), so a BitSampling entry must
        // never serve — or be served by — any other family on the same part.
        let (g, t) = part(1);
        let cfg = S2BddConfig::default();
        let bit_key = conn_key(
            &g,
            &t,
            PartSolver::BitSampling {
                samples: cfg.samples,
                seed: cfg.seed,
            },
        );
        let flat_key = conn_key(
            &g,
            &t,
            PartSolver::Sampling {
                samples: cfg.samples,
                estimator: cfg.estimator,
                seed: cfg.seed,
            },
        );
        let enum_key = conn_key(&g, &t, PartSolver::Enumeration);
        let s2bdd_key = conn_key(&g, &t, PartSolver::S2Bdd(cfg));
        assert_ne!(bit_key, flat_key);
        assert_ne!(bit_key, enum_key);
        assert_ne!(bit_key, s2bdd_key);
        let mut c = PlanCache::new(8);
        c.insert(bit_key.clone(), result(0.5), 0);
        assert!(c.get(&flat_key).is_none(), "flat sampling aliased packed");
        assert!(c.get(&enum_key).is_none(), "enumeration aliased packed");
        assert!(c.get(&s2bdd_key).is_none(), "s2bdd aliased packed");
        assert!(c.get(&bit_key).is_some());
        // Different packed sample budgets and seeds are distinct entries.
        let other = conn_key(
            &g,
            &t,
            PartSolver::BitSampling {
                samples: cfg.samples + 64,
                seed: cfg.seed,
            },
        );
        let reseeded = conn_key(
            &g,
            &t,
            PartSolver::BitSampling {
                samples: cfg.samples,
                seed: cfg.seed ^ 1,
            },
        );
        assert_ne!(bit_key, other);
        assert_ne!(bit_key, reseeded);
    }

    #[test]
    fn semantics_computation_never_aliases_connectivity() {
        // The same subgraph + terminals + solver, asked as a d-hop part,
        // must never serve (or be served by) a cached connectivity part.
        let (g, t) = part(1);
        let cfg = S2BddConfig::default();
        let solver = PartSolver::S2Bdd(cfg);
        let connectivity = conn_key(&g, &t, solver);
        let as_part = PlanKey::for_part(
            &SemPart {
                graph: g.clone(),
                terminals: t.clone(),
                computation: PartComputation::Connectivity,
            },
            solver,
        );
        // for_part with Connectivity is the same subproblem → same key.
        assert_eq!(connectivity, as_part);
        let dhop = PlanKey::for_part(
            &SemPart {
                graph: g.clone(),
                terminals: t.clone(),
                computation: PartComputation::DHop { d: 2 },
            },
            solver,
        );
        assert_ne!(connectivity, dhop);
        let mut c = PlanCache::new(8);
        c.insert(connectivity.clone(), result(0.5), 0);
        assert!(c.get(&dhop).is_none(), "d-hop aliased a connectivity entry");
        assert!(c.get(&connectivity).is_some());
    }

    #[test]
    fn distinct_hop_bounds_are_distinct_keys() {
        let (g, t) = part(1);
        let solver = PartSolver::Sampling {
            samples: 1000,
            estimator: netrel_s2bdd::EstimatorKind::MonteCarlo,
            seed: 7,
        };
        let mk = |d| {
            PlanKey::for_part(
                &SemPart {
                    graph: g.clone(),
                    terminals: t.clone(),
                    computation: PartComputation::DHop { d },
                },
                solver,
            )
        };
        assert_ne!(mk(1), mk(2));
        let mut c = PlanCache::new(8);
        c.insert(mk(1), result(0.25), 0);
        assert!(c.get(&mk(2)).is_none(), "d=2 aliased a d=1 entry");
        assert!(c.get(&mk(1)).is_some());
    }

    #[test]
    fn distinct_terminal_sets_on_same_part_graph_are_distinct_keys() {
        let g =
            UncertainGraph::new(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5)]).unwrap();
        let solver = PartSolver::S2Bdd(S2BddConfig::default());
        let mk = |t: Vec<VertexId>| {
            PlanKey::for_part(
                &SemPart {
                    graph: g.clone(),
                    terminals: t,
                    computation: PartComputation::Connectivity,
                },
                solver,
            )
        };
        // k-terminal variants of the same subgraph never alias each other
        // or the two-terminal key.
        let two = mk(vec![0, 2]);
        let three = mk(vec![0, 1, 2]);
        let four = mk(vec![0, 1, 2, 3]);
        assert_ne!(two, three);
        assert_ne!(three, four);
        let mut c = PlanCache::new(8);
        c.insert(two.clone(), result(0.5), 0);
        assert!(c.get(&three).is_none());
        assert!(c.get(&four).is_none());
    }

    #[test]
    fn terminal_set_is_part_of_the_key() {
        let g = UncertainGraph::new(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)]).unwrap();
        let solver = PartSolver::S2Bdd(S2BddConfig::default());
        let a = conn_key(&g, &[0, 3], solver);
        let b = conn_key(&g, &[0, 2], solver);
        assert_ne!(a, b);
        // Terminal order is canonicalized.
        assert_eq!(a, conn_key(&g, &[3, 0], solver));
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let mut c = PlanCache::new(0);
        let k = key(1, S2BddConfig::default());
        c.insert(k.clone(), result(0.5), 0);
        assert!(c.get(&k).is_none());
        assert!(c.is_empty());
        assert_eq!(c.stats().capacity, 0);
    }

    #[test]
    fn per_owner_occupancy_and_eviction_age() {
        let mut c = PlanCache::new(2);
        let cfg = S2BddConfig::default();
        c.insert(key(1, cfg), result(0.1), 0);
        c.insert(key(2, cfg), result(0.2), 1);
        assert_eq!(c.entries_by_owner(2), vec![1, 1]);
        // k1 is least recently used; the third insert evicts it and reports
        // a positive tick age.
        let ins = c.insert(key(3, cfg), result(0.3), 1);
        assert!(ins.stored);
        assert!(ins.evicted_age.is_some_and(|a| a > 0));
        assert_eq!(c.entries_by_owner(2), vec![0, 2]);
        // Occupancy is recomputed from the live map: reset-safe.
        c.clear();
        assert_eq!(c.entries_by_owner(2), vec![0, 0]);
        // Disabled cache stores nothing and says so.
        let mut off = PlanCache::new(0);
        let ins = off.insert(key(4, cfg), result(0.4), 0);
        assert!(!ins.stored);
        assert!(ins.evicted_age.is_none());
    }

    #[test]
    fn invalidate_prob_is_owner_and_probability_scoped() {
        let mut c = PlanCache::new(8);
        let cfg = S2BddConfig::default();
        // Tag 1 and tag 2 differ in one edge probability; both live for
        // owners 0 and 1.
        c.insert(key(1, cfg), result(0.1), 0);
        c.insert(key(2, cfg), result(0.2), 0);
        c.insert(key(3, cfg), result(0.3), 1);
        let touched = (0.25 + 1.0 / 1000.0f64).to_bits(); // tag 1's edge
        assert_eq!(c.invalidate_prob(0, touched), 1);
        assert!(c.get(&key(1, cfg)).is_none(), "touched entry must drop");
        assert!(c.get(&key(2, cfg)).is_some(), "untouched prob survives");
        assert!(c.get(&key(3, cfg)).is_some(), "other owner survives");
        // The shared 0.5 edge appears in every key: owner-scoped drop.
        assert_eq!(c.invalidate_prob(1, 0.5f64.to_bits()), 1);
        assert!(c.get(&key(2, cfg)).is_some(), "owner 0 untouched");
        assert!(c.get(&key(3, cfg)).is_none());
    }

    #[test]
    fn reinsert_refreshes_instead_of_evicting() {
        let mut c = PlanCache::new(2);
        let cfg = S2BddConfig::default();
        let (k1, k2) = (key(1, cfg), key(2, cfg));
        c.insert(k1.clone(), result(0.1), 0);
        c.insert(k2.clone(), result(0.2), 0);
        c.insert(k1.clone(), result(0.15), 0);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.get(&k1).unwrap().estimate, 0.15);
        assert!(c.get(&k2).is_some());
    }
}
