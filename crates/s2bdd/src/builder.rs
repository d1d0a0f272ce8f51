//! S2BDD construction (paper Algorithm 2).
//!
//! Per layer: nodes are processed in descending heuristic priority; each edge
//! decision either reaches a sink (tightening `p_c`/`p_d`), merges into an
//! existing node (probabilities aggregate), occupies a free slot (up to the
//! width bound `w`), or is *deleted* — its probability mass joins the layer's
//! stratum, to be estimated by conditional-world sampling. After every layer
//! the sample budget `s′` is recomputed from the bounds (Theorem 1), and if
//! the budget is already covered by the mass of the live nodes, construction
//! stops early and the live nodes are sampled directly (lines 26–30).

use crate::config::{EstimatorKind, S2BddConfig};
use crate::reduce::reduced_samples;
use crate::result::S2BddResult;
use crate::sampler::StratumSampler;
use crate::strata::Stratum;
use netrel_bdd::frontier::{FrontierMachine, LayerArena, Lookup, Scratch, StateRow, Transition};
use netrel_numeric::WideFloat;
use netrel_ugraph::{GraphError, UncertainGraph, VertexId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One live S2BDD node: its state's row in the layer arena, path-probability
/// mass, priority.
struct Node {
    row: u32,
    pn: WideFloat,
    h: WideFloat,
}

// The priority sort must permute tied nodes exactly as it always has. The
// standard library picks its unstable-sort kernels by element type: a
// non-`Copy` element of 17 to 85 bytes takes the same small-sort and
// partition as the original 80-byte node record that owned its state.
const _: () = assert!(std::mem::size_of::<Node>() > 16 && std::mem::size_of::<Node>() <= 85);

/// The S2BDD solver.
pub struct S2Bdd;

impl S2Bdd {
    /// Approximate (or, with unbounded width, exactly compute) `R[G, T]`.
    pub fn solve(
        g: &UncertainGraph,
        terminals: &[VertexId],
        cfg: S2BddConfig,
    ) -> Result<S2BddResult, GraphError> {
        let t = g.validate_terminals(terminals)?;
        let mut machine = FrontierMachine::new(g, &t, cfg.order)?;
        if let Some(r) = machine.trivial() {
            return Ok(S2BddResult::trivial(r, cfg.samples));
        }

        let k = machine.k();
        let layers_total = machine.layers();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut sampler = StratumSampler::new(&machine);
        let mut scratch = Scratch::default();
        let mut comp_degree = Vec::new();

        // Layer storage, reused from layer to layer: the current layer's
        // states, the next layer's states with their masses (by handle), and
        // the nodes deleted while building the next layer.
        let mut cur = LayerArena::new(cfg.merge_rule);
        cur.find_or_insert(true); // the root
        let mut next = LayerArena::new(cfg.merge_rule);
        let mut next_pn: Vec<WideFloat> = Vec::new();
        let mut deleted = LayerArena::new(cfg.merge_rule);
        let mut deleted_pn: Vec<WideFloat> = Vec::new();
        let mut nodes: Vec<Node> = vec![Node {
            row: 0,
            pn: WideFloat::ONE,
            h: WideFloat::ONE,
        }];
        let mut pc = WideFloat::ZERO;
        let mut pd = WideFloat::ZERO;
        let mut strata: Vec<Stratum> = Vec::new();
        let mut samples_taken = 0usize;
        let mut s_cur = cfg.samples;
        let mut deleted_nodes_total = 0usize;
        let mut created_nodes_total = 1usize; // the root
        let mut peak_width = 1usize;
        let mut peak_memory = 0usize;
        let mut layers_completed = 0usize;
        let mut early_exit = false;
        let mut node_cap_hit = false;

        for l in 0..layers_total {
            let e = machine.current_edge();
            // Process high-priority nodes first so that, when the width bound
            // bites, the kept nodes are the ones most likely to tighten the
            // bounds (paper §4.3.2; Algorithm 2 line 34).
            nodes.sort_unstable_by(|a, b| {
                b.h.partial_cmp(&a.h).unwrap_or(std::cmp::Ordering::Equal)
            });

            let width = machine.next_frontier().len();
            next.reset(width);
            next_pn.clear();
            deleted.reset(width);
            deleted_pn.clear();
            let mut deleted_mass = WideFloat::ZERO;
            let (pc_before, pd_before) = (pc, pd);

            for node in &nodes {
                for (take, weight) in [(true, e.p), (false, 1.0 - e.p)] {
                    if weight <= 0.0 {
                        continue;
                    }
                    let pn = node.pn.mul_f64(weight);
                    let state = cur.row(node.row as usize);
                    match machine.apply(state, take, &mut scratch, &mut next) {
                        Transition::One => pc += pn,
                        Transition::Zero => pd += pn,
                        Transition::Next => match next.find_or_insert(next.len() < cfg.max_width) {
                            Lookup::Found(i) => next_pn[i as usize] += pn,
                            Lookup::Inserted(_) => {
                                created_nodes_total += 1;
                                next_pn.push(pn);
                            }
                            Lookup::Absent => {
                                deleted_mass += pn;
                                deleted.push(next.pending());
                                deleted_pn.push(pn);
                                deleted_nodes_total += 1;
                            }
                        },
                    }
                }
            }

            // Stratified sampling of this layer's deleted mass (§4.3.3).
            if !deleted.is_empty() && cfg.samples > 0 {
                let mass = deleted_mass.to_f64();
                if mass > 0.0 {
                    let mut st = Stratum::new(l, mass);
                    let quota = (((s_cur as f64) * mass).floor() as usize).max(1);
                    sample_pool(
                        &deleted,
                        &deleted_pn,
                        deleted_mass,
                        quota,
                        &machine,
                        cfg.estimator,
                        &mut sampler,
                        &mut st,
                        &mut rng,
                    );
                    samples_taken += quota;
                    strata.push(st);
                }
            }

            // Recompute the reduced budget from the tightened bounds.
            if cfg.reduce_samples {
                s_cur = reduced_samples(cfg.samples, pc.to_f64(), pd.to_f64());
            }
            // The proven bounds only ever tighten.
            debug_assert!(pc >= pc_before && pd >= pd_before);
            peak_width = peak_width.max(next.len());
            peak_memory = peak_memory.max(cur.bytes() + next.bytes() + deleted.bytes());
            layers_completed = l + 1;

            if next.is_empty() {
                // Every path reached a sink.
                break;
            }

            // Early exit (Algorithm 2 lines 26–30): once the stratified
            // sampling has consumed the (possibly reduced) budget s′,
            // continuing the construction cannot save sampling work — sample
            // the live nodes as one final stratum and stop. (The paper's
            // literal condition `c + ⌊s′·p_Nnext⌋ ≥ s′` is trivially true at
            // layer 0 where p_Nnext = 1; we read it as budget exhaustion,
            // which matches the §4.3.3 prose.)
            //
            // The node cap rides the same mechanism: when the cumulative
            // number of live nodes created exceeds `cfg.node_cap`, the
            // still-live layer is surfaced to the conditional stratum
            // sampler instead of letting the construction blow up. With a
            // zero sample budget the live mass simply stays between the
            // proven bounds.
            let budget_exhausted = cfg.samples > 0 && samples_taken >= s_cur;
            let cap_exceeded = created_nodes_total > cfg.node_cap;
            if (budget_exhausted || cap_exceeded) && l + 1 < layers_total {
                node_cap_hit |= cap_exceeded;
                let live_mass_wf: WideFloat = next_pn.iter().copied().sum();
                let live_mass = live_mass_wf.to_f64();
                let live_quota = ((s_cur as f64) * live_mass).floor() as usize;
                if live_mass > 0.0 && cfg.samples > 0 {
                    let mut st = Stratum::new(usize::MAX, live_mass);
                    let quota = live_quota.max(1);
                    sample_pool(
                        &next,
                        &next_pn,
                        live_mass_wf,
                        quota,
                        &machine,
                        cfg.estimator,
                        &mut sampler,
                        &mut st,
                        &mut rng,
                    );
                    samples_taken += quota;
                    strata.push(st);
                    early_exit |= budget_exhausted;
                    break;
                }
                if cap_exceeded {
                    // No sampling budget: abandon the live mass; the
                    // estimate degrades to the proven lower bound.
                    break;
                }
            }

            // The next layer's nodes, in insertion order, with priorities
            // (needs post-layer future degrees, so it happens before
            // advance()).
            nodes.clear();
            for (i, &pn) in next_pn.iter().enumerate() {
                let h = heuristic(&machine, next.row(i), pn, k, &mut comp_degree);
                nodes.push(Node {
                    row: i as u32,
                    pn,
                    h,
                });
            }
            std::mem::swap(&mut cur, &mut next);
            machine.advance();
        }

        // Assemble the estimate: proven mass plus per-stratum estimates.
        let pc_f = pc.to_f64();
        let pd_f = pd.to_f64();
        let mut estimate = pc_f;
        let mut variance = 0.0f64;
        for st in &strata {
            estimate += st.estimate(cfg.estimator);
            variance += st.variance_contrib(cfg.estimator);
        }
        let exact = strata.is_empty() && !early_exit && !node_cap_hit && deleted_nodes_total == 0;
        if exact {
            debug_assert!(
                (pc_f + pd_f - 1.0).abs() < 1e-9,
                "exact run must account for all mass: pc={pc_f} pd={pd_f}"
            );
        }
        // pc and 1-pd can cross by one ulp on exact runs; keep the interval sane.
        let upper = (1.0 - pd_f).max(pc_f);
        Ok(S2BddResult {
            estimate: estimate.clamp(pc_f, upper),
            lower_bound: pc_f,
            upper_bound: upper,
            exact,
            samples_requested: cfg.samples,
            samples_used: samples_taken,
            s_prime_final: s_cur,
            strata: strata.len(),
            deleted_nodes: deleted_nodes_total,
            variance_estimate: variance,
            peak_width,
            peak_memory_bytes: peak_memory,
            layers_completed,
            layers_total,
            early_exit,
            node_cap_hit,
            nodes_created: created_nodes_total,
        })
    }

    /// Exact reliability via an unbounded-width S2BDD.
    pub fn exact(g: &UncertainGraph, terminals: &[VertexId]) -> Result<f64, GraphError> {
        let r = Self::solve(g, terminals, S2BddConfig::exact())?;
        debug_assert!(r.exact);
        Ok(r.estimate)
    }
}

/// Draw `quota` conditional worlds from a weighted node pool — the rows of
/// `pool` with masses `pns`, aligned with the machine's next frontier —
/// recording them into `st`. Node choice is probability-proportional
/// (multinomial), which keeps the stratum estimator unbiased.
#[expect(
    clippy::too_many_arguments,
    reason = "a stratum draw reads both call sites' pool, machine and sampler state; a bundling struct would only rename them"
)]
fn sample_pool(
    pool: &LayerArena,
    pns: &[WideFloat],
    pool_mass: WideFloat,
    quota: usize,
    machine: &FrontierMachine,
    estimator: EstimatorKind,
    sampler: &mut StratumSampler,
    st: &mut Stratum,
    rng: &mut StdRng,
) {
    debug_assert!(!pns.is_empty() && pns.len() == pool.len());
    // Cumulative node weights, computed in the wide domain to survive
    // underflow, then normalized into f64.
    let mut cum = Vec::with_capacity(pns.len());
    let mut acc = 0.0f64;
    for &pn in pns {
        acc += (pn / pool_mass).to_f64();
        cum.push(acc);
    }
    let frontier = machine.next_frontier();
    let rest = &machine.ordered_edges()[machine.layer() + 1..];
    for _ in 0..quota {
        let x: f64 = rng.gen_range(0.0..1.0) * acc.max(1.0);
        let i = cum.partition_point(|&c| c < x).min(pns.len() - 1);
        let state = pool.row(i);
        match estimator {
            EstimatorKind::MonteCarlo => {
                let conn = sampler.sample_connected(state, frontier, rest, rng);
                st.record_mc(conn);
            }
            EstimatorKind::HorvitzThompson => {
                let (conn, ln_suffix, hash) = sampler.sample_full(state, frontier, rest, rng);
                // World identity and probability are *within the stratum*:
                // mix the node index into the hash and add the node's pick
                // log-probability.
                let mixed = hash ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15);
                let ln_node = (pns[i] / pool_mass).to_f64().max(f64::MIN_POSITIVE).ln();
                st.record_ht(mixed, ln_node + ln_suffix, conn);
            }
        }
    }
}

/// The paper's deletion heuristic (Eq. 10):
/// `h(n) = p_n · max_f max(t_{n,f}/k, 1/d_{n,f})` over terminal-bearing
/// components; nodes with no terminal-bearing component get priority 0.
/// `d` is a reused buffer.
fn heuristic(
    machine: &FrontierMachine,
    state: StateRow<'_>,
    pn: WideFloat,
    k: usize,
    d: &mut Vec<u64>,
) -> WideFloat {
    let ncomps = state.tcnt.len();
    if ncomps == 0 {
        return WideFloat::ZERO;
    }
    // d_{n,f}: uncertain edges incident to each component = summed future
    // degrees of its frontier members (derived, not stored — see DESIGN.md).
    d.clear();
    d.resize(ncomps, 0);
    for (&c, &fd) in state.comp.iter().zip(machine.next_future_degrees()) {
        d[c as usize] += fd as u64;
    }
    let mut best = 0.0f64;
    for (&t, &dc) in state.tcnt.iter().zip(d.iter()) {
        if t == 0 {
            continue;
        }
        let t_term = t as f64 / k as f64;
        let d_term = if dc > 0 { 1.0 / dc as f64 } else { 1.0 };
        best = best.max(t_term).max(d_term);
    }
    pn.mul_f64(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_bdd::brute_force_reliability;
    use proptest::prelude::*;

    fn fixture() -> (UncertainGraph, Vec<usize>) {
        // The paper's Figure 1 graph: a~e with 6 edges at p = 0.7.
        let g = UncertainGraph::new(
            5,
            [
                (0, 1, 0.7), // e1 a-b
                (0, 2, 0.7), // e2 a-c
                (1, 2, 0.7), // e3 b-c
                (1, 3, 0.7), // e4 b-d
                (2, 4, 0.7), // e5 c-e
                (3, 4, 0.7), // e6 d-e
            ],
        )
        .unwrap();
        (g, vec![0, 3, 4]) // terminals a, d, e
    }

    #[test]
    fn exact_matches_brute_force_on_figure1() {
        let (g, t) = fixture();
        let expect = brute_force_reliability(&g, &t);
        let got = S2Bdd::exact(&g, &t).unwrap();
        assert!((got - expect).abs() < 1e-12, "{got} vs {expect}");
    }

    #[test]
    fn exact_run_reports_exact_and_tight_bounds() {
        let (g, t) = fixture();
        let r = S2Bdd::solve(&g, &t, S2BddConfig::exact()).unwrap();
        assert!(r.exact);
        assert!(r.bound_gap() < 1e-12);
        assert_eq!(r.samples_used, 0);
        assert_eq!(r.strata, 0);
        assert_eq!(r.layers_total, 6);
    }

    #[test]
    fn trivial_instances() {
        let (g, _) = fixture();
        let r = S2Bdd::solve(&g, &[2], S2BddConfig::default()).unwrap();
        assert_eq!(r.estimate, 1.0);
        assert!(r.exact);
    }

    #[test]
    fn bounded_width_still_within_bounds() {
        let (g, t) = fixture();
        let exact = brute_force_reliability(&g, &t);
        for w in [1usize, 2, 3] {
            let cfg = S2BddConfig {
                max_width: w,
                samples: 4000,
                ..Default::default()
            };
            let r = S2Bdd::solve(&g, &t, cfg).unwrap();
            assert!(
                r.lower_bound <= exact + 1e-12,
                "w={w}: lb {} > {exact}",
                r.lower_bound
            );
            assert!(
                r.upper_bound >= exact - 1e-12,
                "w={w}: ub {} < {exact}",
                r.upper_bound
            );
            assert!(r.estimate >= r.lower_bound - 1e-12 && r.estimate <= r.upper_bound + 1e-12);
            // With sampling the estimate should be in the right neighborhood.
            assert!(
                (r.estimate - exact).abs() < 0.2,
                "w={w}: {} vs {exact}",
                r.estimate
            );
        }
    }

    #[test]
    fn narrow_width_estimates_converge_with_samples() {
        let (g, t) = fixture();
        let exact = brute_force_reliability(&g, &t);
        let cfg = S2BddConfig {
            max_width: 2,
            samples: 200_000,
            seed: 9,
            ..Default::default()
        };
        let r = S2Bdd::solve(&g, &t, cfg).unwrap();
        assert!(!r.exact);
        assert!(
            (r.estimate - exact).abs() < 0.02,
            "{} vs {exact}",
            r.estimate
        );
    }

    #[test]
    fn ht_estimator_also_converges() {
        let (g, t) = fixture();
        let exact = brute_force_reliability(&g, &t);
        let cfg = S2BddConfig {
            max_width: 2,
            samples: 100_000,
            estimator: EstimatorKind::HorvitzThompson,
            seed: 11,
            ..Default::default()
        };
        let r = S2Bdd::solve(&g, &t, cfg).unwrap();
        assert!(
            (r.estimate - exact).abs() < 0.05,
            "{} vs {exact}",
            r.estimate
        );
    }

    #[test]
    fn sample_reduction_engages() {
        let (g, t) = fixture();
        let cfg = S2BddConfig {
            max_width: 2,
            samples: 10_000,
            ..Default::default()
        };
        let r = S2Bdd::solve(&g, &t, cfg).unwrap();
        // Bounds tighten during construction, so the final budget is reduced.
        assert!(
            r.s_prime_final < r.samples_requested,
            "{} vs {}",
            r.s_prime_final,
            r.samples_requested
        );
    }

    #[test]
    fn early_exit_engages_when_budget_exhausted() {
        // Cycle 0-1-2-3 with terminals {0, 2}: at layer 0 both branches
        // survive; with w = 1 one node is deleted and sampled, consuming the
        // whole budget (s = 1), so the next layer boundary early-exits.
        let g =
            UncertainGraph::new(4, [(0, 1, 0.6), (1, 2, 0.6), (2, 3, 0.6), (3, 0, 0.6)]).unwrap();
        let exact = brute_force_reliability(&g, &[0, 2]);
        let cfg = S2BddConfig {
            max_width: 1,
            samples: 1,
            seed: 2,
            ..Default::default()
        };
        let r = S2Bdd::solve(&g, &[0, 2], cfg).unwrap();
        assert!(r.early_exit, "budget of 1 must exhaust immediately: {r:?}");
        assert!(!r.exact);
        assert!(r.lower_bound <= exact && exact <= r.upper_bound);
        assert!(r.layers_completed < r.layers_total);
    }

    #[test]
    fn node_cap_aborts_with_valid_bounds_and_estimate() {
        let (g, t) = fixture();
        let exact = brute_force_reliability(&g, &t);
        let cfg = S2BddConfig {
            node_cap: 3,
            samples: 50_000,
            seed: 13,
            ..S2BddConfig::exact()
        };
        let r = S2Bdd::solve(&g, &t, cfg).unwrap();
        assert!(
            r.node_cap_hit,
            "cap of 3 nodes must trip on Figure 1: {r:?}"
        );
        assert!(!r.exact);
        assert!(!r.early_exit, "cap abort is not a budget early exit");
        assert!(r.layers_completed < r.layers_total);
        assert!(r.lower_bound <= exact + 1e-12 && exact - 1e-12 <= r.upper_bound);
        // The live layer was surfaced as one stratum; with a generous budget
        // the estimate lands near the truth.
        assert!(r.strata >= 1);
        assert!(
            (r.estimate - exact).abs() < 0.05,
            "{} vs {exact}",
            r.estimate
        );
    }

    #[test]
    fn node_cap_without_samples_degrades_to_lower_bound() {
        let (g, t) = fixture();
        let cfg = S2BddConfig {
            node_cap: 3,
            ..S2BddConfig::exact()
        };
        let r = S2Bdd::solve(&g, &t, cfg).unwrap();
        assert!(r.node_cap_hit);
        assert!(!r.exact);
        assert_eq!(r.samples_used, 0);
        assert_eq!(r.estimate, r.lower_bound);
    }

    #[test]
    fn unbounded_node_cap_preserves_exactness() {
        let (g, t) = fixture();
        let base = S2Bdd::solve(&g, &t, S2BddConfig::exact()).unwrap();
        assert!(base.exact && !base.node_cap_hit);
        // A cap far above the diagram size never trips.
        let roomy = S2BddConfig {
            node_cap: 1_000_000,
            ..S2BddConfig::exact()
        };
        let r = S2Bdd::solve(&g, &t, roomy).unwrap();
        assert!(r.exact && !r.node_cap_hit);
        assert_eq!(r.estimate.to_bits(), base.estimate.to_bits());
    }

    #[test]
    fn zero_samples_with_finite_width_degrades_to_lower_bound() {
        let (g, t) = fixture();
        let cfg = S2BddConfig {
            max_width: 1,
            samples: 0,
            ..Default::default()
        };
        let r = S2Bdd::solve(&g, &t, cfg).unwrap();
        assert!(!r.exact);
        assert_eq!(r.samples_used, 0);
        // With no sampling the deleted mass is unaccounted; the clamped
        // estimate equals the proven lower bound.
        assert_eq!(r.estimate, r.lower_bound);
    }

    #[test]
    fn certain_edges_take_single_branch() {
        // p = 1.0 edges must not generate a zero-probability 0-branch.
        let g = UncertainGraph::new(3, [(0, 1, 1.0), (1, 2, 0.5)]).unwrap();
        let r = S2Bdd::solve(&g, &[0, 2], S2BddConfig::exact()).unwrap();
        assert!(r.exact);
        assert!((r.estimate - 0.5).abs() < 1e-12);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn exact_agrees_with_brute_force(
            edges in proptest::collection::vec((0usize..7, 0usize..7, 0.05f64..1.0), 1..12),
            t0 in 0usize..7,
            t1 in 0usize..7,
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
            let g = UncertainGraph::new(7, list).unwrap();
            let mut t = vec![t0, t1];
            t.sort_unstable();
            t.dedup();
            let expect = brute_force_reliability(&g, &t);
            let got = S2Bdd::exact(&g, &t).unwrap();
            prop_assert!((got - expect).abs() < 1e-9, "{} vs {}", got, expect);
        }

        /// At any width, the proven bounds must bracket the true reliability.
        #[test]
        fn bounds_always_bracket_truth(
            edges in proptest::collection::vec((0usize..6, 0usize..6, 0.1f64..0.95), 2..11),
            w in 1usize..6,
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
            prop_assume!(list.len() >= 2);
            let g = UncertainGraph::new(6, list).unwrap();
            let t = vec![0, 5];
            let exact = brute_force_reliability(&g, &t);
            let cfg = S2BddConfig { max_width: w, samples: 200, ..Default::default() };
            let r = S2Bdd::solve(&g, &t, cfg).unwrap();
            prop_assert!(r.lower_bound <= exact + 1e-9);
            prop_assert!(r.upper_bound >= exact - 1e-9);
        }
    }
}
