//! Conditional possible-world sampling from an S2BDD node.
//!
//! A node at layer `l` represents the set of possible worlds that share its
//! frontier state; sampling a world from it means drawing states for the
//! *remaining* edges only and checking k-terminal connectivity against the
//! node's component structure — the dynamic-programming view of §4.1:
//! sampling from an intermediate graph is a subproblem of sampling from `G`.
//!
//! The union-find is epoch-versioned (like `netrel_ugraph::sample`) so a
//! sample costs `O(|E_rest| α)` instead of `O(|V|)` reset time.
//!
//! The Monte Carlo draw stops as soon as its indicator is decided. A
//! terminal-bearing component none of whose members has an edge left can
//! never grow again; if it holds some but not all terminals, no undrawn edge
//! can connect them, so the world is disconnected. The draw then returns
//! after advancing the generator by exactly the draws it skips, so the next
//! sample reads the same stream it would have after a full walk.

use netrel_bdd::frontier::{FrontierMachine, LayerEdge, StateRow};
use netrel_ugraph::VertexId;
use rand::Rng;

#[derive(Clone, Copy, Debug)]
struct Slot {
    parent: u32,
    size: u32,
    tcount: u32,
    epoch: u32,
    /// At a root: the last layer touching any member of the component.
    last: u32,
}

/// Reusable sampler of conditional worlds below a frontier state.
#[derive(Clone, Debug)]
pub struct StratumSampler {
    slots: Vec<Slot>,
    epoch: u32,
    is_terminal: Vec<bool>,
    /// Last layer touching each vertex (saturated to `u32::MAX`).
    last_touch: Vec<u32>,
    /// Layers of the machine's edge order.
    layers: usize,
    k: u32,
    /// First frontier member seen per component (reused by `begin`).
    first_member: Vec<u32>,
}

impl StratumSampler {
    /// Sampler for the states of `machine`: its terminals, and its edge
    /// order, of which every `rest_edges` argument must be a suffix.
    pub fn new(machine: &FrontierMachine) -> Self {
        let is_terminal = machine.terminal_mask().to_vec();
        StratumSampler {
            slots: vec![
                Slot {
                    parent: 0,
                    size: 0,
                    tcount: 0,
                    epoch: 0,
                    last: 0,
                };
                is_terminal.len()
            ],
            epoch: 0,
            is_terminal,
            last_touch: machine
                .last_touch()
                .iter()
                .map(|&l| u32::try_from(l).unwrap_or(u32::MAX))
                .collect(),
            layers: machine.layers(),
            k: machine.k() as u32,
            first_member: Vec::new(),
        }
    }

    #[inline]
    fn touch(&mut self, x: usize) {
        let init_t = self.is_terminal[x] as u32;
        let last = self.last_touch[x];
        let s = &mut self.slots[x];
        if s.epoch != self.epoch {
            s.epoch = self.epoch;
            s.parent = x as u32;
            s.size = 1;
            s.tcount = init_t;
            s.last = last;
        }
    }

    #[inline]
    fn find(&mut self, mut x: usize) -> usize {
        self.touch(x);
        loop {
            let p = self.slots[x].parent as usize;
            if p == x {
                return x;
            }
            let gp = self.slots[p].parent;
            self.slots[x].parent = gp;
            x = gp as usize;
        }
    }

    #[inline]
    fn union_count(&mut self, u: usize, v: usize) -> u32 {
        let mut ra = self.find(u);
        let mut rb = self.find(v);
        if ra == rb {
            return self.slots[ra].tcount;
        }
        if self.slots[ra].size < self.slots[rb].size {
            std::mem::swap(&mut ra, &mut rb);
        }
        self.slots[rb].parent = ra as u32;
        self.slots[ra].size += self.slots[rb].size;
        self.slots[ra].tcount += self.slots[rb].tcount;
        self.slots[ra].last = self.slots[ra].last.max(self.slots[rb].last);
        self.slots[ra].tcount
    }

    /// Whether layer `l` is `w`'s last touch and leaves `w`'s component
    /// unable to grow while it holds between 1 and `k − 1` terminals: then
    /// the world is disconnected whatever the undrawn edges are.
    #[inline]
    fn is_dead(&mut self, w: usize, l: usize) -> bool {
        if self.last_touch[w] as usize != l {
            return false;
        }
        let root = self.find(w);
        let r = self.slots[root];
        r.last as usize <= l && r.tcount > 0 && r.tcount < self.k
    }

    /// Initialize a fresh world from the node's component structure:
    /// members of each component are unioned and the component root carries
    /// the component's terminal count (which already includes terminals that
    /// left the frontier inside it).
    fn begin(&mut self, state: StateRow<'_>, frontier: &[VertexId]) -> bool {
        debug_assert_eq!(state.comp.len(), frontier.len());
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            for (i, s) in self.slots.iter_mut().enumerate() {
                *s = Slot {
                    parent: i as u32,
                    size: 1,
                    tcount: self.is_terminal[i] as u32,
                    epoch: 0,
                    last: self.last_touch[i],
                };
            }
        }
        // Union each component's members, then overwrite the root count with
        // the component's stored count.
        let mut first_member = std::mem::take(&mut self.first_member);
        first_member.clear();
        first_member.resize(state.tcnt.len(), u32::MAX);
        for (&c, &v) in state.comp.iter().zip(frontier) {
            let c = c as usize;
            self.touch(v);
            if first_member[c] == u32::MAX {
                first_member[c] = v as u32;
            } else {
                self.union_count(first_member[c] as usize, v);
            }
        }
        let mut connected = false;
        for (&fm, &tc) in first_member.iter().zip(state.tcnt) {
            if fm != u32::MAX {
                let r = self.find(fm as usize);
                self.slots[r].tcount = tc;
                connected |= tc >= self.k;
            }
        }
        self.first_member = first_member;
        connected
    }

    /// Draw one conditional world: Bernoulli states for `rest_edges` only.
    /// Returns whether all `k` terminals are connected. Stops as soon as the
    /// indicator is decided (unbiased — it does not depend on undrawn
    /// edges); a proven disconnection still advances `rng` past every
    /// undrawn edge, one `next_u64` each.
    pub fn sample_connected<R: Rng + ?Sized>(
        &mut self,
        state: StateRow<'_>,
        frontier: &[VertexId],
        rest_edges: &[LayerEdge],
        rng: &mut R,
    ) -> bool {
        if self.begin(state, frontier) {
            return true;
        }
        debug_assert!(rest_edges.len() <= self.layers, "rest is a suffix");
        let first = self.layers - rest_edges.len();
        for (i, e) in rest_edges.iter().enumerate() {
            if rng.gen::<f64>() < e.p && self.union_count(e.u, e.v) >= self.k {
                return true;
            }
            let l = first + i;
            if self.is_dead(e.u, l) || self.is_dead(e.v, l) {
                for _ in i + 1..rest_edges.len() {
                    rng.next_u64();
                }
                return false;
            }
        }
        false
    }

    /// Draw one *full* conditional world (all remaining edges) and return
    /// `(connected, ln conditional probability, state hash)` for the
    /// Horvitz–Thompson estimator.
    pub fn sample_full<R: Rng + ?Sized>(
        &mut self,
        state: StateRow<'_>,
        frontier: &[VertexId],
        rest_edges: &[LayerEdge],
        rng: &mut R,
    ) -> (bool, f64, u64) {
        let mut connected = self.begin(state, frontier);
        let mut ln_p = 0.0f64;
        let mut hash = 0xcbf29ce484222325u64;
        for e in rest_edges {
            let exists = rng.gen::<f64>() < e.p;
            hash ^= exists as u64 + 1;
            hash = hash.wrapping_mul(0x100000001b3);
            if exists {
                ln_p += e.p.ln();
                connected |= self.union_count(e.u, e.v) >= self.k;
            } else {
                ln_p += (1.0 - e.p).ln();
            }
        }
        (connected, ln_p, hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_bdd::frontier::{LayerArena, MergeRule, Scratch, Transition};
    use netrel_ugraph::ordering::EdgeOrder;
    use netrel_ugraph::UncertainGraph;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The machine of `edges` (processed in input order) and `terminals`,
    /// plus a sampler for it.
    fn setup(
        n: usize,
        edges: &[(usize, usize, f64)],
        terminals: &[usize],
    ) -> (FrontierMachine, StratumSampler) {
        let g = UncertainGraph::new(n, edges.iter().copied()).unwrap();
        let m = FrontierMachine::new(&g, terminals, EdgeOrder::Input).unwrap();
        let s = StratumSampler::new(&m);
        (m, s)
    }

    fn row<'a>(comp: &'a [u16], tcnt: &'a [u32]) -> StateRow<'a> {
        StateRow { comp, tcnt }
    }

    #[test]
    fn already_connected_state_always_hits() {
        // One component holding both terminals.
        let (_, mut s) = setup(3, &[(0, 1, 0.5), (1, 2, 0.5)], &[0, 1]);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            assert!(s.sample_connected(row(&[0, 0], &[2]), &[0, 1], &[], &mut rng));
        }
    }

    #[test]
    fn conditional_series_probability() {
        // Frontier vertex 1 carries terminal count 1 (terminal 0 merged in and
        // left); terminal 2 still unseen; one remaining edge (1,2) at 0.5.
        let (m, mut s) = setup(3, &[(0, 1, 0.9), (1, 2, 0.5)], &[0, 2]);
        let mut rng = StdRng::seed_from_u64(2);
        let rest = &m.ordered_edges()[1..];
        let n = 100_000;
        let hits = (0..n)
            .filter(|_| s.sample_connected(row(&[0], &[1]), &[1], rest, &mut rng))
            .count();
        let est = hits as f64 / n as f64;
        assert!((est - 0.5).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn two_components_need_bridge() {
        // Components {1} and {2}, each holding one terminal; edges (1,3),(3,2)
        // must both exist: probability 0.25.
        let edges = [(0, 1, 0.9), (0, 2, 0.9), (1, 3, 0.5), (2, 3, 0.5)];
        let (m, mut s) = setup(4, &edges, &[1, 2]);
        let mut rng = StdRng::seed_from_u64(3);
        let rest = &m.ordered_edges()[2..];
        let n = 100_000;
        let hits = (0..n)
            .filter(|_| s.sample_connected(row(&[0, 1], &[1, 1]), &[1, 2], rest, &mut rng))
            .count();
        let est = hits as f64 / n as f64;
        assert!((est - 0.25).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn component_count_overrides_member_flags() {
        // Component {1} carries count 2 even though vertex 1 is not a
        // terminal itself (both terminals merged in and left the frontier).
        let (_, mut s) = setup(4, &[(0, 1, 0.5), (1, 2, 0.5), (1, 3, 0.5)], &[0, 2]);
        let mut rng = StdRng::seed_from_u64(4);
        assert!(s.sample_connected(row(&[0], &[2]), &[1], &[], &mut rng));
    }

    #[test]
    fn full_sampler_reports_cond_prob() {
        let (m, mut s) = setup(3, &[(0, 1, 0.9), (1, 2, 0.25)], &[0, 2]);
        let mut rng = StdRng::seed_from_u64(5);
        let rest = &m.ordered_edges()[1..];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let (conn, lnp, h) = s.sample_full(row(&[0], &[1]), &[1], rest, &mut rng);
            seen.insert(h);
            if conn {
                assert!((lnp - 0.25f64.ln()).abs() < 1e-12);
            } else {
                assert!((lnp - 0.75f64.ln()).abs() < 1e-12);
            }
        }
        assert_eq!(seen.len(), 2);
    }

    #[test]
    fn unseen_terminals_counted_lazily() {
        // Empty frontier state (root-like): terminals 0 and 1 both unseen;
        // single edge (0,1) with p=0.7 connects them.
        let (m, mut s) = setup(2, &[(0, 1, 0.7)], &[0, 1]);
        let mut rng = StdRng::seed_from_u64(6);
        let rest = m.ordered_edges();
        let n = 100_000;
        let hits = (0..n)
            .filter(|_| s.sample_connected(row(&[], &[]), &[], rest, &mut rng))
            .count();
        let est = hits as f64 / n as f64;
        assert!((est - 0.7).abs() < 0.01, "estimate {est}");
    }

    /// The sampling loop before the dead-component cut-off: draw every
    /// remaining edge until the terminals connect.
    fn full_walk(
        s: &mut StratumSampler,
        state: StateRow<'_>,
        frontier: &[VertexId],
        rest: &[LayerEdge],
        rng: &mut StdRng,
    ) -> bool {
        if s.begin(state, frontier) {
            return true;
        }
        for e in rest {
            if rng.gen::<f64>() < e.p && s.union_count(e.u, e.v) >= s.k {
                return true;
            }
        }
        false
    }

    /// Draw `draws` worlds below `state` with the cut-off and with the full
    /// walk from one seed: every indicator and the generator's next output
    /// must agree.
    fn assert_same_draws(
        m: &FrontierMachine,
        state: StateRow<'_>,
        frontier: &[VertexId],
        rest: &[LayerEdge],
        seed: u64,
        draws: usize,
    ) {
        let mut cut = StratumSampler::new(m);
        let mut full = StratumSampler::new(m);
        let mut rng_cut = StdRng::seed_from_u64(seed);
        let mut rng_full = StdRng::seed_from_u64(seed);
        for i in 0..draws {
            let a = cut.sample_connected(state, frontier, rest, &mut rng_cut);
            let b = full_walk(&mut full, state, frontier, rest, &mut rng_full);
            assert_eq!(a, b, "draw {i} of {state:?}");
        }
        assert_eq!(rng_cut.next_u64(), rng_full.next_u64(), "streams diverged");
    }

    #[test]
    fn cut_off_after_the_first_edge_keeps_the_stream() {
        // Terminal 0 has a single edge, processed first: whenever it is
        // absent, 0's component can no longer grow, and the remaining three
        // draws are skipped.
        let edges = [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (1, 3, 0.5)];
        let (m, _) = setup(4, &edges, &[0, 3]);
        assert_same_draws(&m, row(&[], &[]), &[], m.ordered_edges(), 17, 256);
    }

    /// A state reached by following `path`'s bits from the root through
    /// layers `0..=layer` of a random graph's machine, with its terminal
    /// counts redistributed among the terminal-bearing components the way
    /// a `Pattern` merge can leave them (each stays positive, the sum is
    /// kept). `None` when the path hits a sink first.
    fn reach_state(
        m: &mut FrontierMachine,
        layer: usize,
        path: u64,
        shuffle: u64,
    ) -> Option<(Vec<u16>, Vec<u32>)> {
        let mut scratch = Scratch::default();
        let mut cur = LayerArena::new(MergeRule::ExactCounts);
        cur.find_or_insert(true);
        let mut next = LayerArena::new(MergeRule::ExactCounts);
        for l in 0..=layer {
            if l > 0 {
                m.advance();
            }
            next.reset(m.next_frontier().len());
            let take = (path >> (l % 64)) & 1 == 1;
            if m.apply(cur.row(0), take, &mut scratch, &mut next) != Transition::Next {
                return None;
            }
            cur.reset(m.next_frontier().len());
            cur.push(next.pending());
        }
        let state = cur.row(0);
        let mut tcnt = state.tcnt.to_vec();
        let flagged: Vec<usize> = (0..tcnt.len()).filter(|&c| tcnt[c] > 0).collect();
        let spare: u32 = flagged.iter().map(|&c| tcnt[c] - 1).sum();
        if !flagged.is_empty() {
            for &c in &flagged {
                tcnt[c] = 1;
            }
            for i in 0..spare {
                let c = flagged[(shuffle >> (2 * i % 64)) as usize % flagged.len()];
                tcnt[c] += 1;
            }
        }
        Some((state.comp.to_vec(), tcnt))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The cut-off returns what the full walk returns and leaves the
        /// generator where the full walk leaves it.
        #[test]
        fn cut_off_matches_the_full_walk(
            edges in proptest::collection::vec((0usize..7, 0usize..7, 0.05f64..1.0), 1..13),
            terminals in proptest::collection::vec(0usize..7, 2..4),
            layer in 0usize..12,
            path in 0u64..=u64::MAX,
            shuffle in 0u64..=u64::MAX,
            seed in 0u64..=u64::MAX,
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
            let mut m = FrontierMachine::new(&g, &terminals, EdgeOrder::Bfs).unwrap();
            prop_assume!(m.trivial().is_none() && m.k() >= 2);
            // From the root (all edges undrawn) ...
            let all = m.ordered_edges().to_vec();
            assert_same_draws(&m, row(&[], &[]), &[], &all, seed, 16);
            // ... and from a state below some layer.
            let layer = layer % m.layers();
            if let Some((comp, tcnt)) = reach_state(&mut m, layer, path, shuffle) {
                let frontier = m.next_frontier().to_vec();
                let rest = &all[layer + 1..];
                assert_same_draws(&m, row(&comp, &tcnt), &frontier, rest, seed, 16);
            }
        }
    }
}
