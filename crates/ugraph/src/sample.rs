//! Possible-world sampling with early-exit terminal connectivity.
//!
//! This is the hot path of the Monte Carlo baseline (`Sampling(MC)` in the
//! paper, §3.2.2): draw each edge independently, union endpoints, and stop as
//! soon as all `k` terminals share a component. Early exit is unbiased — the
//! connectivity indicator does not depend on the undrawn edges.
//!
//! To avoid an `O(|V|)` reset per sample the union-find slots are versioned
//! with an epoch counter and lazily re-initialized on first access, so a
//! sample costs `O(|E| α(|V|))` regardless of `|V|`.

use crate::graph::{EdgeId, UncertainGraph, VertexId};
use rand::Rng;

#[derive(Clone, Copy, Debug)]
struct Slot {
    parent: u32,
    size: u32,
    tcount: u32,
    epoch: u32,
}

/// Reusable possible-world sampler for a fixed vertex-count budget.
#[derive(Clone, Debug)]
pub struct WorldSampler {
    slots: Vec<Slot>,
    epoch: u32,
}

impl WorldSampler {
    /// Sampler for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        WorldSampler {
            slots: vec![
                Slot {
                    parent: 0,
                    size: 0,
                    tcount: 0,
                    epoch: 0
                };
                n
            ],
            epoch: 0,
        }
    }

    #[inline]
    fn touch(&mut self, x: usize) {
        let s = &mut self.slots[x];
        if s.epoch != self.epoch {
            s.epoch = self.epoch;
            s.parent = x as u32;
            s.size = 1;
            s.tcount = 0;
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

    /// Start a fresh world; marks every slot stale in O(1).
    fn begin(&mut self, terminals: &[VertexId]) -> u32 {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: do one eager pass so stale epochs can't alias.
            for (i, s) in self.slots.iter_mut().enumerate() {
                *s = Slot {
                    parent: i as u32,
                    size: 1,
                    tcount: 0,
                    epoch: 0,
                };
            }
        }
        for &t in terminals {
            self.touch(t);
            self.slots[t].tcount = 1;
        }
        terminals.len() as u32
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
        self.slots[ra].tcount
    }

    /// Draw one possible world of `g` and report whether all `terminals` are
    /// connected in it. Exits early once connectivity is decided; the skipped
    /// edge draws do not bias the indicator.
    pub fn sample_connected<R: Rng + ?Sized>(
        &mut self,
        g: &UncertainGraph,
        terminals: &[VertexId],
        rng: &mut R,
    ) -> bool {
        let k = self.begin(terminals);
        if k <= 1 {
            return true;
        }
        for e in g.edges() {
            if rng.gen::<f64>() < e.p && self.union_count(e.u, e.v) == k {
                return true;
            }
        }
        false
    }

    /// Draw one *full* possible world (no early exit) and return
    /// `(connected, ln Pr[G_p], state_hash)`. Used by the Horvitz–Thompson
    /// estimator, which needs each sampled world's existence probability and
    /// an identity for without-replacement dedup.
    pub fn sample_world_full<R: Rng + ?Sized>(
        &mut self,
        g: &UncertainGraph,
        terminals: &[VertexId],
        rng: &mut R,
    ) -> (bool, f64, u64) {
        let k = self.begin(terminals);
        let mut connected_count = if k <= 1 { k } else { 0 };
        let mut ln_p = 0.0f64;
        // FNV-1a over the edge-state bitstring.
        let mut hash = 0xcbf29ce484222325u64;
        for e in g.edges() {
            let exists = rng.gen::<f64>() < e.p;
            hash ^= exists as u64 + 1;
            hash = hash.wrapping_mul(0x100000001b3);
            if exists {
                ln_p += e.p.ln();
                let c = self.union_count(e.u, e.v);
                connected_count = connected_count.max(c);
            } else {
                ln_p += (1.0 - e.p).ln();
            }
        }
        (k <= 1 || connected_count >= k, ln_p, hash)
    }
}

/// Epoch-versioned layered BFS for hop-bounded reachability: is `t`
/// reachable from `s` over at most `max_hops` admitted edges? The search is
/// truncated at depth `max_hops` and exits early once `t` enters the
/// frontier. Visited marks are epoch-versioned, so one workspace serves any
/// number of searches at `O(|E| + |V_visited|)` each, with no per-search
/// reset or allocation.
#[derive(Clone, Debug)]
pub struct HopBfs {
    visited: Vec<u32>,
    epoch: u32,
    frontier: Vec<u32>,
    next: Vec<u32>,
}

impl HopBfs {
    /// Workspace for graphs with up to `n` vertices.
    pub fn new(n: usize) -> Self {
        assert!(n <= u32::MAX as usize);
        HopBfs {
            visited: vec![0; n],
            epoch: 0,
            frontier: Vec::new(),
            next: Vec::new(),
        }
    }

    /// Whether `t` is reachable from `s` within `max_hops` edges, walking
    /// only the edges for which `admit` holds. `s == t` is vacuously true.
    pub fn reaches(
        &mut self,
        g: &UncertainGraph,
        s: VertexId,
        t: VertexId,
        max_hops: u32,
        admit: impl Fn(EdgeId) -> bool,
    ) -> bool {
        if s == t {
            return true;
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Extremely rare wrap: clear eagerly so stale epochs can't alias.
            self.visited.iter_mut().for_each(|v| *v = 0);
            self.epoch = 1;
        }
        self.visited[s] = self.epoch;
        self.frontier.clear();
        self.frontier.push(s as u32);
        for _ in 0..max_hops {
            self.next.clear();
            for fi in 0..self.frontier.len() {
                let v = self.frontier[fi] as usize;
                for &(w, e) in g.neighbors(v) {
                    if admit(e) && self.visited[w] != self.epoch {
                        if w == t {
                            return true;
                        }
                        self.visited[w] = self.epoch;
                        self.next.push(w as u32);
                    }
                }
            }
            std::mem::swap(&mut self.frontier, &mut self.next);
            if self.frontier.is_empty() {
                return false;
            }
        }
        false
    }
}

/// Reusable possible-world sampler for *hop-bounded* reachability: does the
/// sampled world contain an `s`–`t` path of at most `d` edges?
///
/// Unlike [`WorldSampler`], connectivity alone is not enough — the indicator
/// depends on path *length* — so each sample draws the full edge mask first
/// (every edge must be decided before the BFS; lazily drawing edges during
/// the traversal would draw an edge once per incidence and bias the world
/// distribution) and then runs a [`HopBfs`] over the drawn edges.
#[derive(Clone, Debug)]
pub struct HopSampler {
    present: Vec<bool>,
    bfs: HopBfs,
}

impl HopSampler {
    /// Sampler for graphs with up to `n` vertices and `m` edges.
    pub fn new(n: usize, m: usize) -> Self {
        HopSampler {
            present: vec![false; m],
            bfs: HopBfs::new(n),
        }
    }

    /// Draw one possible world of `g` and report whether it contains an
    /// `s`–`t` path of at most `max_hops` edges. Every edge is drawn (the
    /// hop-bounded indicator depends on the full mask), so the draw count
    /// per world is fixed at `|E|`.
    pub fn sample_within_hops<R: Rng + ?Sized>(
        &mut self,
        g: &UncertainGraph,
        s: VertexId,
        t: VertexId,
        max_hops: u32,
        rng: &mut R,
    ) -> bool {
        for (i, e) in g.edges().iter().enumerate() {
            self.present[i] = rng.gen::<f64>() < e.p;
        }
        self.bfs.reaches(g, s, t, max_hops, |e| self.present[e])
    }

    /// Hop-bounded analogue of [`WorldSampler::sample_world_full`]: draw one
    /// full world and return `(reaches, ln Pr[G_p], state_hash)` for the
    /// Horvitz–Thompson estimator.
    pub fn sample_world_within_hops<R: Rng + ?Sized>(
        &mut self,
        g: &UncertainGraph,
        s: VertexId,
        t: VertexId,
        max_hops: u32,
        rng: &mut R,
    ) -> (bool, f64, u64) {
        let mut ln_p = 0.0f64;
        // FNV-1a over the edge-state bitstring, identical to the
        // connectivity sampler so world identities are comparable.
        let mut hash = 0xcbf29ce484222325u64;
        for (i, e) in g.edges().iter().enumerate() {
            let exists = rng.gen::<f64>() < e.p;
            self.present[i] = exists;
            hash ^= exists as u64 + 1;
            hash = hash.wrapping_mul(0x100000001b3);
            ln_p += if exists { e.p.ln() } else { (1.0 - e.p).ln() };
        }
        (
            self.bfs.reaches(g, s, t, max_hops, |e| self.present[e]),
            ln_p,
            hash,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn path3() -> UncertainGraph {
        UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap()
    }

    #[test]
    fn deterministic_edges_deterministic_answer() {
        let g = UncertainGraph::new(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let mut s = WorldSampler::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            assert!(s.sample_connected(&g, &[0, 2], &mut rng));
        }
    }

    #[test]
    fn single_terminal_always_connected() {
        let g = path3();
        let mut s = WorldSampler::new(3);
        let mut rng = StdRng::seed_from_u64(2);
        assert!(s.sample_connected(&g, &[1], &mut rng));
    }

    #[test]
    fn estimates_series_probability() {
        // Two edges in series with p = 0.5 each: R[0~2] = 0.25.
        let g = path3();
        let mut s = WorldSampler::new(3);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 200_000;
        let hits = (0..n)
            .filter(|_| s.sample_connected(&g, &[0, 2], &mut rng))
            .count();
        let est = hits as f64 / n as f64;
        assert!((est - 0.25).abs() < 0.01, "estimate {est}");
    }

    #[test]
    fn full_world_prob_is_consistent() {
        let g = path3();
        let mut s = WorldSampler::new(3);
        let mut rng = StdRng::seed_from_u64(7);
        // All worlds of this graph have probability 0.25 (0.5 * 0.5).
        for _ in 0..20 {
            let (_, lnp, _) = s.sample_world_full(&g, &[0, 2], &mut rng);
            assert!((lnp - 0.25f64.ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn full_world_hash_distinguishes_states() {
        let g = path3();
        let mut s = WorldSampler::new(3);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hashes = std::collections::HashSet::new();
        for _ in 0..200 {
            let (_, _, h) = s.sample_world_full(&g, &[0, 2], &mut rng);
            hashes.insert(h);
        }
        // 2 edges → 4 distinct worlds.
        assert_eq!(hashes.len(), 4);
    }

    #[test]
    fn hop_sampler_depth_bound_is_sharp() {
        // Deterministic path 0-1-2: 0 reaches 2 within 2 hops, never within 1.
        let g = UncertainGraph::new(3, [(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
        let mut hs = HopSampler::new(3, 2);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            assert!(hs.sample_within_hops(&g, 0, 2, 2, &mut rng));
            assert!(!hs.sample_within_hops(&g, 0, 2, 1, &mut rng));
            assert!(hs.sample_within_hops(&g, 0, 0, 0, &mut rng), "s == t");
        }
    }

    #[test]
    fn hop_sampler_estimates_bounded_path_probability() {
        // Square 0-1-2-3-0 with a chord 0-2: within 1 hop only the chord
        // counts (p = 0.3); within 2 hops the two 2-edge paths join in.
        let g = UncertainGraph::new(
            4,
            [
                (0, 1, 0.5),
                (1, 2, 0.5),
                (2, 3, 0.5),
                (3, 0, 0.5),
                (0, 2, 0.3),
            ],
        )
        .unwrap();
        let mut hs = HopSampler::new(4, 5);
        let mut rng = StdRng::seed_from_u64(9);
        let n = 200_000;
        let hits1 = (0..n)
            .filter(|_| hs.sample_within_hops(&g, 0, 2, 1, &mut rng))
            .count();
        assert!((hits1 as f64 / n as f64 - 0.3).abs() < 0.01);
        let truth2 = 1.0 - (1.0 - 0.3f64) * (1.0 - 0.25) * (1.0 - 0.25);
        let hits2 = (0..n)
            .filter(|_| hs.sample_within_hops(&g, 0, 2, 2, &mut rng))
            .count();
        assert!((hits2 as f64 / n as f64 - truth2).abs() < 0.01);
    }

    #[test]
    fn hop_sampler_full_world_matches_quick_path() {
        let g = path3();
        let mut a = HopSampler::new(3, 2);
        let mut b = HopSampler::new(3, 2);
        let mut rng_a = StdRng::seed_from_u64(13);
        let mut rng_b = StdRng::seed_from_u64(13);
        for _ in 0..200 {
            let quick = a.sample_within_hops(&g, 0, 2, 2, &mut rng_a);
            let (full, lnp, _) = b.sample_world_within_hops(&g, 0, 2, 2, &mut rng_b);
            assert_eq!(quick, full, "same seed, same worlds, same indicator");
            assert!((lnp - 0.25f64.ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn epoch_reuse_is_clean() {
        // A world where the terminals connect must not leak into the next.
        let g = UncertainGraph::new(2, [(0, 1, 0.5)]).unwrap();
        let mut s = WorldSampler::new(2);
        let mut rng = StdRng::seed_from_u64(11);
        let n = 100_000;
        let hits = (0..n)
            .filter(|_| s.sample_connected(&g, &[0, 1], &mut rng))
            .count();
        let est = hits as f64 / n as f64;
        assert!((est - 0.5).abs() < 0.01, "estimate {est}");
    }
}
