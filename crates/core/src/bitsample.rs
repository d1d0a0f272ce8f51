//! Bit-parallel possible-world sampling: 64 Monte Carlo worlds per machine
//! word.
//!
//! The flat sampler ([`sample_reliability`](crate::sample_reliability))
//! draws one possible world at a time: one `f64` uniform per edge, one
//! union-find pass per world. This module packs **64 worlds into each
//! `u64`** instead — lane `j` of every word belongs to world `j` of the
//! block — so that
//!
//! * one short run of raw RNG words threshold-packs 64 Bernoulli edge
//!   states at once (see [`packed_bernoulli`]), and
//! * one breadth-first pass with bitwise AND/OR frontier propagation over a
//!   [`CsrAdjacency`] answers 64 connectivity (or hop-bounded reachability)
//!   indicators simultaneously.
//!
//! **Estimator.** The packed kernel is Monte-Carlo-only: the estimate is
//! `popcount(hits) / samples` and the variance the same `R̂(1−R̂)/s` the flat
//! MC sampler reports, so confidence intervals built from a packed part are
//! constructed exactly as before — packing changes *how* worlds are drawn,
//! not what is estimated. Horvitz–Thompson needs per-world occurrence
//! probabilities and stays on the flat sampler.
//!
//! **Determinism.** The sample budget is partitioned into 64-lane *blocks*,
//! and block `b` draws from its own `StdRng(seed ⊕ b·golden)` — the same
//! stream-partition discipline as [`RNG_STREAMS`](crate::RNG_STREAMS) in
//! the flat sampler. Worker threads only execute blocks, so the result is a
//! pure function of `(samples, seed)`: byte-identical across thread counts
//! and engine instances. A partial final block still draws all 64 lanes and
//! masks the surplus, keeping the draw sequence independent of the budget's
//! remainder modulo 64.
//!
//! **Reuse.** Determinism also makes the edge presence masks memoizable:
//! they depend only on `(edges, samples, seed)`, never on terminals,
//! source, or hop bound, so queries over the same graph share every world
//! and a [`WorldBank`] serves them without redrawing. Once the draws are
//! shared, propagation is the whole cost of a query, so the bank also
//! keeps, for dense parts, every world's connected-component label per
//! vertex: a connectivity query then costs `blocks × bits × (k−1)` word
//! operations instead of one BFS per block. Either way the hit lanes are
//! the ones the BFS computes, byte-identical by construction.

// Answer-affecting region (docs/lints.md): no clock reads, thread-count
// probes or hash-order iteration.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

use crate::sampling::{run_streams, sampled_part_result, SamplingResult};
use crate::semantics::{PartComputation, SemPart};
use netrel_s2bdd::S2BddResult;
use netrel_ugraph::{GraphError, UncertainGraph, VertexId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Worlds packed per machine word — the lane count of every mask in this
/// module.
pub const LANES: usize = 64;

/// Golden-ratio multiplier deriving per-block RNG seeds, shared with the
/// flat sampler's stream partition.
const GOLDEN: u64 = 0x9E3779B97F4A7C15;

/// Configuration for the bit-parallel sampler.
///
/// ```
/// use netrel_core::bitsample::{bitsample_reliability, BitSamplingConfig};
/// use netrel_ugraph::UncertainGraph;
///
/// let g = UncertainGraph::new(3, [(0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.5)]).unwrap();
/// let cfg = BitSamplingConfig { samples: 20_000, seed: 42, ..Default::default() };
/// let r = bitsample_reliability(&g, &[0, 2], cfg).unwrap();
/// // 0-2 connects directly (0.5) or via 1 (0.72): R = 0.86.
/// assert!((r.estimate - 0.86).abs() < 0.02);
/// // Same seed, any thread count: identical draws.
/// let par = bitsample_reliability(&g, &[0, 2], BitSamplingConfig { threads: 8, ..cfg }).unwrap();
/// assert_eq!(r.hits, par.hits);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct BitSamplingConfig {
    /// Number of possible worlds to draw (lanes across all blocks).
    pub samples: usize,
    /// RNG seed. For a fixed `(samples, seed)` the result is identical for
    /// every `threads` setting (blocks are pure functions of their index).
    pub seed: u64,
    /// Worker threads; `0` = all available cores, `1` = sequential
    /// (default). Only wall-clock changes with this knob, never the result.
    pub threads: usize,
}

impl Default for BitSamplingConfig {
    fn default() -> Self {
        BitSamplingConfig {
            samples: 10_000,
            seed: 0x5eed,
            threads: 1,
        }
    }
}

/// Compressed-sparse-row adjacency over an [`UncertainGraph`]: one flat
/// `(neighbor, edge-id)` array indexed by per-vertex offsets, with both ids
/// narrowed to `u32`. The packed BFS kernels walk this layout instead of
/// the graph's per-vertex vectors so the hot loop touches two dense arrays.
#[derive(Clone, Debug)]
pub struct CsrAdjacency {
    /// `offsets[v]..offsets[v + 1]` indexes `entries` for vertex `v`.
    offsets: Vec<u32>,
    /// `(neighbor, edge id)` pairs, grouped by source vertex.
    entries: Vec<(u32, u32)>,
}

impl CsrAdjacency {
    /// Flatten `g`'s adjacency into CSR form.
    pub fn build(g: &UncertainGraph) -> Self {
        let n = g.num_vertices();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut entries = Vec::with_capacity(2 * g.num_edges());
        offsets.push(0);
        for v in 0..n {
            for &(w, e) in g.neighbors(v) {
                entries.push((w as u32, e as u32));
            }
            offsets.push(entries.len() as u32);
        }
        CsrAdjacency { offsets, entries }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The `(neighbor, edge id)` slice of vertex `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[(u32, u32)] {
        &self.entries[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Draw 64 independent Bernoulli(`p`) variables into one word: bit `j` is 1
/// iff world `j` contains the edge.
///
/// Works by comparing each lane's uniform `U ∈ [0, 1)` against `p` one
/// binary digit at a time: each raw RNG word contributes the next uniform
/// bit of all 64 lanes, and a lane is decided the first time its uniform
/// bit differs from the corresponding bit of `p`'s binary expansion
/// (`U`-bit 0 under a `p`-bit 1 ⇒ `U < p`, success; `U`-bit 1 under a
/// `p`-bit 0 ⇒ `U > p`, failure). Undecided lanes halve every round, so
/// the expected cost is ~7 RNG words (the maximum of 64 geometric stopping
/// times) — and just **one** word for `p = 0.5` — while the per-lane
/// success probability is **exactly** `p`: every `f64` is a dyadic
/// rational, so the expansion (and the loop) terminates, and lanes still
/// undecided when `p`'s bits run out have `U = p` to full precision and
/// fail, matching the strict `U < p` rule.
pub fn packed_bernoulli(p: f64, rng: &mut impl RngCore) -> u64 {
    if p >= 1.0 {
        return !0;
    }
    if p <= 0.0 {
        return 0;
    }
    let mut result = 0u64;
    let mut undecided = !0u64;
    let mut frac = p;
    loop {
        frac *= 2.0;
        let r = rng.next_u64();
        if frac >= 1.0 {
            frac -= 1.0;
            result |= undecided & !r;
            undecided &= r;
        } else {
            undecided &= !r;
        }
        if undecided == 0 || frac == 0.0 {
            return result;
        }
    }
}

/// Draw one 64-lane block of possible worlds: the returned vector holds one
/// presence mask per edge, in the graph's edge order (the draw order, which
/// pins the RNG sequence).
pub fn packed_world_masks(g: &UncertainGraph, rng: &mut impl RngCore) -> Vec<u64> {
    g.edges()
        .iter()
        .map(|e| packed_bernoulli(e.p, rng))
        .collect()
}

/// Buffers of the FIFO worklist fixpoint, sized to one graph and reused
/// across runs: [`Worklist::start`] resets only the vertices the previous
/// run reached.
struct Worklist {
    reached: Vec<u64>,
    in_queue: Vec<bool>,
    queue: VecDeque<u32>,
    /// Vertices with a nonzero `reached` word, in first-reach order.
    touched: Vec<u32>,
}

impl Worklist {
    fn new(n: usize) -> Self {
        Worklist {
            reached: vec![0; n],
            in_queue: vec![false; n],
            queue: VecDeque::with_capacity(n),
            touched: Vec::with_capacity(n),
        }
    }

    /// Clear the previous run and start `lanes` at `source`.
    fn start(&mut self, source: VertexId, lanes: u64) {
        for &w in &self.touched {
            self.reached[w as usize] = 0;
            self.in_queue[w as usize] = false;
        }
        self.touched.clear();
        self.queue.clear();
        self.reached[source] = lanes;
        self.in_queue[source] = true;
        self.queue.push_back(source as u32);
        self.touched.push(source as u32);
    }

    /// Propagate `reached[w] |= reached[v] & masks[e]` first-in, first-out
    /// until no lane changes, or until `done(reached)` holds after a pop.
    /// FIFO order relaxes a vertex once most lanes have reached it: the
    /// fixpoint is the same in any order, but a stack re-pops a vertex every
    /// time a few more lanes arrive (DESIGN.md §12.5).
    fn run(&mut self, csr: &CsrAdjacency, masks: &[u64], done: impl Fn(&[u64]) -> bool) {
        while let Some(v) = self.queue.pop_front() {
            let v = v as usize;
            self.in_queue[v] = false;
            let rv = self.reached[v];
            for &(w, e) in csr.neighbors(v) {
                let w = w as usize;
                let add = rv & masks[e as usize] & !self.reached[w];
                if add != 0 {
                    if self.reached[w] == 0 {
                        self.touched.push(w as u32);
                    }
                    self.reached[w] |= add;
                    if !self.in_queue[w] {
                        self.in_queue[w] = true;
                        self.queue.push_back(w as u32);
                    }
                }
            }
            if done(&self.reached) {
                return;
            }
        }
    }
}

/// Buffers of the level-synchronous hop-bounded kernel, sized to one graph
/// and reset per run.
struct Levels {
    reached: Vec<u64>,
    cur: Vec<u64>,
    nxt: Vec<u64>,
    cur_list: Vec<u32>,
    nxt_list: Vec<u32>,
}

impl Levels {
    fn new(n: usize) -> Self {
        Levels {
            reached: vec![0; n],
            cur: vec![0; n],
            nxt: vec![0; n],
            cur_list: Vec::new(),
            nxt_list: Vec::new(),
        }
    }

    /// Advance every lane's frontier from `source` by one hop per round for
    /// `d` rounds, or until `done(reached)` holds — asked before the first
    /// round and after each relaxed frontier vertex.
    fn run(
        &mut self,
        csr: &CsrAdjacency,
        masks: &[u64],
        source: VertexId,
        d: u32,
        done: impl Fn(&[u64]) -> bool,
    ) {
        self.reached.fill(0);
        self.cur.fill(0);
        self.nxt.fill(0);
        self.cur_list.clear();
        self.nxt_list.clear();
        self.reached[source] = !0;
        self.cur[source] = !0;
        self.cur_list.push(source as u32);
        if done(&self.reached) {
            return;
        }
        for _ in 0..d {
            for &v in &self.cur_list {
                let v = v as usize;
                let fv = self.cur[v];
                for &(w, e) in csr.neighbors(v) {
                    let w = w as usize;
                    let add = fv & masks[e as usize] & !self.reached[w];
                    if add != 0 {
                        if self.nxt[w] == 0 {
                            self.nxt_list.push(w as u32);
                        }
                        self.nxt[w] |= add;
                        self.reached[w] |= add;
                    }
                }
                if done(&self.reached) {
                    return;
                }
            }
            for &v in &self.cur_list {
                self.cur[v as usize] = 0;
            }
            std::mem::swap(&mut self.cur, &mut self.nxt);
            std::mem::swap(&mut self.cur_list, &mut self.nxt_list);
            self.nxt_list.clear();
            if self.cur_list.is_empty() {
                break;
            }
        }
    }
}

/// Word-wide reachability fixpoint: bit `j` of `reached[v]` is 1 iff `v` is
/// reachable from `source` in world `j` of `masks`. All 64 lanes start at
/// `source`; one FIFO worklist pass propagates
/// `reached[w] |= reached[v] & masks[e]` until no lane changes.
pub fn packed_reach_from(csr: &CsrAdjacency, masks: &[u64], source: VertexId) -> Vec<u64> {
    let mut list = Worklist::new(csr.num_vertices());
    list.start(source, !0);
    list.run(csr, masks, |_| false);
    list.reached
}

/// Depth-bounded variant of [`packed_reach_from`]: bit `j` of `reached[v]`
/// is 1 iff world `j` contains a `source`–`v` path of at most `d` edges.
/// Level-synchronous — each of the `d` rounds advances every lane's
/// frontier by exactly one hop, mirroring the scalar
/// [`HopBfs`](netrel_ugraph::HopBfs).
pub fn packed_reach_within(
    csr: &CsrAdjacency,
    masks: &[u64],
    source: VertexId,
    d: u32,
) -> Vec<u64> {
    let mut levels = Levels::new(csr.num_vertices());
    levels.run(csr, masks, source, d, |_| false);
    levels.reached
}

/// Number of 64-lane blocks a sample budget occupies.
pub fn lane_blocks(samples: usize) -> usize {
    samples.div_ceil(LANES)
}

/// Fraction of allocated lanes that carry a live sample, in percent — 100
/// when `samples` is a multiple of 64, lower when the final block is
/// partial. The engine feeds this into its lane-utilization histogram.
pub fn lane_utilization_percent(samples: usize) -> f64 {
    let blocks = lane_blocks(samples);
    if blocks == 0 {
        return 100.0;
    }
    samples as f64 / (blocks * LANES) as f64 * 100.0
}

/// Live-lane mask of block `b` out of `blocks`: all 64 lanes except in a
/// partial final block, where only the low `samples mod 64` lanes count.
fn block_lane_mask(samples: usize, b: usize, blocks: usize) -> u64 {
    let lanes = if b + 1 == blocks && samples % LANES != 0 {
        samples % LANES
    } else {
        LANES
    };
    if lanes == LANES {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

fn block_rng(seed: u64, b: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (b as u64).wrapping_mul(GOLDEN))
}

fn resolve_threads(threads: usize, blocks: usize) -> usize {
    match threads {
        #[expect(
            clippy::disallowed_methods,
            reason = "worker count only picks how the seed-stable blocks are partitioned; every block's draws are identical for any thread count"
        )]
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .max(1)
    .min(blocks.max(1))
}

fn mc_result(hits: u64, samples: usize) -> SamplingResult {
    let s = samples.max(1) as f64;
    let estimate = hits as f64 / s;
    SamplingResult {
        estimate,
        samples,
        hits: hits as usize,
        variance_estimate: estimate * (1.0 - estimate) / s,
    }
}

/// Structural identity of one memoized world draw: the exact edge list
/// (endpoints + probability bits) and the draw parameters. Two parts with
/// equal keys draw bit-identical presence masks for every edge of every
/// block — the terminal set, BFS source, and hop bound play no role in the
/// draws, which is exactly what makes the masks shareable across queries.
#[derive(PartialEq, Eq, Hash)]
struct WorldKey {
    vertices: u32,
    edges: Vec<(u32, u32, u64)>,
    samples: u64,
    seed: u64,
}

impl WorldKey {
    fn of(g: &UncertainGraph, cfg: BitSamplingConfig) -> Self {
        WorldKey {
            vertices: g.num_vertices() as u32,
            edges: g
                .edges()
                .iter()
                .map(|e| (e.u as u32, e.v as u32, e.p.to_bits()))
                .collect(),
            samples: cfg.samples as u64,
            seed: cfg.seed,
        }
    }
}

/// Bank entries above this occupancy (blocks × edges words, ~8 MB) bypass
/// the cache: the mask matrix would be too large to be worth keeping
/// resident.
const BANK_MAX_WORDS: usize = 1 << 20;

/// Entry cap; reaching it drops the whole map before the next insert.
const BANK_MAX_ENTRIES: usize = 64;

/// One memoized world draw: the `blocks × edges` mask matrix and, for
/// dense parts once a connectivity query asks, every world's component
/// labels.
struct BankEntry {
    masks: Vec<u64>,
    labels: OnceLock<Vec<u64>>,
}

impl BankEntry {
    /// The component labels of part `g`'s worlds, built on first use, when
    /// they take no more words than the masks (`n · ⌈log2 n⌉ ≤ edges`);
    /// `None` for sparser parts.
    fn labels(&self, g: &UncertainGraph, samples: usize) -> Option<&[u64]> {
        let n = g.num_vertices();
        if n * label_bits(n) > g.num_edges() {
            return None;
        }
        Some(self.labels.get_or_init(|| {
            component_labels(&CsrAdjacency::build(g), &self.masks, lane_blocks(samples))
        }))
    }
}

/// Cross-query memo for packed world masks and, for dense parts, their
/// component labels.
///
/// The presence masks are a pure function of `(edges, samples, seed)`
/// alone — terminals, source, and hop bound only affect the propagation
/// pass. A multi-query engine answering many terminal pairs over one
/// registered graph with one seed therefore redraws byte-identical worlds
/// on every query; the bank memoizes the mask matrix so repeat queries skip
/// the draws. Connectivity and hop-bounded parts share the same entry.
///
/// With the draws shared, the BFS is the cost of a repeat query, so the
/// first connectivity query on an entry also labels each vertex of each
/// world with its component's least vertex id, when the labels take no
/// more words than the masks (`n · ⌈log2 n⌉ ≤ edges`), which keeps an
/// entry at most twice its masks. Connectivity parts on such an entry
/// compare terminal labels instead of running a BFS; d-hop parts and
/// sparser parts keep the BFS kernels (DESIGN.md §12.5).
///
/// Correctness is unconditional: an entry is the value of a pure function
/// of its key, and the labels give exactly the BFS's hit lanes, so hitting,
/// missing, labelling, or evicting can never change a result — only
/// wall-clock. Oversized parts (> ~8 MB of masks) skip the bank entirely,
/// and the map is dropped wholesale when it reaches `BANK_MAX_ENTRIES`
/// (64) distinct keys.
#[derive(Default)]
pub struct WorldBank {
    inner: Mutex<HashMap<WorldKey, Arc<BankEntry>>>,
}

impl WorldBank {
    /// An empty bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of memoized mask matrices.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("world bank poisoned").len()
    }

    /// Whether the bank holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Solve one decomposed part exactly like [`bitsample_part`], reusing
    /// (or installing) the memoized world masks. Byte-identical to the
    /// uncached call in every field.
    pub fn part(&self, part: &SemPart, cfg: BitSamplingConfig) -> Result<S2BddResult, GraphError> {
        part_impl(Some(self), part, cfg)
    }

    /// Drop every memoized mask matrix (with its labels) whose key embeds an
    /// edge with probability bits `prob_bits`; returns how many were
    /// dropped. The mutation layer calls this after an edge update or
    /// removal: entries are values of a pure function of their key, so
    /// dropping is memory hygiene (a mutated part re-keys and can never hit
    /// a stale entry) — matching on the old probability bits
    /// over-approximates "covers the mutated edge" exactly like the plan
    /// cache's scoped invalidation.
    pub fn invalidate_prob(&self, prob_bits: u64) -> usize {
        let mut map = self.inner.lock().expect("world bank poisoned");
        let before = map.len();
        #[expect(
            clippy::disallowed_methods,
            reason = "retain with a per-entry predicate drops the same set in any iteration order"
        )]
        map.retain(|key, _| key.edges.iter().all(|&(_, _, pb)| pb != prob_bits));
        before - map.len()
    }

    /// The memoized entry for this key, drawing and installing the masks
    /// on a miss.
    fn entry(&self, g: &UncertainGraph, cfg: BitSamplingConfig) -> Arc<BankEntry> {
        let key = WorldKey::of(g, cfg);
        if let Some(hit) = self.inner.lock().expect("world bank poisoned").get(&key) {
            return Arc::clone(hit);
        }
        // Compute outside the lock; concurrent misses on the same key do
        // redundant (but identical) work and the first insert wins.
        let fresh = Arc::new(BankEntry {
            masks: mask_matrix(g, cfg),
            labels: OnceLock::new(),
        });
        let mut map = self.inner.lock().expect("world bank poisoned");
        if map.len() >= BANK_MAX_ENTRIES {
            map.clear();
        }
        Arc::clone(map.entry(key).or_insert(fresh))
    }
}

/// The full `blocks × edges` presence-mask matrix (blocks-major): word
/// `b * edges + e` holds edge `e`'s presence bits for the 64 worlds of
/// block `b` — exactly the words [`packed_world_masks`] draws for block
/// `b`, in the same order.
fn mask_matrix(g: &UncertainGraph, cfg: BitSamplingConfig) -> Vec<u64> {
    let blocks = lane_blocks(cfg.samples);
    let threads = resolve_threads(cfg.threads, blocks);
    run_streams(blocks, threads, |b| {
        let mut rng = block_rng(cfg.seed, b);
        packed_world_masks(g, &mut rng)
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Sum over blocks of the popcount of `hit(block, live)`, where `words`
/// holds `stride` words per block — a memoized entry's masks or labels.
fn sum_block_hits(
    words: &[u64],
    stride: usize,
    samples: usize,
    mut hit: impl FnMut(&[u64], u64) -> u64,
) -> u64 {
    let blocks = lane_blocks(samples);
    (0..blocks)
        .map(|b| {
            let live = block_lane_mask(samples, b, blocks);
            u64::from(hit(&words[b * stride..(b + 1) * stride], live).count_ones())
        })
        .sum()
}

/// `live & ⋀_t reached[t]`: the lanes where every terminal is reached.
fn hit_lanes(reached: &[u64], terminals: &[VertexId], live: u64) -> u64 {
    terminals.iter().fold(live, |hit, &t| hit & reached[t])
}

/// Hit lanes of one block: `live & ⋀_t reached[t]` — computed with the
/// same worklist fixpoint as [`packed_reach_from`] but returning as soon as
/// every live lane has connected all terminals. Hit lanes only ever grow
/// during propagation and are bounded by `live`, so stopping at `live` (or
/// at the natural fixpoint) yields exactly the full kernel's AND — on
/// dense graphs after touching a small fraction of the edges.
fn packed_hits_from(
    list: &mut Worklist,
    csr: &CsrAdjacency,
    masks: &[u64],
    source: VertexId,
    terminals: &[VertexId],
    live: u64,
) -> u64 {
    list.start(source, !0);
    list.run(csr, masks, |r| hit_lanes(r, terminals, live) == live);
    hit_lanes(&list.reached, terminals, live)
}

/// Hop-bounded analogue of [`packed_hits_from`]: the level-synchronous
/// rounds of [`packed_reach_within`], returning as soon as every live lane
/// has a within-bound `source`–terminal path (checked after each relaxed
/// frontier vertex — hit lanes are monotone here too).
fn packed_hits_within(
    levels: &mut Levels,
    csr: &CsrAdjacency,
    masks: &[u64],
    source: VertexId,
    d: u32,
    terminals: &[VertexId],
    live: u64,
) -> u64 {
    levels.run(csr, masks, source, d, |r| {
        hit_lanes(r, terminals, live) == live
    });
    hit_lanes(&levels.reached, terminals, live)
}

/// Bit planes per component label: labels are vertex ids `0..n`, so
/// `⌈log2 n⌉` bits, and at least one.
fn label_bits(n: usize) -> usize {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1) as usize
}

/// Every world's component labels over a mask matrix, bit-sliced: for
/// block `b` and vertex `v`, the `bits` words at `(b·n + v)·bits` hold
/// bit `i` of `v`'s label in world `j` at lane `j` of word `i`. A label is
/// the least vertex id of the component.
fn component_labels(csr: &CsrAdjacency, masks: &[u64], blocks: usize) -> Vec<u64> {
    let m = masks.len() / blocks.max(1);
    (0..blocks)
        .flat_map(|b| block_labels(csr, &masks[b * m..(b + 1) * m]))
        .collect()
}

/// One block of [`component_labels`]. Roots go in id order; a root's BFS
/// runs only in the lanes where no smaller root has reached it, where it
/// is therefore its component's least vertex, so each (lane, vertex) pair
/// is labelled exactly once.
fn block_labels(csr: &CsrAdjacency, masks: &[u64]) -> Vec<u64> {
    let n = csr.num_vertices();
    let bits = label_bits(n);
    let mut planes = vec![0u64; n * bits];
    let mut assigned = vec![0u64; n];
    let mut list = Worklist::new(n);
    for root in 0..n {
        let open = !assigned[root];
        if open == 0 {
            continue;
        }
        list.start(root, open);
        list.run(csr, masks, |_| false);
        for &w in &list.touched {
            let w = w as usize;
            let lanes = list.reached[w];
            assigned[w] |= lanes;
            for (i, plane) in planes[w * bits..(w + 1) * bits].iter_mut().enumerate() {
                if root >> i & 1 == 1 {
                    *plane |= lanes;
                }
            }
        }
    }
    planes
}

/// Hit lanes of one block from its label planes: the live lanes where
/// every terminal carries the first terminal's label, i.e. where all
/// terminals share a component — the lanes the BFS kernels return.
fn label_hits(planes: &[u64], bits: usize, terminals: &[VertexId], live: u64) -> u64 {
    let Some((&t0, rest)) = terminals.split_first() else {
        return live;
    };
    let p0 = &planes[t0 * bits..(t0 + 1) * bits];
    rest.iter().fold(live, |hit, &t| {
        let pt = &planes[t * bits..(t + 1) * bits];
        p0.iter().zip(pt).fold(hit, |hit, (a, b)| hit & !(a ^ b))
    })
}

/// A bank only helps when the mask matrix is small enough to keep;
/// oversized parts fall back to the streaming (no-matrix) path.
fn usable_bank<'a>(
    bank: Option<&'a WorldBank>,
    g: &UncertainGraph,
    samples: usize,
) -> Option<&'a WorldBank> {
    bank.filter(|_| lane_blocks(samples).saturating_mul(g.num_edges()) <= BANK_MAX_WORDS)
}

/// Estimate `R[G, T]` with the bit-parallel Monte Carlo sampler.
///
/// Statistically equivalent to the flat MC sampler — same per-world edge
/// distribution, same estimator, same variance formula — but not draw-for-
/// draw identical: the packed kernel consumes raw RNG words, the flat one
/// `f64` uniforms. See the module docs for the determinism contract.
pub fn bitsample_reliability(
    g: &UncertainGraph,
    terminals: &[VertexId],
    cfg: BitSamplingConfig,
) -> Result<SamplingResult, GraphError> {
    reliability_impl(None, g, terminals, cfg)
}

fn reliability_impl(
    bank: Option<&WorldBank>,
    g: &UncertainGraph,
    terminals: &[VertexId],
    cfg: BitSamplingConfig,
) -> Result<SamplingResult, GraphError> {
    let t = g.validate_terminals(terminals)?;
    if t.len() <= 1 {
        return Ok(SamplingResult {
            estimate: 1.0,
            samples: 0,
            hits: 0,
            variance_estimate: 0.0,
        });
    }
    let start = t.iter().copied().min().expect("two or more terminals");
    let blocks = lane_blocks(cfg.samples);
    let hits: u64 = if let Some(bank) = usable_bank(bank, g, cfg.samples) {
        let entry = bank.entry(g, cfg);
        let n = g.num_vertices();
        match entry.labels(g, cfg.samples) {
            Some(labels) => {
                let bits = label_bits(n);
                sum_block_hits(labels, n * bits, cfg.samples, |planes, live| {
                    label_hits(planes, bits, &t, live)
                })
            }
            None => {
                let csr = CsrAdjacency::build(g);
                let mut list = Worklist::new(n);
                sum_block_hits(&entry.masks, g.num_edges(), cfg.samples, |masks, live| {
                    packed_hits_from(&mut list, &csr, masks, start, &t, live)
                })
            }
        }
    } else {
        let csr = CsrAdjacency::build(g);
        let threads = resolve_threads(cfg.threads, blocks);
        let t = &t;
        run_streams(blocks, threads, |b| {
            let mut rng = block_rng(cfg.seed, b);
            let masks = packed_world_masks(g, &mut rng);
            let live = block_lane_mask(cfg.samples, b, blocks);
            let mut list = Worklist::new(g.num_vertices());
            let hit = packed_hits_from(&mut list, &csr, &masks, start, t, live);
            u64::from(hit.count_ones())
        })
        .into_iter()
        .sum()
    };
    Ok(mc_result(hits, cfg.samples))
}

/// Estimate the d-hop `s`–`t` reliability with the bit-parallel sampler —
/// the packed analogue of
/// [`sample_dhop_reliability`](crate::sample_dhop_reliability), with the
/// hop bound enforced per lane by the level-synchronous
/// [`packed_reach_within`] kernel.
pub fn bitsample_dhop_reliability(
    g: &UncertainGraph,
    s: VertexId,
    t: VertexId,
    d: u32,
    cfg: BitSamplingConfig,
) -> Result<SamplingResult, GraphError> {
    dhop_impl(None, g, s, t, d, cfg)
}

fn dhop_impl(
    bank: Option<&WorldBank>,
    g: &UncertainGraph,
    s: VertexId,
    t: VertexId,
    d: u32,
    cfg: BitSamplingConfig,
) -> Result<SamplingResult, GraphError> {
    let terms = g.validate_terminals(&[s, t])?;
    if terms.len() < 2 {
        return Ok(SamplingResult {
            estimate: 1.0,
            samples: 0,
            hits: 0,
            variance_estimate: 0.0,
        });
    }
    let blocks = lane_blocks(cfg.samples);
    let hits: u64 = if let Some(bank) = usable_bank(bank, g, cfg.samples) {
        let entry = bank.entry(g, cfg);
        let csr = CsrAdjacency::build(g);
        let mut levels = Levels::new(g.num_vertices());
        sum_block_hits(&entry.masks, g.num_edges(), cfg.samples, |masks, live| {
            packed_hits_within(&mut levels, &csr, masks, s, d, &[t], live)
        })
    } else {
        let csr = CsrAdjacency::build(g);
        let threads = resolve_threads(cfg.threads, blocks);
        run_streams(blocks, threads, |b| {
            let mut rng = block_rng(cfg.seed, b);
            let masks = packed_world_masks(g, &mut rng);
            let live = block_lane_mask(cfg.samples, b, blocks);
            let mut levels = Levels::new(g.num_vertices());
            let hit = packed_hits_within(&mut levels, &csr, &masks, s, d, &[t], live);
            u64::from(hit.count_ones())
        })
        .into_iter()
        .sum()
    };
    Ok(mc_result(hits, cfg.samples))
}

/// Solve one decomposed part with the bit-parallel sampler and shape the
/// outcome as an [`S2BddResult`] — the packed analogue of
/// [`sample_semantics_part`](crate::sample_semantics_part), dispatching on
/// the part's [`PartComputation`]. Like every sampling solver, the proven
/// bounds are the trivial `[0, 1]`, `exact` is `false`, and the statistical
/// quality lives in `variance_estimate` for the downstream CI construction.
pub fn bitsample_part(part: &SemPart, cfg: BitSamplingConfig) -> Result<S2BddResult, GraphError> {
    part_impl(None, part, cfg)
}

fn part_impl(
    bank: Option<&WorldBank>,
    part: &SemPart,
    cfg: BitSamplingConfig,
) -> Result<S2BddResult, GraphError> {
    let r = match part.computation {
        PartComputation::Connectivity => reliability_impl(bank, &part.graph, &part.terminals, cfg)?,
        PartComputation::DHop { d } => match *part.terminals.as_slice() {
            [s, t] => dhop_impl(bank, &part.graph, s, t, d, cfg)?,
            ref other => {
                return Err(GraphError::InvalidTerminals {
                    reason: format!(
                        "d-hop part needs exactly two terminals, got {}",
                        other.len()
                    ),
                })
            }
        },
    };
    Ok(sampled_part_result(r, cfg.samples, part.graph.num_edges()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bridge_graph() -> (UncertainGraph, Vec<usize>) {
        let g = UncertainGraph::new(
            4,
            [
                (0, 1, 0.8),
                (1, 2, 0.7),
                (2, 3, 0.9),
                (0, 3, 0.5),
                (1, 3, 0.6),
            ],
        )
        .unwrap();
        (g, vec![0, 2])
    }

    #[test]
    fn packed_bernoulli_frequencies_match_p() {
        // 64 lanes × 4096 words per probability: the observed frequency of
        // a fair uniform prefix test must sit within 5σ of p.
        for p in [0.015625, 0.25, 0.5, 0.61803398875, 0.9] {
            let mut rng = StdRng::seed_from_u64(99);
            let draws = 4096;
            let ones: u64 = (0..draws)
                .map(|_| u64::from(packed_bernoulli(p, &mut rng).count_ones()))
                .sum();
            let n = (draws * LANES) as f64;
            let sigma = (p * (1.0 - p) / n).sqrt();
            let freq = ones as f64 / n;
            assert!((freq - p).abs() < 5.0 * sigma, "p={p}: freq {freq}");
        }
    }

    #[test]
    fn packed_bernoulli_degenerate_probabilities() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(packed_bernoulli(0.0, &mut rng), 0);
        assert_eq!(packed_bernoulli(1.0, &mut rng), !0);
        // p = 0.5 terminates after exactly one raw word: result = !r.
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(packed_bernoulli(0.5, &mut a), !b.next_u64());
    }

    #[test]
    fn csr_matches_graph_adjacency() {
        let (g, _) = bridge_graph();
        let csr = CsrAdjacency::build(&g);
        assert_eq!(csr.num_vertices(), g.num_vertices());
        for v in 0..g.num_vertices() {
            let flat: Vec<(u32, u32)> = g
                .neighbors(v)
                .iter()
                .map(|&(w, e)| (w as u32, e as u32))
                .collect();
            assert_eq!(csr.neighbors(v), flat.as_slice(), "vertex {v}");
        }
    }

    #[test]
    fn converges_to_truth() {
        let (g, t) = bridge_graph();
        let exact = netrel_bdd::brute_force_reliability(&g, &t);
        let cfg = BitSamplingConfig {
            samples: 200_000,
            seed: 1,
            ..Default::default()
        };
        let r = bitsample_reliability(&g, &t, cfg).unwrap();
        assert!(
            (r.estimate - exact).abs() < 0.01,
            "{} vs {exact}",
            r.estimate
        );
        assert!(r.variance_estimate > 0.0);
    }

    #[test]
    fn thread_count_never_changes_the_draws() {
        let (g, t) = bridge_graph();
        let base = BitSamplingConfig {
            samples: 10_000,
            seed: 7,
            threads: 1,
        };
        let a = bitsample_reliability(&g, &t, base).unwrap();
        for threads in [0, 2, 8, 64, 1000] {
            let b = bitsample_reliability(&g, &t, BitSamplingConfig { threads, ..base }).unwrap();
            assert_eq!(a.hits, b.hits, "threads={threads}");
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
            assert_eq!(a.variance_estimate.to_bits(), b.variance_estimate.to_bits());
        }
    }

    #[test]
    fn partial_final_block_masks_surplus_lanes() {
        // A budget that is not a multiple of 64 must not count ghost lanes:
        // on an always-connected graph, hits == samples exactly.
        let g = UncertainGraph::new(2, [(0, 1, 1.0)]).unwrap();
        for samples in [1, 63, 64, 65, 127, 1000] {
            let r = bitsample_reliability(
                &g,
                &[0, 1],
                BitSamplingConfig {
                    samples,
                    seed: 3,
                    threads: 1,
                },
            )
            .unwrap();
            assert_eq!(r.hits, samples, "samples={samples}");
            assert_eq!(r.estimate, 1.0);
        }
    }

    #[test]
    fn disconnected_terminals_never_hit() {
        let g = UncertainGraph::new(4, [(0, 1, 0.9), (2, 3, 0.9)]).unwrap();
        let r = bitsample_reliability(&g, &[0, 2], BitSamplingConfig::default()).unwrap();
        assert_eq!(r.hits, 0);
        assert_eq!(r.estimate, 0.0);
    }

    #[test]
    fn trivial_terminals() {
        let (g, _) = bridge_graph();
        let r = bitsample_reliability(&g, &[2], BitSamplingConfig::default()).unwrap();
        assert_eq!(r.estimate, 1.0);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn dhop_respects_the_hop_bound() {
        // Square with a weak chord: within 1 hop only the chord connects
        // 0–2, so the estimate must approach 0.3, not the 2-hop value.
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
        let cfg = BitSamplingConfig {
            samples: 100_000,
            seed: 11,
            ..Default::default()
        };
        let r1 = bitsample_dhop_reliability(&g, 0, 2, 1, cfg).unwrap();
        assert!((r1.estimate - 0.3).abs() < 0.01, "{}", r1.estimate);
        let truth2 = crate::dhop_exact_reliability(&g, 0, 2, 2).unwrap();
        let r2 = bitsample_dhop_reliability(&g, 0, 2, 2, cfg).unwrap();
        assert!((r2.estimate - truth2).abs() < 0.01, "{}", r2.estimate);
        // A generous bound recovers plain two-terminal reliability.
        let flat = netrel_bdd::brute_force_reliability(&g, &[0, 2]);
        let r4 = bitsample_dhop_reliability(&g, 0, 2, 4, cfg).unwrap();
        assert!((r4.estimate - flat).abs() < 0.01);
    }

    #[test]
    fn dhop_is_thread_invariant() {
        let g =
            UncertainGraph::new(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5), (3, 0, 0.5)]).unwrap();
        let base = BitSamplingConfig {
            samples: 20_000,
            seed: 23,
            threads: 1,
        };
        let a = bitsample_dhop_reliability(&g, 0, 2, 2, base).unwrap();
        for threads in [0, 3, 8] {
            let b = bitsample_dhop_reliability(&g, 0, 2, 2, BitSamplingConfig { threads, ..base })
                .unwrap();
            assert_eq!(a.hits, b.hits, "threads={threads}");
        }
    }

    #[test]
    fn part_shapes_compose() {
        let (g, t) = bridge_graph();
        let exact = netrel_bdd::brute_force_reliability(&g, &t);
        let part = SemPart::connectivity(g, t);
        let r = bitsample_part(
            &part,
            BitSamplingConfig {
                samples: 100_000,
                seed: 3,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(!r.exact);
        assert_eq!((r.lower_bound, r.upper_bound), (0.0, 1.0));
        assert!(r.variance_estimate > 0.0);
        let combined = crate::combine_part_results(1.0, Default::default(), vec![r]);
        assert!((combined.estimate - exact).abs() < 0.01);
    }

    #[test]
    fn dhop_part_requires_two_terminals() {
        let (g, _) = bridge_graph();
        let part = SemPart {
            graph: g,
            terminals: vec![0, 1, 2],
            computation: PartComputation::DHop { d: 2 },
        };
        assert!(bitsample_part(&part, BitSamplingConfig::default()).is_err());
    }

    #[test]
    fn early_exit_hit_kernels_match_the_full_fixpoint() {
        // The hit kernels may stop before the fixpoint; the hit lanes they
        // return must still equal the full kernel's per-terminal AND —
        // including lanes that never connect (disconnected pair below).
        let (bridge, _) = bridge_graph();
        let split = UncertainGraph::new(5, [(0, 1, 0.7), (2, 3, 0.6), (3, 4, 0.8)]).unwrap();
        for (g, terminals) in [
            (bridge.clone(), vec![0, 2]),
            (bridge, vec![0, 1, 3]),
            (split, vec![0, 4]),
        ] {
            let csr = CsrAdjacency::build(&g);
            // One set of buffers for every call, as a bank call reuses
            // them across blocks: an early exit must not leak state into
            // the next run.
            let mut list = Worklist::new(g.num_vertices());
            let mut levels = Levels::new(g.num_vertices());
            for seed in [1u64, 99, 0xFEED] {
                let mut rng = StdRng::seed_from_u64(seed);
                let masks = packed_world_masks(&g, &mut rng);
                let source = terminals[0];
                let reached = packed_reach_from(&csr, &masks, source);
                for live in [!0u64, (1 << 13) - 1] {
                    let mut want = live;
                    for &t in &terminals {
                        want &= reached[t];
                    }
                    let got = packed_hits_from(&mut list, &csr, &masks, source, &terminals, live);
                    assert_eq!(got, want, "seed {seed}, live {live:#x}");
                }
                for d in 1..4 {
                    let within = packed_reach_within(&csr, &masks, source, d);
                    let t = *terminals.last().unwrap();
                    let got = packed_hits_within(&mut levels, &csr, &masks, source, d, &[t], !0);
                    assert_eq!(got, within[t], "seed {seed}, d {d}");
                }
            }
        }
    }

    /// Least vertex id of each vertex's component in one world, by scalar
    /// BFS from every vertex in id order.
    fn scalar_least_labels(g: &UncertainGraph, present: &[bool]) -> Vec<usize> {
        let n = g.num_vertices();
        let mut label = vec![usize::MAX; n];
        for root in 0..n {
            if label[root] != usize::MAX {
                continue;
            }
            label[root] = root;
            let mut queue = vec![root];
            while let Some(v) = queue.pop() {
                for &(w, e) in g.neighbors(v) {
                    if present[e] && label[w] == usize::MAX {
                        label[w] = root;
                        queue.push(w);
                    }
                }
            }
        }
        label
    }

    #[test]
    fn component_labels_are_lane_exact_and_give_the_bfs_hit_lanes() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(0x1ABE1);
        for case in 0..24 {
            // Up to 40 vertices, some left isolated; edge density from a
            // near-forest to a near-clique, so graphs on both sides of the
            // density rule are labelled.
            let n = rng.gen_range(2..=40usize);
            let isolated: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.15)).collect();
            let density = [0.05, 0.2, 0.6, 0.95][case % 4];
            let mut edges = Vec::new();
            for u in 0..n {
                for v in u + 1..n {
                    if !isolated[u] && !isolated[v] && rng.gen_bool(density) {
                        edges.push((u, v, [0.1, 0.3, 0.5, 0.8, 1.0][rng.gen_range(0..5usize)]));
                    }
                }
            }
            let g = UncertainGraph::new(n, edges).unwrap();
            let csr = CsrAdjacency::build(&g);
            let m = g.num_edges();
            let bits = label_bits(n);
            for samples in [1, 63, 64, 65, 200] {
                let cfg = BitSamplingConfig {
                    samples,
                    seed: rng.gen(),
                    threads: 1,
                };
                let blocks = lane_blocks(samples);
                let masks = mask_matrix(&g, cfg);
                let labels = component_labels(&csr, &masks, blocks);
                assert_eq!(labels.len(), blocks * n * bits);
                for b in 0..blocks {
                    let mb = &masks[b * m..(b + 1) * m];
                    let planes = &labels[b * n * bits..(b + 1) * n * bits];
                    for lane in 0..LANES {
                        let present: Vec<bool> = mb.iter().map(|w| w >> lane & 1 == 1).collect();
                        let want = scalar_least_labels(&g, &present);
                        for (v, &want) in want.iter().enumerate() {
                            let got = (0..bits)
                                .map(|i| (planes[v * bits + i] >> lane & 1) << i)
                                .sum::<u64>();
                            assert_eq!(
                                got, want as u64,
                                "case {case}, samples {samples}, block {b}, lane {lane}, vertex {v}"
                            );
                        }
                    }
                    // 2–5 terminals, plus a pair through an isolated vertex
                    // when there is one: it never connects.
                    let live = block_lane_mask(samples, b, blocks);
                    let mut sets: Vec<Vec<usize>> = (2..=5.min(n))
                        .map(|k| {
                            let mut t: Vec<usize> = (0..n).collect();
                            for i in 0..k {
                                let j = rng.gen_range(i..n);
                                t.swap(i, j);
                            }
                            t.truncate(k);
                            t.sort_unstable();
                            t
                        })
                        .collect();
                    if let Some(iso) = isolated.iter().position(|&i| i) {
                        sets.push(vec![iso.min((iso + 1) % n), iso.max((iso + 1) % n)]);
                    }
                    for t in sets {
                        let reached = packed_reach_from(&csr, mb, t[0]);
                        let want = t.iter().fold(live, |hit, &v| hit & reached[v]);
                        assert_eq!(
                            label_hits(planes, bits, &t, live),
                            want,
                            "case {case}, samples {samples}, block {b}, terminals {t:?}"
                        );
                    }
                }
            }
        }
    }

    /// K8 at p = 0.3: dense enough for component labels (8·3 ≤ 28 edges),
    /// so a banked connectivity query on it answers from the labels.
    fn k8_graph() -> (UncertainGraph, Vec<usize>) {
        let edges = (0..8).flat_map(|u| (u + 1..8).map(move |v| (u, v, 0.3)));
        (UncertainGraph::new(8, edges).unwrap(), vec![0, 5])
    }

    #[test]
    fn world_bank_is_byte_identical_to_the_uncached_solver() {
        // The bridge graph stays below the density rule (the bank's BFS
        // path); K8 answers from component labels on every call.
        for (g, t) in [bridge_graph(), k8_graph()] {
            let cfg = BitSamplingConfig {
                samples: 12_345,
                seed: 17,
                threads: 1,
            };
            let bank = WorldBank::new();
            let conn = SemPart::connectivity(g.clone(), t.clone());
            let plain = bitsample_part(&conn, cfg).unwrap();
            // First call installs, second call reuses; both must match the
            // uncached solver bit for bit.
            for round in 0..2 {
                let banked = bank.part(&conn, cfg).unwrap();
                assert_eq!(
                    plain.estimate.to_bits(),
                    banked.estimate.to_bits(),
                    "round {round}"
                );
                assert_eq!(
                    plain.variance_estimate.to_bits(),
                    banked.variance_estimate.to_bits()
                );
                assert_eq!(plain.samples_used, banked.samples_used);
            }
            assert_eq!(bank.len(), 1);
            let dpart = SemPart {
                graph: g,
                terminals: t,
                computation: PartComputation::DHop { d: 2 },
            };
            let dplain = bitsample_part(&dpart, cfg).unwrap();
            let dbanked = bank.part(&dpart, cfg).unwrap();
            assert_eq!(dplain.estimate.to_bits(), dbanked.estimate.to_bits());
            assert_eq!(
                bank.len(),
                1,
                "hop-bounded parts share the connectivity masks"
            );
        }
    }

    #[test]
    fn world_bank_shares_one_matrix_across_terminal_sets() {
        let (bridge, _) = bridge_graph();
        let (k8, _) = k8_graph();
        for (g, terminal_sets) in [
            (bridge, [vec![0, 2], vec![1, 3], vec![0, 1, 3]]),
            (k8, [vec![0, 5], vec![2, 7], vec![1, 3, 6]]),
        ] {
            let cfg = BitSamplingConfig {
                samples: 2_000,
                seed: 5,
                threads: 1,
            };
            let bank = WorldBank::new();
            // The masks depend only on (edges, samples, seed): every terminal
            // set — any source vertex — reuses the first query's entry.
            for terminals in terminal_sets {
                let part = SemPart::connectivity(g.clone(), terminals.clone());
                let banked = bank.part(&part, cfg).unwrap();
                let plain = bitsample_part(&part, cfg).unwrap();
                assert_eq!(
                    plain.estimate.to_bits(),
                    banked.estimate.to_bits(),
                    "{terminals:?}"
                );
            }
            assert_eq!(bank.len(), 1);
            // A different seed draws different worlds: a second entry.
            let part = SemPart::connectivity(g, vec![0, 2]);
            bank.part(&part, BitSamplingConfig { seed: 6, ..cfg })
                .unwrap();
            assert_eq!(bank.len(), 2);
        }
    }

    #[test]
    fn world_bank_stays_bounded() {
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let bank = WorldBank::new();
        let part = SemPart::connectivity(g, vec![0, 2]);
        for seed in 0..(2 * BANK_MAX_ENTRIES as u64 + 3) {
            let cfg = BitSamplingConfig {
                samples: 64,
                seed,
                threads: 1,
            };
            bank.part(&part, cfg).unwrap();
            assert!(
                bank.len() <= BANK_MAX_ENTRIES,
                "seed {seed}: {}",
                bank.len()
            );
        }
        assert!(!bank.is_empty());
    }

    #[test]
    fn lane_accounting() {
        assert_eq!(lane_blocks(0), 0);
        assert_eq!(lane_blocks(1), 1);
        assert_eq!(lane_blocks(64), 1);
        assert_eq!(lane_blocks(65), 2);
        assert_eq!(lane_blocks(10_000), 157);
        assert_eq!(lane_utilization_percent(64), 100.0);
        assert_eq!(lane_utilization_percent(128), 100.0);
        assert!((lane_utilization_percent(96) - 75.0).abs() < 1e-12);
        assert!(lane_utilization_percent(10_000) > 99.0);
        assert_eq!(block_lane_mask(65, 0, 2), !0);
        assert_eq!(block_lane_mask(65, 1, 2), 1);
        assert_eq!(block_lane_mask(128, 1, 2), !0);
    }
}
