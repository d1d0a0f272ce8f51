//! The frontier-based state machine for k-terminal reliability diagrams.
//!
//! Both the materialized BDD baseline ([`crate::full`]) and the S2BDD build
//! on this machine. A *state* at layer `l` describes everything about an
//! intermediate graph `G_E` (paper §3.1) that the remaining edges can
//! observe: the partition of the live frontier vertices into connected
//! components, plus each component's terminal count.
//!
//! Two facts make the encoding small and the paper's Lemma 4.3 sound:
//!
//! 1. Whether a terminal has been *seen* (touched by a processed edge) is a
//!    property of the layer, not of the edge states, so the count of unseen
//!    terminals is a per-layer constant (`unseen_after`).
//! 2. Consequently a component contains **all** `k` terminals iff it is the
//!    only component with a positive terminal count and no terminal is
//!    unseen — exact terminal counts are needed only for the S2BDD's deletion
//!    heuristic, never for sink decisions.
//!
//! Sink detection here subsumes the paper's Lemmas 4.1/4.2: a transition
//! yields the 1-sink as soon as one live component holds every terminal
//! (conditions 1–3 of Lemma 4.1 are the ways a merge can make that true), and
//! the 0-sink as soon as a terminal-bearing component loses its last frontier
//! vertex without being complete (conditions 1–3 of Lemma 4.2 are the ways
//! that can happen, including the `d_{n,f} = 1` lookahead, which corresponds
//! to the vertex leaving at this same layer).
//!
//! Builders store a layer's states in a [`LayerArena`]: fixed-stride rows in
//! flat buffers, indexed by an open-addressed table of `u32` row handles, so
//! expanding a node allocates nothing. [`FrontierMachine::apply`] writes each
//! successor straight into the arena's pending row, reading only per-layer
//! slot maps that [`FrontierMachine::advance`] computes once per layer.

use netrel_numeric::fxhash::FxHasher;
use netrel_ugraph::ordering::{EdgeOrder, FrontierPlan};
use netrel_ugraph::{EdgeId, GraphError, UncertainGraph, VertexId};
use std::hash::Hasher;

/// One edge in processing order, denormalized for builders.
#[derive(Clone, Copy, Debug)]
pub struct LayerEdge {
    /// Original edge id.
    pub id: EdgeId,
    /// First endpoint.
    pub u: VertexId,
    /// Second endpoint.
    pub v: VertexId,
    /// Existence probability.
    pub p: f64,
}

/// Canonical frontier state, borrowed from a [`LayerArena`] row:
/// `comp[slot]` is the component id of the `slot`-th frontier vertex
/// (frontier sorted by vertex id), ids numbered in first-occurrence order;
/// `tcnt[c]` counts the terminals connected to component `c` (including
/// terminals that already left the frontier inside it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StateRow<'a> {
    /// Component id per frontier slot.
    pub comp: &'a [u16],
    /// Terminal count per component id.
    pub tcnt: &'a [u32],
}

/// Node-merging rules (ablation: `ExactCounts` merges less, both are exact).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum MergeRule {
    /// Merge on component partition + has-terminal pattern (paper Lemma 4.3).
    #[default]
    Pattern,
    /// Merge on component partition + exact terminal counts.
    ExactCounts,
}

/// Result of applying one edge decision to a state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transition {
    /// All terminals are connected (1-sink).
    One,
    /// Some terminal can no longer reach the others (0-sink).
    Zero,
    /// Construction continues with the successor state, which is now the
    /// output arena's [pending row](LayerArena::pending).
    Next,
}

/// Reusable scratch buffers for [`FrontierMachine::apply`].
#[derive(Default)]
pub struct Scratch {
    tcnt: Vec<u32>,
    renum: Vec<u16>,
}

/// Slot-map marker: the slot's vertex is the current edge's entering `u`.
const ENTER_U: u32 = u32::MAX;
/// Slot-map marker: the slot's vertex is the current edge's entering `v`.
const ENTER_V: u32 = u32::MAX - 1;

/// Layer-constant facts about one endpoint of the current edge.
#[derive(Clone, Copy, Debug, Default)]
struct Endpoint {
    /// Current-frontier slot, or `ENTER_U`/`ENTER_V` when the vertex enters
    /// the frontier at this layer.
    src: u32,
    /// The vertex is a terminal.
    terminal: bool,
    /// This layer is the vertex's last touch: it leaves the frontier.
    leaves: bool,
}

impl Endpoint {
    /// The vertex enters the frontier at this layer.
    #[inline]
    fn enters(self) -> bool {
        self.src == ENTER_U || self.src == ENTER_V
    }
}

/// Layer-by-layer frontier cursor over a `(graph, terminal set, edge order)`
/// triple. Construction is `O(|V| + |E|)`; the cursor then advances one layer
/// at a time while builders expand their node sets.
#[derive(Clone, Debug)]
pub struct FrontierMachine {
    edges: Vec<LayerEdge>,
    first_touch: Vec<usize>,
    last_touch: Vec<usize>,
    is_terminal: Vec<bool>,
    k: usize,
    unseen_after: Vec<usize>,
    max_width: usize,
    trivial: Option<f64>,
    // Cursor state.
    layer: usize,
    cur: Vec<VertexId>,
    next: Vec<VertexId>,
    fdeg: Vec<u32>,
    // Slot maps of the current layer, rebuilt by `recompute_next`.
    /// Source of each next-frontier slot: the current slot it stays in, or
    /// `ENTER_U`/`ENTER_V`. Current slots absent from it leave the frontier.
    next_src: Vec<u32>,
    /// Future degree after this layer of each next-frontier vertex.
    next_fdeg: Vec<u32>,
    eu: Endpoint,
    ev: Endpoint,
}

impl FrontierMachine {
    /// Build the machine. Terminals are validated and deduplicated; `order`
    /// seeds from the first terminal.
    pub fn new(
        g: &UncertainGraph,
        terminals: &[VertexId],
        order: EdgeOrder,
    ) -> Result<Self, GraphError> {
        let t = g.validate_terminals(terminals)?;
        let plan = FrontierPlan::for_strategy(g, order, t[0]);
        Ok(Self::with_plan(g, &t, plan))
    }

    /// Build the machine from a precomputed plan (terminals must be valid).
    pub fn with_plan(g: &UncertainGraph, terminals: &[VertexId], plan: FrontierPlan) -> Self {
        let n = g.num_vertices();
        let m = g.num_edges();
        let mut is_terminal = vec![false; n];
        for &t in terminals {
            is_terminal[t] = true;
        }
        let k = terminals.len();

        let edges: Vec<LayerEdge> = plan
            .order
            .iter()
            .map(|&id| {
                let e = g.edge(id);
                LayerEdge {
                    id,
                    u: e.u,
                    v: e.v,
                    p: e.p,
                }
            })
            .collect();

        // unseen_after[l] = #terminals whose first touch is after layer l.
        let mut unseen_after = vec![0usize; m];
        {
            let mut firsts: Vec<usize> = terminals.iter().map(|&t| plan.first_touch[t]).collect();
            firsts.sort_unstable();
            let mut seen = 0usize;
            for (l, slot) in unseen_after.iter_mut().enumerate() {
                while seen < firsts.len() && firsts[seen] <= l {
                    seen += 1;
                }
                *slot = k - seen;
            }
        }

        let isolated_terminal = terminals.iter().any(|&t| plan.first_touch[t] == usize::MAX);
        let trivial = if k <= 1 {
            Some(1.0)
        } else if m == 0 || isolated_terminal {
            Some(0.0)
        } else {
            None
        };

        let fdeg: Vec<u32> = (0..n).map(|v| g.degree(v) as u32).collect();
        let mut machine = FrontierMachine {
            edges,
            first_touch: plan.first_touch,
            last_touch: plan.last_touch,
            is_terminal,
            k,
            unseen_after,
            max_width: plan.max_width,
            trivial,
            layer: 0,
            cur: Vec::new(),
            next: Vec::new(),
            fdeg,
            next_src: Vec::new(),
            next_fdeg: Vec::new(),
            eu: Endpoint::default(),
            ev: Endpoint::default(),
        };
        machine.recompute_next();
        machine
    }

    /// `Some(r)` when the reliability is decided without construction
    /// (`k <= 1` → 1; an isolated terminal or an edgeless graph with
    /// `k >= 2` → 0).
    #[inline]
    pub fn trivial(&self) -> Option<f64> {
        self.trivial
    }

    /// Number of layers (= edges).
    #[inline]
    pub fn layers(&self) -> usize {
        self.edges.len()
    }

    /// Current layer (0-based).
    #[inline]
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Number of terminals.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Maximum frontier width over all layers (from the plan).
    #[inline]
    pub fn max_width(&self) -> usize {
        self.max_width
    }

    /// Terminal mask by vertex id.
    #[inline]
    pub fn terminal_mask(&self) -> &[bool] {
        &self.is_terminal
    }

    /// Last layer touching each vertex (`usize::MAX` for untouched
    /// vertices): after it the vertex leaves the frontier for good.
    #[inline]
    pub fn last_touch(&self) -> &[usize] {
        &self.last_touch
    }

    /// All edges in processing order.
    #[inline]
    pub fn ordered_edges(&self) -> &[LayerEdge] {
        &self.edges
    }

    /// The edge processed at the current layer.
    #[inline]
    pub fn current_edge(&self) -> LayerEdge {
        self.edges[self.layer]
    }

    /// Frontier (sorted) before processing the current layer.
    #[inline]
    pub fn cur_frontier(&self) -> &[VertexId] {
        &self.cur
    }

    /// Frontier (sorted) after processing the current layer; successor rows
    /// written by [`Self::apply`] align with these slots.
    #[inline]
    pub fn next_frontier(&self) -> &[VertexId] {
        &self.next
    }

    /// Number of uncertain (not yet processed) edges incident to each
    /// [next-frontier](Self::next_frontier) vertex after the current layer —
    /// the ingredient of the paper's `d_{n,f}`.
    #[inline]
    pub fn next_future_degrees(&self) -> &[u32] {
        &self.next_fdeg
    }

    /// Move the cursor to the next layer.
    pub fn advance(&mut self) {
        let e = self.edges[self.layer];
        self.fdeg[e.u] -= 1;
        self.fdeg[e.v] -= 1;
        self.layer += 1;
        std::mem::swap(&mut self.cur, &mut self.next);
        self.recompute_next();
    }

    /// Rebuild `next` from `cur` and the current layer's enter/leave events,
    /// together with the layer's slot maps: where each next slot comes
    /// from, where the edge's endpoints sit, and the next slots' future
    /// degrees. [`Self::apply`] reads only these, so no per-node search.
    fn recompute_next(&mut self) {
        self.next.clear();
        self.next_src.clear();
        self.next_fdeg.clear();
        if self.layer >= self.edges.len() {
            self.next.extend_from_slice(&self.cur);
            return;
        }
        let l = self.layer;
        let e = self.edges[l];
        let endpoint = |w: VertexId, enter: u32| Endpoint {
            src: if self.first_touch[w] == l {
                enter
            } else {
                self.cur
                    .binary_search(&w)
                    .expect("endpoint with first_touch < layer must be in the frontier")
                    as u32
            },
            terminal: self.is_terminal[w],
            leaves: self.last_touch[w] == l,
        };
        self.eu = endpoint(e.u, ENTER_U);
        self.ev = endpoint(e.v, ENTER_V);

        // Merge the sorted current frontier with the (at most two) entering
        // endpoints, dropping the vertices whose last touch is this layer.
        let mut entering = [(e.u, ENTER_U), (e.v, ENTER_V)];
        entering.sort_unstable_by_key(|&(w, _)| w);
        let mut entering = entering
            .into_iter()
            .filter(|&(w, _)| self.first_touch[w] == l)
            .peekable();
        let mut cur = self.cur.iter().enumerate().peekable();
        loop {
            let (x, src) = match (cur.peek(), entering.peek()) {
                (Some(&(slot, &x)), Some(&(w, _))) if x < w => {
                    cur.next();
                    (x, slot as u32)
                }
                (Some(&(slot, &x)), None) => {
                    cur.next();
                    (x, slot as u32)
                }
                (_, Some(&(w, tag))) => {
                    entering.next();
                    (w, tag)
                }
                (None, None) => break,
            };
            if self.last_touch[x] != l {
                self.next.push(x);
                self.next_src.push(src);
                let adjust = (e.u == x) as u32 + (e.v == x) as u32;
                self.next_fdeg.push(self.fdeg[x] - adjust);
            }
        }
    }

    /// Apply the current layer's edge decision (`take` = edge existent) to a
    /// state aligned with [`Self::cur_frontier`]. On [`Transition::Next`]
    /// the successor, aligned with [`Self::next_frontier`], is `out`'s
    /// pending row; `out` must have been [reset](LayerArena::reset) to the
    /// next frontier's width. Requires `k >= 1`.
    pub fn apply(
        &self,
        state: StateRow<'_>,
        take: bool,
        scratch: &mut Scratch,
        out: &mut LayerArena,
    ) -> Transition {
        debug_assert!(self.k >= 1);
        debug_assert_eq!(
            state.comp.len(),
            self.cur.len(),
            "state/frontier slot mismatch"
        );
        debug_assert_eq!(out.stride, self.next.len(), "arena/frontier mismatch");

        // Extended component table: existing comps plus fresh ids for
        // entering endpoints (`u` first).
        let nc = state.tcnt.len();
        let (eu, ev) = (self.eu, self.ev);
        let cu = match eu.src {
            ENTER_U => nc,
            slot => state.comp[slot as usize] as usize,
        };
        let cv = match ev.src {
            ENTER_V => nc + eu.enters() as usize,
            slot => state.comp[slot as usize] as usize,
        };
        let tcnt = &mut scratch.tcnt;
        tcnt.clear();
        tcnt.extend_from_slice(state.tcnt);
        for end in [eu, ev] {
            if end.enters() {
                tcnt.push(end.terminal as u32);
            }
        }

        // At most one merge per layer: remap `from` -> `to`.
        let (mut from, mut to) = (usize::MAX, usize::MAX);
        if take && cu != cv {
            to = cu.min(cv);
            from = cu.max(cv);
            tcnt[to] += tcnt[from];
        }
        let map_id = |c: usize| if c == from { to } else { c };

        // 1-sink (Lemma 4.1): a single live flagged component and nothing
        // unseen means every terminal is connected. Every component of a
        // canonical state sits on the frontier, so after the merge the live
        // components are all but `from`.
        if self.unseen_after[self.layer] == 0 {
            let flagged = tcnt
                .iter()
                .enumerate()
                .filter(|&(c, &t)| c != from && t > 0)
                .count();
            if flagged == 1 {
                return Transition::One;
            }
        }

        // Canonicalize the surviving state over the next frontier, straight
        // into the arena's pending row.
        let renum = &mut scratch.renum;
        renum.clear();
        renum.resize(tcnt.len(), u16::MAX);
        let (comp_out, tcnt_out) = out.pending_mut();
        let mut ncomp = 0u16;
        for (slot_out, &src) in comp_out.iter_mut().zip(&self.next_src) {
            let c = map_id(match src {
                ENTER_U => cu,
                ENTER_V => cv,
                slot => state.comp[slot as usize] as usize,
            });
            if renum[c] == u16::MAX {
                renum[c] = ncomp;
                tcnt_out[ncomp as usize] = tcnt[c];
                ncomp += 1;
            }
            *slot_out = renum[c];
        }

        // 0-sink (Lemma 4.2): a flagged component dies incomplete — a leaving
        // endpoint's component that no next-frontier vertex carries on.
        for (end, c) in [(eu, cu), (ev, cv)] {
            let cc = map_id(c);
            if end.leaves && renum[cc] == u16::MAX && tcnt[cc] > 0 {
                return Transition::Zero;
            }
        }
        out.ncomp[out.len] = ncomp;
        Transition::Next
    }
}

/// Lookup outcome of [`LayerArena::find_or_insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// A committed row merges with the pending row.
    Found(u32),
    /// The pending row was committed under this handle.
    Inserted(u32),
    /// No committed row merges with the pending row, and it was not
    /// inserted; it stays readable as [`LayerArena::pending`] until the next
    /// write.
    Absent,
}

/// Empty slot of the handle table.
const EMPTY: u32 = u32::MAX;

/// One layer's frontier states in flat, reused buffers.
///
/// Every row has the same stride, the layer's frontier width: row `h` owns
/// `comp[h·stride..][..stride]` and the first `ncomp[h]` entries of
/// `tcnt[h·stride..][..stride]` (a state has at most one component per
/// slot). Handles are dense `u32`s in insertion order, so iteration order —
/// which decides node order, and so the answer — never comes from hashing.
/// One row past the last committed row is the *pending* row that
/// [`FrontierMachine::apply`] writes a successor into. The merge index is an
/// open-addressed table of handles, hashed in place on the
/// [`MergeRule`] signature; it grows with the committed rows, so capacity
/// follows the live layer rather than any width bound.
///
/// A pool of rows that is never looked up (deleted nodes) is a `LayerArena`
/// filled with [`Self::push`] only.
#[derive(Clone, Debug, Default)]
pub struct LayerArena {
    rule: MergeRule,
    stride: usize,
    len: usize,
    comp: Vec<u16>,
    tcnt: Vec<u32>,
    ncomp: Vec<u16>,
    hashes: Vec<u64>,
    table: Vec<u32>,
}

impl LayerArena {
    /// An empty arena merging under `rule`, holding rows of width 0.
    pub fn new(rule: MergeRule) -> Self {
        let mut arena = LayerArena {
            rule,
            ..Default::default()
        };
        arena.reset(0);
        arena
    }

    /// Drop every row and switch to rows of `stride` slots, keeping the
    /// buffers' capacity.
    pub fn reset(&mut self, stride: usize) {
        self.stride = stride;
        self.len = 0;
        self.comp.clear();
        self.tcnt.clear();
        self.ncomp.clear();
        self.hashes.clear();
        self.table.clear();
        self.open_pending();
    }

    /// Committed rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no row is committed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Committed row `h` (`h < len`).
    #[inline]
    pub fn row(&self, h: usize) -> StateRow<'_> {
        debug_assert!(h < self.len);
        self.row_at(h)
    }

    /// The pending row: the last successor [`FrontierMachine::apply`] wrote.
    #[inline]
    pub fn pending(&self) -> StateRow<'_> {
        self.row_at(self.len)
    }

    /// Bytes allocated by the arena's buffers.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        self.comp.capacity() * size_of::<u16>()
            + self.tcnt.capacity() * size_of::<u32>()
            + self.ncomp.capacity() * size_of::<u16>()
            + self.hashes.capacity() * size_of::<u64>()
            + self.table.capacity() * size_of::<u32>()
    }

    /// Look the pending row up under the merge rule. Without a match, commit
    /// it when `insert` holds, else leave it pending ([`Lookup::Absent`]).
    pub fn find_or_insert(&mut self, insert: bool) -> Lookup {
        debug_assert_eq!(self.hashes.len(), self.len, "pools are not indexed");
        if (self.len + 1) * 2 > self.table.len() {
            self.grow_table();
        }
        let hash = self.hash_row(self.len);
        let mask = self.table.len() - 1;
        let mut i = self.bucket(hash);
        loop {
            let h = self.table[i];
            if h == EMPTY {
                break;
            }
            if self.hashes[h as usize] == hash && self.same_key(h as usize, self.len) {
                return Lookup::Found(h);
            }
            i = (i + 1) & mask;
        }
        if !insert {
            return Lookup::Absent;
        }
        let h = self.len as u32;
        self.table[i] = h;
        self.hashes.push(hash);
        self.len += 1;
        self.open_pending();
        Lookup::Inserted(h)
    }

    /// Append a copy of `row` (of this arena's stride) without indexing it.
    pub fn push(&mut self, row: StateRow<'_>) {
        self.write_pending(row);
        self.len += 1;
        self.open_pending();
    }

    /// Overwrite the pending row with a copy of `row`.
    fn write_pending(&mut self, row: StateRow<'_>) {
        debug_assert_eq!(row.comp.len(), self.stride);
        let (comp, tcnt) = self.pending_mut();
        comp.copy_from_slice(row.comp);
        tcnt[..row.tcnt.len()].copy_from_slice(row.tcnt);
        self.ncomp[self.len] = row.tcnt.len() as u16;
    }

    fn row_at(&self, h: usize) -> StateRow<'_> {
        let base = h * self.stride;
        StateRow {
            comp: &self.comp[base..base + self.stride],
            tcnt: &self.tcnt[base..base + self.ncomp[h] as usize],
        }
    }

    /// The pending row's full-stride buffers.
    fn pending_mut(&mut self) -> (&mut [u16], &mut [u32]) {
        let base = self.len * self.stride;
        (
            &mut self.comp[base..base + self.stride],
            &mut self.tcnt[base..base + self.stride],
        )
    }

    /// Make room for the pending row after the last committed one.
    fn open_pending(&mut self) {
        let end = (self.len + 1) * self.stride;
        self.comp.resize(end, 0);
        self.tcnt.resize(end, 0);
        self.ncomp.push(0);
    }

    /// Double the handle table (16 slots at least) and re-insert every
    /// committed row in handle order.
    fn grow_table(&mut self) {
        let size = (self.table.len() * 2).max(16);
        self.table.clear();
        self.table.resize(size, EMPTY);
        let mask = size - 1;
        for (h, &hash) in self.hashes.iter().enumerate() {
            let mut i = self.bucket(hash);
            while self.table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.table[i] = h as u32;
        }
    }

    /// Table slot of `hash`: its top bits (Fx's final multiply leaves the
    /// best entropy there).
    #[inline]
    fn bucket(&self, hash: u64) -> usize {
        (hash >> (64 - self.table.len().trailing_zeros())) as usize
    }

    /// Hash of row `h`'s merge signature: the component partition plus, per
    /// component, the has-terminal flag ([`MergeRule::Pattern`], Lemma 4.3)
    /// or the exact terminal count.
    fn hash_row(&self, h: usize) -> u64 {
        let row = self.row_at(h);
        let mut hasher = FxHasher::default();
        hasher.write_usize(row.tcnt.len());
        for chunk in row.comp.chunks(4) {
            hasher.write_u64(chunk.iter().fold(0, |w, &c| w << 16 | u64::from(c)));
        }
        match self.rule {
            MergeRule::Pattern => {
                for chunk in row.tcnt.chunks(64) {
                    hasher.write_u64(chunk.iter().fold(0, |w, &t| w << 1 | u64::from(t > 0)));
                }
            }
            MergeRule::ExactCounts => {
                for &t in row.tcnt {
                    hasher.write_u64(u64::from(t));
                }
            }
        }
        hasher.finish()
    }

    /// Whether rows `a` and `b` have equal merge signatures: two such states
    /// transition to the same sinks under any shared suffix of edge states.
    fn same_key(&self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.row_at(a), self.row_at(b));
        ra.comp == rb.comp
            && ra.tcnt.len() == rb.tcnt.len()
            && match self.rule {
                MergeRule::Pattern => ra
                    .tcnt
                    .iter()
                    .zip(rb.tcnt)
                    .all(|(&x, &y)| (x > 0) == (y > 0)),
                MergeRule::ExactCounts => ra.tcnt == rb.tcnt,
            }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(g: &UncertainGraph, t: &[usize]) -> FrontierMachine {
        FrontierMachine::new(g, t, EdgeOrder::Input).unwrap()
    }

    /// Exhaustively expand the machine and sum path probabilities into the
    /// 1-sink — a reference mini-solver used to validate transitions. States
    /// merge only when identical (`ExactCounts`), which is trivially sound.
    fn expand_reliability(g: &UncertainGraph, terminals: &[usize]) -> f64 {
        let mut m = machine(g, terminals);
        if let Some(r) = m.trivial() {
            return r;
        }
        let mut scratch = Scratch::default();
        let mut cur = LayerArena::new(MergeRule::ExactCounts);
        cur.find_or_insert(true);
        let mut probs = vec![1.0];
        let mut next = LayerArena::new(MergeRule::ExactCounts);
        let mut pc = 0.0;
        for _ in 0..m.layers() {
            let e = m.current_edge();
            next.reset(m.next_frontier().len());
            let mut next_probs: Vec<f64> = Vec::new();
            for (h, prob) in probs.iter().enumerate() {
                for (take, w) in [(false, 1.0 - e.p), (true, e.p)] {
                    if w == 0.0 {
                        continue;
                    }
                    match m.apply(cur.row(h), take, &mut scratch, &mut next) {
                        Transition::One => pc += prob * w,
                        Transition::Zero => {}
                        Transition::Next => match next.find_or_insert(true) {
                            Lookup::Found(i) => next_probs[i as usize] += prob * w,
                            Lookup::Inserted(_) => next_probs.push(prob * w),
                            Lookup::Absent => unreachable!("insertion requested"),
                        },
                    }
                }
            }
            std::mem::swap(&mut cur, &mut next);
            probs = next_probs;
            m.advance();
        }
        assert!((0..cur.len()).all(|h| cur.row(h).comp.is_empty()));
        pc
    }

    /// Write `row` as `arena`'s pending row and look it up, inserting.
    fn lookup(arena: &mut LayerArena, comp: &[u16], tcnt: &[u32]) -> Lookup {
        arena.write_pending(StateRow { comp, tcnt });
        arena.find_or_insert(true)
    }

    #[test]
    fn trivial_cases() {
        let g = UncertainGraph::new(3, [(0, 1, 0.5)]).unwrap();
        assert_eq!(machine(&g, &[1]).trivial(), Some(1.0));
        // Vertex 2 is isolated: k=2 with an isolated terminal is zero.
        assert_eq!(machine(&g, &[0, 2]).trivial(), Some(0.0));
        let empty = UncertainGraph::new(2, []).unwrap();
        assert_eq!(machine(&empty, &[0, 1]).trivial(), Some(0.0));
    }

    #[test]
    fn single_edge_reliability() {
        let g = UncertainGraph::new(2, [(0, 1, 0.3)]).unwrap();
        assert!((expand_reliability(&g, &[0, 1]) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn series_and_triangle() {
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.8)]).unwrap();
        assert!((expand_reliability(&g, &[0, 2]) - 0.4).abs() < 1e-12);
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.8), (0, 2, 0.3)]).unwrap();
        let expect = 0.3 + 0.7 * 0.5 * 0.8;
        assert!((expand_reliability(&g, &[0, 2]) - expect).abs() < 1e-12);
    }

    #[test]
    fn matches_brute_force_on_fixtures() {
        let fixtures: Vec<(UncertainGraph, Vec<usize>)> = vec![
            (
                UncertainGraph::new(
                    5,
                    [
                        (0, 1, 0.7),
                        (0, 2, 0.7),
                        (1, 2, 0.7),
                        (1, 3, 0.7),
                        (2, 4, 0.7),
                        (3, 4, 0.7),
                    ],
                )
                .unwrap(),
                vec![0, 3, 4],
            ),
            (
                UncertainGraph::new(4, [(0, 1, 0.9), (1, 2, 0.5), (2, 3, 0.4), (3, 0, 0.6)])
                    .unwrap(),
                vec![0, 2],
            ),
            (
                UncertainGraph::new(
                    6,
                    [
                        (0, 1, 0.5),
                        (1, 2, 0.6),
                        (2, 3, 0.7),
                        (3, 4, 0.8),
                        (4, 5, 0.9),
                    ],
                )
                .unwrap(),
                vec![0, 5],
            ),
        ];
        for (g, t) in fixtures {
            let expect = crate::brute::brute_force_reliability(&g, &t);
            let got = expand_reliability(&g, &t);
            assert!((got - expect).abs() < 1e-12, "got {got}, expect {expect}");
        }
    }

    #[test]
    fn disconnected_terminals_resolve_to_zero() {
        let g = UncertainGraph::new(4, [(0, 1, 0.9), (2, 3, 0.9)]).unwrap();
        assert_eq!(expand_reliability(&g, &[0, 2]), 0.0);
    }

    #[test]
    fn signature_pattern_vs_exact() {
        let mut pattern = LayerArena::new(MergeRule::Pattern);
        pattern.reset(3);
        assert_eq!(
            lookup(&mut pattern, &[0, 0, 1], &[2, 1]),
            Lookup::Inserted(0)
        );
        assert_eq!(
            lookup(&mut pattern, &[0, 0, 1], &[1, 2]),
            Lookup::Found(0),
            "pattern rule merges differing counts"
        );
        // The first-inserted row wins the merge.
        assert_eq!(pattern.row(0).tcnt, &[2, 1]);
        let mut exact = LayerArena::new(MergeRule::ExactCounts);
        exact.reset(3);
        assert_eq!(lookup(&mut exact, &[0, 0, 1], &[2, 1]), Lookup::Inserted(0));
        assert_eq!(
            lookup(&mut exact, &[0, 0, 1], &[1, 2]),
            Lookup::Inserted(1),
            "exact rule distinguishes counts"
        );
    }

    #[test]
    fn signature_distinguishes_partitions() {
        let mut arena = LayerArena::new(MergeRule::Pattern);
        arena.reset(2);
        assert_eq!(lookup(&mut arena, &[0, 1], &[1, 1]), Lookup::Inserted(0));
        assert_eq!(lookup(&mut arena, &[0, 0], &[2]), Lookup::Inserted(1));
        assert_eq!(lookup(&mut arena, &[0, 1], &[1, 0]), Lookup::Inserted(2));
    }

    #[test]
    fn arena_handles_follow_insertion_order_across_growth() {
        let mut arena = LayerArena::new(MergeRule::ExactCounts);
        arena.reset(3);
        let rows: Vec<([u16; 3], [u32; 1])> = (0..200).map(|i| ([0, 0, 0], [i])).collect();
        for (i, (comp, tcnt)) in rows.iter().enumerate() {
            assert_eq!(lookup(&mut arena, comp, tcnt), Lookup::Inserted(i as u32));
        }
        for (i, (comp, tcnt)) in rows.iter().enumerate() {
            assert_eq!(lookup(&mut arena, comp, tcnt), Lookup::Found(i as u32));
            assert_eq!(arena.row(i).tcnt, tcnt);
        }
        // A row that is not inserted stays readable as the pending row.
        arena.write_pending(StateRow {
            comp: &[0, 1, 1],
            tcnt: &[0, 7],
        });
        assert_eq!(arena.find_or_insert(false), Lookup::Absent);
        assert_eq!(arena.pending().tcnt, &[0, 7]);
        assert_eq!(arena.len(), 200);
        // Pools append copies without indexing.
        let mut pool = LayerArena::new(MergeRule::ExactCounts);
        pool.reset(3);
        pool.push(arena.pending());
        pool.push(arena.row(5));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.row(0).comp, &[0, 1, 1]);
        assert_eq!(pool.row(1).tcnt, &[5]);
    }

    #[test]
    fn future_degree_tracks_layers() {
        let g = UncertainGraph::new(3, [(0, 1, 0.5), (1, 2, 0.5)]).unwrap();
        let mut m = machine(&g, &[0, 2]);
        // During layer 0 (edge (0,1)): after it, vertex 1 still has edge (1,2).
        assert_eq!(m.next_frontier(), &[1]);
        assert_eq!(m.next_future_degrees(), &[1]);
        m.advance();
        assert_eq!(m.next_frontier(), &[] as &[usize]);
        assert_eq!(m.next_future_degrees(), &[] as &[u32]);
    }

    #[test]
    fn frontier_evolution() {
        let g = UncertainGraph::new(4, [(0, 1, 0.5), (1, 2, 0.5), (2, 3, 0.5)]).unwrap();
        let mut m = machine(&g, &[0, 3]);
        assert_eq!(m.cur_frontier(), &[] as &[usize]);
        assert_eq!(m.next_frontier(), &[1]); // 0 enters and leaves at layer 0
        m.advance();
        assert_eq!(m.cur_frontier(), &[1]);
        assert_eq!(m.next_frontier(), &[2]);
        m.advance();
        assert_eq!(m.cur_frontier(), &[2]);
        assert_eq!(m.next_frontier(), &[] as &[usize]);
    }

    #[test]
    fn slot_maps_follow_the_sorted_frontier() {
        // Layer 2 is edge (1, 3): 1 stays (edge (1, 4) follows), 3 enters
        // and stays, 2 stays untouched; 0 left at layer 0.
        let g = UncertainGraph::new(
            5,
            [
                (0, 2, 0.5),
                (1, 2, 0.5),
                (1, 3, 0.5),
                (2, 3, 0.5),
                (1, 4, 0.5),
            ],
        )
        .unwrap();
        let mut m = machine(&g, &[0, 4]);
        m.advance();
        m.advance();
        assert_eq!(m.cur_frontier(), &[1, 2]);
        assert_eq!(m.next_frontier(), &[1, 2, 3]);
        assert_eq!(m.next_src, vec![0, 1, ENTER_V]);
        assert_eq!(m.next_future_degrees(), &[1, 1, 1]);
        assert_eq!((m.eu.src, m.ev.src), (0, ENTER_V));
        assert!(!m.eu.leaves && !m.ev.leaves);
    }
}
