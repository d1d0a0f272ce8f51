//! The four workloads: a fixed graph each, and an op sequence that is a pure
//! function of the workload seed.
//!
//! The graphs come from the repository's seeded dataset generators at a
//! fixed dataset seed, so every workload seed sees the same graph and only
//! the traffic (terminal sets, mutations, what-ifs) varies with `--seed`.
//! Terminal sets are vetted with the benchmark's own [`Topology`], never
//! with the library's planner, so the traffic depends on nothing else.

use crate::topology::Topology;
use netrel_core::{ProConfig, SemanticsSpec};
use netrel_datasets::Dataset;
use netrel_engine::{Mutation, PlanBudget, PlannedQuery};
use netrel_s2bdd::S2BddConfig;
use netrel_ugraph::{UncertainGraph, VertexId};
use std::collections::HashSet;
use std::fmt::Write as _;

/// Dataset seed of both graphs (the sizes the benchmark docs quote).
pub const DATASET_SEED: u64 = 7;
/// Tokyo-like road grid scale: 1,296 vertices / 1,588 edges.
const ROAD_SCALE: f64 = 0.05;
/// HitD-like protein-interaction scale: 183 vertices / 2,493 edges.
const PPI_SCALE: f64 = 0.01;

/// road-warm hot pool: two-terminal pairs and four-terminal city blocks.
const WARM_PAIRS: usize = 96;
const WARM_BLOCKS: usize = 32;
/// BFS radius a city block's other three terminals are drawn from.
const BLOCK_RADIUS: usize = 3;
/// road-drift hot pool and cycle shape: one `mutate` with this many
/// probability updates, then this many queries over the pool, then one
/// `whatif`. With six queries a cycle and 192 pairs a run held about 190
/// what-ifs, and `whatif_p50_ms` spread by 28% between seeds; three
/// queries double the what-ifs, and 384 pairs make the pool's cost
/// depend less on the seed.
const DRIFT_PAIRS: usize = 384;
const DRIFT_QUERIES_PER_CYCLE: usize = 3;
/// Every this many cycles a road closes (`remove_edge`); it reopens
/// (`add_edge`, same probability) in the next cycle's `mutate`.
const DRIFT_CLOSE_EVERY: usize = 4;
/// Widest breadth-first sweep of the giant 2-edge-connected component
/// (1,136 of the road graph's 1,588 edges) a road query may start from,
/// seen from the smaller of its entry vertices (see
/// [`Traffic::is_road_query`]).
const MAX_SWEEP_WIDTH: usize = 30;
/// Possible-world samples of every ppi-dense query (the service default is
/// 10,000). At 4,096 the world-mask matrix, 64 blocks of 2,493 words, is
/// 1.3 MB and stays in a core's 2 MB L2 cache; at 10,000 (3.1 MB) it does
/// not, and the run's speed follows whatever else shares the memory bus.
const PPI_SAMPLES: usize = 4_096;
/// Possible-world samples of every road-cold query. They fund the bounded
/// S2BDD's stratified estimate of the mass its diagram leaves open; at the
/// default 10,000 the solver took 87–89% of op self time, short of the 90%
/// road-cold is meant to put there, and at 20,000 it takes about 91%.
const COLD_SAMPLES: usize = 20_000;

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    RoadWarm,
    RoadCold,
    PpiDense,
    RoadDrift,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RoadWarm,
        Workload::RoadCold,
        Workload::PpiDense,
        Workload::RoadDrift,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RoadWarm => "road-warm",
            Workload::RoadCold => "road-cold",
            Workload::PpiDense => "ppi-dense",
            Workload::RoadDrift => "road-drift",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The dataset generator and scale behind this workload's graph.
    pub fn dataset(self) -> (Dataset, f64) {
        match self {
            Workload::PpiDense => (Dataset::HitD, PPI_SCALE),
            _ => (Dataset::Tokyo, ROAD_SCALE),
        }
    }

    pub fn graph(self) -> UncertainGraph {
        let (dataset, scale) = self.dataset();
        dataset.generate(scale, DATASET_SEED)
    }

    /// Hop distance band of the road workloads' pairs. A pair's distance
    /// sets how many 2-edge-connected components its query crosses, so a
    /// band keeps op cost from being a mix of near and far pairs whose
    /// proportions, and so every percentile, move with the seed. `None`
    /// on ppi-dense, where every pair is a hop or two apart.
    fn hop_band(self) -> Option<(usize, usize)> {
        match self {
            Workload::RoadWarm => Some((20, 40)),
            Workload::RoadCold => Some((25, 40)),
            Workload::RoadDrift => Some((20, 40)),
            Workload::PpiDense => None,
        }
    }

    /// Timed ops a traced run makes: about half of what an untraced run
    /// of `seconds` completes on the host the benchmark was sized on, and
    /// at least 100 queries. A fixed count makes the traced run's counts
    /// repeat exactly for a seed, and the three-depth replay that follows
    /// costs about three times the untraced phase.
    pub fn traced_ops(self, seconds: f64) -> usize {
        let ops_per_s = match self {
            Workload::RoadWarm => 500.0,
            Workload::RoadCold => 60.0,
            Workload::PpiDense => 25.0,
            Workload::RoadDrift => 55.0,
        };
        ((seconds / 2.0 * ops_per_s).ceil() as usize).max(150)
    }

    /// Whether the traffic mutates the graph (and so carries its own
    /// what-ifs).
    pub fn mutates(self) -> bool {
        self == Workload::RoadDrift
    }

    /// The sample budget every query and what-if asks for, when it is not
    /// the service default.
    pub fn samples(self) -> Option<usize> {
        match self {
            Workload::PpiDense => Some(PPI_SAMPLES),
            Workload::RoadCold => Some(COLD_SAMPLES),
            Workload::RoadWarm | Workload::RoadDrift => None,
        }
    }
}

/// SplitMix64: the benchmark's only randomness, seeded by `--seed`. Kept
/// local so that no dependency update can change a seed's op sequence.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// An edge probability in `[0.20, 0.95]` with two decimals.
    fn prob(&mut self) -> f64 {
        (20 + self.below(76)) as f64 / 100.0
    }
}

/// One request of the traffic.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    /// A planned k-terminal query.
    Query(Vec<VertexId>),
    /// A planned query against a hypothetical mutation set.
    Whatif(Vec<VertexId>, Vec<Mutation>),
    /// Committed mutations.
    Mutate(Vec<Mutation>),
}

/// Planner node budget of every query and what-if (the service default is
/// 250,000). It caps a bounded part's S2BDD, which keeps road-cold's op
/// cost from being so heavy-tailed that a run's throughput rests on a
/// handful of ops.
pub const NODE_BUDGET: usize = 10_000;

/// The engine-side form of every query and what-if `workload` sends: what
/// the service builds from a request with `"plan":true` and its budget.
pub fn planned_query(workload: Workload, terminals: &[VertexId]) -> PlannedQuery {
    let config = ProConfig {
        s2bdd: S2BddConfig::default(),
        ..Default::default()
    };
    let defaults = PlanBudget::default();
    let budget = PlanBudget {
        node_budget: NODE_BUDGET,
        sample_budget: workload.samples().unwrap_or(defaults.sample_budget),
        ..defaults
    };
    PlannedQuery::with_semantics(SemanticsSpec::KTerminal, terminals.to_vec(), config, budget)
}

/// The `budget` object of `workload`'s requests.
fn budget_json(workload: Workload) -> String {
    match workload.samples() {
        Some(samples) => format!(r#"{{"nodes":{NODE_BUDGET},"samples":{samples}}}"#),
        None => format!(r#"{{"nodes":{NODE_BUDGET}}}"#),
    }
}

/// Name of the graph every request targets.
pub const GRAPH_NAME: &str = "g";

impl Op {
    pub fn kind(&self) -> &'static str {
        match self {
            Op::Query(_) => "query",
            Op::Whatif(..) => "whatif",
            Op::Mutate(_) => "mutate",
        }
    }

    /// The NDJSON request line for this op of `workload`'s traffic.
    pub fn to_line(&self, workload: Workload) -> String {
        let mut s = String::new();
        let budget = budget_json(workload);
        match self {
            Op::Query(t) => {
                let _ = write!(
                    s,
                    r#"{{"op":"query","graph":"{GRAPH_NAME}","terminals":{},"plan":true,"budget":{budget}}}"#,
                    terminals_json(t)
                );
            }
            Op::Whatif(t, m) => {
                let _ = write!(
                    s,
                    r#"{{"op":"whatif","graph":"{GRAPH_NAME}","terminals":{},"budget":{budget},"mutations":{}}}"#,
                    terminals_json(t),
                    mutations_json(m)
                );
            }
            Op::Mutate(m) => {
                let _ = write!(
                    s,
                    r#"{{"op":"mutate","graph":"{GRAPH_NAME}","mutations":{}}}"#,
                    mutations_json(m)
                );
            }
        }
        s
    }
}

/// The `register` line for `g` (probabilities print in shortest round-trip
/// form, so the server parses back the exact bits).
pub fn register_line(g: &UncertainGraph) -> String {
    let mut s = format!(
        r#"{{"op":"register","name":"{GRAPH_NAME}","vertices":{},"edges":["#,
        g.num_vertices()
    );
    for (i, e) in g.edges().iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{},{},{}]", e.u, e.v, e.p);
    }
    s.push_str("]}");
    s
}

fn terminals_json(t: &[VertexId]) -> String {
    let items: Vec<String> = t.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

fn mutations_json(ms: &[Mutation]) -> String {
    let items: Vec<String> = ms
        .iter()
        .map(|m| match *m {
            Mutation::UpdateProb { edge, p } => {
                format!(r#"{{"kind":"update_prob","edge":{edge},"p":{p}}}"#)
            }
            Mutation::AddEdge { u, v, p } => {
                format!(r#"{{"kind":"add_edge","u":{u},"v":{v},"p":{p}}}"#)
            }
            Mutation::RemoveEdge { edge } => format!(r#"{{"kind":"remove_edge","edge":{edge}}}"#),
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// The deterministic traffic of one workload: set-up ops (run after
/// `register`, before timing) and an endless stream of timed ops.
pub struct Traffic {
    workload: Workload,
    rng: SplitMix,
    /// Structure of the initial graph, for vetting terminal sets.
    topo: Topology,
    /// The server's edge list as the protocol numbers it (a removal shifts
    /// later ids down, an addition appends); road-drift's mutations are
    /// applied to it so later edge ids match the server's.
    edges: Vec<(VertexId, VertexId, f64)>,
    component: Vec<VertexId>,
    /// The hot pool (road-warm, road-drift).
    pool: Vec<Vec<VertexId>>,
    /// road-drift: the giant component's edges, as endpoint pairs (ids
    /// shift under closures). Every pool query keeps the giant component,
    /// so an update to any of them re-keys every pool query's largest part.
    giant: Vec<(VertexId, VertexId)>,
    /// Fresh-pair workloads: what was already asked. On ppi-dense the
    /// pair; on road-cold the entry vertices into the giant component, so
    /// that no two queries share their giant part and each one solves it.
    seen: HashSet<Vec<VertexId>>,
    /// A road closed by the previous `mutate`, reopened by the next.
    closed: Option<(VertexId, VertexId, f64)>,
    step: usize,
    cycle: usize,
}

impl Traffic {
    pub fn new(workload: Workload, seed: u64, graph: &UncertainGraph) -> Self {
        let edges: Vec<(VertexId, VertexId, f64)> =
            graph.edges().iter().map(|e| (e.u, e.v, e.p)).collect();
        let pairs: Vec<(VertexId, VertexId)> = edges.iter().map(|&(u, v, _)| (u, v)).collect();
        let topo = Topology::new(graph.num_vertices(), &pairs);
        let mut t = Traffic {
            workload,
            rng: SplitMix::new(seed),
            component: topo.largest_component(),
            giant: topo.giant_edges(),
            topo,
            edges,
            pool: Vec::new(),
            seen: HashSet::new(),
            closed: None,
            step: 0,
            cycle: 0,
        };
        let (pairs, blocks) = match workload {
            Workload::RoadWarm => (WARM_PAIRS, WARM_BLOCKS),
            Workload::RoadDrift => (DRIFT_PAIRS, 0),
            Workload::RoadCold | Workload::PpiDense => (0, 0),
        };
        while t.pool.len() < pairs + blocks {
            let p = if t.pool.len() < pairs {
                t.distinct_pair()
            } else {
                t.city_block()
            };
            if t.is_road_query(&p) {
                t.pool.push(p);
            }
        }
        t
    }

    /// Ops run after `register` and before the timed phase: the hot pool
    /// is warmed into the plan cache; on ppi-dense one query draws the
    /// world masks the later queries share.
    pub fn setup_ops(&mut self) -> Vec<Op> {
        match self.workload {
            Workload::RoadWarm | Workload::RoadDrift => {
                self.pool.iter().cloned().map(Op::Query).collect()
            }
            Workload::PpiDense => vec![Op::Query(self.fresh_pair())],
            Workload::RoadCold => Vec::new(),
        }
    }

    /// The next timed op.
    pub fn next_op(&mut self) -> Op {
        self.step += 1;
        match self.workload {
            Workload::RoadWarm => Op::Query(self.pool[self.step % self.pool.len()].clone()),
            Workload::RoadCold | Workload::PpiDense => Op::Query(self.fresh_pair()),
            Workload::RoadDrift => self.drift_op(),
        }
    }

    fn drift_op(&mut self) -> Op {
        let len = DRIFT_QUERIES_PER_CYCLE + 2;
        let pos = (self.step - 1) % len;
        if pos == 0 {
            self.cycle += 1;
            return Op::Mutate(self.drift_mutations());
        }
        if pos <= DRIFT_QUERIES_PER_CYCLE {
            return Op::Query(self.pool[self.drift_item(pos)].clone());
        }
        // What if one more road of the giant component changed, for a
        // random pool pair? The what-if re-plans against a fresh index, and
        // its giant part, whose probabilities differ from everything
        // cached, is solved cold.
        let i = self.rng.below(self.pool.len());
        let edge = self.pick_giant();
        let p = self.rng.prob();
        Op::Whatif(self.pool[i].clone(), vec![Mutation::UpdateProb { edge, p }])
    }

    /// Pool index of the cycle's `pos`-th query (1-based).
    fn drift_item(&self, pos: usize) -> usize {
        (self.cycle * DRIFT_QUERIES_PER_CYCLE + pos) % self.pool.len()
    }

    /// One `mutate` request: reopen last cycle's closure, update the
    /// probabilities of giant-component edges (so each query of the cycle
    /// re-solves its largest part), and now and then close one. Applied to
    /// the mirror in request order, exactly as the server applies them.
    fn drift_mutations(&mut self) -> Vec<Mutation> {
        let mut ms = Vec::new();
        if let Some((u, v, p)) = self.closed.take() {
            self.edges.push((u, v, p));
            ms.push(Mutation::AddEdge { u, v, p });
        }
        for _ in 0..DRIFT_QUERIES_PER_CYCLE {
            let edge = self.pick_giant();
            let p = self.rng.prob();
            self.edges[edge].2 = p;
            ms.push(Mutation::UpdateProb { edge, p });
        }
        if self.cycle.is_multiple_of(DRIFT_CLOSE_EVERY) {
            let edge = self.pick_giant();
            let (u, v, p) = self.edges.remove(edge);
            self.closed = Some((u, v, p));
            ms.push(Mutation::RemoveEdge { edge });
        }
        ms
    }

    /// The current id of a giant-component edge that is open.
    fn pick_giant(&mut self) -> usize {
        loop {
            let (u, v) = self.giant[self.rng.below(self.giant.len())];
            if let Some(e) = self.edges.iter().position(|&(a, b, _)| (a, b) == (u, v)) {
                return e;
            }
        }
    }

    /// Two distinct vertices of the largest component, at a hop distance
    /// inside the workload's band when it has one.
    fn distinct_pair(&mut self) -> Vec<VertexId> {
        let (lo, hi) = self.workload.hop_band().unwrap_or((1, usize::MAX - 1));
        loop {
            let s = self.component[self.rng.below(self.component.len())];
            let dist = self.topo.hops_from(s);
            let far: Vec<VertexId> = self
                .component
                .iter()
                .copied()
                .filter(|&v| (lo..=hi).contains(&dist[v]))
                .collect();
            if !far.is_empty() {
                return vec![s, far[self.rng.below(far.len())]];
            }
        }
    }

    /// A pair never asked before in this run. On the road graph it passes
    /// [`Traffic::is_road_query`] and enters the giant component where no
    /// earlier pair did: pairs whose branches of the bridge forest hang off
    /// the same giant vertices share their giant part, and the second would
    /// find it in the plan cache.
    fn fresh_pair(&mut self) -> Vec<VertexId> {
        loop {
            let p = self.distinct_pair();
            let key = if self.workload == Workload::PpiDense {
                vec![p[0].min(p[1]), p[0].max(p[1])]
            } else {
                match self.topo.giant_entries(&p) {
                    Some(entries) if self.is_road_query(&p) => entries,
                    _ => continue,
                }
            };
            if self.seen.insert(key) {
                return p;
            }
        }
    }

    /// A road query the benchmark asks. It keeps the giant component: a
    /// query that misses it costs a fraction of one that keeps it, and a
    /// seed-dependent mix of the two would move every percentile. And the
    /// breadth-first sweep of the giant component from the smaller of its
    /// entry vertices stays at most `MAX_SWEEP_WIDTH` wide. That selects
    /// the queries whose giant part a width-bounded S2BDD serves: started
    /// where the sweep gets wider, the part's frontier is too wide for a
    /// diagram and the part is sampled, pinning a world-mask matrix of
    /// about a megabyte in the server, so that how many a run met would
    /// set `peak_rss_mb`.
    fn is_road_query(&self, terminals: &[VertexId]) -> bool {
        self.topo
            .giant_entries(terminals)
            .is_some_and(|entries| self.topo.giant_sweep_width(entries[0]) <= MAX_SWEEP_WIDTH)
    }

    /// Four terminals around one street corner: a centre and three vertices
    /// within `BLOCK_RADIUS` hops of it.
    fn city_block(&mut self) -> Vec<VertexId> {
        loop {
            let c = self.component[self.rng.below(self.component.len())];
            let dist = self.topo.hops_from(c);
            let mut ball: Vec<VertexId> = (0..dist.len())
                .filter(|&v| v != c && dist[v] <= BLOCK_RADIUS)
                .collect();
            if ball.len() < 3 {
                continue;
            }
            let mut block = vec![c];
            for _ in 0..3 {
                let k = self.rng.below(ball.len());
                block.push(ball.swap_remove(k));
            }
            return block;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ops(workload: Workload, seed: u64, n: usize) -> (Vec<Op>, Vec<Op>) {
        let mut t = Traffic::new(workload, seed, &workload.graph());
        let setup = t.setup_ops();
        let timed = (0..n).map(|_| t.next_op()).collect();
        (setup, timed)
    }

    /// FNV-1a over the request lines of the set-up and the first `n` timed
    /// ops: what the server is sent, byte for byte.
    fn digest(workload: Workload, seed: u64, n: usize) -> u64 {
        let (setup, timed) = ops(workload, seed, n);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for op in setup.iter().chain(&timed) {
            for b in op.to_line(workload).bytes().chain([b'\n']) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        h
    }

    #[test]
    fn same_seed_same_op_sequence() {
        for w in Workload::ALL {
            assert_eq!(ops(w, 11, 200), ops(w, 11, 200), "{}", w.name());
        }
    }

    /// The traffic is a function of the seed and the graph only. A change
    /// anywhere in the library (planner, pruner, cost model) must leave
    /// these digests alone; a change to the generator here or to a dataset
    /// generator moves them, and then every earlier measurement is void.
    #[test]
    fn op_sequence_digest_is_pinned() {
        let pinned = [
            (Workload::RoadWarm, 0xac61_94c9_82c7_d922),
            (Workload::RoadCold, 0xb486_9e79_a678_9f35),
            (Workload::PpiDense, 0xa306_d18a_5005_9df3),
            (Workload::RoadDrift, 0x8092_1a7e_6374_a843),
        ];
        let found: Vec<(Workload, u64)> = pinned
            .iter()
            .map(|&(w, _)| (w, digest(w, 1, 300)))
            .collect();
        assert_eq!(found, pinned, "{found:#x?}");
    }

    #[test]
    fn another_seed_changes_the_traffic() {
        for w in Workload::ALL {
            assert_ne!(ops(w, 11, 50), ops(w, 12, 50), "{}", w.name());
        }
    }

    #[test]
    fn fresh_pair_workloads_never_repeat_a_pair() {
        for w in [Workload::RoadCold, Workload::PpiDense] {
            let (_, timed) = ops(w, 3, 400);
            let mut seen = HashSet::new();
            for op in timed {
                if let Op::Query(t) = op {
                    assert!(
                        seen.insert((t[0].min(t[1]), t[0].max(t[1]))),
                        "{}",
                        w.name()
                    );
                }
            }
        }
    }

    #[test]
    fn road_cold_never_repeats_a_giant_part() {
        let w = Workload::RoadCold;
        let g = w.graph();
        let pairs: Vec<(VertexId, VertexId)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let topo = Topology::new(g.num_vertices(), &pairs);
        let (_, timed) = ops(w, 3, 1000);
        let mut seen = HashSet::new();
        for op in timed {
            if let Op::Query(t) = op {
                assert!(seen.insert(topo.giant_entries(&t).expect("keeps the giant")));
            }
        }
    }

    #[test]
    fn read_only_workloads_send_only_queries() {
        for w in [Workload::RoadWarm, Workload::RoadCold, Workload::PpiDense] {
            let (_, timed) = ops(w, 4, 100);
            assert!(timed.iter().all(|op| op.kind() == "query"), "{}", w.name());
        }
    }

    #[test]
    fn drift_cycle_mutates_queries_and_asks_a_whatif() {
        let w = Workload::RoadDrift;
        let cycles = 2 * DRIFT_CLOSE_EVERY;
        let (_, timed) = ops(w, 5, cycles * (DRIFT_QUERIES_PER_CYCLE + 2));
        let kinds: Vec<&str> = timed.iter().map(Op::kind).collect();
        let mut cycle = vec!["mutate"];
        cycle.extend(std::iter::repeat_n("query", DRIFT_QUERIES_PER_CYCLE));
        cycle.push("whatif");
        assert_eq!(kinds, cycle.repeat(cycles));
        // Replaying the mutations on the real graph type: every one
        // applies, so the mirror numbered edges as the server does.
        let mut g = w.graph();
        for op in &timed {
            match op {
                Op::Mutate(ms) => {
                    for &m in ms {
                        match m {
                            Mutation::UpdateProb { edge, p } => {
                                g.update_edge_prob(edge, p).map(drop)
                            }
                            Mutation::AddEdge { u, v, p } => g.add_edge(u, v, p).map(drop),
                            Mutation::RemoveEdge { edge } => g.remove_edge(edge).map(drop),
                        }
                        .expect("generated mutation applies");
                    }
                }
                Op::Whatif(_, ms) => {
                    assert!(
                        matches!(ms[..], [Mutation::UpdateProb { edge, .. }] if edge < g.num_edges())
                    );
                }
                Op::Query(_) => {}
            }
        }
        assert!(timed.iter().any(|op| matches!(op, Op::Mutate(ms) if ms.iter().any(|m| matches!(m, Mutation::RemoveEdge { .. })))));
    }

    #[test]
    fn road_queries_keep_the_giant_component() {
        let g = Workload::RoadCold.graph();
        let pairs: Vec<(VertexId, VertexId)> = g.edges().iter().map(|e| (e.u, e.v)).collect();
        let topo = Topology::new(g.num_vertices(), &pairs);
        assert_eq!(topo.giant_edges().len(), 1136);
        for w in [Workload::RoadWarm, Workload::RoadCold, Workload::RoadDrift] {
            let (setup, timed) = ops(w, 6, 100);
            for op in setup.iter().chain(&timed) {
                if let Op::Query(t) = op {
                    assert!(topo.giant_entries(t).is_some(), "{}: {t:?}", w.name());
                }
            }
        }
    }

    #[test]
    fn graphs_have_the_documented_sizes() {
        let road = Workload::RoadWarm.graph();
        assert_eq!((road.num_vertices(), road.num_edges()), (1296, 1588));
        let ppi = Workload::PpiDense.graph();
        assert_eq!((ppi.num_vertices(), ppi.num_edges()), (183, 2493));
    }
}
