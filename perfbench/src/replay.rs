//! The traced run: the untraced run's op sequence replayed in-process, with
//! the benchmark's own spans around the calls into each layer.
//!
//! Each op runs at three depths, one after another, each with its own
//! state that has seen exactly the same op history:
//!
//! * **S** — `Service::handle_line` on an in-process service. Its response
//!   line must equal the pipe's byte for byte.
//! * **E** — the `Engine` method the service would call (`register`,
//!   `run_planned`, `apply_mutation`, `evaluate_with`).
//! * **P** — the engine's pipeline re-composed from the public functions of
//!   each layer (`GraphIndex::build`, `prune_with_index`, `decompose_with_index`,
//!   `transform`, `plan_part`, `PlanCache::get`/`insert`,
//!   `solve_semantics_part`, `WorldBank::part`, `combine_semantics_plan`,
//!   `patch_*`), so that every stage gets a span of its own.
//!
//! A depth's root span is the parent of the next depth's spans for the same
//! op, so a layer's self time (its span minus its child spans) is: for S,
//! the service's JSON work; for E, the engine's glue (batch assembly, locks,
//! metrics, intervals); for P's spans, the layer itself. The depths run
//! single-threaded, so a parent always covers its children's work. The
//! program itself gains no tracing.

use crate::check::{Answer, Checked, Outcome, Tally};
use crate::stats::mean;
use crate::workload::{planned_query, Op, Workload, GRAPH_NAME};
use crate::Run;
use netrel_core::{
    combine_semantics_plan, exact_semantics_part, sample_semantics_part, solve_semantics_part,
    BitSamplingConfig, SamplingConfig, SemPart, SemanticsPlan, SemanticsSpec, WorldBank,
};
use netrel_engine::service::Service;
use netrel_engine::{
    plan_part, Engine, EngineConfig, IndexPatch, Mutation, PartSolver, PlanCache, PlanKey,
    PlannedQuery, Recorder, ReliabilityAnswer, Route,
};
use netrel_preprocess::decompose::decompose_with_index;
use netrel_preprocess::prune::prune_with_index;
use netrel_preprocess::transform::transform;
use netrel_preprocess::{
    patch_add_edge, patch_remove_edge, patch_update_prob, GraphIndex, Part, PreprocessConfig,
    PreprocessStats, Preprocessed,
};
use netrel_s2bdd::S2BddResult;
use netrel_ugraph::traversal::terminals_connected_certain;
use netrel_ugraph::{UncertainGraph, VertexId};
use serde::Value;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the replay started.
struct Span {
    op: u32,
    layer: &'static str,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// Spans kept in memory and written out when the replay ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u32,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span; spans `f` opens nest under it.
    fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start_ns = self.now();
        self.spans.push(Span {
            op: self.op,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id as usize].end_ns = self.now();
        out
    }

    /// Run `f` with the span `parent` as the parent of the spans it opens
    /// (the next depth of the same op).
    fn under<T>(&mut self, parent: u32, f: impl FnOnce(&mut Self) -> T) -> T {
        self.stack.push(parent);
        let out = f(self);
        self.stack.pop();
        out
    }

    /// Id the next span will get.
    fn next_id(&self) -> u32 {
        self.spans.len() as u32
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"op":{},"layer":"{}","name":"{}","start_ns":{},"end_ns":{},"parent":{}}}"#,
                s.op, s.layer, s.name, s.start_ns, s.end_ns, parent
            )?;
        }
        out.flush()
    }
}

/// Work counters of depth P, kept at the layer boundaries.
#[derive(Clone, Default)]
struct Counts {
    lookups: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    jobs: u64,
    /// exact, bounded, sampling, bit_sampling, enumeration.
    routes: [u64; 5],
    plans: u64,
    parts: u64,
    part_edges: u64,
    s2bdd_nodes: u64,
    s2bdd_cap_hits: u64,
    s2bdd_samples: u64,
    estimate_log10_err: Vec<f64>,
    bit_parts: u64,
    bank_hits: u64,
    bit_blocks: u64,
    patched: u64,
    rebuilt: u64,
    invalidated_plans: u64,
    invalidated_worlds: u64,
}

impl Counts {
    fn route_slot(route: Route, solver: PartSolver) -> usize {
        match (route, solver) {
            (_, PartSolver::Enumeration) => 4,
            (Route::Exact, _) => 0,
            (Route::Bounded, _) => 1,
            (Route::Sampling, _) => 2,
            (Route::BitSampling, _) => 3,
        }
    }

    /// Counts since `earlier` (the timed phase, when `earlier` is the
    /// snapshot taken as it began).
    fn since(&self, earlier: &Counts) -> Counts {
        let mut routes = self.routes;
        for (r, e) in routes.iter_mut().zip(earlier.routes) {
            *r -= e;
        }
        Counts {
            lookups: self.lookups - earlier.lookups,
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            evictions: self.evictions - earlier.evictions,
            jobs: self.jobs - earlier.jobs,
            routes,
            plans: self.plans - earlier.plans,
            parts: self.parts - earlier.parts,
            part_edges: self.part_edges - earlier.part_edges,
            s2bdd_nodes: self.s2bdd_nodes - earlier.s2bdd_nodes,
            s2bdd_cap_hits: self.s2bdd_cap_hits - earlier.s2bdd_cap_hits,
            s2bdd_samples: self.s2bdd_samples - earlier.s2bdd_samples,
            estimate_log10_err: self.estimate_log10_err[earlier.estimate_log10_err.len()..]
                .to_vec(),
            bit_parts: self.bit_parts - earlier.bit_parts,
            bank_hits: self.bank_hits - earlier.bank_hits,
            bit_blocks: self.bit_blocks - earlier.bit_blocks,
            patched: self.patched - earlier.patched,
            rebuilt: self.rebuilt - earlier.rebuilt,
            invalidated_plans: self.invalidated_plans - earlier.invalidated_plans,
            invalidated_worlds: self.invalidated_worlds - earlier.invalidated_worlds,
        }
    }
}

/// What depth P computed for one query: the fields `ProResult` carries
/// into the answer, plus routing and cache telemetry.
#[derive(Debug)]
struct PipelineAnswer {
    estimate: f64,
    lower_bound: f64,
    upper_bound: f64,
    variance: f64,
    exact: bool,
    routes: Vec<&'static str>,
    hits: u64,
    misses: u64,
}

/// Depth P's state: what a registered graph holds inside the engine.
struct Pipeline {
    graph: UncertainGraph,
    index: GraphIndex,
    cache: PlanCache,
    bank: WorldBank,
}

/// The engine's owner id of the one registered graph.
const OWNER: usize = 0;

/// `KTerminal::plan`: `preprocess_with_index` (default toggles) stage by
/// stage, then `SemanticsPlan::from_preprocessed`.
fn plan_k_terminal(
    t: &mut Tracer,
    g: &UncertainGraph,
    index: &GraphIndex,
    terminals: &[VertexId],
) -> SemanticsPlan {
    let cfg = PreprocessConfig::default();
    let term = g
        .validate_terminals(terminals)
        .expect("generated terminals are valid");
    let mut stats = PreprocessStats {
        original_edges: g.num_edges(),
        ..Default::default()
    };
    let done = |pb: f64, parts: Vec<Part>, trivially_zero: bool, stats: PreprocessStats| {
        SemanticsPlan::from_preprocessed(
            SemanticsSpec::KTerminal,
            Preprocessed {
                pb,
                parts,
                trivially_zero,
                stats,
            },
        )
    };
    if term.len() <= 1 {
        return done(1.0, Vec::new(), false, stats);
    }
    let pruned = t.span("preprocess.prune", "prune_with_index", |_| {
        prune_with_index(g, index, &term)
    });
    if pruned.trivially_zero {
        return done(0.0, Vec::new(), true, stats);
    }
    let (work, work_terminals) = (pruned.graph, pruned.terminals);
    stats.pruned_edges = work.num_edges();
    if !terminals_connected_certain(&work, &work_terminals) {
        return done(0.0, Vec::new(), true, stats);
    }
    let residual = t.span("preprocess.decompose", "GraphIndex::build", |_| {
        GraphIndex::build(&work)
    });
    let d = t.span("preprocess.decompose", "decompose_with_index", |_| {
        decompose_with_index(&work, &residual, &work_terminals)
    });
    let parts = t.span("preprocess.transform", "transform", |_| {
        let mut parts = Vec::with_capacity(d.parts.len());
        for c in &d.parts {
            let tr = transform(&c.graph, &c.terminals, cfg.prune_dangling);
            stats.transform_rules += tr.rules_applied;
            if tr.terminals.len() >= 2 {
                parts.push(Part {
                    graph: tr.graph,
                    terminals: tr.terminals,
                });
            }
        }
        parts
    });
    stats.num_parts = parts.len();
    stats.max_part_edges = parts.iter().map(|p| p.graph.num_edges()).max().unwrap_or(0);
    stats.reduced_ratio = if stats.original_edges == 0 {
        0.0
    } else {
        stats.max_part_edges as f64 / stats.original_edges as f64
    };
    done(d.pb, parts, false, stats)
}

/// One part job: the engine executor's solver dispatch.
fn solve(
    t: &mut Tracer,
    c: &mut Counts,
    bank: &WorldBank,
    part: &SemPart,
    solver: PartSolver,
    predicted_nodes: usize,
) -> S2BddResult {
    let result = match solver {
        PartSolver::S2Bdd(cfg) => {
            let r = t.span("s2bdd", "solve_semantics_part", |_| {
                solve_semantics_part(part, cfg)
            });
            if let Ok(r) = &r {
                c.s2bdd_nodes += r.nodes_created as u64;
                c.s2bdd_cap_hits += u64::from(r.node_cap_hit);
                c.s2bdd_samples += r.samples_used as u64;
                let predicted = (predicted_nodes.max(1) as f64).log10();
                let actual = (r.nodes_created.max(1) as f64).log10();
                c.estimate_log10_err.push((predicted - actual).abs());
            }
            r
        }
        PartSolver::BitSampling { samples, seed } => {
            let before = bank.len();
            let cfg = BitSamplingConfig {
                samples,
                seed,
                threads: 1,
            };
            let r = t.span("bitsample", "WorldBank::part", |_| bank.part(part, cfg));
            // The bank grows (or restarts at capacity) exactly on a miss.
            c.bit_parts += 1;
            c.bank_hits += u64::from(bank.len() == before);
            c.bit_blocks += netrel_core::bitsample::lane_blocks(samples) as u64;
            r
        }
        PartSolver::Enumeration => t.span("solve.other", "exact_semantics_part", |_| {
            exact_semantics_part(part)
        }),
        PartSolver::Sampling {
            samples,
            estimator,
            seed,
        } => t.span("solve.other", "sample_semantics_part", |_| {
            sample_semantics_part(
                part,
                SamplingConfig {
                    samples,
                    estimator,
                    seed,
                    threads: 1,
                },
            )
        }),
    };
    result.expect("part solves of valid queries succeed")
}

impl Pipeline {
    fn register(t: &mut Tracer, graph: UncertainGraph) -> Self {
        let index = t.span("preprocess.index_build", "GraphIndex::build", |_| {
            GraphIndex::build(&graph)
        });
        Pipeline {
            graph,
            index,
            cache: PlanCache::new(EngineConfig::default().plan_cache_capacity),
            bank: WorldBank::new(),
        }
    }

    /// One planned query against `(g, index)`: `prepare_planned` and
    /// `execute` of the engine, for a one-query batch.
    fn planned(
        t: &mut Tracer,
        c: &mut Counts,
        cache: &mut PlanCache,
        bank: &WorldBank,
        g: &UncertainGraph,
        index: &GraphIndex,
        query: &PlannedQuery,
    ) -> PipelineAnswer {
        let plan = t.span("preprocess", "Semantics::plan", |t| {
            plan_k_terminal(t, g, index, &query.terminals)
        });
        let part_budget = query.budget.for_parts(plan.parts.len());
        let plans: Vec<_> = plan
            .parts
            .iter()
            .enumerate()
            .map(|(pi, part)| {
                t.span("planner.route", "plan_part", |_| {
                    plan_part(part, query.config.s2bdd, pi, &part_budget)
                })
            })
            .collect();
        c.plans += 1;
        c.parts += plan.parts.len() as u64;
        c.part_edges += plan
            .parts
            .iter()
            .map(|p| p.graph.num_edges() as u64)
            .sum::<u64>();
        for p in &plans {
            c.routes[Counts::route_slot(p.route, p.solver)] += 1;
        }
        let keys: Vec<PlanKey> = t.span("cache", "PlanKey::for_part", |_| {
            plan.parts
                .iter()
                .zip(&plans)
                .map(|(part, p)| PlanKey::for_part(part, p.solver))
                .collect()
        });

        enum Source {
            Cached(S2BddResult),
            Job(usize),
        }
        let mut jobs: Vec<usize> = Vec::new();
        let mut job_ids: HashMap<&PlanKey, usize> = HashMap::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        let mut sources = Vec::with_capacity(keys.len());
        for (pi, key) in keys.iter().enumerate() {
            c.lookups += 1;
            match t.span("cache", "PlanCache::get", |_| cache.get(key)) {
                Some(hit) => {
                    hits += 1;
                    sources.push(Source::Cached(hit));
                }
                None => {
                    misses += 1;
                    let job = *job_ids.entry(key).or_insert_with(|| {
                        jobs.push(pi);
                        jobs.len() - 1
                    });
                    sources.push(Source::Job(job));
                }
            }
        }
        c.hits += hits;
        c.misses += misses;
        c.jobs += jobs.len() as u64;
        let solved: Vec<S2BddResult> = jobs
            .iter()
            .map(|&pi| {
                let p = &plans[pi];
                solve(
                    t,
                    c,
                    bank,
                    &plan.parts[pi],
                    p.solver,
                    p.estimate.predicted_nodes,
                )
            })
            .collect();
        for (&pi, r) in jobs.iter().zip(&solved) {
            let inserted = t.span("cache", "PlanCache::insert", |_| {
                cache.insert(keys[pi].clone(), r.clone(), OWNER)
            });
            c.evictions += u64::from(inserted.evicted_age.is_some());
        }
        let parts: Vec<S2BddResult> = sources
            .into_iter()
            .map(|s| match s {
                Source::Cached(r) => r,
                Source::Job(j) => solved[j].clone(),
            })
            .collect();
        let pro = t.span("combine", "combine_semantics_plan", |_| {
            combine_semantics_plan(&plan, parts)
        });
        PipelineAnswer {
            estimate: pro.estimate,
            lower_bound: pro.lower_bound,
            upper_bound: pro.upper_bound,
            variance: pro.variance_estimate,
            exact: pro.exact,
            routes: plans.iter().map(|p| p.route.name()).collect(),
            hits,
            misses,
        }
    }

    fn query(&mut self, t: &mut Tracer, c: &mut Counts, query: &PlannedQuery) -> PipelineAnswer {
        Self::planned(
            t,
            c,
            &mut self.cache,
            &self.bank,
            &self.graph,
            &self.index,
            query,
        )
    }

    /// `Engine::evaluate_with`: mutate a clone, index it afresh, plan.
    fn whatif(
        &mut self,
        t: &mut Tracer,
        c: &mut Counts,
        query: &PlannedQuery,
        mutations: &[Mutation],
    ) -> PipelineAnswer {
        let graph = t.span("mutate.whatif", "clone + apply", |_| {
            let mut g = self.graph.clone();
            for m in mutations {
                apply_to_graph(&mut g, m);
            }
            g
        });
        let index = t.span("preprocess.index_build", "GraphIndex::build", |_| {
            GraphIndex::build(&graph)
        });
        Self::planned(t, c, &mut self.cache, &self.bank, &graph, &index, query)
    }

    /// `Engine::apply_mutation`: graph primitive, incremental index patch,
    /// scoped cache and world-bank invalidation.
    fn mutate(&mut self, t: &mut Tracer, c: &mut Counts, m: Mutation) -> Outcome {
        t.span("mutate.apply", "apply_mutation", |t| {
            let old_bits = match m {
                Mutation::UpdateProb { edge, .. } | Mutation::RemoveEdge { edge } => {
                    Some(self.graph.prob(edge).to_bits())
                }
                Mutation::AddEdge { .. } => None,
            };
            let (endpoint, was_bridge) = match m {
                Mutation::RemoveEdge { edge } => {
                    (self.graph.edge(edge).u, self.index.cut.is_bridge[edge])
                }
                _ => (0, false),
            };
            let edge = apply_to_graph(&mut self.graph, &m);
            let patch = t.span("mutate.apply", "patch", |_| match m {
                Mutation::UpdateProb { .. } => patch_update_prob(&mut self.index),
                Mutation::AddEdge { .. } => patch_add_edge(&self.graph, &mut self.index, edge),
                Mutation::RemoveEdge { .. } => {
                    patch_remove_edge(&self.graph, &mut self.index, edge, endpoint, was_bridge)
                }
            });
            let (plans, worlds) = match old_bits {
                Some(bits) => t.span("mutate.apply", "invalidate_prob", |_| {
                    (
                        self.cache.invalidate_prob(OWNER, bits) as u64,
                        self.bank.invalidate_prob(bits) as u64,
                    )
                }),
                None => (0, 0),
            };
            let patched = matches!(patch, IndexPatch::Patched);
            c.patched += u64::from(patched);
            c.rebuilt += u64::from(!patched);
            c.invalidated_plans += plans;
            c.invalidated_worlds += worlds;
            Outcome {
                patched,
                invalidated_plans: plans,
                invalidated_worlds: worlds,
            }
        })
    }
}

fn apply_to_graph(g: &mut UncertainGraph, m: &Mutation) -> usize {
    match *m {
        Mutation::UpdateProb { edge, p } => {
            g.update_edge_prob(edge, p)
                .expect("generated mutation applies");
            edge
        }
        Mutation::AddEdge { u, v, p } => g.add_edge(u, v, p).expect("generated mutation applies"),
        Mutation::RemoveEdge { edge } => {
            g.remove_edge(edge).expect("generated mutation applies");
            edge
        }
    }
}

fn engine_answer(a: &ReliabilityAnswer) -> Answer {
    Answer {
        estimate: a.estimate,
        lower_bound: a.lower_bound,
        upper_bound: a.upper_bound,
        variance: a.variance_estimate,
        exact: a.exact,
        ci: (a.ci.lower, a.ci.upper),
        routes: a.routes.iter().map(|r| r.name().to_string()).collect(),
        cache_hits: a.cache_hits as u64,
        cache_misses: a.cache_misses as u64,
    }
}

/// Depth E's answer and depth P's agree bit for bit.
fn same_pipeline(e: &Answer, p: &PipelineAnswer) -> bool {
    let bits = |xs: [f64; 4]| xs.map(f64::to_bits);
    bits([e.estimate, e.lower_bound, e.upper_bound, e.variance])
        == bits([p.estimate, p.lower_bound, p.upper_bound, p.variance])
        && e.exact == p.exact
        && e.routes
            .iter()
            .map(String::as_str)
            .eq(p.routes.iter().copied())
        && (e.cache_hits, e.cache_misses) == (p.hits, p.misses)
}

/// The per-layer report of one traced run.
pub struct Traced {
    /// `(name, value, unit)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Share of timed-op self time per layer, for the diagnostics line.
    pub shares: Vec<(&'static str, f64)>,
    /// Agreement of the three depths with the pipe, and of depth P's
    /// counters with the server's.
    pub checks: Tally,
}

fn counter(metrics: &Value, path: &[&str]) -> f64 {
    let mut v = metrics;
    for key in path {
        match v.get(key) {
            Some(next) => v = next,
            None => return f64::NAN,
        }
    }
    match v {
        Value::U64(n) => *n as f64,
        Value::F64(x) => *x,
        _ => f64::NAN,
    }
}

/// Replay `run`'s ops (register, set-up, timed) at the three depths and
/// derive the per-layer metrics. Spans are written to `spans_path`.
pub fn replay(
    workload: Workload,
    run: &Run,
    graph: &UncertainGraph,
    register: &str,
    spans_path: &Path,
) -> Traced {
    let mut t = Tracer::new();
    let mut c = Counts::default();
    let mut checks = Tally::default();
    let cfg = EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    };
    let mut service = Service::new(Engine::with_recorder(cfg, Recorder::enabled()));
    let mut engine = Engine::with_recorder(cfg, Recorder::enabled());

    // Register: S, then E under it, then P under E.
    let s_id = t.next_id();
    let registered = t.span("service", "Service::handle_line", |_| {
        service.handle_line(register)
    });
    checks.check("replay", registered.contains(r#""ok":true"#), || {
        format!("register: {registered}")
    });
    let e_id = t.next_id();
    let copy = graph.clone();
    let id = t.under(s_id, |t| {
        t.span("engine", "Engine::register", |_| {
            engine.register(GRAPH_NAME, copy)
        })
    });
    let mut pipeline = t.under(e_id, |t| Pipeline::register(t, graph.clone()));

    let ops: Vec<(&Op, &str)> = run
        .setup
        .iter()
        .filter_map(|(op, r)| op.as_ref().map(|op| (op, r.as_str())))
        .chain(run.timed.iter().map(|op| (&op.op, op.response.as_str())))
        .collect();
    let first_timed = ops.len() - run.timed.len();
    let mut at_timed_start = (Counts::default(), 0usize);
    for (k, (op, pipe_response)) in ops.iter().enumerate() {
        if k == first_timed {
            at_timed_start = (c.clone(), t.spans.len());
        }
        t.op = k as u32 + 1;
        let line = op.to_line(workload);
        let s_id = t.next_id();
        let response = t.span("service", "Service::handle_line", |_| {
            service.handle_line(&line)
        });
        checks.check("replay", response == *pipe_response, || {
            format!("op {k}: in-process response differs from the pipe's:\n  {response}\n  {pipe_response}")
        });
        let pipe = crate::check::check_response(op, pipe_response).ok();
        match op {
            Op::Query(terms) | Op::Whatif(terms, _) => {
                let query = planned_query(workload, terms);
                let e_id = t.next_id();
                let e = t.under(s_id, |t| match op {
                    Op::Whatif(_, ms) => t.span("engine", "Engine::evaluate_with", |_| {
                        engine.evaluate_with(id, ms, &query)
                    }),
                    _ => t.span("engine", "Engine::run_planned", |_| {
                        engine.run_planned(id, &query)
                    }),
                });
                let e = e.as_ref().map(engine_answer);
                let p = t.under(e_id, |t| match op {
                    Op::Whatif(_, ms) => pipeline.whatif(t, &mut c, &query, ms),
                    _ => pipeline.query(t, &mut c, &query),
                });
                let e = e.expect("engine answers valid queries");
                let pipe_answer = match &pipe {
                    Some(Checked::Answer(a)) => Some(a),
                    _ => None,
                };
                checks.check(
                    "replay",
                    pipe_answer.is_some_and(|a| {
                        a.same_value(&e)
                            && (a.cache_hits, a.cache_misses) == (e.cache_hits, e.cache_misses)
                    }),
                    || {
                        format!(
                            "op {k}: engine answer {e:?} differs from the pipe's {pipe_answer:?}"
                        )
                    },
                );
                checks.check("replay", same_pipeline(&e, &p), || {
                    format!("op {k}: pipeline answer {p:?} differs from the engine's {e:?}")
                });
            }
            Op::Mutate(ms) => {
                let mut e_id = t.next_id();
                let e = t.under(s_id, |t| {
                    ms.iter()
                        .map(|&m| {
                            e_id = t.next_id();
                            let o = t
                                .span("engine", "Engine::apply_mutation", |_| {
                                    engine.apply_mutation(id, m)
                                })
                                .expect("generated mutation applies");
                            Outcome {
                                patched: matches!(o.patch, IndexPatch::Patched),
                                invalidated_plans: o.invalidated_plans as u64,
                                invalidated_worlds: o.invalidated_worlds as u64,
                            }
                        })
                        .collect::<Vec<Outcome>>()
                });
                // With several mutations the P spans hang under the last
                // E span; self time sums over the op, so this only moves
                // time between the op's own engine spans.
                let p: Vec<Outcome> = t.under(e_id, |t| {
                    ms.iter().map(|&m| pipeline.mutate(t, &mut c, m)).collect()
                });
                checks.check("replay", pipe == Some(Checked::Mutated(e.clone())), || {
                    format!("op {k}: engine outcomes {e:?} differ from the pipe's {pipe:?}")
                });
                checks.check("replay", p == e, || {
                    format!("op {k}: pipeline outcomes {p:?} differ from {e:?}")
                });
            }
        }
    }

    // Depth P's cumulative counters against the server's.
    let server = &run.metrics_after;
    for (name, path, ours) in [
        ("cache hits", &["cache_hits"][..], c.hits),
        ("cache misses", &["cache_misses"], c.misses),
        ("jobs", &["jobs"], c.jobs),
        ("exact routes", &["routes", "exact"], c.routes[0]),
        ("bounded routes", &["routes", "bounded"], c.routes[1]),
        ("sampling routes", &["routes", "sampling"], c.routes[2]),
        (
            "bit_sampling routes",
            &["routes", "bit_sampling"],
            c.routes[3],
        ),
        (
            "enumeration routes",
            &["routes", "enumeration"],
            c.routes[4],
        ),
        ("index patches", &["index_patched"], c.patched),
        ("index rebuilds", &["index_rebuilt"], c.rebuilt),
        (
            "invalidated plans",
            &["invalidated_plans"],
            c.invalidated_plans,
        ),
        (
            "invalidated worlds",
            &["invalidated_worlds"],
            c.invalidated_worlds,
        ),
    ] {
        let theirs = counter(server, path);
        checks.check("replay", theirs == ours as f64, || {
            format!("{name}: replay counted {ours}, the server {theirs}")
        });
    }

    if let Some(dir) = spans_path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = t.write(spans_path) {
        eprintln!(
            "perfbench: could not write spans to {}: {e}",
            spans_path.display()
        );
    }

    let (start_counts, first_span) = at_timed_start;
    let timed_counts = c.since(&start_counts);
    let timed_ops = run.timed.len().max(1) as f64;
    let self_ms = layer_self_ms(&t.spans[first_span..], first_span);
    let per_op = |layer: &str| self_ms.get(layer).copied().unwrap_or(0.0) / timed_ops;
    let total: f64 = self_ms.values().sum();
    let mut shares: Vec<(&'static str, f64)> = self_ms
        .iter()
        .map(|(&layer, &ms)| (layer, if total > 0.0 { ms / total } else { 0.0 }))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));

    // Tracing overhead: depth P (a span per stage) against depth E (the
    // same work with only the op's outer span).
    let (e_ms, p_ms) = depth_totals(&t.spans[first_span..], first_span);

    let before = &run.metrics_before;
    let delta = |path: &[&str]| counter(server, path) - counter(before, path);
    let rtt_ms = mean(&run.timed.iter().map(|o| o.rtt_s * 1e3).collect::<Vec<_>>());
    let server_ms = 1e3 * delta(&["request_seconds", "sum"]) / delta(&["request_seconds", "count"]);
    let queue_wait_ms = 1e3 * delta(&["queue_wait_seconds", "sum"])
        / delta(&["queue_wait_seconds", "count"]).max(1.0);
    let response_bytes = mean(
        &run.timed
            .iter()
            .map(|o| o.response.len() as f64)
            .collect::<Vec<_>>(),
    );
    let k = &timed_counts;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let whatif_ms = {
        let spans: Vec<f64> = t.spans[first_span..]
            .iter()
            .filter(|s| s.name == "Engine::evaluate_with")
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        mean(&spans)
    };
    let s2bdd_ms = self_ms.get("s2bdd").copied().unwrap_or(0.0);
    let (exact_share, _) = crate::accuracy(run);
    let metrics = vec![
        ("serve.pipe_ms", rtt_ms - server_ms, "ms"),
        ("service.self_ms", per_op("service"), "ms"),
        ("service.response_bytes", response_bytes, "bytes"),
        ("engine.self_ms", per_op("engine"), "ms"),
        ("preprocess.prune_ms", per_op("preprocess.prune"), "ms"),
        (
            "preprocess.decompose_ms",
            per_op("preprocess.decompose"),
            "ms",
        ),
        (
            "preprocess.transform_ms",
            per_op("preprocess.transform"),
            "ms",
        ),
        (
            "preprocess.index_build_ms",
            per_op("preprocess.index_build"),
            "ms",
        ),
        (
            "preprocess.parts_per_query",
            ratio(k.parts, k.plans),
            "count",
        ),
        (
            "preprocess.part_edges_mean",
            ratio(k.part_edges, k.parts),
            "count",
        ),
        ("planner.route_ms", per_op("planner.route"), "ms"),
        ("planner.routes.exact", k.routes[0] as f64, "count"),
        ("planner.routes.bounded", k.routes[1] as f64, "count"),
        ("planner.routes.bit_sampling", k.routes[3] as f64, "count"),
        ("planner.routes.sampling", k.routes[2] as f64, "count"),
        ("planner.routes.enumeration", k.routes[4] as f64, "count"),
        (
            "planner.node_estimate_log10_err",
            mean(&k.estimate_log10_err),
            "log10",
        ),
        ("planner.exact_share", exact_share, "fraction"),
        ("cache.lookups", k.lookups as f64, "count"),
        ("cache.hit_ratio", ratio(k.hits, k.lookups), "fraction"),
        ("cache.lookup_ms", per_op("cache"), "ms"),
        ("cache.evictions", k.evictions as f64, "count"),
        ("cache.entries", pipeline.cache.len() as f64, "count"),
        ("executor.jobs", k.jobs as f64, "count"),
        ("executor.queue_wait_ms", queue_wait_ms, "ms"),
        ("s2bdd.solve_ms", per_op("s2bdd"), "ms"),
        ("s2bdd.nodes_created", k.s2bdd_nodes as f64, "count"),
        (
            "s2bdd.nodes_per_ms",
            if s2bdd_ms > 0.0 {
                k.s2bdd_nodes as f64 / s2bdd_ms
            } else {
                0.0
            },
            "nodes/ms",
        ),
        ("s2bdd.node_cap_hits", k.s2bdd_cap_hits as f64, "count"),
        ("s2bdd.samples_used", k.s2bdd_samples as f64, "count"),
        ("bitsample.solve_ms", per_op("bitsample"), "ms"),
        (
            "bitsample.bank_hit_ratio",
            ratio(k.bank_hits, k.bit_parts),
            "fraction",
        ),
        ("bitsample.blocks", k.bit_blocks as f64, "count"),
        ("combine.ms", per_op("combine"), "ms"),
        ("mutate.apply_ms", per_op("mutate.apply"), "ms"),
        ("mutate.index_patched", k.patched as f64, "count"),
        ("mutate.index_rebuilt", k.rebuilt as f64, "count"),
        (
            "mutate.invalidated_plans",
            k.invalidated_plans as f64,
            "count",
        ),
        (
            "mutate.invalidated_worlds",
            k.invalidated_worlds as f64,
            "count",
        ),
        ("mutate.whatif_ms", whatif_ms, "ms"),
        (
            "trace.overhead_pct",
            if p_ms > 0.0 {
                100.0 * (1.0 - e_ms / p_ms)
            } else {
                0.0
            },
            "%",
        ),
    ];
    Traced {
        metrics,
        shares,
        checks,
    }
}

/// Self time per layer in milliseconds: each span's duration minus its
/// children's. `offset` is the id of `spans[0]`.
fn layer_self_ms(spans: &[Span], offset: usize) -> HashMap<&'static str, f64> {
    let mut self_ns: Vec<i128> = spans
        .iter()
        .map(|s| i128::from(s.end_ns - s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent.map(|p| p as usize).filter(|&p| p >= offset) {
            self_ns[p - offset] -= i128::from(s.end_ns - s.start_ns);
        }
    }
    let mut out = HashMap::new();
    for (s, ns) in spans.iter().zip(self_ns) {
        *out.entry(s.layer).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Total duration of depth E's spans and of depth P's top-level spans
/// (those whose parent is an E span), in milliseconds.
fn depth_totals(spans: &[Span], offset: usize) -> (f64, f64) {
    let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e6;
    let is_engine = |p: Option<u32>| {
        p.map(|p| p as usize)
            .filter(|&p| p >= offset)
            .is_some_and(|p| spans[p - offset].layer == "engine")
    };
    let e = spans.iter().filter(|s| s.layer == "engine").map(dur).sum();
    let p = spans.iter().filter(|s| is_engine(s.parent)).map(dur).sum();
    (e, p)
}

/// The diagnostics line's layer shares, as a JSON object.
pub fn shares_json(shares: &[(&str, f64)]) -> String {
    let mut s = String::from("{");
    for (i, (layer, share)) in shares.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, r#""{layer}":{share:.4}"#);
    }
    s.push('}');
    s
}
