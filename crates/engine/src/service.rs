//! Newline-delimited JSON protocol over the engine.
//!
//! One request object per line in, one response object per line out — the
//! transport-agnostic core of the `netrel-serve` binary (`netrel-bench`),
//! which pipes stdin/stdout through [`Service::handle_line`]. Keeping the
//! protocol here makes it unit-testable without spawning a process.
//!
//! ## Requests
//!
//! ```json
//! {"op":"register","name":"g","vertices":8,"edges":[[0,1,0.5],[1,2,0.9]]}
//! {"op":"query","graph":"g","terminals":[0,2],"samples":5000,"seed":7}
//! {"op":"batch","graph":"g","queries":[{"terminals":[0,2]},{"terminals":[1,2],"seed":9}]}
//! {"op":"query","graph":"g","terminals":[0,2],"budget":{"nodes":100000,"confidence":0.99}}
//! {"op":"query","graph":"g","terminals":[0,2],"semantics":"d-hop","d":3}
//! {"op":"mutate","graph":"g","mutations":[{"kind":"update_prob","edge":0,"p":0.4}]}
//! {"op":"whatif","graph":"g","mutations":[{"kind":"remove_edge","edge":1}],"terminals":[0,2]}
//! {"op":"maximize","graph":"g","s":0,"t":2,"k":1,"candidates":[{"kind":"add_edge","u":0,"v":2,"p":0.9}]}
//! {"op":"stats"}
//! ```
//!
//! Per-query solver knobs (all optional, defaulting to the paper's
//! configuration): `width`, `samples`, `seed`, `estimator` (`"mc"`/`"ht"`),
//! and `exact` (unbounded width, no sampling). In a `batch`, knobs given at
//! the top level act as defaults for every query; a knob set on the query
//! object itself always wins over the batch default.
//!
//! The optional `semantics` field selects what the query computes:
//! `"k-terminal"` (the default — existing clients are unaffected),
//! `"two-terminal"`, `"all-terminal"`, `"d-hop"` (requires the hop bound
//! `d` as a sibling field), or `"reach-set"` (expected reachable-set size
//! from one source vertex). `semantics`/`d` layer like the solver knobs:
//! batch level first, per-query override wins. `terminals` may be omitted
//! for `"all-terminal"`. Every answer echoes the semantics it computed.
//!
//! Every query runs through [`Engine::run_planned_batch`]. By default it
//! uses [`Policy::Fixed`]: the knobs above run as given. Passing
//! `"plan": true` or a `"budget"` object selects the **adaptive planner**
//! ([`Policy::Budgeted`]): `budget` accepts `nodes`, `samples`, `time_ms`,
//! and `confidence` (`0.9`/`0.95`/`0.99`), each defaulting to
//! [`PlanBudget::default`] (`crate::PlanBudget`). Every answer carries `ci`
//! (`{lower, upper, level}`, at 0.95 unless a budget sets it) and `routes`
//! (one of `"exact"`, `"bounded"`, `"sampling"`, `"bit_sampling"` per
//! part). In a `batch`, one planned query plans the whole batch, with the
//! top-level budget as the default. The full protocol — shapes, field
//! tables, netcat/curl examples — is documented in `docs/protocol.md`.
//!
//! ## Mutations
//!
//! `mutate` commits an ordered array of mutations to a registered graph
//! (each entry is `{"kind":"update_prob","edge":e,"p":p}`,
//! `{"kind":"add_edge","u":u,"v":v,"p":p}`, or
//! `{"kind":"remove_edge","edge":e}`; edge ids are interpreted against the
//! state each mutation applies to). The response carries one result slot
//! per mutation in order — a rejected mutation changes nothing and does
//! not stop later ones. `whatif` answers one planned query against a
//! hypothetical mutation set without committing anything, and `maximize`
//! runs the greedy `s`–`t` reliability-maximization loop over a candidate
//! pool. Both accept the usual `budget` object. See `docs/protocol.md`.
//!
//! ## Observability
//!
//! `{"op":"metrics"}` returns the engine's metric catalogue twice: as
//! `prometheus` (Prometheus text exposition, ready to serve at a scrape
//! endpoint) and as `metrics` (the same snapshot as structured JSON).
//! Passing `"trace": true` on a `query` (or on a `batch` or one of its
//! queries) opts that query into span tracing: the answer carries a
//! `trace` object with the full span tree of its execution. Tracing
//! implies the planned path. `stats` reports per-graph registration and
//! cache telemetry under `per_graph`. See `docs/observability.md`.
//!
//! ## Responses
//!
//! Every response carries `"ok"`; failures carry `"error"` instead of a
//! payload. A `batch` response holds one `{ok, answer|error}` object per
//! query in request order, so one bad query cannot poison a batch.

// Request path (docs/lints.md): a hostile request line gets a protocol
// error, never a panic.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::unreachable,
    clippy::indexing_slicing,
    clippy::string_slice,
    clippy::disallowed_macros,
    clippy::disallowed_types
)]

use crate::{
    Engine, EngineError, IndexPatch, Mutation, MutationOutcome, PlanBudget, PlannedQuery, Policy,
    ReliabilityAnswer,
};
use netrel_core::{ProConfig, SemanticsSpec};
use netrel_numeric::ConfidenceLevel;
use netrel_s2bdd::{EstimatorKind, S2BddConfig};
use netrel_ugraph::UncertainGraph;
use serde::{Serialize, Value};
use std::time::Instant;

/// Largest `vertices` a `register` request may declare. The graph allocates
/// one adjacency list per vertex before it reads any edge, and no request
/// bytes back the count, so it is bounded here: 2^24 keeps the adjacency
/// headers near 400 MB, about 93× the largest `netrel-datasets` graph.
/// It must not exceed `u32::MAX`, the packed kernel's vertex id width.
const MAX_VERTICES: u64 = 1 << 24;

/// Stateful NDJSON request handler wrapping an [`Engine`].
pub struct Service {
    engine: Engine,
}

impl Default for Service {
    fn default() -> Self {
        Service::new(Engine::new(crate::EngineConfig::default()))
    }
}

impl Service {
    /// Wrap an engine (possibly with pre-registered graphs).
    pub fn new(engine: Engine) -> Self {
        Service { engine }
    }

    /// The wrapped engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Handle one request line, returning one response line (no trailing
    /// newline). Never panics on malformed input — parse and protocol
    /// errors come back as `{"ok":false,"error":...}` responses.
    pub fn handle_line(&mut self, line: &str) -> String {
        let t0 = Instant::now();
        let response = match serde_json::from_str::<Value>(line) {
            Ok(request) => self.dispatch(&request).unwrap_or_else(err_response),
            Err(e) => err_response(format!("invalid JSON: {e}")),
        };
        let m = self.engine.recorder().metrics();
        m.request_seconds.observe_duration(t0.elapsed());
        if response.get("ok") == Some(&Value::Bool(false)) {
            m.request_errors.inc();
        }
        serde_json::to_string(&response).unwrap_or_else(|_| {
            r#"{"ok":false,"error":"internal: response rendering failed"}"#.to_string()
        })
    }

    fn dispatch(&mut self, request: &Value) -> Result<Value, String> {
        let op = str_field(request, "op")?;
        let m = self.engine.recorder().metrics();
        match op {
            "register" => m.requests_register.inc(),
            "query" => m.requests_query.inc(),
            "batch" => m.requests_batch.inc(),
            "stats" => m.requests_stats.inc(),
            "metrics" => m.requests_metrics.inc(),
            "mutate" => m.requests_mutate.inc(),
            "whatif" => m.requests_whatif.inc(),
            "maximize" => m.requests_maximize.inc(),
            _ => {}
        }
        match op {
            "register" => self.op_register(request),
            "query" => self.op_query(request),
            "batch" => self.op_batch(request),
            "stats" => Ok(self.op_stats()),
            "metrics" => Ok(self.op_metrics()),
            "mutate" => self.op_mutate(request),
            "whatif" => self.op_whatif(request),
            "maximize" => self.op_maximize(request),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    fn op_register(&mut self, request: &Value) -> Result<Value, String> {
        let name = str_field(request, "name")?;
        let vertices = u64_field(request, "vertices")?;
        if vertices > MAX_VERTICES {
            return Err(format!(
                "`vertices` {vertices} exceeds the limit of {MAX_VERTICES}"
            ));
        }
        let edges = match request.get("edges") {
            Some(Value::Seq(items)) => items
                .iter()
                .map(edge_triple)
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("`edges` must be an array of [u, v, p] triples".into()),
            None => return Err("missing field `edges`".into()),
        };
        let graph = UncertainGraph::new(vertices as usize, edges).map_err(|e| e.to_string())?;
        let (nv, ne) = (graph.num_vertices(), graph.num_edges());
        self.engine.register(name, graph);
        Ok(Value::Map(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("register".into())),
            ("graph".into(), Value::Str(name.into())),
            ("vertices".into(), Value::U64(nv as u64)),
            ("edges".into(), Value::U64(ne as u64)),
        ]))
    }

    fn op_query(&mut self, request: &Value) -> Result<Value, String> {
        let id = self.graph_field(request)?;
        let mut query = parse_query(request, request)?;
        // Per the protocol, `trace: true` selects the planner too.
        if wants_plan(request) || wants_trace(request) {
            plan_query(&mut query, request, request)?;
        }
        let answer = self
            .engine
            .run_planned(id, &query)
            .map_err(|e: EngineError| e.to_string())?
            .to_value();
        Ok(Value::Map(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("query".into())),
            ("answer".into(), answer),
        ]))
    }

    fn op_batch(&mut self, request: &Value) -> Result<Value, String> {
        let id = self.graph_field(request)?;
        let items = match request.get("queries") {
            Some(Value::Seq(items)) => items,
            Some(_) => return Err("`queries` must be an array".into()),
            None => return Err("missing field `queries`".into()),
        };
        let mut queries = items
            .iter()
            .map(|item| parse_query(item, request))
            .collect::<Result<Vec<_>, _>>()?;
        // One planned query (or a top-level `plan`/`budget`/`trace`) plans
        // the whole batch.
        if wants_plan(request)
            || wants_trace(request)
            || items.iter().any(|i| wants_plan(i) || wants_trace(i))
        {
            for (item, query) in items.iter().zip(&mut queries) {
                plan_query(query, request, item)?;
            }
        }
        let rendered: Vec<Value> = self
            .engine
            .run_planned_batch(id, &queries)
            .map_err(|e| e.to_string())?
            .into_iter()
            .map(answer_slot)
            .collect();
        Ok(Value::Map(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("batch".into())),
            ("answers".into(), Value::Seq(rendered)),
        ]))
    }

    fn op_stats(&self) -> Value {
        let graphs: Vec<Value> = self
            .engine
            .graph_names()
            .map(|n| Value::Str(n.into()))
            .collect();
        let per_graph: Vec<Value> = self
            .engine
            .graph_stats()
            .iter()
            .map(Serialize::to_value)
            .collect();
        Value::Map(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("stats".into())),
            ("graphs".into(), Value::Seq(graphs)),
            ("cache".into(), self.engine.cache_stats().to_value()),
            ("per_graph".into(), Value::Seq(per_graph)),
        ])
    }

    fn op_metrics(&self) -> Value {
        let snapshot = self.engine.metrics_snapshot();
        Value::Map(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("metrics".into())),
            ("prometheus".into(), Value::Str(snapshot.to_prometheus())),
            ("metrics".into(), snapshot.to_value()),
        ])
    }

    fn op_mutate(&mut self, request: &Value) -> Result<Value, String> {
        let id = self.graph_field(request)?;
        let mutations = mutations_field(request, "mutations")?;
        // Batch-style error isolation: mutations apply in order, each
        // result slot carries its own `ok`, and a rejected mutation
        // changes nothing (so later ids stay well-defined).
        let results: Vec<Value> = mutations
            .into_iter()
            .map(|m| match self.engine.apply_mutation(id, m) {
                Ok(outcome) => outcome_value(&outcome),
                Err(e) => err_response(e.to_string()),
            })
            .collect();
        Ok(Value::Map(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("mutate".into())),
            ("results".into(), Value::Seq(results)),
        ]))
    }

    fn op_whatif(&mut self, request: &Value) -> Result<Value, String> {
        let id = self.graph_field(request)?;
        let mutations = mutations_field(request, "mutations")?;
        let mut query = parse_query(request, request)?;
        // What-if evaluation is always planned; `budget` and `trace` work
        // exactly as on a planned `query`.
        plan_query(&mut query, request, request)?;
        let answer = self
            .engine
            .evaluate_with(id, &mutations, &query)
            .map_err(|e| e.to_string())?;
        Ok(Value::Map(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("whatif".into())),
            ("answer".into(), answer.to_value()),
        ]))
    }

    fn op_maximize(&mut self, request: &Value) -> Result<Value, String> {
        let id = self.graph_field(request)?;
        let s = u64_field(request, "s")? as usize;
        let t = u64_field(request, "t")? as usize;
        let k = u64_field(request, "k")? as usize;
        let candidates = mutations_field(request, "candidates")?;
        let mut budget = PlanBudget::default();
        apply_budget(request, &mut budget)?;
        let result = self
            .engine
            .maximize_reliability(id, s, t, k, &candidates, budget)
            .map_err(|e| e.to_string())?;
        let steps: Vec<Value> = result
            .steps
            .iter()
            .map(|step| {
                Value::Map(vec![
                    ("candidate".into(), Value::U64(step.candidate as u64)),
                    ("mutation".into(), mutation_value(&step.mutation)),
                    ("reliability".into(), Value::F64(step.reliability)),
                    ("exact".into(), Value::Bool(step.exact)),
                ])
            })
            .collect();
        Ok(Value::Map(vec![
            ("ok".into(), Value::Bool(true)),
            ("op".into(), Value::Str("maximize".into())),
            ("baseline".into(), Value::F64(result.baseline)),
            ("final".into(), Value::F64(result.final_reliability())),
            ("steps".into(), Value::Seq(steps)),
        ]))
    }

    fn graph_field(&self, request: &Value) -> Result<crate::GraphId, String> {
        let name = str_field(request, "graph")?;
        self.engine
            .graph_id(name)
            .ok_or_else(|| format!("unknown graph `{name}`"))
    }
}

fn err_response(message: impl Into<String>) -> Value {
    Value::Map(vec![
        ("ok".into(), Value::Bool(false)),
        ("error".into(), Value::Str(message.into())),
    ])
}

fn answer_slot(result: Result<ReliabilityAnswer, EngineError>) -> Value {
    match result {
        Ok(answer) => Value::Map(vec![
            ("ok".into(), Value::Bool(true)),
            ("answer".into(), answer.to_value()),
        ]),
        Err(e) => err_response(e.to_string()),
    }
}

/// Whether one request (or query object) opts into the adaptive planner.
fn wants_plan(v: &Value) -> bool {
    matches!(v.get("plan"), Some(Value::Bool(true))) || v.get("budget").is_some()
}

/// Whether one request (or query object) opts into span tracing.
fn wants_trace(v: &Value) -> bool {
    matches!(v.get("trace"), Some(Value::Bool(true)))
}

/// Switch a parsed query to [`Policy::Budgeted`]: its budget layers like
/// the solver knobs (`defaults` first, then `item`), and it is traced when
/// either object asks.
fn plan_query(query: &mut PlannedQuery, defaults: &Value, item: &Value) -> Result<(), String> {
    query.policy = Policy::Budgeted;
    apply_budget(defaults, &mut query.budget)?;
    apply_budget(item, &mut query.budget)?;
    query.trace = wants_trace(defaults) || wants_trace(item);
    Ok(())
}

/// Layer one request object's `budget` fields onto `budget` (absent fields
/// keep their current value, mirroring the solver-knob layering).
fn apply_budget(v: &Value, budget: &mut PlanBudget) -> Result<(), String> {
    let obj = match v.get("budget") {
        Some(obj @ Value::Map(_)) => obj,
        Some(_) => return Err("field `budget` must be an object".into()),
        None => return Ok(()),
    };
    if let Some(n) = opt_u64(obj, "nodes")? {
        budget.node_budget = n as usize;
    }
    if let Some(s) = opt_u64(obj, "samples")? {
        budget.sample_budget = s as usize;
    }
    if let Some(ms) = opt_u64(obj, "time_ms")? {
        budget.time_hint_ms = Some(ms);
    }
    match obj.get("confidence") {
        Some(Value::F64(c)) => {
            budget.confidence = if (*c - 0.90).abs() < 1e-9 {
                ConfidenceLevel::P90
            } else if (*c - 0.95).abs() < 1e-9 {
                ConfidenceLevel::P95
            } else if (*c - 0.99).abs() < 1e-9 {
                ConfidenceLevel::P99
            } else {
                return Err(format!(
                    "unsupported confidence {c} (use 0.9, 0.95, or 0.99)"
                ));
            };
        }
        Some(_) => return Err("field `confidence` must be a number".into()),
        None => {}
    }
    Ok(())
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    match v.get(key) {
        Some(Value::Str(s)) => Ok(s),
        Some(_) => Err(format!("field `{key}` must be a string")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn u64_field(v: &Value, key: &str) -> Result<u64, String> {
    match v.get(key) {
        Some(Value::U64(n)) => Ok(*n),
        Some(Value::I64(n)) if *n >= 0 => Ok(*n as u64),
        Some(_) => Err(format!("field `{key}` must be a non-negative integer")),
        None => Err(format!("missing field `{key}`")),
    }
}

/// Optional non-negative integer field of one request object.
fn opt_u64(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        Some(Value::U64(n)) => Ok(Some(*n)),
        Some(Value::I64(n)) if *n >= 0 => Ok(Some(*n as u64)),
        Some(Value::Null) | None => Ok(None),
        Some(_) => Err(format!("field `{key}` must be a non-negative integer")),
    }
}

/// Apply one layer of solver knobs (`exact`, `width`, `samples`, `seed`,
/// `estimator`) from a request object onto `s2bdd`. `exact` is expanded
/// first so explicit knobs in the same layer refine it.
fn apply_knobs(v: &Value, s2bdd: &mut S2BddConfig) -> Result<(), String> {
    match v.get("exact") {
        Some(Value::Bool(true)) => {
            s2bdd.max_width = usize::MAX;
            s2bdd.samples = 0;
        }
        Some(Value::Bool(false)) => {
            let d = S2BddConfig::default();
            s2bdd.max_width = d.max_width;
            s2bdd.samples = d.samples;
        }
        Some(_) => return Err("field `exact` must be a boolean".into()),
        None => {}
    }
    if let Some(w) = opt_u64(v, "width")? {
        s2bdd.max_width = w as usize;
    }
    if let Some(s) = opt_u64(v, "samples")? {
        s2bdd.samples = s as usize;
    }
    if let Some(seed) = opt_u64(v, "seed")? {
        s2bdd.seed = seed;
    }
    match v.get("estimator") {
        Some(Value::Str(kind)) => {
            s2bdd.estimator = match kind.as_str() {
                "mc" | "monte-carlo" => EstimatorKind::MonteCarlo,
                "ht" | "horvitz-thompson" => EstimatorKind::HorvitzThompson,
                other => {
                    return Err(format!(
                        "unknown estimator `{other}` (use \"mc\" or \"ht\")"
                    ))
                }
            };
        }
        Some(_) => return Err("field `estimator` must be a string".into()),
        None => {}
    }
    Ok(())
}

/// A required array-of-mutation-objects field (`mutations`, `candidates`).
fn mutations_field(v: &Value, key: &str) -> Result<Vec<Mutation>, String> {
    match v.get(key) {
        Some(Value::Seq(items)) => items.iter().map(parse_mutation).collect(),
        Some(_) => Err(format!("`{key}` must be an array of mutation objects")),
        None => Err(format!("missing field `{key}`")),
    }
}

/// Parse one mutation object (see the module docs for the three shapes).
fn parse_mutation(item: &Value) -> Result<Mutation, String> {
    match str_field(item, "kind")? {
        "update_prob" => Ok(Mutation::UpdateProb {
            edge: u64_field(item, "edge")? as usize,
            p: f64_field(item, "p")?,
        }),
        "add_edge" => Ok(Mutation::AddEdge {
            u: u64_field(item, "u")? as usize,
            v: u64_field(item, "v")? as usize,
            p: f64_field(item, "p")?,
        }),
        "remove_edge" => Ok(Mutation::RemoveEdge {
            edge: u64_field(item, "edge")? as usize,
        }),
        other => Err(format!(
            "unknown mutation kind `{other}` (use \"update_prob\", \"add_edge\", or \
             \"remove_edge\")"
        )),
    }
}

/// Render one mutation back to its request shape (used by `maximize`).
fn mutation_value(m: &Mutation) -> Value {
    match *m {
        Mutation::UpdateProb { edge, p } => Value::Map(vec![
            ("kind".into(), Value::Str("update_prob".into())),
            ("edge".into(), Value::U64(edge as u64)),
            ("p".into(), Value::F64(p)),
        ]),
        Mutation::AddEdge { u, v, p } => Value::Map(vec![
            ("kind".into(), Value::Str("add_edge".into())),
            ("u".into(), Value::U64(u as u64)),
            ("v".into(), Value::U64(v as u64)),
            ("p".into(), Value::F64(p)),
        ]),
        Mutation::RemoveEdge { edge } => Value::Map(vec![
            ("kind".into(), Value::Str("remove_edge".into())),
            ("edge".into(), Value::U64(edge as u64)),
        ]),
    }
}

/// Render one committed mutation's outcome as a `mutate` result slot.
fn outcome_value(o: &MutationOutcome) -> Value {
    Value::Map(vec![
        ("ok".into(), Value::Bool(true)),
        ("edge".into(), Value::U64(o.edge as u64)),
        (
            "index".into(),
            Value::Str(
                match o.patch {
                    IndexPatch::Patched => "patched",
                    IndexPatch::Rebuilt => "rebuilt",
                }
                .into(),
            ),
        ),
        (
            "invalidated_plans".into(),
            Value::U64(o.invalidated_plans as u64),
        ),
        (
            "invalidated_worlds".into(),
            Value::U64(o.invalidated_worlds as u64),
        ),
    ])
}

/// Required numeric field (integers widen to `f64`).
fn f64_field(v: &Value, key: &str) -> Result<f64, String> {
    match v.get(key) {
        Some(Value::F64(x)) => Ok(*x),
        Some(Value::U64(n)) => Ok(*n as f64),
        Some(Value::I64(n)) => Ok(*n as f64),
        Some(_) => Err(format!("field `{key}` must be a number")),
        None => Err(format!("missing field `{key}`")),
    }
}

fn edge_triple(item: &Value) -> Result<(usize, usize, f64), String> {
    let bad = || "`edges` entries must be [u, v, p] triples".to_string();
    let Value::Seq(t) = item else {
        return Err(bad());
    };
    match &t[..] {
        [u, v, p] => {
            let vertex = |x: &Value| match x {
                Value::U64(n) => Ok(*n as usize),
                Value::I64(n) if *n >= 0 => Ok(*n as usize),
                _ => Err(bad()),
            };
            let p = match p {
                Value::F64(p) => *p,
                Value::U64(n) => *n as f64,
                Value::I64(n) => *n as f64,
                _ => return Err(bad()),
            };
            Ok((vertex(u)?, vertex(v)?, p))
        }
        _ => Err(bad()),
    }
}

/// Resolve the layered `semantics`/`d` fields of one query object (batch
/// defaults first, per-query override wins — same layering as the solver
/// knobs). Absent everywhere, the semantics defaults to k-terminal, so
/// pre-semantics clients see identical behavior.
fn parse_semantics(item: &Value, defaults: &Value) -> Result<SemanticsSpec, String> {
    let mut name: Option<&str> = None;
    let mut d: Option<u64> = None;
    for layer in [defaults, item] {
        match layer.get("semantics") {
            Some(Value::Str(s)) => name = Some(s),
            Some(_) => return Err("field `semantics` must be a string".into()),
            None => {}
        }
        if let Some(v) = opt_u64(layer, "d")? {
            d = Some(v);
        }
    }
    match name {
        None | Some("k-terminal") => Ok(SemanticsSpec::KTerminal),
        Some("two-terminal") => Ok(SemanticsSpec::TwoTerminal),
        Some("all-terminal") => Ok(SemanticsSpec::AllTerminal),
        Some("reach-set") => Ok(SemanticsSpec::ReachSet),
        Some("d-hop") => {
            let d = d.ok_or("semantics `d-hop` needs a hop bound `d`")?;
            let d = u32::try_from(d).map_err(|_| "`d` must fit in 32 bits".to_string())?;
            Ok(SemanticsSpec::DHop { d })
        }
        Some(other) => Err(format!(
            "unknown semantics `{other}` (use \"two-terminal\", \"k-terminal\", \
             \"all-terminal\", \"d-hop\", or \"reach-set\")"
        )),
    }
}

/// Parse one query object as a [`Policy::Fixed`] query; `defaults` (the
/// enclosing request, for `batch`) supplies fallback solver knobs and
/// semantics.
fn parse_query(item: &Value, defaults: &Value) -> Result<PlannedQuery, String> {
    let semantics = parse_semantics(item, defaults)?;
    let terminals = match item.get("terminals") {
        Some(Value::Seq(ts)) => ts
            .iter()
            .map(|t| match t {
                Value::U64(n) => Ok(*n as usize),
                Value::I64(n) if *n >= 0 => Ok(*n as usize),
                _ => Err("`terminals` must be non-negative integers".to_string()),
            })
            .collect::<Result<Vec<_>, _>>()?,
        Some(_) => return Err("`terminals` must be an array".into()),
        // All-terminal ignores the terminal list, so it may be omitted.
        None if matches!(semantics, SemanticsSpec::AllTerminal) => Vec::new(),
        None => return Err("missing field `terminals`".into()),
    };

    // Layered knob resolution: the batch-level defaults apply first, then
    // the per-query object — so an explicit per-query setting always beats
    // a batch default (including `exact`, which expands to width/samples
    // before that same layer's explicit width/samples are applied).
    let mut s2bdd = S2BddConfig::default();
    for layer in [defaults, item] {
        apply_knobs(layer, &mut s2bdd)?;
    }

    Ok(PlannedQuery::fixed(
        semantics,
        terminals,
        ProConfig {
            s2bdd,
            ..Default::default()
        },
    ))
}

#[cfg(test)]
#[expect(
    clippy::disallowed_macros,
    reason = "assertions are how a test fails; the request path itself stays assertion-free"
)]
mod tests {
    use super::*;

    fn service_with_graph() -> Service {
        let mut s = Service::default();
        let response = s.handle_line(
            r#"{"op":"register","name":"g","vertices":4,
                "edges":[[0,1,0.9],[1,2,0.8],[2,3,0.9],[3,0,0.7]]}"#,
        );
        assert!(response.contains(r#""ok":true"#), "{response}");
        s
    }

    fn parse(response: &str) -> Value {
        serde_json::from_str(response).expect("response is valid JSON")
    }

    #[test]
    fn register_then_query() {
        let mut s = service_with_graph();
        let response =
            s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2],"exact":true}"#);
        let v = parse(&response);
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let answer = v.get("answer").expect("answer present");
        assert_eq!(answer.get("exact"), Some(&Value::Bool(true)));
        let estimate = match answer.get("estimate") {
            Some(Value::F64(x)) => *x,
            other => panic!("estimate missing: {other:?}"),
        };
        assert!((0.0..=1.0).contains(&estimate));
    }

    #[test]
    fn answer_objects_carry_exactly_the_documented_keys() {
        // The key lists of docs/protocol.md's "Answer shapes", in wire order.
        fn keys(v: &Value) -> Vec<&str> {
            match v {
                Value::Map(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
                other => panic!("not an object: {other:?}"),
            }
        }
        let mut s = service_with_graph();
        let v =
            parse(&s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2],"samples":50}"#));
        let answer = v.get("answer").expect("answer present");
        assert_eq!(
            keys(answer),
            [
                "semantics",
                "estimate",
                "lower_bound",
                "upper_bound",
                "exact",
                "ci",
                "pb",
                "samples_used",
                "variance_estimate",
                "preprocess_stats",
                "parts",
                "routes",
                "cache_hits",
                "cache_misses",
                "trace",
            ]
        );
        let stats = answer.get("preprocess_stats").expect("stats present");
        assert_eq!(
            keys(stats),
            [
                "original_edges",
                "pruned_edges",
                "num_parts",
                "max_part_edges",
                "reduced_ratio",
                "transform_rules",
            ]
        );
        let parts = match answer.get("parts") {
            Some(Value::Seq(parts)) if !parts.is_empty() => parts,
            other => panic!("parts missing: {other:?}"),
        };
        for part in parts {
            assert_eq!(
                keys(part),
                [
                    "estimate",
                    "lower_bound",
                    "upper_bound",
                    "exact",
                    "samples_requested",
                    "samples_used",
                    "s_prime_final",
                    "strata",
                    "deleted_nodes",
                    "variance_estimate",
                    "peak_width",
                    "peak_memory_bytes",
                    "layers_completed",
                    "layers_total",
                    "early_exit",
                    "node_cap_hit",
                    "nodes_created",
                ]
            );
        }
    }

    #[test]
    fn batch_preserves_order_and_isolates_errors() {
        let mut s = service_with_graph();
        let response = s.handle_line(
            r#"{"op":"batch","graph":"g","samples":100,"queries":
                [{"terminals":[0,2]},{"terminals":[0,99]},{"terminals":[1,3]}]}"#,
        );
        let v = parse(&response);
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let answers = match v.get("answers") {
            Some(Value::Seq(a)) => a,
            other => panic!("answers missing: {other:?}"),
        };
        assert_eq!(answers.len(), 3);
        assert_eq!(answers[0].get("ok"), Some(&Value::Bool(true)));
        assert_eq!(answers[1].get("ok"), Some(&Value::Bool(false)));
        assert_eq!(answers[2].get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn stats_reports_cache_counters() {
        let mut s = service_with_graph();
        s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2],"samples":50}"#);
        s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2],"samples":50}"#);
        let v = parse(&s.handle_line(r#"{"op":"stats"}"#));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)));
        let cache = v.get("cache").expect("cache stats present");
        assert!(matches!(cache.get("hits"), Some(Value::U64(h)) if *h >= 1));
        assert_eq!(
            v.get("graphs"),
            Some(&Value::Seq(vec![Value::Str("g".into())]))
        );
    }

    #[test]
    fn malformed_lines_report_errors_not_panics() {
        let mut s = service_with_graph();
        for bad in [
            "not json",
            "{}",
            r#"{"op":"nope"}"#,
            r#"{"op":"query","graph":"missing","terminals":[0,1]}"#,
            r#"{"op":"query","graph":"g"}"#,
            r#"{"op":"query","graph":"g","terminals":"x"}"#,
            r#"{"op":"register","name":"h","vertices":2,"edges":[[0,1,7.5]]}"#,
            r#"{"op":"register","name":"h","vertices":1000000000000,"edges":[]}"#,
            r#"{"op":"register","name":"h","vertices":18446744073709551615,"edges":[]}"#,
            r#"{"op":"query","graph":"g","terminals":[0,1],"estimator":"bogus"}"#,
        ] {
            let v = parse(&s.handle_line(bad));
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "line: {bad}");
            assert!(matches!(v.get("error"), Some(Value::Str(_))));
        }
    }

    #[test]
    fn per_query_exact_beats_batch_width_default() {
        let mut s = service_with_graph();
        // Three terminals: the transform rules cannot collapse the cycle to
        // a single edge, so the width-1 default genuinely approximates.
        let response = s.handle_line(
            r#"{"op":"batch","graph":"g","width":1,"samples":50,"queries":
                [{"terminals":[0,1,2],"exact":true},{"terminals":[0,1,2]}]}"#,
        );
        let v = parse(&response);
        let answers = match v.get("answers") {
            Some(Value::Seq(a)) => a,
            other => panic!("answers missing: {other:?}"),
        };
        let exact = |a: &Value| a.get("answer").and_then(|ans| ans.get("exact")).cloned();
        // The first query explicitly asked for an exact answer; the batch
        // width default must not demote it to an approximation.
        assert_eq!(exact(&answers[0]), Some(Value::Bool(true)));
        // The second inherits the width-1 default and stays approximate.
        assert_eq!(exact(&answers[1]), Some(Value::Bool(false)));
    }

    #[test]
    fn planned_query_carries_ci_and_routes() {
        let mut s = service_with_graph();
        let response = s.handle_line(
            r#"{"op":"query","graph":"g","terminals":[0,2],
                "budget":{"nodes":100000,"confidence":0.99}}"#,
        );
        let v = parse(&response);
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{response}");
        let answer = v.get("answer").expect("answer present");
        // Small sparse graph: planner takes the exact route everywhere.
        assert_eq!(answer.get("exact"), Some(&Value::Bool(true)));
        let ci = answer.get("ci").expect("planned answers carry a ci");
        let f = |k: &str| match ci.get(k) {
            Some(Value::F64(x)) => *x,
            other => panic!("ci.{k} missing: {other:?}"),
        };
        assert!(f("lower") <= f("upper"));
        assert_eq!(ci.get("level"), Some(&Value::F64(0.99)));
        match answer.get("routes") {
            Some(Value::Seq(routes)) => {
                assert!(routes.iter().all(|r| r == &Value::Str("exact".into())))
            }
            other => panic!("routes missing: {other:?}"),
        }
        // Fixed queries answer in the same shape; this fixture is exact, so
        // their interval is the degenerate [estimate, estimate].
        let fixed = parse(&s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2]}"#));
        let answer = fixed.get("answer").expect("answer present");
        assert_eq!(answer.get("exact"), Some(&Value::Bool(true)));
        let ci = answer.get("ci").expect("fixed answers carry a ci");
        assert_eq!(ci.get("lower"), answer.get("estimate"));
        assert_eq!(ci.get("upper"), answer.get("estimate"));
        match (answer.get("routes"), answer.get("parts")) {
            (Some(Value::Seq(routes)), Some(Value::Seq(parts))) => {
                assert_eq!(routes.len(), parts.len())
            }
            other => panic!("routes or parts missing: {other:?}"),
        }
    }

    #[test]
    fn plan_flag_alone_enables_the_planner_for_a_batch() {
        let mut s = service_with_graph();
        let response = s.handle_line(
            r#"{"op":"batch","graph":"g","plan":true,"queries":
                [{"terminals":[0,2]},{"terminals":[1,3],"budget":{"confidence":0.9}}]}"#,
        );
        let v = parse(&response);
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{response}");
        let answers = match v.get("answers") {
            Some(Value::Seq(a)) => a,
            other => panic!("answers missing: {other:?}"),
        };
        let level = |a: &Value| {
            a.get("answer")
                .and_then(|ans| ans.get("ci"))
                .and_then(|ci| ci.get("level"))
                .cloned()
        };
        // Default level for the first, the per-query override for the second.
        assert_eq!(level(&answers[0]), Some(Value::F64(0.95)));
        assert_eq!(level(&answers[1]), Some(Value::F64(0.9)));
    }

    #[test]
    fn malformed_budget_is_an_error_not_a_panic() {
        let mut s = service_with_graph();
        for bad in [
            r#"{"op":"query","graph":"g","terminals":[0,2],"budget":7}"#,
            r#"{"op":"query","graph":"g","terminals":[0,2],"budget":{"confidence":0.5}}"#,
            r#"{"op":"query","graph":"g","terminals":[0,2],"budget":{"nodes":"many"}}"#,
        ] {
            let v = parse(&s.handle_line(bad));
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "line: {bad}");
        }
    }

    #[test]
    fn default_semantics_is_k_terminal_and_echoed() {
        let mut s = service_with_graph();
        let v = parse(&s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2]}"#));
        let kind = v
            .get("answer")
            .and_then(|a| a.get("semantics"))
            .and_then(|sem| sem.get("kind"))
            .cloned();
        assert_eq!(kind, Some(Value::Str("k-terminal".into())));
    }

    #[test]
    fn dhop_query_answers_the_hop_bounded_reliability() {
        let mut s = service_with_graph();
        // 4-cycle 0.9/0.8/0.9/0.7, terminals {0, 2}, d = 2: both two-hop
        // routes count, R = 1 − (1 − 0.9·0.8)(1 − 0.9·0.7).
        let v = parse(&s.handle_line(
            r#"{"op":"query","graph":"g","terminals":[0,2],"semantics":"d-hop","d":2}"#,
        ));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v:?}");
        let answer = v.get("answer").expect("answer present");
        let estimate = match answer.get("estimate") {
            Some(Value::F64(x)) => *x,
            other => panic!("estimate missing: {other:?}"),
        };
        let truth = 1.0 - (1.0 - 0.9 * 0.8) * (1.0 - 0.9 * 0.7);
        assert!((estimate - truth).abs() < 1e-9, "{estimate} vs {truth}");
        assert_eq!(answer.get("exact"), Some(&Value::Bool(true)));
        let sem = answer.get("semantics").expect("semantics echoed");
        assert_eq!(sem.get("kind"), Some(&Value::Str("d-hop".into())));
        assert_eq!(sem.get("d"), Some(&Value::U64(2)));
    }

    #[test]
    fn all_terminal_queries_may_omit_terminals() {
        let mut s = service_with_graph();
        let v = parse(
            &s.handle_line(r#"{"op":"query","graph":"g","semantics":"all-terminal","exact":true}"#),
        );
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v:?}");
        let answer = v.get("answer").expect("answer present");
        assert_eq!(answer.get("exact"), Some(&Value::Bool(true)));
    }

    #[test]
    fn batch_semantics_default_with_per_query_override() {
        let mut s = service_with_graph();
        let response = s.handle_line(
            r#"{"op":"batch","graph":"g","semantics":"d-hop","d":2,"queries":
                [{"terminals":[0,2]},{"terminals":[0,2],"semantics":"k-terminal"}]}"#,
        );
        let v = parse(&response);
        let answers = match v.get("answers") {
            Some(Value::Seq(a)) => a,
            other => panic!("answers missing: {other:?}"),
        };
        let kind = |a: &Value| {
            a.get("answer")
                .and_then(|ans| ans.get("semantics"))
                .and_then(|sem| sem.get("kind"))
                .cloned()
        };
        assert_eq!(kind(&answers[0]), Some(Value::Str("d-hop".into())));
        assert_eq!(kind(&answers[1]), Some(Value::Str("k-terminal".into())));
    }

    #[test]
    fn bad_semantics_requests_are_errors_not_panics() {
        let mut s = service_with_graph();
        for bad in [
            r#"{"op":"query","graph":"g","terminals":[0,2],"semantics":"bogus"}"#,
            r#"{"op":"query","graph":"g","terminals":[0,2],"semantics":"d-hop"}"#,
            r#"{"op":"query","graph":"g","terminals":[0,2],"semantics":7}"#,
            r#"{"op":"query","graph":"g","terminals":[0,1,2],"semantics":"two-terminal"}"#,
            r#"{"op":"query","graph":"g","terminals":[0,1],"semantics":"reach-set"}"#,
        ] {
            let v = parse(&s.handle_line(bad));
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "line: {bad}");
            assert!(matches!(v.get("error"), Some(Value::Str(_))));
        }
    }

    #[test]
    fn metrics_op_exposes_routes_cache_and_latency_families() {
        let mut s = service_with_graph();
        s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2],"plan":true}"#);
        s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2],"plan":true}"#);
        let v = parse(&s.handle_line(r#"{"op":"metrics"}"#));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v:?}");
        let prom = match v.get("prometheus") {
            Some(Value::Str(p)) => p,
            other => panic!("prometheus text missing: {other:?}"),
        };
        for family in [
            "netrel_queries_total{path=\"planned\"}",
            "netrel_planner_route_total{route=\"exact\"}",
            "netrel_cache_hits_total",
            "netrel_cache_misses_total",
            "netrel_part_solve_seconds_bucket",
            "netrel_request_seconds_bucket",
            "netrel_index_build_seconds_bucket",
            "netrel_requests_total{op=\"metrics\"}",
        ] {
            assert!(prom.contains(family), "missing `{family}` in:\n{prom}");
        }
        // The JSON twin carries the same counters, structured.
        let m = v.get("metrics").expect("json snapshot present");
        assert_eq!(m.get("queries_planned"), Some(&Value::U64(2)));
        let routes = m.get("routes").expect("route counts present");
        assert!(matches!(routes.get("exact"), Some(Value::U64(n)) if *n >= 1));
    }

    #[test]
    fn trace_flag_returns_a_span_tree_and_implies_planning() {
        let mut s = service_with_graph();
        let v =
            parse(&s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2],"trace":true}"#));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v:?}");
        let answer = v.get("answer").expect("answer present");
        // `trace: true` alone routes through the planner.
        assert!(answer.get("routes").is_some());
        let spans = match answer.get("trace").and_then(|t| t.get("spans")) {
            Some(Value::Seq(spans)) => spans,
            other => panic!("trace spans missing: {other:?}"),
        };
        let names: Vec<&str> = spans
            .iter()
            .filter_map(|s| match s.get("name") {
                Some(Value::Str(n)) => Some(n.as_str()),
                _ => None,
            })
            .collect();
        for expected in ["query", "plan.k-terminal", "cache.lookup", "combine"] {
            assert!(
                names.contains(&expected),
                "missing `{expected}` in {names:?}"
            );
        }
        // Untraced queries stay trace-free on the wire.
        let v =
            parse(&s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2],"plan":true}"#));
        let answer = v.get("answer").expect("answer present");
        assert_eq!(answer.get("trace"), Some(&Value::Null));
    }

    #[test]
    fn stats_reports_reset_safe_per_graph_occupancy() {
        let mut s = service_with_graph();
        s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2],"samples":50}"#);
        let v = parse(&s.handle_line(r#"{"op":"stats"}"#));
        let per_graph = match v.get("per_graph") {
            Some(Value::Seq(g)) => g,
            other => panic!("per_graph missing: {other:?}"),
        };
        assert_eq!(per_graph.len(), 1);
        let g = &per_graph[0];
        assert_eq!(g.get("name"), Some(&Value::Str("g".into())));
        assert_eq!(g.get("active"), Some(&Value::Bool(true)));
        assert_eq!(g.get("vertices"), Some(&Value::U64(4)));
        assert!(matches!(g.get("cache_misses"), Some(Value::U64(n)) if *n >= 1));
        let entries = match g.get("cache_entries") {
            Some(Value::U64(n)) => *n,
            other => panic!("cache_entries missing: {other:?}"),
        };
        assert!(entries >= 1);
        // Occupancy is recomputed from the live cache map: clearing the
        // cache drops it to zero while the monotone counters survive.
        s.engine.clear_cache();
        let v = parse(&s.handle_line(r#"{"op":"stats"}"#));
        let g = match v.get("per_graph") {
            Some(Value::Seq(g)) => &g[0],
            other => panic!("per_graph missing: {other:?}"),
        };
        assert_eq!(g.get("cache_entries"), Some(&Value::U64(0)));
        assert!(matches!(g.get("cache_misses"), Some(Value::U64(n)) if *n >= 1));
    }

    #[test]
    fn mutate_commits_and_matches_a_fresh_registration() {
        let mut s = service_with_graph();
        // Commit: lower the 0–1 edge, add a chord, then drop edge 1 (1–2).
        let v = parse(&s.handle_line(
            r#"{"op":"mutate","graph":"g","mutations":[
                {"kind":"update_prob","edge":0,"p":0.4},
                {"kind":"add_edge","u":0,"v":2,"p":0.6},
                {"kind":"remove_edge","edge":1}]}"#,
        ));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v:?}");
        let results = match v.get("results") {
            Some(Value::Seq(r)) => r,
            other => panic!("results missing: {other:?}"),
        };
        assert_eq!(results.len(), 3);
        for r in results {
            assert_eq!(r.get("ok"), Some(&Value::Bool(true)), "{r:?}");
        }
        // The added edge got the next dense id.
        assert_eq!(results[1].get("edge"), Some(&Value::U64(4)));
        // The mutated service and a service registered directly with the
        // mutated edge list answer bit-identically.
        let mut fresh = Service::default();
        fresh.handle_line(
            r#"{"op":"register","name":"g","vertices":4,
                "edges":[[0,1,0.4],[2,3,0.9],[3,0,0.7],[0,2,0.6]]}"#,
        );
        let query = r#"{"op":"query","graph":"g","terminals":[0,2],"exact":true}"#;
        assert_eq!(s.handle_line(query), fresh.handle_line(query));
    }

    #[test]
    fn mutate_isolates_per_mutation_errors() {
        let mut s = service_with_graph();
        let v = parse(&s.handle_line(
            r#"{"op":"mutate","graph":"g","mutations":[
                {"kind":"remove_edge","edge":99},
                {"kind":"update_prob","edge":0,"p":0.4}]}"#,
        ));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v:?}");
        let results = match v.get("results") {
            Some(Value::Seq(r)) => r,
            other => panic!("results missing: {other:?}"),
        };
        // The bad removal fails alone; the update after it still commits.
        assert_eq!(results[0].get("ok"), Some(&Value::Bool(false)));
        assert_eq!(results[1].get("ok"), Some(&Value::Bool(true)));
        // Malformed mutation arrays are request-level errors.
        for bad in [
            r#"{"op":"mutate","graph":"g","mutations":7}"#,
            r#"{"op":"mutate","graph":"g"}"#,
            r#"{"op":"mutate","graph":"g","mutations":[{"kind":"bogus"}]}"#,
            r#"{"op":"mutate","graph":"g","mutations":[{"kind":"add_edge","u":0}]}"#,
        ] {
            let v = parse(&s.handle_line(bad));
            assert_eq!(v.get("ok"), Some(&Value::Bool(false)), "line: {bad}");
        }
    }

    #[test]
    fn whatif_commits_nothing_and_matches_commit_then_query() {
        // Drop the per-answer cache telemetry before comparing: the
        // shared plan cache is warm by the second evaluation, so hit and
        // miss counts legitimately differ while the answer itself must
        // stay bit-identical.
        fn sans_cache_telemetry(v: &Value) -> Value {
            let answer = v.get("answer").expect("answer present");
            let Value::Map(fields) = answer else {
                panic!("answer is not an object: {answer:?}");
            };
            Value::Map(
                fields
                    .iter()
                    .filter(|(k, _)| k != "cache_hits" && k != "cache_misses")
                    .cloned()
                    .collect(),
            )
        }
        let mut s = service_with_graph();
        let whatif = parse(&s.handle_line(
            r#"{"op":"whatif","graph":"g","terminals":[0,2],
                "mutations":[{"kind":"update_prob","edge":0,"p":0.2}]}"#,
        ));
        assert_eq!(whatif.get("ok"), Some(&Value::Bool(true)), "{whatif:?}");
        // The registered graph is untouched: a plain planned query equals
        // one with an empty hypothesis.
        let plain =
            parse(&s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2],"plan":true}"#));
        let empty = parse(
            &s.handle_line(r#"{"op":"whatif","graph":"g","terminals":[0,2],"mutations":[]}"#),
        );
        assert_eq!(sans_cache_telemetry(&plain), sans_cache_telemetry(&empty));
        // Committing the same mutation then querying gives the same answer.
        s.handle_line(
            r#"{"op":"mutate","graph":"g","mutations":[{"kind":"update_prob","edge":0,"p":0.2}]}"#,
        );
        let committed =
            parse(&s.handle_line(r#"{"op":"query","graph":"g","terminals":[0,2],"plan":true}"#));
        assert_eq!(
            sans_cache_telemetry(&whatif),
            sans_cache_telemetry(&committed)
        );
    }

    #[test]
    fn maximize_picks_the_direct_chord_first() {
        let mut s = service_with_graph();
        // A near-certain direct 0–2 chord dominates the weak alternatives.
        let v = parse(&s.handle_line(
            r#"{"op":"maximize","graph":"g","s":0,"t":2,"k":2,"candidates":[
                {"kind":"update_prob","edge":1,"p":0.81},
                {"kind":"add_edge","u":0,"v":2,"p":0.99},
                {"kind":"add_edge","u":1,"v":3,"p":0.05}]}"#,
        ));
        assert_eq!(v.get("ok"), Some(&Value::Bool(true)), "{v:?}");
        let steps = match v.get("steps") {
            Some(Value::Seq(steps)) => steps,
            other => panic!("steps missing: {other:?}"),
        };
        assert_eq!(steps.len(), 2);
        assert_eq!(steps[0].get("candidate"), Some(&Value::U64(1)));
        let baseline = match v.get("baseline") {
            Some(Value::F64(b)) => *b,
            other => panic!("baseline missing: {other:?}"),
        };
        let final_r = match v.get("final") {
            Some(Value::F64(f)) => *f,
            other => panic!("final missing: {other:?}"),
        };
        assert!(final_r >= baseline, "{final_r} < {baseline}");
        // The chosen mutation is echoed in request shape.
        let m = steps[0].get("mutation").expect("mutation echoed");
        assert_eq!(m.get("kind"), Some(&Value::Str("add_edge".into())));
        // Missing fields are request-level errors.
        let v = parse(&s.handle_line(r#"{"op":"maximize","graph":"g","s":0,"t":2,"k":1}"#));
        assert_eq!(v.get("ok"), Some(&Value::Bool(false)));
    }

    #[test]
    fn per_query_knobs_override_batch_defaults() {
        let mut s = service_with_graph();
        let response = s.handle_line(
            r#"{"op":"batch","graph":"g","samples":10,"queries":
                [{"terminals":[0,2],"samples":99},{"terminals":[0,2]}]}"#,
        );
        let v = parse(&response);
        let answers = match v.get("answers") {
            Some(Value::Seq(a)) => a,
            other => panic!("answers missing: {other:?}"),
        };
        let requested = |a: &Value| match a.get("answer").and_then(|ans| ans.get("parts")) {
            Some(Value::Seq(parts)) if !parts.is_empty() => {
                parts[0].get("samples_requested").cloned()
            }
            _ => None,
        };
        assert_eq!(requested(&answers[0]), Some(Value::U64(99)));
        assert_eq!(requested(&answers[1]), Some(Value::U64(10)));
    }
}
