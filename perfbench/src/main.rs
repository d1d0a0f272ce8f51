//! `netrel-perfbench`: the repository's benchmark.
//!
//! One run drives the shipped `netrel-serve` binary over its NDJSON
//! stdin/stdout pipe with one workload's deterministic traffic, as a closed
//! loop (one client, one request in flight), checks every answer, and
//! prints the end-to-end metrics. With `--trace 1` it then replays the same
//! op sequence in-process with spans around the calls into each layer and
//! prints the per-layer metrics instead. `perfbench/README.md` documents
//! the workloads, metrics and steadiness rules.
//!
//! ```text
//! netrel-perfbench --serve <netrel-serve> --workload road-warm --seed 1 --seconds 20 --trace 0
//! ```

mod check;
mod replay;
mod server;
mod stats;
mod topology;
mod workload;

use check::{check_response, Answer, Checked, Tally};
use serde::Value;
use server::Server;
use stats::{chunked, chunked_percentile, median, min_samples};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workload::{register_line, Op, Traffic, Workload};

/// The seed any gain claim must also hold on, besides the seeds it was
/// developed against.
pub const HELD_OUT_SEED: u64 = 20_190_326;

/// Queries every run completes: `query_p90_ms` needs 100, and
/// `ci_width_mean` and `exact_share` cover exactly this many, so they
/// repeat exactly for a seed. The timed phase runs past `--seconds` (up to
/// three times it) until the run has them and enough what-ifs (road-drift's
/// own, or a read-only workload's probes) for `whatif_p50_ms`.
const ACCURACY_QUERIES: usize = 300;

/// What-if probes an untraced run of a read-only workload sends per
/// `--seconds` of timed traffic; `whatif_p50_ms` is their median.
const WHATIF_PROBES: usize = 60;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut serve = None;
    let mut out_dir = PathBuf::from(".bench_out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?} (use road-warm, road-cold, ppi-dense or road-drift)"
                ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--serve" => serve = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        serve: serve.ok_or("--serve is required")?,
        out_dir,
    })
}

/// Set-ups per run; `setup_s` is their median. The millisecond set-ups
/// (spawn + `register`) repeat most, since single ones vary by ±25%;
/// road-warm's warm-up takes about 2 s, road-drift's about 7 s.
fn setup_repeats(w: Workload) -> usize {
    match w {
        Workload::RoadWarm => 3,
        Workload::RoadDrift => 1,
        Workload::PpiDense => 9,
        Workload::RoadCold => 21,
    }
}

/// One timed request and what came back.
pub struct TimedOp {
    pub op: Op,
    pub response: String,
    pub rtt_s: f64,
    pub checked: Option<Checked>,
}

/// What the untraced run measured.
pub struct Run {
    pub setup_s: Vec<f64>,
    /// The kept server's `register` + set-up ops and their responses.
    pub setup: Vec<(Option<Op>, String)>,
    pub timed: Vec<TimedOp>,
    /// A read-only workload's what-if probes, each with the index of the
    /// timed query it re-asks.
    pub probes: Vec<(usize, TimedOp)>,
    /// Sum of the timed ops' round trips: the time the server was asked
    /// to work.
    pub busy_s: f64,
    /// Wall time of the timed phase, op generation included.
    pub timed_wall_s: f64,
    /// Host-speed reference samples taken during the timed phase.
    pub host_ref_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mib: f64,
    /// `metrics` snapshots just before and after the timed phase.
    pub metrics_before: Value,
    pub metrics_after: Value,
}

fn metrics_snapshot(server: &mut Server) -> Result<Value, String> {
    let r = server
        .call(r#"{"op":"metrics"}"#)
        .map_err(|e| format!("metrics: {e}"))?;
    let v: Value = serde_json::from_str(&r).map_err(|e| format!("metrics: {e}"))?;
    v.get("metrics")
        .cloned()
        .ok_or_else(|| format!("metrics op failed: {r}"))
}

/// One timed set-up: spawn a server, register the graph and run the
/// set-up ops. Every response is checked, and must equal the first
/// set-up's (`reference`): set-up is deterministic.
fn set_up(
    args: &Args,
    register: &str,
    setup_ops: &[Op],
    tally: &mut Tally,
    reference: &mut Option<Vec<String>>,
) -> Result<(Server, Vec<String>, f64), String> {
    let t0 = Instant::now();
    let mut server = Server::spawn(&args.serve).map_err(|e| format!("spawn: {e}"))?;
    let mut responses = vec![server
        .call(register)
        .map_err(|e| format!("register: {e}"))?];
    for op in setup_ops {
        responses.push(
            server
                .call(&op.to_line(args.workload))
                .map_err(|e| format!("set-up: {e}"))?,
        );
    }
    let secs = t0.elapsed().as_secs_f64();
    let registered = serde_json::from_str::<Value>(&responses[0])
        .ok()
        .and_then(|v| v.get("ok").cloned());
    tally.record(
        "register",
        (registered == Some(Value::Bool(true)))
            .then_some(())
            .ok_or(format!("register failed: {}", responses[0])),
    );
    for (op, r) in setup_ops.iter().zip(&responses[1..]) {
        tally.record("set-up op", check_response(op, r));
    }
    match reference {
        Some(first) => {
            tally.record(
                "set-up repeat",
                (*first == responses)
                    .then_some(())
                    .ok_or("a set-up repeat answered differently".to_string()),
            );
        }
        None => *reference = Some(responses.clone()),
    }
    Ok((server, responses, secs))
}

fn untraced(args: &Args, traffic: &mut Traffic, register: &str) -> Result<Run, String> {
    let setup_ops = traffic.setup_ops();
    let mut tally = Tally::default();
    let mut reference = None;
    // Half the set-ups run before the timed phase (the last one's server is
    // kept for it) and half after, so their median spans two host phases.
    // One server runs at a time.
    let repeats = setup_repeats(args.workload);
    let mut setup_s = Vec::new();
    let mut kept: Option<(Server, Vec<String>)> = None;
    for _ in 0..repeats - repeats / 2 {
        if let Some((old, _)) = kept.take() {
            old.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        }
        let (server, responses, secs) =
            set_up(args, register, &setup_ops, &mut tally, &mut reference)?;
        setup_s.push(secs);
        kept = Some((server, responses));
    }
    let (mut server, responses) = kept.expect("at least one set-up");
    let setup: Vec<(Option<Op>, String)> = std::iter::once(None)
        .chain(setup_ops.iter().cloned().map(Some))
        .zip(responses)
        .collect();

    // Warm-up answers, for the bit-for-bit check of repeated queries.
    let warm: HashMap<Vec<usize>, Answer> = setup
        .iter()
        .filter_map(
            |(op, r)| match (op, op.as_ref().map(|op| check_response(op, r))) {
                (Some(Op::Query(t)), Some(Ok(Checked::Answer(a)))) => Some((t.clone(), a)),
                _ => None,
            },
        )
        .collect();

    let metrics_before = metrics_snapshot(&mut server)?;
    // The loop only sends and receives: responses are checked after the
    // timed phase, so the client's own work stays out of the throughput.
    let mut timed = Vec::new();
    let (mut queries, mut whatifs) = (0usize, 0usize);
    let min_queries = ACCURACY_QUERIES.max(min_samples(90.0));
    let min_whatifs = min_samples(50.0);
    // A read-only workload's what-if probes: in an untraced run, every
    // `--seconds / WHATIF_PROBES` of timed traffic the last query is asked
    // again as a `whatif` with no mutations. A probe pays for the what-if
    // path's own work (graph clone, `GraphIndex::build`, planning) while
    // every part hits the plan cache, commits nothing, and must answer
    // exactly as the query did. Probes are spread over the whole phase so
    // their median spans the host's speed phases, but they are not part of
    // the traffic: they count toward no other metric, and a traced run
    // (whose replay must see only the traffic) sends none.
    let probing = !args.trace && !args.workload.mutates();
    let probe_every_s = args.seconds / WHATIF_PROBES as f64;
    let mut probes = Vec::new();
    // The phase is measured in round-trip time: generating the next op
    // (which vets road pairs) happens while the server idles and counts
    // neither toward `--seconds` nor `ops_per_s`.
    // A traced run makes a fixed number of ops instead.
    let traced_ops = args.trace.then(|| args.workload.traced_ops(args.seconds));
    let mut busy_s = 0.0;
    let mut peak_rss_mib = None;
    let mut host_ref_ms = Vec::new();
    let start = Instant::now();
    let mut next_ref = start;
    loop {
        // Sample the host-speed reference twice a second, while the
        // server idles between requests.
        if Instant::now() >= next_ref {
            host_ref_ms.push(host_speed_ms());
            next_ref = Instant::now() + std::time::Duration::from_millis(500);
        }
        if probing && busy_s >= probe_every_s * probes.len() as f64 {
            // A read-only workload's traffic is all queries.
            if let Some(Op::Query(terms)) = timed.last().map(|t: &TimedOp| &t.op) {
                let op = Op::Whatif(terms.clone(), Vec::new());
                let t0 = Instant::now();
                let response = server
                    .call(&op.to_line(args.workload))
                    .map_err(|e| format!("whatif: {e}"))?;
                let rtt_s = t0.elapsed().as_secs_f64();
                whatifs += 1;
                let probe = TimedOp {
                    op,
                    response,
                    rtt_s,
                    checked: None,
                };
                probes.push((timed.len() - 1, probe));
            }
        }
        let enough = queries >= min_queries && whatifs >= min_whatifs;
        let done = match traced_ops {
            Some(n) => timed.len() >= n,
            None => (busy_s >= args.seconds && enough) || busy_s >= 3.0 * args.seconds,
        };
        if done {
            break;
        }
        let op = traffic.next_op();
        let line = op.to_line(args.workload);
        let t0 = Instant::now();
        let response = server
            .call(&line)
            .map_err(|e| format!("{}: {e}", op.kind()))?;
        let rtt_s = t0.elapsed().as_secs_f64();
        busy_s += rtt_s;
        match op {
            Op::Query(_) => queries += 1,
            Op::Whatif(..) => whatifs += 1,
            Op::Mutate(_) => {}
        }
        timed.push(TimedOp {
            op,
            response,
            rtt_s,
            checked: None,
        });
        // The peak resident set is read once the run has made a fixed
        // amount of traffic: every fresh query leaves plan-cache entries
        // behind, so at the end of the run it would grow with the host's
        // speed.
        if peak_rss_mib.is_none() && queries >= ACCURACY_QUERIES {
            peak_rss_mib = Some(server.peak_rss_mib().map_err(|e| format!("VmHWM: {e}"))?);
        }
    }
    let timed_wall_s = start.elapsed().as_secs_f64();
    // Hot-pool queries of a read-only workload must repeat their warm-up
    // answers (road-drift's mutations make its warm-up answers stale).
    let warm_reference = |t: &[usize]| (!args.workload.mutates()).then(|| warm.get(t)).flatten();
    for t in &mut timed {
        let checked = check_response(&t.op, &t.response).and_then(|c| match (&t.op, &c) {
            (Op::Query(terms), Checked::Answer(a)) => same_as(a, warm_reference(terms)).map(|()| c),
            _ => Ok(c),
        });
        t.checked = tally.record(t.op.kind(), checked);
    }
    for (k, probe) in &mut probes {
        let reasked = match &timed[*k].checked {
            Some(Checked::Answer(a)) => Some(a),
            _ => None,
        };
        let checked =
            check_response(&probe.op, &probe.response).and_then(|c| match (&c, reasked) {
                (Checked::Answer(a), Some(_)) => same_as(a, reasked).map(|()| c),
                (Checked::Answer(_), None) => Err("the query it re-asks failed".to_string()),
                _ => Ok(c),
            });
        probe.checked = tally.record("whatif probe", checked);
    }
    let metrics_after = metrics_snapshot(&mut server)?;
    let peak_rss_mib = match peak_rss_mib {
        Some(mib) => mib,
        None => server.peak_rss_mib().map_err(|e| format!("VmHWM: {e}"))?,
    };
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    for _ in 0..repeats / 2 {
        let (server, _, secs) = set_up(args, register, &setup_ops, &mut tally, &mut reference)?;
        setup_s.push(secs);
        server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    }
    Ok(Run {
        setup_s,
        setup,
        timed,
        probes,
        busy_s,
        timed_wall_s,
        host_ref_ms,
        attempted: tally.attempted,
        failed: tally.failed,
        peak_rss_mib,
        metrics_before,
        metrics_after,
    })
}

/// `a` must equal `reference`, when there is one, bit for bit.
fn same_as(a: &Answer, reference: Option<&Answer>) -> Result<(), String> {
    match reference {
        Some(r) if !a.same_value(r) => Err(format!(
            "answer differs from the earlier answer: {a:?} vs {r:?}"
        )),
        _ => Ok(()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    let host_before_ms = median(&(0..20).map(|_| host_speed_ms()).collect::<Vec<_>>());
    let graph = args.workload.graph();
    let register = register_line(&graph);
    let mut traffic = Traffic::new(args.workload, args.seed, &graph);
    let run = untraced(args, &mut traffic, &register)?;
    let host_after_ms = median(&(0..20).map(|_| host_speed_ms()).collect::<Vec<_>>());

    // Round trips in ms, in the order the ops were sent.
    let rtts = |ops: &mut dyn Iterator<Item = &TimedOp>, kind: &str| {
        ops.filter(|t| kind.is_empty() || t.op.kind() == kind)
            .map(|t| t.rtt_s * 1e3)
            .collect::<Vec<f64>>()
    };
    let query_ms = rtts(&mut run.timed.iter(), "query");
    // Read-only workloads time their what-if probes, road-drift its traffic's.
    let whatif_ms = rtts(
        &mut run.timed.iter().chain(run.probes.iter().map(|(_, p)| p)),
        "whatif",
    );
    let (exact_share, ci_width_mean) = accuracy(&run);

    let mut failed = run.failed;
    let mut attempted = run.attempted;
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    let mut traced_env = String::new();
    if !args.trace {
        let mut push = |name, value: Option<f64>, unit| match value {
            Some(v) => metrics.push((name, v, unit)),
            None => {
                eprintln!("perfbench: {name} is not reportable (too few samples)");
                failed += 1;
                attempted += 1;
            }
        };
        push("setup_s", Some(median(&run.setup_s)), "s");
        let ops_per_s = chunked(&rtts(&mut run.timed.iter(), ""), 1, |ms| {
            1e3 * ms.len() as f64 / ms.iter().sum::<f64>()
        });
        push("ops_per_s", ops_per_s, "ops/s");
        push("query_p50_ms", chunked_percentile(&query_ms, 50.0), "ms");
        push("query_p90_ms", chunked_percentile(&query_ms, 90.0), "ms");
        push("whatif_p50_ms", chunked_percentile(&whatif_ms, 50.0), "ms");
        push("peak_rss_mb", Some(run.peak_rss_mib), "MiB");
        push("ci_width_mean", Some(ci_width_mean), "probability");
    } else {
        let spans = args.out_dir.join(format!(
            "spans-{}-{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        let traced = replay::replay(args.workload, &run, &graph, &register, &spans);
        attempted += traced.checks.attempted;
        failed += traced.checks.failed;
        metrics = traced.metrics;
        traced_env = format!(
            r#","spans":"{}","layer_shares":{}"#,
            spans.display(),
            replay::shares_json(&traced.shares)
        );
    }

    let env = format!(
        r#"{{"env":{{"workload":"{}","seed":{},"held_out_seed":{},"dataset":"{}","scale":{},"dataset_seed":{},"vertices":{},"edges":{},"server_workers":{},"toolchain":"{}","host_ref_ms_before":{},"host_ref_ms_during":{},"host_ref_ms_after":{},"samples":{{"setup":{},"query":{},"whatif":{},"timed_ops":{}}},"busy_s":{},"timed_wall_s":{},"exact_share":{},"ci_width_mean":{}{}}}}}"#,
        args.workload.name(),
        args.seed,
        HELD_OUT_SEED,
        args.workload.dataset().0.spec().name,
        args.workload.dataset().1,
        workload::DATASET_SEED,
        graph.num_vertices(),
        graph.num_edges(),
        netrel_engine::EngineConfig::default().workers,
        toolchain(),
        host_before_ms,
        median(&run.host_ref_ms),
        host_after_ms,
        run.setup_s.len(),
        query_ms.len(),
        whatif_ms.len(),
        run.timed.len(),
        run.busy_s,
        run.timed_wall_s,
        exact_share,
        ci_width_mean,
        traced_env,
    );
    println!("{env}");
    let correct = failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!(r#""{n}":{{"value":{v},"unit":"{u}"}}"#))
        .collect();
    println!(
        r#"{{"correct":{correct},"attempted":{attempted},"failed":{failed},"metrics":{{{}}}}}"#,
        body.join(",")
    );
    Ok(())
}

/// Share of exact answers and mean confidence-interval width over the
/// first `ACCURACY_QUERIES` timed queries: every run reaches them, so both
/// repeat exactly for a seed, whatever the host's speed.
pub fn accuracy(run: &Run) -> (f64, f64) {
    let answers: Vec<&Answer> = run
        .timed
        .iter()
        .filter(|t| matches!(t.op, Op::Query(_)))
        .take(ACCURACY_QUERIES)
        .filter_map(|t| match &t.checked {
            Some(Checked::Answer(a)) => Some(a),
            _ => None,
        })
        .collect();
    let n = answers.len().max(1) as f64;
    let exact = answers.iter().filter(|a| a.exact).count() as f64 / n;
    let width = answers.iter().map(|a| a.ci.1 - a.ci.0).sum::<f64>() / n;
    (exact, width)
}

/// Host-speed reference: a fixed integer loop of about a millisecond,
/// timed in milliseconds. Its medians before, during and after the timed
/// phase tell a slow host phase from a regression.
fn host_speed_ms() -> f64 {
    let t0 = Instant::now();
    let mut rng = workload::SplitMix::new(1);
    let mut acc = 0u64;
    for _ in 0..1_000_000 {
        acc ^= rng.next_u64();
    }
    std::hint::black_box(acc);
    t0.elapsed().as_secs_f64() * 1e3
}

/// `rustc --version` of the toolchain on the path (the one that built both
/// binaries).
fn toolchain() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().replace('"', "'"))
}
