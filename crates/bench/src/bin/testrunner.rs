//! `netrel-testrunner`: the unified throughput runner.
//!
//! Folds the former `engine_throughput` and `planner_throughput` bins into
//! one entry point that emits a single [`netrel_obs::BenchReport`]
//! (`netrel-bench-report/v1`) per run:
//!
//! * `--suite=engine`  — fixed-policy cold/warm throughput
//!   (default output `BENCH_engine.json`),
//! * `--suite=planner` — adaptive-planner routing and completion
//!   (default output `BENCH_planner.json`),
//! * `--suite=mutation` — incremental updates vs. full rebuild and
//!   what-if throughput (default output `BENCH_mutation.json`),
//! * `--suite=all`     — every suite merged into one report (the default;
//!   default output `BENCH_testrunner.json`).
//!
//! Row names are disjoint across suites, so the merged report diffs
//! per-row with `bench-diff` exactly like the per-suite ones.

use netrel_bench::throughput::{engine_suite, mutation_suite, planner_suite};
use netrel_bench::{maybe_dump_json, parse_args};
use netrel_obs::BenchReport;

fn main() {
    let mut args = parse_args();
    let suite = args.suite.clone().unwrap_or_else(|| "all".to_string());
    let report: BenchReport = match suite.as_str() {
        "engine" => {
            if args.json.is_none() {
                args.json = Some("BENCH_engine.json".into());
            }
            engine_suite(&args)
        }
        "planner" => {
            if args.json.is_none() {
                args.json = Some("BENCH_planner.json".into());
            }
            planner_suite(&args)
        }
        "mutation" => {
            if args.json.is_none() {
                args.json = Some("BENCH_mutation.json".into());
            }
            mutation_suite(&args)
        }
        "all" => {
            if args.json.is_none() {
                args.json = Some("BENCH_testrunner.json".into());
            }
            let mut merged = engine_suite(&args);
            merged.bench = "netrel-testrunner".to_string();
            merged.rows.extend(planner_suite(&args).rows);
            merged.rows.extend(mutation_suite(&args).rows);
            merged
        }
        other => {
            eprintln!("unknown --suite={other:?}; expected engine, planner, mutation, or all");
            std::process::exit(2);
        }
    };
    maybe_dump_json(&args, &report);
}
