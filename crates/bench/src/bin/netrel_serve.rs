//! `netrel-serve` — the newline-delimited JSON reliability query service.
//!
//! Reads one JSON request per line on stdin, writes one JSON response per
//! line on stdout (blank lines are skipped; diagnostics go to stderr). The
//! protocol lives in `netrel_engine::service` and is documented with
//! examples in `docs/protocol.md`; this binary is only the stdin/stdout
//! pump, so the same engine can later sit behind any other transport.
//!
//! ```text
//! $ netrel-serve <<'EOF'
//! {"op":"register","name":"g","vertices":4,"edges":[[0,1,0.9],[1,2,0.8],[2,3,0.9],[3,0,0.7]]}
//! {"op":"query","graph":"g","terminals":[0,2]}
//! {"op":"stats"}
//! EOF
//! ```

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

use netrel_engine::service::Service;
use netrel_engine::{Engine, EngineConfig};
use std::io::{self, BufRead, Write};
use std::process::ExitCode;

/// Parse a numeric flag value, or exit with a usage error. A typo on the
/// command line is an operator mistake, not a panic.
fn parse_flag(value: &str, what: &str) -> Result<usize, ExitCode> {
    value.parse().map_err(|_| {
        eprintln!("netrel-serve: {what} takes an integer, got {value:?} (try --help)");
        ExitCode::from(2)
    })
}

fn main() -> ExitCode {
    let mut workers = 0usize; // 0 = EngineConfig::default() auto-detection
    let mut cache = usize::MAX;
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--workers=") {
            workers = match parse_flag(v, "--workers") {
                Ok(n) => n,
                Err(code) => return code,
            };
        } else if let Some(v) = arg.strip_prefix("--cache=") {
            cache = match parse_flag(v, "--cache") {
                Ok(n) => n,
                Err(code) => return code,
            };
        } else if arg == "--help" || arg == "-h" {
            eprintln!("usage: netrel-serve [--workers=N] [--cache=ENTRIES]");
            eprintln!("NDJSON protocol: register/query/batch/mutate/whatif/maximize/stats/");
            eprintln!("metrics, planner budgets and CI fields — documented in");
            eprintln!("docs/protocol.md (netcat/curl examples included) and the");
            eprintln!("`netrel_engine::service` rustdoc.");
            return ExitCode::SUCCESS;
        } else {
            eprintln!("warning: unknown argument {arg:?} ignored");
        }
    }
    let mut cfg = EngineConfig::default();
    if workers > 0 {
        cfg.workers = workers;
    }
    if cache != usize::MAX {
        cfg.plan_cache_capacity = cache;
    }

    let mut service = Service::new(Engine::new(cfg));
    let stdin = io::stdin();
    let stdout = io::stdout();
    let mut out = stdout.lock();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("netrel-serve: stdin read failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let response = service.handle_line(trimmed);
        // A closed pipe (client went away) is a normal shutdown, not a crash.
        if writeln!(out, "{response}")
            .and_then(|()| out.flush())
            .is_err()
        {
            return ExitCode::SUCCESS;
        }
    }
    ExitCode::SUCCESS
}
