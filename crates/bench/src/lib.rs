//! Shared harness for the paper-reproduction binaries.
//!
//! Every binary accepts:
//!
//! * `--scale=<f>`  — vertex-count scale for the large synthetic datasets
//!   (default 0.05; the paper's full sizes need `--scale=1.0` and patience),
//! * `--searches=<n>` — random terminal draws per configuration,
//! * `--seed=<n>`  — base RNG seed,
//! * `--full`      — paper-fidelity sizes (scale 1.0, paper search counts),
//! * `--json=<path>` — also dump machine-readable rows.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod accuracy;

use netrel_ugraph::UncertainGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::time::Instant;

/// Common CLI arguments.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Scale factor for large synthetic datasets.
    pub scale: f64,
    /// Terminal draws per configuration.
    pub searches: usize,
    /// Base seed.
    pub seed: u64,
    /// Paper-fidelity mode.
    pub full: bool,
    /// Optional JSON output path.
    pub json: Option<String>,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            scale: 0.05,
            searches: 3,
            seed: 7,
            full: false,
            json: None,
        }
    }
}

/// Parse `std::env::args`, with `--full` upgrading the defaults.
pub fn parse_args() -> RunArgs {
    let mut a = RunArgs::default();
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--scale=") {
            a.scale = v.parse().expect("--scale takes a float");
        } else if let Some(v) = arg.strip_prefix("--searches=") {
            a.searches = v.parse().expect("--searches takes an integer");
        } else if let Some(v) = arg.strip_prefix("--seed=") {
            a.seed = v.parse().expect("--seed takes an integer");
        } else if let Some(v) = arg.strip_prefix("--json=") {
            a.json = Some(v.to_string());
        } else if arg == "--full" {
            a.full = true;
            a.scale = 1.0;
            a.searches = 20;
        } else {
            eprintln!("warning: unknown argument {arg:?} ignored");
        }
    }
    a
}

/// Wall-clock one closure.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// `k` distinct random terminals (the paper selects terminals uniformly).
pub fn random_terminals(g: &UncertainGraph, k: usize, seed: u64) -> Vec<usize> {
    assert!(k <= g.num_vertices());
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = std::collections::BTreeSet::new();
    while t.len() < k {
        t.insert(rng.gen_range(0..g.num_vertices()));
    }
    t.into_iter().collect()
}

/// Write serializable rows as pretty JSON if `--json` was given.
pub fn maybe_dump_json<T: Serialize>(args: &RunArgs, rows: &T) {
    if let Some(path) = &args.json {
        let text = serde_json::to_string_pretty(rows).expect("rows serialize");
        std::fs::write(path, text).expect("write json output");
        eprintln!("wrote {path}");
    }
}

/// Format seconds human-readably.
pub fn fmt_secs(s: f64) -> String {
    if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{s:.2}s")
    }
}

/// Format a byte count.
pub fn fmt_bytes(b: usize) -> String {
    const UNITS: [&str; 4] = ["B", "KB", "MB", "GB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.1}{}", UNITS[u])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_distinct_and_in_range() {
        let g = UncertainGraph::new(10, (0..9).map(|i| (i, i + 1, 0.5))).unwrap();
        let t = random_terminals(&g, 5, 3);
        assert_eq!(t.len(), 5);
        assert!(t.windows(2).all(|w| w[0] < w[1]));
        assert!(t.iter().all(|&v| v < 10));
        assert_eq!(t, random_terminals(&g, 5, 3), "seeded determinism");
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_secs(0.5), "500.0ms");
        assert_eq!(fmt_secs(2.0), "2.00s");
        assert!(fmt_secs(5e-5).ends_with("µs"));
        assert_eq!(fmt_bytes(512), "512.0B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
    }

    #[test]
    fn default_args() {
        let a = RunArgs::default();
        assert_eq!(a.scale, 0.05);
        assert!(!a.full);
    }
}
