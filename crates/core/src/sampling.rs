//! The sampling-based baseline (paper §3.2.2): `Sampling(MC)` and
//! `Sampling(HT)`.
//!
//! Draws `s` possible worlds and estimates `R` with either the Monte Carlo
//! mean or the Horvitz–Thompson estimator over distinct worlds. Sampling is
//! embarrassingly parallel; `threads = 1` by default so benchmark comparisons
//! against the (single-threaded) S2BDD stay apples-to-apples.
//!
//! Results are **seed-stable**: the sample budget is partitioned over a
//! fixed set of [`RNG_STREAMS`] logical RNG streams, and worker threads only
//! execute streams — so the draws (and therefore `hits`, `estimate`, and the
//! variance) depend on `(samples, estimator, seed)` alone, never on how many
//! cores `threads = 0` detects at runtime.

// Answer-affecting region (docs/lints.md): no clock reads, thread-count
// probes or hash-order iteration.
#![deny(clippy::disallowed_methods, clippy::iter_over_hash_type)]

use netrel_s2bdd::{EstimatorKind, S2BddResult};
use netrel_ugraph::{GraphError, UncertainGraph, VertexId, WorldSampler};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Number of logical RNG streams the sample budget is partitioned over.
///
/// Each stream `i` draws its fixed share of the budget from its own
/// deterministic RNG (`seed ⊕ i·golden`), independent of which worker thread
/// executes it. The constant bounds the useful parallelism but pins the
/// draw sequence: changing the detected core count can never change the
/// result.
pub const RNG_STREAMS: usize = 64;

/// Configuration for the flat sampler.
///
/// ```
/// use netrel_core::{sample_reliability, SamplingConfig};
/// use netrel_ugraph::UncertainGraph;
///
/// let g = UncertainGraph::new(3, [(0, 1, 0.9), (1, 2, 0.8), (0, 2, 0.5)]).unwrap();
/// let cfg = SamplingConfig { samples: 20_000, seed: 42, ..Default::default() };
/// let r = sample_reliability(&g, &[0, 2], cfg).unwrap();
/// // 0-2 connects directly (0.5) or via 1 (0.72): R = 0.86.
/// assert!((r.estimate - 0.86).abs() < 0.02);
/// // Same seed, any thread count: identical draws.
/// let par = sample_reliability(&g, &[0, 2], SamplingConfig { threads: 0, ..cfg }).unwrap();
/// assert_eq!(r.hits, par.hits);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SamplingConfig {
    /// Number of possible worlds to draw.
    pub samples: usize,
    /// Estimator.
    pub estimator: EstimatorKind,
    /// RNG seed. For a fixed `(samples, estimator, seed)` the result is
    /// identical for every `threads` setting (see [`RNG_STREAMS`]).
    pub seed: u64,
    /// Worker threads; `0` = all available cores, `1` = sequential
    /// (default). Only wall-clock changes with this knob, never the result.
    pub threads: usize,
}

impl Default for SamplingConfig {
    fn default() -> Self {
        SamplingConfig {
            samples: 10_000,
            estimator: EstimatorKind::MonteCarlo,
            seed: 0x5eed,
            threads: 1,
        }
    }
}

/// Result of a flat sampling run.
#[derive(Clone, Debug)]
pub struct SamplingResult {
    /// Estimated reliability.
    pub estimate: f64,
    /// Samples drawn.
    pub samples: usize,
    /// Connected samples.
    pub hits: usize,
    /// Estimator variance: `R̂(1−R̂)/s` for MC (paper Eq. 2), the simplified
    /// HT variance (paper Eq. 8) otherwise.
    pub variance_estimate: f64,
}

/// Estimate `R[G, T]` by flat possible-world sampling.
pub fn sample_reliability(
    g: &UncertainGraph,
    terminals: &[VertexId],
    cfg: SamplingConfig,
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
    let t = &t;
    Ok(estimate_indicator(
        cfg,
        |share, mut rng| {
            let mut sampler = WorldSampler::new(g.num_vertices());
            (0..share)
                .filter(|_| sampler.sample_connected(g, t, &mut rng))
                .count()
        },
        |share, mut rng| {
            let mut sampler = WorldSampler::new(g.num_vertices());
            (0..share)
                .map(|_| sampler.sample_world_full(g, t, &mut rng))
                .collect::<Vec<_>>()
        },
    ))
}

/// Shared flat-sampling driver: partition `cfg.samples` over the fixed
/// [`RNG_STREAMS`] logical streams, run one of the per-stream closures per
/// stream (`mc_stream` returns the stream's hit count, `ht_stream` its
/// `(indicator, ln Pr, hash)` world records), and fold the streams with the
/// configured estimator.
///
/// Every indicator-style sampler in the crate (terminal connectivity,
/// hop-bounded reachability) funnels through this function, so they all
/// share the seed-stability contract: stream `i` always draws
/// `stream_share(i)` samples from `StdRng(seed ⊕ i·golden)` no matter which
/// worker thread runs it, making the result a pure function of
/// `(samples, estimator, seed)` — never of `threads`.
pub(crate) fn estimate_indicator<M, H>(
    cfg: SamplingConfig,
    mc_stream: M,
    ht_stream: H,
) -> SamplingResult
where
    M: Fn(usize, StdRng) -> usize + Sync,
    H: Fn(usize, StdRng) -> Vec<(bool, f64, u64)> + Sync,
{
    let streams = RNG_STREAMS.min(cfg.samples.max(1));
    let stream_share = |i: usize| cfg.samples * (i + 1) / streams - cfg.samples * i / streams;
    let stream_rng =
        |i: usize| StdRng::seed_from_u64(cfg.seed ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15));
    let threads = match cfg.threads {
        #[expect(
            clippy::disallowed_methods,
            reason = "worker count only picks how the seed-stable streams are partitioned; every stream's draws are identical for any thread count"
        )]
        0 => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        n => n,
    }
    .max(1)
    .min(streams);

    match cfg.estimator {
        EstimatorKind::MonteCarlo => {
            let hits: usize = run_streams(streams, threads, |i| {
                mc_stream(stream_share(i), stream_rng(i))
            })
            .into_iter()
            .sum();
            let s = cfg.samples.max(1) as f64;
            let estimate = hits as f64 / s;
            SamplingResult {
                estimate,
                samples: cfg.samples,
                hits,
                variance_estimate: estimate * (1.0 - estimate) / s,
            }
        }
        EstimatorKind::HorvitzThompson => {
            let records: Vec<(bool, f64, u64)> = run_streams(streams, threads, |i| {
                ht_stream(stream_share(i), stream_rng(i))
            })
            .into_iter()
            .flatten()
            .collect();
            let s = cfg.samples.max(1) as f64;
            let hits = records.iter().filter(|r| r.0).count();
            let mut seen = std::collections::HashSet::new();
            let mut estimate = 0.0f64;
            let mut var_correction = 0.0f64;
            for &(connected, ln_q, hash) in &records {
                if !connected || !seen.insert(hash) {
                    continue;
                }
                estimate += ht_weight(ln_q, s);
                let q = ln_q.exp();
                var_correction += (s - 1.0) * q * q / (2.0 * s);
            }
            let estimate = estimate.clamp(0.0, 1.0);
            // Paper Eq. 8: R(1-R)/s − Σ (s−1) I Pr² / (2s).
            let variance = (estimate * (1.0 - estimate) / s - var_correction).max(0.0);
            SamplingResult {
                estimate,
                samples: cfg.samples,
                hits,
                variance_estimate: variance,
            }
        }
    }
}

/// Execute `per_stream` for every logical stream index in `0..streams` on
/// `threads` scoped workers (round-robin assignment), returning the outputs
/// in stream order. Because `per_stream(i)` is a pure function of `i` (its
/// RNG is derived from the stream index), the output is independent of the
/// worker count.
pub(crate) fn run_streams<T, F>(streams: usize, threads: usize, per_stream: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 {
        return (0..streams).map(per_stream).collect();
    }
    let mut outs: Vec<(usize, T)> = std::thread::scope(|scope| {
        let per_stream = &per_stream;
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    (w..streams)
                        .step_by(threads)
                        .map(|i| (i, per_stream(i)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("sampler thread panicked"))
            .collect()
    });
    outs.sort_unstable_by_key(|&(i, _)| i);
    outs.into_iter().map(|(_, o)| o).collect()
}

/// Flat-sample one decomposed *part* and shape the outcome as an
/// [`S2BddResult`], so sampling-routed parts compose with exactly-solved
/// ones through [`combine_part_results`](crate::combine_part_results).
///
/// Flat sampling proves nothing, so the part's *proven* bounds are the
/// trivial `[0, 1]` and `exact` is `false`; the statistical quality lives in
/// `variance_estimate` (`R̂(1−R̂)/s` for MC, the paper's Eq. 8 for HT), which
/// the product-variance composition in `combine_part_results` — and any
/// confidence interval built from it — consumes. Used by the engine's
/// adaptive planner for parts whose predicted diagram size exceeds the node
/// budget.
pub fn sample_part_result(
    g: &UncertainGraph,
    terminals: &[VertexId],
    cfg: SamplingConfig,
) -> Result<S2BddResult, GraphError> {
    let r = sample_reliability(g, terminals, cfg)?;
    Ok(sampled_part_result(r, cfg.samples, g.num_edges()))
}

/// The one shape of a sampled part's [`S2BddResult`], shared by the flat,
/// hop-bounded and packed samplers: the sampled estimate and variance, the
/// trivial `[0, 1]` proven bounds, `exact = false`, one stratum, and
/// `requested` as both the requested and the final sample count. `edges`
/// is the part's edge count, reported as `layers_total`.
pub(crate) fn sampled_part_result(
    r: SamplingResult,
    requested: usize,
    edges: usize,
) -> S2BddResult {
    S2BddResult {
        estimate: r.estimate,
        lower_bound: 0.0,
        upper_bound: 1.0,
        exact: false,
        samples_requested: requested,
        samples_used: r.samples,
        s_prime_final: requested,
        strata: 1,
        deleted_nodes: 0,
        variance_estimate: r.variance_estimate,
        peak_width: 0,
        peak_memory_bytes: 0,
        layers_completed: 0,
        layers_total: edges,
        early_exit: false,
        node_cap_hit: false,
        nodes_created: 0,
    }
}

/// Horvitz–Thompson weight `q / π` with `π = 1 − (1 − q)^s`, computed stably.
/// For worlds far below f64 resolution the limit `1/s` is exact to first
/// order, which is also why HT degenerates to MC on large graphs.
fn ht_weight(ln_q: f64, s: f64) -> f64 {
    let q = ln_q.exp();
    if q < 1e-12 {
        return 1.0 / s;
    }
    let pi = -((-q).ln_1p() * s).exp_m1();
    if pi > 0.0 {
        q / pi
    } else {
        1.0 / s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netrel_bdd::brute_force_reliability;

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
    fn mc_converges_to_truth() {
        let (g, t) = bridge_graph();
        let exact = brute_force_reliability(&g, &t);
        let cfg = SamplingConfig {
            samples: 200_000,
            seed: 1,
            ..Default::default()
        };
        let r = sample_reliability(&g, &t, cfg).unwrap();
        assert!(
            (r.estimate - exact).abs() < 0.01,
            "{} vs {exact}",
            r.estimate
        );
        assert!(r.variance_estimate > 0.0);
    }

    #[test]
    fn ht_converges_to_truth() {
        let (g, t) = bridge_graph();
        let exact = brute_force_reliability(&g, &t);
        let cfg = SamplingConfig {
            samples: 100_000,
            estimator: EstimatorKind::HorvitzThompson,
            seed: 2,
            ..Default::default()
        };
        let r = sample_reliability(&g, &t, cfg).unwrap();
        assert!(
            (r.estimate - exact).abs() < 0.03,
            "{} vs {exact}",
            r.estimate
        );
    }

    #[test]
    fn thread_count_never_changes_the_draws() {
        // The documented contract: `threads` (including `0` = auto-detect)
        // affects wall-clock only. Streams are pinned to the seed, so every
        // thread setting must reproduce the same hits and the same bits.
        let (g, t) = bridge_graph();
        for estimator in [EstimatorKind::MonteCarlo, EstimatorKind::HorvitzThompson] {
            let base = SamplingConfig {
                samples: 10_000,
                seed: 7,
                estimator,
                threads: 1,
            };
            let a = sample_reliability(&g, &t, base).unwrap();
            for threads in [0, 2, 3, 5, 64, 1000] {
                let b = sample_reliability(&g, &t, SamplingConfig { threads, ..base }).unwrap();
                assert_eq!(a.hits, b.hits, "{estimator:?} threads={threads}");
                assert_eq!(
                    a.estimate.to_bits(),
                    b.estimate.to_bits(),
                    "{estimator:?} threads={threads}"
                );
                assert_eq!(a.variance_estimate.to_bits(), b.variance_estimate.to_bits());
            }
        }
    }

    #[test]
    fn tiny_sample_counts_still_seed_stable() {
        // Fewer samples than RNG_STREAMS: the partition collapses to one
        // stream per sample and stays thread-invariant.
        let (g, t) = bridge_graph();
        for samples in [1, 2, 63] {
            let base = SamplingConfig {
                samples,
                seed: 11,
                ..Default::default()
            };
            let a = sample_reliability(&g, &t, base).unwrap();
            let b = sample_reliability(&g, &t, SamplingConfig { threads: 0, ..base }).unwrap();
            assert_eq!(a.hits, b.hits, "samples={samples}");
        }
    }

    #[test]
    fn part_result_composes_through_combine() {
        let (g, t) = bridge_graph();
        let exact = brute_force_reliability(&g, &t);
        let cfg = SamplingConfig {
            samples: 100_000,
            seed: 3,
            ..Default::default()
        };
        let part = sample_part_result(&g, &t, cfg).unwrap();
        assert!(!part.exact);
        assert_eq!((part.lower_bound, part.upper_bound), (0.0, 1.0));
        assert!(part.variance_estimate > 0.0);
        // One sampled part recombines into a Pro-shaped answer.
        let combined = crate::combine_part_results(1.0, Default::default(), vec![part]);
        assert!((combined.estimate - exact).abs() < 0.01);
        assert!(!combined.exact);
        assert!(combined.variance_estimate > 0.0);
    }

    #[test]
    fn trivial_terminals() {
        let (g, _) = bridge_graph();
        let r = sample_reliability(&g, &[2], SamplingConfig::default()).unwrap();
        assert_eq!(r.estimate, 1.0);
        assert_eq!(r.samples, 0);
    }

    #[test]
    fn ht_weight_asymptotics() {
        // Large q: exact formula.
        let s = 100.0;
        let q: f64 = 0.3;
        let w = ht_weight(q.ln(), s);
        assert!((w - q / (1.0 - (1.0 - q).powf(s))).abs() < 1e-12);
        // Tiny q: limit 1/s, even when exp(ln_q) underflows.
        assert!((ht_weight(-1e6, s) - 1.0 / s).abs() < 1e-15);
    }

    #[test]
    fn zero_probability_like_graphs() {
        // Disconnected terminals: estimate must be 0 whatever the seed.
        let g = UncertainGraph::new(4, [(0, 1, 0.9), (2, 3, 0.9)]).unwrap();
        let cfg = SamplingConfig {
            samples: 1000,
            seed: 5,
            ..Default::default()
        };
        let r = sample_reliability(&g, &[0, 2], cfg).unwrap();
        assert_eq!(r.estimate, 0.0);
        assert_eq!(r.hits, 0);
    }
}
