//! A scoped worker pool for per-part solver jobs.
//!
//! Jobs across the whole batch are pulled from one shared counter, so a
//! query with many parts and a query with one part interleave instead of
//! serializing per query. Results are reassembled by job index, and every
//! job's RNG seed is derived from its position in its query's decomposition
//! (`part_s2bdd_config`), so the output is bit-identical no matter how many
//! workers run or how the schedule lands.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Run `f(0..n)` and return the results in index order, plus per-worker
/// busy timing. With `workers <= 1` (or fewer than two jobs) this is a
/// plain sequential loop; otherwise `min(workers, n)` scoped threads pull
/// job indices from a shared atomic counter. `f` must be deterministic per
/// index for the parallel and sequential paths to agree (solver jobs are:
/// their seeds come from the job, not the thread). The second return value
/// holds each worker's total in-job time (one entry for the sequential
/// path). Timing never affects scheduling or results: the clock reads
/// bracket `f` without touching the job counter.
pub(crate) fn run_indexed_timed<T, F>(n: usize, workers: usize, f: F) -> (Vec<T>, Vec<Duration>)
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || n <= 1 {
        let start = Instant::now();
        let out = (0..n).map(f).collect();
        return (out, vec![start.elapsed()]);
    }
    let next = AtomicUsize::new(0);
    let per_worker: Vec<(Vec<(usize, T)>, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(n))
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    let mut busy = Duration::ZERO;
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        let t0 = Instant::now();
                        out.push((i, f(i)));
                        busy += t0.elapsed();
                    }
                    (out, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("engine worker panicked"))
            .collect()
    });
    let mut busy_times = Vec::new();
    let mut collected: Vec<(usize, T)> = Vec::with_capacity(n);
    for (out, busy) in per_worker {
        busy_times.push(busy);
        collected.extend(out);
    }
    collected.sort_unstable_by_key(|&(i, _)| i);
    (collected.into_iter().map(|(_, t)| t).collect(), busy_times)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The results alone, for result-ordering tests.
    fn run_indexed<T: Send>(n: usize, workers: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        run_indexed_timed(n, workers, f).0
    }

    #[test]
    fn sequential_and_parallel_agree_in_order() {
        let f = |i: usize| i * i;
        let seq = run_indexed(100, 1, f);
        for workers in [2, 4, 7] {
            assert_eq!(run_indexed(100, workers, f), seq, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_job() {
        assert_eq!(run_indexed(0, 4, |i| i), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 4, |i| i + 10), vec![10]);
    }

    #[test]
    fn more_workers_than_jobs() {
        assert_eq!(run_indexed(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn timed_run_returns_same_results_plus_busy_times() {
        let f = |i: usize| i * 3;
        let (timed, busy) = run_indexed_timed(20, 4, f);
        assert_eq!(timed, (0..20).map(f).collect::<Vec<_>>());
        assert!(!busy.is_empty() && busy.len() <= 4);
        // Sequential timed path reports exactly one worker.
        let (seq, busy) = run_indexed_timed(20, 1, f);
        assert_eq!(seq, timed);
        assert_eq!(busy.len(), 1);
    }
}
