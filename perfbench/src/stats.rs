//! Order statistics for the reported latencies.

/// Samples a percentile must leave beyond it before it is reported: with
/// fewer, the tail value is one or two outliers, not a percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `sorted` (ascending):
/// the value at rank `ceil(p/100 · n)`. `None` unless at least
/// [`MIN_BEYOND`] samples lie beyond that rank.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Samples needed before percentile `p` can be reported.
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((p / 100.0) * n as f64).ceil() as usize;
            n - rank.clamp(1, n) >= MIN_BEYOND
        })
        .expect("every percentile below 100 has a finite minimum")
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Median of unsorted samples (nearest rank, like [`percentile`] but with
/// no tail requirement: the set-up repeats are few by design).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v[(v.len() - 1) / 2]
}

/// Most chunks [`chunked`] splits a run's samples into.
pub const CHUNKS: usize = 10;

/// Interquartile mean: the mean of `xs` without its lowest and highest
/// quarter (`len / 4` values from each end).
pub fn interquartile_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    mean(&v[cut..v.len() - cut])
}

/// The interquartile mean, over contiguous chunks of `samples` (in the
/// order they were taken), of `stat` of each chunk. The host this
/// benchmark was sized on has phases of seconds in which everything runs
/// up to 40% slower. A phase that overlaps a quarter of the chunks or less
/// drops out with the extreme quarters, while a change to the program moves
/// every chunk. Unlike a median, the mean of the middle half moves smoothly
/// with the share of the run the host spent slow: road-warm's ops all cost
/// about the same, so a median lands in either the fast or the slow phase.
/// There are as many chunks as hold `per_chunk` samples each, at most
/// [`CHUNKS`]; `None` when not even one does.
pub fn chunked(samples: &[f64], per_chunk: usize, stat: impl Fn(&[f64]) -> f64) -> Option<f64> {
    let n = samples.len();
    let chunks = (n / per_chunk.max(1)).min(CHUNKS);
    (chunks > 0).then(|| {
        let values: Vec<f64> = (0..chunks)
            .map(|i| stat(&samples[i * n / chunks..(i + 1) * n / chunks]))
            .collect();
        interquartile_mean(&values)
    })
}

/// Percentile `p` of `samples` (in the order they were taken) as the
/// interquartile mean of the chunks' nearest-rank percentiles (see
/// [`chunked`]); every chunk holds enough samples for `p`.
pub fn chunked_percentile(samples: &[f64], p: f64) -> Option<f64> {
    chunked(samples, min_samples(p), |chunk| {
        let mut sorted = chunk.to_vec();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p).expect("a chunk holds min_samples(p) samples")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_values() {
        let xs = ramp(100);
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        let xs = ramp(101);
        // ceil(0.5 · 101) = 51, ceil(0.9 · 101) = 91.
        assert_eq!(percentile(&xs, 50.0), Some(51.0));
        assert_eq!(percentile(&xs, 90.0), Some(91.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(50.0), 20);
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
        assert_eq!(percentile(&ramp(19), 50.0), None);
        assert_eq!(percentile(&ramp(20), 50.0), Some(10.0));
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(1009), 99.9), None);
    }

    #[test]
    fn chunks_hold_enough_samples_and_number_at_most_ten() {
        let count = |n: usize, per: usize| {
            let calls = std::cell::Cell::new(0);
            chunked(&ramp(n), per, |c| {
                assert!(c.len() >= per);
                calls.set(calls.get() + 1);
                0.0
            });
            calls.get()
        };
        assert_eq!(count(99, 100), 0);
        assert_eq!(count(250, 100), 2);
        assert_eq!(count(5000, 100), CHUNKS);
        assert_eq!(chunked_percentile(&ramp(99), 90.0), None);
        // One chunk of 1..=100: its nearest-rank p90.
        assert_eq!(chunked_percentile(&ramp(100), 90.0), Some(90.0));
    }

    #[test]
    fn a_short_slow_phase_drops_out() {
        // 1,000 ops of 1 ms; ops 300..500 (two chunks) ran 40% slower.
        let ms: Vec<f64> = (0..1000)
            .map(|i| if (300..500).contains(&i) { 1.4 } else { 1.0 })
            .collect();
        assert_eq!(chunked_percentile(&ms, 50.0), Some(1.0));
        let rate = chunked(&ms, 1, |c| c.len() as f64 / c.iter().sum::<f64>());
        assert_eq!(rate, Some(1.0));
        // A change that slows every op moves the figure.
        let slower: Vec<f64> = ms.iter().map(|x| x * 1.5).collect();
        assert_eq!(chunked_percentile(&slower, 50.0), Some(1.5));
    }

    #[test]
    fn interquartile_mean_drops_the_extreme_quarters() {
        assert_eq!(interquartile_mean(&[9.0, 1.0, 2.0, 3.0, 0.0]), 2.0);
        assert_eq!(interquartile_mean(&[1.0, 2.0, 3.0]), 2.0);
        // Ten chunks, four of them slow: the middle six average smoothly.
        let mut chunks = vec![1.0; 6];
        chunks.extend([2.0; 4]);
        assert_eq!(interquartile_mean(&chunks), 8.0 / 6.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&ramp(50), 0.0), None);
        assert_eq!(percentile(&ramp(50), 101.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
