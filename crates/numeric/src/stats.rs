//! Confidence intervals, histogram quantiles, and the paper's accuracy
//! metrics.

use crate::kahan::NeumaierSum;

/// Nominal coverage of a confidence interval.
///
/// An enum (rather than a raw `f64`) so the level can participate in
/// `Eq`/`Hash` keys — e.g. a query-plan cache key — and so only levels with
/// a vetted normal quantile are representable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum ConfidenceLevel {
    /// 90% two-sided coverage (`z ≈ 1.6449`).
    P90,
    /// 95% two-sided coverage (`z ≈ 1.9600`). The conventional default.
    #[default]
    P95,
    /// 99% two-sided coverage (`z ≈ 2.5758`).
    P99,
}

impl ConfidenceLevel {
    /// The two-sided standard-normal quantile `z_{(1+level)/2}`.
    pub fn z(self) -> f64 {
        match self {
            ConfidenceLevel::P90 => 1.6448536269514722,
            ConfidenceLevel::P95 => 1.959963984540054,
            ConfidenceLevel::P99 => 2.5758293035489004,
        }
    }

    /// The nominal coverage probability as a fraction (e.g. `0.95`).
    pub fn coverage(self) -> f64 {
        match self {
            ConfidenceLevel::P90 => 0.90,
            ConfidenceLevel::P95 => 0.95,
            ConfidenceLevel::P99 => 0.99,
        }
    }
}

// Manual impl: the vendored serde_derive shim handles only structs.
#[cfg(feature = "serde")]
impl serde::Serialize for ConfidenceLevel {
    fn to_value(&self) -> serde::Value {
        serde::Value::F64(self.coverage())
    }
}

/// A two-sided confidence interval around a reliability estimate.
#[derive(Clone, Copy, Debug, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize))]
pub struct ConfidenceInterval {
    /// Lower endpoint (clamped into `[0, 1]`).
    pub lower: f64,
    /// Upper endpoint (clamped into `[0, 1]`).
    pub upper: f64,
    /// Nominal coverage level the interval was built for.
    pub level: ConfidenceLevel,
}

impl ConfidenceInterval {
    /// The degenerate interval `[x, x]` — used for exact answers, where the
    /// "estimator" has zero variance.
    pub fn exact(x: f64, level: ConfidenceLevel) -> Self {
        let x = x.clamp(0.0, 1.0);
        ConfidenceInterval {
            lower: x,
            upper: x,
            level,
        }
    }

    /// Interval width `upper − lower`.
    pub fn width(&self) -> f64 {
        (self.upper - self.lower).max(0.0)
    }

    /// Whether `x` lies inside the interval (inclusive).
    pub fn contains(&self, x: f64) -> bool {
        self.lower <= x && x <= self.upper
    }

    /// Intersect with proven bounds `[lo, hi]` (e.g. the S2BDD's
    /// `p_c ≤ R ≤ 1 − p_d`): the CI can never be looser than a proof.
    pub fn clamp_to(&self, lo: f64, hi: f64) -> Self {
        let lower = self.lower.max(lo).min(hi);
        ConfidenceInterval {
            lower,
            upper: self.upper.min(hi).max(lower),
            level: self.level,
        }
    }
}

/// Normal-approximation confidence interval `estimate ± z·√variance`,
/// clamped into `[0, 1]`.
///
/// Appropriate for the product estimator the solvers report: each per-part
/// estimator is a (stratified) sample mean, so for non-trivial sample
/// counts the CLT interval is the standard choice; a negative or NaN
/// variance input is treated as zero.
///
/// ```
/// use netrel_numeric::stats::{normal_ci, ConfidenceLevel};
/// let ci = normal_ci(0.5, 0.0001, ConfidenceLevel::P95);
/// assert!(ci.lower < 0.5 && 0.5 < ci.upper);
/// assert!((ci.width() - 2.0 * 1.96 * 0.01).abs() < 1e-3);
/// ```
pub fn normal_ci(estimate: f64, variance: f64, level: ConfidenceLevel) -> ConfidenceInterval {
    let sd = if variance.is_finite() && variance > 0.0 {
        variance.sqrt()
    } else {
        0.0
    };
    let half = level.z() * sd;
    ConfidenceInterval {
        lower: (estimate - half).clamp(0.0, 1.0),
        upper: (estimate + half).clamp(0.0, 1.0),
        level,
    }
}

/// Accuracy metrics over repeated searches, as defined in the paper's §7.6.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AccuracyReport {
    /// `Σ_i Σ_j (R_i − R̂_{i,j})² / (q1·q2)`
    pub variance: f64,
    /// `Σ_i Σ_j |R_i − R̂_{i,j}| / (q1·q2·R_i)`
    pub error_rate: f64,
    /// Number of `(i, j)` pairs included.
    pub pairs: usize,
}

/// Compute the paper's variance and error-rate metrics.
///
/// `per_search` holds, for each of the `q1` searches, the exact reliability
/// `R_i` and the `q2` approximations `R̂_{i,j}`. Searches with `R_i == 0`
/// contribute to the variance but are skipped in the error-rate denominator
/// (the paper's metric is undefined there); the skipped count is reflected in
/// a reduced pair count for the error rate.
pub fn accuracy(per_search: &[(f64, Vec<f64>)]) -> AccuracyReport {
    let mut var = NeumaierSum::new();
    let mut err = NeumaierSum::new();
    let mut pairs = 0usize;
    let mut err_pairs = 0usize;
    for (exact, approxes) in per_search {
        for &a in approxes {
            let d = exact - a;
            var.add(d * d);
            pairs += 1;
            if *exact > 0.0 {
                err.add(d.abs() / exact);
                err_pairs += 1;
            }
        }
    }
    AccuracyReport {
        variance: if pairs == 0 {
            0.0
        } else {
            var.total() / pairs as f64
        },
        error_rate: if err_pairs == 0 {
            0.0
        } else {
            err.total() / err_pairs as f64
        },
        pairs,
    }
}

/// Approximate `q`-quantile of a fixed-bucket histogram, Prometheus style.
///
/// `edges` are ascending bucket upper bounds; `counts` are per-bucket
/// (non-cumulative) observation counts with one extra trailing entry for the
/// implicit `+Inf` bucket (`counts.len() == edges.len() + 1`). The quantile
/// is located by cumulative rank and linearly interpolated within the
/// containing bucket, assuming a uniform spread between the bucket's bounds
/// (the first bucket interpolates from 0; a rank landing in the `+Inf`
/// bucket returns the last finite edge, the histogram's best lower bound).
/// Returns `NaN` for an empty histogram or malformed inputs.
pub fn histogram_quantile(edges: &[f64], counts: &[u64], q: f64) -> f64 {
    if counts.len() != edges.len() + 1 || !(0.0..=1.0).contains(&q) {
        return f64::NAN;
    }
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return f64::NAN;
    }
    let rank = q * total as f64;
    let mut cumulative = 0.0f64;
    for (i, &c) in counts.iter().enumerate() {
        let next = cumulative + c as f64;
        if rank <= next && c > 0 {
            if i >= edges.len() {
                // +Inf bucket: the last finite edge is all we know.
                return edges.last().copied().unwrap_or(f64::NAN);
            }
            let lo = if i == 0 { 0.0 } else { edges[i - 1] };
            let hi = edges[i];
            let frac = ((rank - cumulative) / c as f64).clamp(0.0, 1.0);
            return lo + (hi - lo) * frac;
        }
        cumulative = next;
    }
    edges.last().copied().unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn histogram_quantile_interpolates_within_buckets() {
        let edges = [1.0, 2.0, 4.0];
        // 10 obs in (0,1], 10 in (1,2], 0 in (2,4], 0 beyond.
        let counts = [10, 10, 0, 0];
        assert!(close(histogram_quantile(&edges, &counts, 0.5), 1.0));
        assert!(close(histogram_quantile(&edges, &counts, 0.25), 0.5));
        assert!(close(histogram_quantile(&edges, &counts, 0.75), 1.5));
        assert!(close(histogram_quantile(&edges, &counts, 1.0), 2.0));
    }

    #[test]
    fn histogram_quantile_edge_cases() {
        let edges = [1.0, 2.0];
        assert!(histogram_quantile(&edges, &[0, 0, 0], 0.5).is_nan());
        assert!(
            histogram_quantile(&edges, &[1, 1], 0.5).is_nan(),
            "length mismatch"
        );
        assert!(
            histogram_quantile(&edges, &[1, 0, 0], 2.0).is_nan(),
            "q out of range"
        );
        // Everything in +Inf: best lower bound is the last finite edge.
        assert!(close(histogram_quantile(&edges, &[0, 0, 5], 0.5), 2.0));
    }

    #[test]
    fn accuracy_paper_formulas() {
        // Two searches, two runs each.
        let data = vec![(0.5, vec![0.4, 0.6]), (0.25, vec![0.25, 0.20])];
        let rep = accuracy(&data);
        let var = ((0.1f64).powi(2) + (0.1f64).powi(2) + 0.0 + (0.05f64).powi(2)) / 4.0;
        assert!(close(rep.variance, var));
        let err = (0.1 / 0.5 + 0.1 / 0.5 + 0.0 + 0.05 / 0.25) / 4.0;
        assert!(close(rep.error_rate, err));
        assert_eq!(rep.pairs, 4);
    }

    #[test]
    fn accuracy_zero_exact_skipped_in_error_rate() {
        let data = vec![(0.0, vec![0.1]), (0.5, vec![0.5])];
        let rep = accuracy(&data);
        assert!(close(rep.variance, 0.01 / 2.0));
        assert!(close(rep.error_rate, 0.0));
    }

    #[test]
    fn accuracy_empty() {
        let rep = accuracy(&[]);
        assert_eq!(rep.variance, 0.0);
        assert_eq!(rep.error_rate, 0.0);
        assert_eq!(rep.pairs, 0);
    }

    #[test]
    fn normal_ci_symmetric_and_clamped() {
        let ci = normal_ci(0.5, 0.01, ConfidenceLevel::P95);
        assert!(close(0.5 - ci.lower, ci.upper - 0.5));
        assert!(ci.contains(0.5));
        // Near the boundary the interval clamps into [0, 1].
        let edge = normal_ci(0.999, 0.01, ConfidenceLevel::P99);
        assert_eq!(edge.upper, 1.0);
        assert!(edge.lower >= 0.0);
    }

    #[test]
    fn normal_ci_zero_or_bad_variance_is_degenerate() {
        for bad in [0.0, -1.0, f64::NAN] {
            let ci = normal_ci(0.3, bad, ConfidenceLevel::P95);
            assert_eq!((ci.lower, ci.upper), (0.3, 0.3));
        }
        let ex = ConfidenceInterval::exact(0.7, ConfidenceLevel::P90);
        assert_eq!(ex.width(), 0.0);
        assert!(ex.contains(0.7));
    }

    #[test]
    fn wider_level_gives_wider_interval() {
        let v = 0.004;
        let w90 = normal_ci(0.5, v, ConfidenceLevel::P90).width();
        let w95 = normal_ci(0.5, v, ConfidenceLevel::P95).width();
        let w99 = normal_ci(0.5, v, ConfidenceLevel::P99).width();
        assert!(w90 < w95 && w95 < w99);
    }

    #[test]
    fn clamp_to_respects_proven_bounds() {
        let ci = normal_ci(0.5, 0.04, ConfidenceLevel::P95); // roughly [0.11, 0.89]
        let clamped = ci.clamp_to(0.4, 0.6);
        assert_eq!((clamped.lower, clamped.upper), (0.4, 0.6));
        // Clamping to a point collapses the interval without inverting it.
        let point = ci.clamp_to(0.5, 0.5);
        assert!(point.lower <= point.upper);
        assert_eq!(point.width(), 0.0);
    }

    #[test]
    fn levels_expose_consistent_quantiles() {
        assert!(ConfidenceLevel::P90.z() < ConfidenceLevel::P95.z());
        assert!(ConfidenceLevel::P95.z() < ConfidenceLevel::P99.z());
        assert!(close(ConfidenceLevel::P95.coverage(), 0.95));
        assert_eq!(ConfidenceLevel::default(), ConfidenceLevel::P95);
    }
}
