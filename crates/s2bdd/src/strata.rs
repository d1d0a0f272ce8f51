//! Stratum accounting for the stratified sampling procedure (paper §4.3.3).
//!
//! Each stratum is a set of possible worlds with known total probability
//! mass: either the worlds below the nodes deleted at one layer, or the
//! worlds below the nodes still live when the sample budget ran out. The
//! overall estimate is `p_c + Σ mass_i · r̂_i`, where `r̂_i` is the
//! within-stratum conditional reliability estimated by the configured
//! estimator.

use crate::config::EstimatorKind;

/// One Horvitz–Thompson sample record: world identity hash, conditional
/// log-probability, connectivity indicator.
#[derive(Clone, Copy, Debug)]
pub struct HtRecord {
    /// FNV hash of the sampled edge states (world identity).
    pub hash: u64,
    /// `ln Pr[world | stratum node]`.
    pub ln_p: f64,
    /// Whether the terminals were connected.
    pub connected: bool,
}

/// Accounting for one stratum.
#[derive(Clone, Debug, Default)]
pub struct Stratum {
    /// Layer at which the stratum's nodes were deleted (or `usize::MAX` for
    /// the live-node stratum of an early exit).
    pub layer: usize,
    /// Total probability mass of the stratum (sum of deleted nodes' `p_n`).
    pub mass: f64,
    /// Samples drawn.
    pub samples: usize,
    /// Connected samples.
    pub hits: usize,
    /// Per-sample records (Horvitz–Thompson only).
    pub ht_records: Vec<HtRecord>,
}

impl Stratum {
    /// New stratum with known mass.
    pub fn new(layer: usize, mass: f64) -> Self {
        Stratum {
            layer,
            mass,
            ..Default::default()
        }
    }

    /// Record a Monte Carlo draw.
    pub fn record_mc(&mut self, connected: bool) {
        self.samples += 1;
        self.hits += connected as usize;
    }

    /// Record a Horvitz–Thompson draw.
    pub fn record_ht(&mut self, hash: u64, ln_p: f64, connected: bool) {
        self.samples += 1;
        self.hits += connected as usize;
        self.ht_records.push(HtRecord {
            hash,
            ln_p,
            connected,
        });
    }

    /// Estimated conditional reliability `r̂ ∈ [0, 1]` within the stratum.
    pub fn conditional_estimate(&self, kind: EstimatorKind) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        match kind {
            EstimatorKind::MonteCarlo => self.hits as f64 / self.samples as f64,
            EstimatorKind::HorvitzThompson => {
                // HT over distinct sampled worlds: R̂ = Σ q_w I_w / π_w with
                // π_w = 1 - (1 - q_w)^s (paper §4.2).
                let s = self.samples as f64;
                let mut seen = std::collections::HashSet::new();
                let mut total = 0.0f64;
                for r in &self.ht_records {
                    if !r.connected || !seen.insert(r.hash) {
                        continue;
                    }
                    let q = r.ln_p.exp();
                    // 1 - (1-q)^s computed stably for tiny q. A world whose
                    // q underflows to 0 weighs the limit 1/s of q/π.
                    let pi = -((-q).ln_1p() * s).exp_m1();
                    total += if pi > 0.0 { q / pi } else { 1.0 / s };
                }
                total.clamp(0.0, 1.0)
            }
        }
    }

    /// Contribution `mass · r̂` to the overall estimate.
    pub fn estimate(&self, kind: EstimatorKind) -> f64 {
        self.mass * self.conditional_estimate(kind)
    }

    /// Within-stratum variance contribution `mass² · r̂(1-r̂)/s` (the Monte
    /// Carlo form; used as a reported diagnostic for both estimators).
    pub fn variance_contrib(&self, kind: EstimatorKind) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        let r = self.conditional_estimate(kind);
        self.mass * self.mass * r * (1.0 - r) / self.samples as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mc_estimate_is_hit_rate() {
        let mut s = Stratum::new(3, 0.4);
        for i in 0..10 {
            s.record_mc(i < 3);
        }
        assert!((s.conditional_estimate(EstimatorKind::MonteCarlo) - 0.3).abs() < 1e-12);
        assert!((s.estimate(EstimatorKind::MonteCarlo) - 0.12).abs() < 1e-12);
    }

    #[test]
    fn empty_stratum_contributes_zero() {
        let s = Stratum::new(0, 0.5);
        assert_eq!(s.estimate(EstimatorKind::MonteCarlo), 0.0);
        assert_eq!(s.variance_contrib(EstimatorKind::MonteCarlo), 0.0);
    }

    #[test]
    fn variance_shrinks_with_samples() {
        let mut a = Stratum::new(0, 1.0);
        let mut b = Stratum::new(0, 1.0);
        for i in 0..10 {
            a.record_mc(i % 2 == 0);
        }
        for i in 0..1000 {
            b.record_mc(i % 2 == 0);
        }
        assert!(
            b.variance_contrib(EstimatorKind::MonteCarlo)
                < a.variance_contrib(EstimatorKind::MonteCarlo)
        );
    }

    #[test]
    fn ht_single_world_recovers_probability() {
        // One world with conditional probability 0.2, sampled 5 times
        // (same hash): HT gives q/π where π = 1-(0.8)^5.
        let mut s = Stratum::new(0, 1.0);
        for _ in 0..5 {
            s.record_ht(42, 0.2f64.ln(), true);
        }
        let pi = 1.0 - 0.8f64.powi(5);
        let expect = 0.2 / pi;
        assert!((s.conditional_estimate(EstimatorKind::HorvitzThompson) - expect).abs() < 1e-12);
    }

    #[test]
    fn ht_ignores_disconnected_and_dedups() {
        let mut s = Stratum::new(0, 1.0);
        s.record_ht(1, 0.5f64.ln(), true);
        s.record_ht(1, 0.5f64.ln(), true); // duplicate world
        s.record_ht(2, 0.5f64.ln(), false); // disconnected
        let pi = 1.0 - 0.5f64.powi(3);
        let expect = 0.5 / pi;
        assert!((s.conditional_estimate(EstimatorKind::HorvitzThompson) - expect).abs() < 1e-12);
    }

    #[test]
    fn ht_estimate_clamped_to_unit() {
        let mut s = Stratum::new(0, 1.0);
        // Pathological records cannot push the estimate above 1.
        for h in 0..10u64 {
            s.record_ht(h, 0.9f64.ln(), true);
        }
        assert!(s.conditional_estimate(EstimatorKind::HorvitzThompson) <= 1.0);
    }

    #[test]
    fn ht_counts_underflowing_worlds_at_their_limit() {
        // exp(-800) is 0.0 in f64, yet each distinct connected world still
        // weighs lim q/π = 1/s: five of them with s = 5 read 1.
        let mut s = Stratum::new(0, 1.0);
        for h in 0..5u64 {
            s.record_ht(h, -800.0, true);
        }
        assert_eq!(s.conditional_estimate(EstimatorKind::HorvitzThompson), 1.0);
    }
}
