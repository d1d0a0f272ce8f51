//! Extended-exponent floating point.
//!
//! A [`WideFloat`] is `m * 2^e` with `m` an `f64` kept in `[0.5, 1)` (by
//! absolute value) and `e: i64`. It trades nothing in relative precision
//! against `f64` (same 53-bit mantissa) while extending the exponent range
//! from `2^±1024` to `2^±(2^63)`, enough to hold the existence probability of
//! any possible world of any graph this library can fit in memory.

use std::cmp::Ordering;
use std::fmt;

/// Decompose a finite non-zero `f64` into `(m, e)` with `x = m * 2^e` and
/// `|m| ∈ [0.5, 1)`. Zero returns `(0.0, 0)`.
#[inline]
pub fn frexp(x: f64) -> (f64, i32) {
    if x == 0.0 {
        return (0.0, 0);
    }
    debug_assert!(x.is_finite(), "frexp of non-finite value");
    let bits = x.to_bits();
    let exp_bits = ((bits >> 52) & 0x7ff) as i32;
    if exp_bits == 0 {
        // Subnormal: scale into the normal range first.
        let scaled = x * f64::from_bits(((1023 + 64) as u64) << 52); // x * 2^64
        let (m, e) = frexp(scaled);
        (m, e - 64)
    } else {
        let e = exp_bits - 1022;
        let m = f64::from_bits((bits & !(0x7ffu64 << 52)) | (1022u64 << 52));
        (m, e)
    }
}

/// `m * 2^e` for possibly out-of-range `e`, saturating to `0` / `±inf`.
#[inline]
fn ldexp(m: f64, e: i64) -> f64 {
    if m == 0.0 {
        return 0.0;
    }
    if e > 1100 {
        return if m > 0.0 {
            f64::INFINITY
        } else {
            f64::NEG_INFINITY
        };
    }
    if e < -1150 {
        return if m.is_sign_negative() { -0.0 } else { 0.0 };
    }
    // Split the scaling so each factor stays within f64's exponent range.
    let half = (e / 2) as i32;
    let rest = (e - half as i64) as i32;
    m * pow2(half) * pow2(rest)
}

#[inline]
fn pow2(e: i32) -> f64 {
    debug_assert!((-1022..=1023).contains(&e));
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// A sign-magnitude float with an `i64` binary exponent.
///
/// Invariant: either the value is exactly zero (`m == 0.0, e == 0`) or
/// `|m| ∈ [0.5, 1)`.
#[derive(Clone, Copy, Debug)]
pub struct WideFloat {
    m: f64,
    e: i64,
}

impl WideFloat {
    /// The value `0`.
    pub const ZERO: WideFloat = WideFloat { m: 0.0, e: 0 };
    /// The value `1`.
    pub const ONE: WideFloat = WideFloat { m: 0.5, e: 1 };

    /// Build from a finite `f64`.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        debug_assert!(x.is_finite(), "WideFloat::from_f64({x})");
        let (m, e) = frexp(x);
        WideFloat { m, e: e as i64 }
    }

    /// Raw constructor from mantissa and exponent; normalizes.
    #[inline]
    pub fn new(m: f64, e: i64) -> Self {
        if m == 0.0 {
            return Self::ZERO;
        }
        let (nm, ne) = frexp(m);
        WideFloat {
            m: nm,
            e: e.saturating_add(ne as i64),
        }
    }

    /// Convert back to `f64`, saturating to `0` or `±inf` when out of range.
    #[inline]
    pub fn to_f64(self) -> f64 {
        ldexp(self.m, self.e)
    }

    /// Mantissa in `[0.5, 1)` (absolute value), or `0`.
    #[inline]
    pub fn mantissa(self) -> f64 {
        self.m
    }

    /// Binary exponent.
    #[inline]
    pub fn exponent(self) -> i64 {
        self.e
    }

    /// `true` iff the value is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.m == 0.0
    }

    /// Natural logarithm; `-inf` for zero. Panics in debug mode on negatives.
    #[inline]
    pub fn ln(self) -> f64 {
        if self.is_zero() {
            return f64::NEG_INFINITY;
        }
        debug_assert!(self.m > 0.0, "ln of negative WideFloat");
        self.m.ln() + self.e as f64 * std::f64::consts::LN_2
    }

    /// Base-10 logarithm; `-inf` for zero.
    #[inline]
    pub fn log10(self) -> f64 {
        self.ln() / std::f64::consts::LN_10
    }

    /// Build `exp(x)` from a (possibly very negative) natural-log value.
    pub fn exp(x: f64) -> Self {
        if x == f64::NEG_INFINITY {
            return Self::ZERO;
        }
        debug_assert!(x.is_finite());
        let e2 = x / std::f64::consts::LN_2;
        let ei = e2.floor();
        let frac = (e2 - ei) * std::f64::consts::LN_2;
        WideFloat::new(frac.exp(), ei as i64)
    }

    /// Multiply by a finite `f64`.
    #[inline]
    pub fn mul_f64(self, x: f64) -> Self {
        self * WideFloat::from_f64(x)
    }
}

impl std::ops::Mul for WideFloat {
    type Output = Self;

    #[inline]
    fn mul(self, rhs: WideFloat) -> Self {
        if self.is_zero() || rhs.is_zero() {
            return Self::ZERO;
        }
        // |m1*m2| in [0.25, 1): renormalization shifts by at most one bit.
        let m = self.m * rhs.m;
        let e = self.e.saturating_add(rhs.e);
        if m.abs() >= 0.5 {
            WideFloat { m, e }
        } else {
            WideFloat {
                m: m * 2.0,
                e: e - 1,
            }
        }
    }
}

impl std::ops::MulAssign for WideFloat {
    #[inline]
    fn mul_assign(&mut self, rhs: WideFloat) {
        *self = *self * rhs;
    }
}

/// Division. Panics in debug mode on division by zero.
impl std::ops::Div for WideFloat {
    type Output = Self;

    #[inline]
    fn div(self, rhs: WideFloat) -> Self {
        debug_assert!(!rhs.is_zero(), "WideFloat division by zero");
        if self.is_zero() {
            return Self::ZERO;
        }
        WideFloat::new(self.m / rhs.m, self.e - rhs.e)
    }
}

impl std::ops::Add for WideFloat {
    type Output = Self;

    #[inline]
    fn add(self, rhs: WideFloat) -> Self {
        if self.is_zero() {
            return rhs;
        }
        if rhs.is_zero() {
            return self;
        }
        let (hi, lo) = if self.e >= rhs.e {
            (self, rhs)
        } else {
            (rhs, self)
        };
        let d = hi.e - lo.e;
        if d > 64 {
            // lo is below hi's precision; adding it cannot change the result.
            return hi;
        }
        WideFloat::new(hi.m + ldexp(lo.m, -d), hi.e)
    }
}

impl std::ops::AddAssign for WideFloat {
    #[inline]
    fn add_assign(&mut self, rhs: WideFloat) {
        *self = *self + rhs;
    }
}

impl std::ops::Sub for WideFloat {
    type Output = Self;

    #[inline]
    fn sub(self, rhs: WideFloat) -> Self {
        self + (-rhs)
    }
}

impl std::ops::Neg for WideFloat {
    type Output = Self;

    #[inline]
    fn neg(self) -> Self {
        WideFloat {
            m: -self.m,
            e: self.e,
        }
    }
}

impl Default for WideFloat {
    fn default() -> Self {
        Self::ZERO
    }
}

impl PartialEq for WideFloat {
    fn eq(&self, other: &Self) -> bool {
        self.m == other.m && (self.is_zero() || self.e == other.e)
    }
}

impl PartialOrd for WideFloat {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        let (a, b) = (self, other);
        let sa = if a.m > 0.0 {
            1
        } else if a.m < 0.0 {
            -1
        } else {
            0
        };
        let sb = if b.m > 0.0 {
            1
        } else if b.m < 0.0 {
            -1
        } else {
            0
        };
        if sa != sb {
            return sa.partial_cmp(&sb);
        }
        if sa == 0 {
            return Some(Ordering::Equal);
        }
        // Same non-zero sign: compare exponents first (flipped for negatives).
        let ord = match a.e.cmp(&b.e) {
            Ordering::Equal => a.m.partial_cmp(&b.m)?,
            o => {
                if sa > 0 {
                    o
                } else {
                    o.reverse()
                }
            }
        };
        Some(ord)
    }
}

impl From<f64> for WideFloat {
    fn from(x: f64) -> Self {
        WideFloat::from_f64(x)
    }
}

impl fmt::Display for WideFloat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let sign = if self.m < 0.0 { "-" } else { "" };
        let log10 =
            (self.m.abs().ln() + self.e as f64 * std::f64::consts::LN_2) / std::f64::consts::LN_10;
        let d = log10.floor();
        let mant = 10f64.powf(log10 - d);
        write!(f, "{sign}{mant:.6}e{}", d as i64)
    }
}

/// Sum an iterator of `WideFloat`s.
impl std::iter::Sum for WideFloat {
    fn sum<I: Iterator<Item = WideFloat>>(iter: I) -> Self {
        iter.fold(WideFloat::ZERO, |acc, x| acc + x)
    }
}

/// Product of an iterator of `WideFloat`s.
impl std::iter::Product for WideFloat {
    fn product<I: Iterator<Item = WideFloat>>(iter: I) -> Self {
        iter.fold(WideFloat::ONE, |acc, x| acc * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn frexp_roundtrip() {
        for &x in &[0.0, 1.0, -1.0, 0.5, 0.7, 1e300, -1e-300, 3.5e-310, 123.456] {
            let (m, e) = frexp(x);
            if x != 0.0 {
                assert!((0.5..1.0).contains(&m.abs()), "m={m} for x={x}");
            }
            // Recombine via the library's ldexp (two-step scaling) so the
            // subnormal case rounds once, not twice.
            assert_eq!(
                WideFloat::new(m, e as i64).to_f64(),
                x,
                "roundtrip failed for {x}"
            );
        }
    }

    #[test]
    fn from_to_f64_roundtrip() {
        for &x in &[0.0, 1.0, -2.5, 1e-200, 7e105, -3.25] {
            assert_eq!(WideFloat::from_f64(x).to_f64(), x);
        }
    }

    #[test]
    fn constants() {
        assert_eq!(WideFloat::ZERO.to_f64(), 0.0);
        assert_eq!(WideFloat::ONE.to_f64(), 1.0);
        assert!(WideFloat::ZERO.is_zero());
        assert!(!WideFloat::ONE.is_zero());
    }

    #[test]
    fn mul_matches_f64() {
        let a = WideFloat::from_f64(0.3);
        let b = WideFloat::from_f64(0.7);
        assert!(close((a * b).to_f64(), 0.21, 1e-15));
    }

    #[test]
    fn mul_underflow_range() {
        // 0.2^250_000 underflows f64 but must survive in WideFloat.
        let p = WideFloat::from_f64(0.2);
        let mut acc = WideFloat::ONE;
        for _ in 0..250_000 {
            acc *= p;
        }
        assert!(!acc.is_zero());
        let expect_ln = 250_000.0 * 0.2f64.ln();
        assert!(
            close(acc.ln(), expect_ln, 1e-10),
            "{} vs {}",
            acc.ln(),
            expect_ln
        );
        // And dividing back up recovers ~1.
        let mut back = acc;
        for _ in 0..250_000 {
            back = back / p;
        }
        assert!(close(back.to_f64(), 1.0, 1e-9));
    }

    #[test]
    fn add_alignment() {
        let a = WideFloat::from_f64(1.0);
        let b = WideFloat::from_f64(3.0);
        assert!(close((a + b).to_f64(), 4.0, 1e-15));
        // Adding something 2^-100 smaller leaves the value unchanged.
        let tiny = WideFloat::new(0.5, -100);
        assert_eq!((a + tiny).to_f64(), 1.0);
    }

    #[test]
    fn add_cancellation() {
        let a = WideFloat::from_f64(1.0);
        assert!((a - a).is_zero());
        let b = WideFloat::from_f64(0.75);
        assert!(close((a - b).to_f64(), 0.25, 1e-15));
    }

    #[test]
    fn ordering() {
        let a = WideFloat::from_f64(0.2);
        let b = WideFloat::from_f64(0.3);
        assert!(a < b);
        assert!(b > a);
        assert!(WideFloat::ZERO < a);
        assert!((-a) < WideFloat::ZERO);
        assert!((-a) > (-b));
        // Exponent-dominant comparison.
        let big = WideFloat::new(0.5, 100);
        let small = WideFloat::new(0.9, 50);
        assert!(big > small);
        assert!((-big) < (-small));
    }

    #[test]
    fn exp_ln_roundtrip() {
        for &lnx in &[-1e5, -700.0, -1.0, 0.0, 3.0, 800.0] {
            let w = WideFloat::exp(lnx);
            assert!(close(w.ln(), lnx, 1e-12), "{} vs {}", w.ln(), lnx);
        }
        assert!(WideFloat::exp(f64::NEG_INFINITY).is_zero());
    }

    #[test]
    fn sum_product_iters() {
        let xs = [0.1, 0.2, 0.3].map(WideFloat::from_f64);
        let s: WideFloat = xs.iter().copied().sum();
        assert!(close(s.to_f64(), 0.6, 1e-14));
        let p: WideFloat = xs.iter().copied().product();
        assert!(close(p.to_f64(), 0.006, 1e-14));
    }

    #[test]
    fn display_scientific() {
        let w = WideFloat::new(0.5, -5000);
        let s = format!("{w}");
        assert!(s.contains('e'), "{s}");
    }

    proptest::proptest! {
        /// Inside f64's comfortable range, WideFloat arithmetic matches f64
        /// to relative 1e-14.
        #[test]
        fn mul_matches_f64_in_range(a in -1e60f64..1e60, b in -1e60f64..1e60) {
            let w = (WideFloat::from_f64(a) * WideFloat::from_f64(b)).to_f64();
            let f = a * b;
            proptest::prop_assert!(close(w, f, 1e-14), "{} vs {}", w, f);
        }

        #[test]
        fn add_matches_f64_in_range(a in -1e60f64..1e60, b in -1e60f64..1e60) {
            let w = (WideFloat::from_f64(a) + WideFloat::from_f64(b)).to_f64();
            let f = a + b;
            proptest::prop_assert!(close(w, f, 1e-14), "{} vs {}", w, f);
        }

        #[test]
        fn ordering_matches_f64(a in -1e60f64..1e60, b in -1e60f64..1e60) {
            let wa = WideFloat::from_f64(a);
            let wb = WideFloat::from_f64(b);
            proptest::prop_assert_eq!(wa.partial_cmp(&wb), a.partial_cmp(&b));
        }

        /// Multiplying k probabilities never underflows to zero and keeps
        /// the exact log-sum.
        #[test]
        fn long_products_track_log_domain(ps in proptest::collection::vec(0.01f64..1.0, 1..200)) {
            let mut acc = WideFloat::ONE;
            let mut ln = 0.0f64;
            for &p in &ps {
                acc = acc.mul_f64(p);
                ln += p.ln();
            }
            proptest::prop_assert!(!acc.is_zero());
            proptest::prop_assert!((acc.ln() - ln).abs() < 1e-9 * (1.0 + ln.abs()));
        }
    }
}
