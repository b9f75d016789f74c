//! Access-frequency weights.
//!
//! The paper associates each data node `Di` with a weight `W(Di)` — its
//! average access frequency. Weights appear in the objective (formula 1) and
//! in every swap lemma, so they get a dedicated newtype that statically rules
//! out NaN and negative values: all comparison-based pruning rules assume a
//! total order on weights.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A validated, non-negative, finite access frequency.
///
/// `Weight` implements `Ord` (safe because NaN is rejected at construction),
/// which lets the pruning properties of the paper — all phrased as weight
/// comparisons — use ordinary comparison operators and sorting.
#[derive(Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Weight(f64);

/// Error returned when constructing a [`Weight`] from an invalid float.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightError {
    /// The value was NaN or infinite.
    NotFinite,
    /// The value was negative.
    Negative,
}

impl fmt::Display for WeightError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WeightError::NotFinite => write!(f, "weight must be finite"),
            WeightError::Negative => write!(f, "weight must be non-negative"),
        }
    }
}

impl std::error::Error for WeightError {}

impl Weight {
    /// The zero weight (used for index nodes, which do not contribute to the
    /// data wait).
    pub const ZERO: Weight = Weight(0.0);

    /// Validating constructor. `-0.0` is accepted and stored as `+0.0`, so
    /// every zero weight has the same bits: order-by-bits consumers (the
    /// sorting heuristic's density keys) would otherwise rank `-0.0` apart
    /// from, and ahead of, every positive weight.
    pub fn new(value: f64) -> Result<Self, WeightError> {
        if !value.is_finite() {
            Err(WeightError::NotFinite)
        } else if value < 0.0 {
            Err(WeightError::Negative)
        } else {
            // `value` is `+x` or `-0.0` here; `abs` maps only the latter.
            Ok(Weight(value.abs()))
        }
    }

    /// Returns the raw frequency value.
    #[inline]
    pub fn get(self) -> f64 {
        self.0
    }

    /// True if this weight is exactly zero.
    #[inline]
    pub fn is_zero(self) -> bool {
        self.0 == 0.0
    }
}

impl Eq for Weight {}

// Safe: construction rejects NaN, so `partial_cmp` never fails.
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for Weight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("Weight is never NaN by construction")
    }
}

impl TryFrom<f64> for Weight {
    type Error = WeightError;

    fn try_from(value: f64) -> Result<Self, Self::Error> {
        Weight::new(value)
    }
}

impl From<u32> for Weight {
    fn from(value: u32) -> Self {
        Weight(f64::from(value))
    }
}

impl Add for Weight {
    type Output = Weight;
    #[inline]
    fn add(self, rhs: Weight) -> Weight {
        Weight(self.0 + rhs.0)
    }
}

impl AddAssign for Weight {
    #[inline]
    fn add_assign(&mut self, rhs: Weight) {
        self.0 += rhs.0;
    }
}

impl Sub for Weight {
    type Output = Weight;
    /// Saturating at zero: weights are non-negative by invariant, and the
    /// only subtraction the algorithms perform is removing a part from a
    /// previously computed sum, where floating-point rounding could otherwise
    /// produce `-1e-16`-style values.
    #[inline]
    fn sub(self, rhs: Weight) -> Weight {
        Weight((self.0 - rhs.0).max(0.0))
    }
}

impl Mul<u64> for Weight {
    type Output = f64;
    /// Weighted wait contribution `W(Di) · T(Di)` of formula (1).
    #[inline]
    fn mul(self, slots: u64) -> f64 {
        self.0 * slots as f64
    }
}

impl Div for Weight {
    type Output = f64;
    #[inline]
    fn div(self, rhs: Weight) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Weight {
    fn sum<I: Iterator<Item = Weight>>(iter: I) -> Weight {
        iter.fold(Weight::ZERO, Add::add)
    }
}

impl fmt::Debug for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Weight {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_nan_and_negative() {
        assert_eq!(Weight::new(f64::NAN), Err(WeightError::NotFinite));
        assert_eq!(Weight::new(f64::INFINITY), Err(WeightError::NotFinite));
        assert_eq!(Weight::new(-1.0), Err(WeightError::Negative));
        assert!(Weight::new(0.0).is_ok());
    }

    #[test]
    fn negative_zero_is_stored_as_zero() {
        let w = Weight::new(-0.0).unwrap();
        assert_eq!(w.get().to_bits(), 0.0f64.to_bits());
        assert_eq!(w, Weight::ZERO);
    }

    #[test]
    fn arithmetic_matches_f64() {
        let a = Weight::from(20u32);
        let b = Weight::from(15u32);
        assert_eq!((a + b).get(), 35.0);
        assert_eq!(a * 3, 60.0);
        assert_eq!(a / b, 20.0 / 15.0);
        let mut c = a;
        c += b;
        assert_eq!(c.get(), 35.0);
    }

    #[test]
    fn subtraction_saturates_at_zero() {
        let a = Weight::from(1u32);
        let b = Weight::from(2u32);
        assert_eq!((a - b).get(), 0.0);
        assert_eq!((b - a).get(), 1.0);
    }

    #[test]
    fn total_order_allows_sorting() {
        let mut v = [Weight::from(7u32), Weight::from(20u32), Weight::from(10u32)];
        v.sort();
        assert_eq!(v[0].get(), 7.0);
        assert_eq!(v[2].get(), 20.0);
    }

    #[test]
    fn sum_of_weights() {
        let total: Weight = [20u32, 10, 18, 15, 7]
            .iter()
            .map(|&w| Weight::from(w))
            .sum();
        // Total weight of the paper's Fig. 1(a) example tree.
        assert_eq!(total.get(), 70.0);
    }
}
