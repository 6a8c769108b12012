//! Delay units: τ and τ4.
//!
//! All delays in the model are technology independent. τ is the delay of an
//! inverter driving one identical inverter; τ4 = 5τ is the paper's "typical
//! gate delay" (an inverter driving four inverters, derived in the paper's
//! Figure 6). The canonical router clock is 20 τ4 = 100 τ — roughly 2 ns /
//! 500 MHz in the 0.18 µm process the paper validates against (τ4 = 90 ps).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A delay expressed in τ (unit-inverter delays).
///
/// `Tau` is a transparent newtype over `f64` with arithmetic and ordering.
/// NaN values are rejected at construction so `Ord`-like comparisons via
/// [`Tau::total_cmp`] are total in practice.
///
/// ```
/// use logical_effort::Tau;
/// let a = Tau::new(2.5) + Tau::new(2.5);
/// assert_eq!(a, Tau::new(5.0));
/// assert_eq!(a.as_tau4().value(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Tau(f64);

/// A delay expressed in τ4 (= 5 τ) units, the paper's gate-delay yardstick.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Tau4(f64);

/// One τ4 expressed in τ: the paper's Figure 6 derivation (g·h + p = 4 + 1).
pub const TAU4: Tau = Tau(5.0);

/// The canonical clock cycle used throughout the paper, in τ4.
pub const CLOCK_TAU4: Tau4 = Tau4(20.0);

impl Tau {
    /// Creates a delay of `value` τ.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN (infinite values are allowed and denote an
    /// unrealizable path).
    #[must_use]
    pub const fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "Tau cannot be NaN");
        Tau(value)
    }

    /// Zero delay.
    #[must_use]
    pub const fn zero() -> Self {
        Tau(0.0)
    }

    /// The raw value in τ.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to τ4 units (divides by 5).
    #[must_use]
    pub fn as_tau4(self) -> Tau4 {
        Tau4(self.0 / TAU4.0)
    }

    /// Total ordering (delegates to `f64::total_cmp`; `Tau` is never NaN).
    #[must_use]
    pub fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }

    /// The larger of two delays (used for parallel module composition).
    #[must_use]
    pub fn max(self, other: Self) -> Self {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Tau4 {
    /// Creates a delay of `value` τ4.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    #[must_use]
    pub const fn new(value: f64) -> Self {
        assert!(!value.is_nan(), "Tau4 cannot be NaN");
        Tau4(value)
    }

    /// The raw value in τ4.
    #[must_use]
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to τ (multiplies by 5).
    #[must_use]
    pub fn as_tau(self) -> Tau {
        Tau(self.0 * TAU4.0)
    }

    /// Total ordering (delegates to `f64::total_cmp`; `Tau4` is never NaN).
    #[must_use]
    pub fn total_cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

impl fmt::Display for Tau {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}τ", self.0)
    }
}

impl fmt::Display for Tau4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2}τ4", self.0)
    }
}

impl From<Tau4> for Tau {
    fn from(t: Tau4) -> Self {
        t.as_tau()
    }
}

impl From<Tau> for Tau4 {
    fn from(t: Tau) -> Self {
        t.as_tau4()
    }
}

macro_rules! impl_arith {
    ($ty:ident) => {
        impl Add for $ty {
            type Output = $ty;
            fn add(self, rhs: $ty) -> $ty {
                $ty(self.0 + rhs.0)
            }
        }
        impl AddAssign for $ty {
            fn add_assign(&mut self, rhs: $ty) {
                self.0 += rhs.0;
            }
        }
        impl Sub for $ty {
            type Output = $ty;
            fn sub(self, rhs: $ty) -> $ty {
                $ty(self.0 - rhs.0)
            }
        }
        impl SubAssign for $ty {
            fn sub_assign(&mut self, rhs: $ty) {
                self.0 -= rhs.0;
            }
        }
        impl Mul<f64> for $ty {
            type Output = $ty;
            fn mul(self, rhs: f64) -> $ty {
                $ty(self.0 * rhs)
            }
        }
        impl Mul<$ty> for f64 {
            type Output = $ty;
            fn mul(self, rhs: $ty) -> $ty {
                $ty(self * rhs.0)
            }
        }
        impl Div<f64> for $ty {
            type Output = $ty;
            fn div(self, rhs: f64) -> $ty {
                $ty(self.0 / rhs)
            }
        }
        impl Neg for $ty {
            type Output = $ty;
            fn neg(self) -> $ty {
                $ty(-self.0)
            }
        }
        impl Sum for $ty {
            fn sum<I: Iterator<Item = $ty>>(iter: I) -> $ty {
                iter.fold($ty(0.0), |acc, x| acc + x)
            }
        }
    };
}

impl_arith!(Tau);
impl_arith!(Tau4);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau4_is_five_tau() {
        assert_eq!(TAU4.value(), 5.0);
        assert_eq!(Tau4::new(1.0).as_tau(), Tau::new(5.0));
        assert_eq!(Tau::new(10.0).as_tau4(), Tau4::new(2.0));
    }

    #[test]
    fn clock_is_twenty_tau4() {
        assert_eq!(CLOCK_TAU4.value(), 20.0);
        assert_eq!(CLOCK_TAU4.as_tau(), Tau::new(100.0));
    }

    #[test]
    fn arithmetic_round_trip() {
        let a = Tau::new(3.0);
        let b = Tau::new(4.5);
        assert_eq!(a + b, Tau::new(7.5));
        assert_eq!(b - a, Tau::new(1.5));
        assert_eq!(a * 2.0, Tau::new(6.0));
        assert_eq!(2.0 * a, Tau::new(6.0));
        assert_eq!(b / 1.5, Tau::new(3.0));
        assert_eq!(-a, Tau::new(-3.0));
    }

    #[test]
    fn sum_of_tau_iterator() {
        let total: Tau = (1..=4).map(|i| Tau::new(f64::from(i))).sum();
        assert_eq!(total, Tau::new(10.0));
    }

    #[test]
    fn conversions_via_from() {
        let t: Tau = Tau4::new(2.0).into();
        assert_eq!(t, Tau::new(10.0));
        let t4: Tau4 = Tau::new(20.0).into();
        assert_eq!(t4, Tau4::new(4.0));
    }

    #[test]
    fn max_and_ordering() {
        assert_eq!(Tau::new(3.0).max(Tau::new(5.0)), Tau::new(5.0));
        assert!(Tau::new(1.0) < Tau::new(2.0));
        assert_eq!(
            Tau::new(1.0).total_cmp(&Tau::new(2.0)),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_rejected() {
        let _ = Tau::new(f64::NAN);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Tau::new(5.0).to_string(), "5.00τ");
        assert_eq!(Tau4::new(9.6).to_string(), "9.60τ4");
    }
}
