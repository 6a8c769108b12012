//! The delay units and logarithms of the Peh–Dally router delay model
//! (HPCA 2001).
//!
//! The paper derives every atomic-module delay with the *method of
//! logical effort* (Sproull & Sutherland; Sutherland, Sproull & Harris)
//! and states the result as a closed form in τ, the delay of an inverter
//! driving an identical inverter. Its "typical gate delay" unit is
//! τ4 = 5τ, an inverter driving four copies of itself (Figure 6:
//! g·h + p = 1·4 + 1), and its canonical clock cycle is 20 τ4. The
//! closed forms themselves live in the `delay-model` crate; this crate
//! holds the units they are written in ([`Tau`], [`Tau4`], [`TAU4`],
//! [`CLOCK_TAU4`]) and the base-4 and base-8 logarithms their stage
//! counts take ([`log4`], [`log8`]).
//!
//! # Example
//!
//! The paper's worked example (Figure 6): an inverter driving four other
//! inverters has delay τ4 = 5τ, and the 20 τ4 clock is 100 τ.
//!
//! ```
//! use logical_effort::{Tau, CLOCK_TAU4, TAU4};
//!
//! let (g, h, p) = (1.0, 4.0, 1.0); // inverter: logical effort, fanout, parasitic
//! assert_eq!(Tau::new(g * h + p), TAU4);
//! assert_eq!(CLOCK_TAU4.as_tau(), Tau::new(100.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod tau;

pub use tau::{Tau, Tau4, CLOCK_TAU4, TAU4};

/// Base-4 logarithm, the staple of the paper's parametric equations
/// (stage counts of fanout-of-4 buffer trees and arbiter trees).
///
/// # Panics
///
/// Panics if `x` is not strictly positive (a gate tree over zero inputs is
/// meaningless in the model).
///
/// ```
/// assert!((logical_effort::log4(4.0) - 1.0).abs() < 1e-12);
/// assert!((logical_effort::log4(16.0) - 2.0).abs() < 1e-12);
/// ```
pub fn log4(x: f64) -> f64 {
    assert!(
        x > 0.0,
        "log4 requires a strictly positive argument, got {x}"
    );
    x.log2() / 2.0
}

/// Base-8 logarithm, used in the crossbar traversal delay equation.
///
/// # Panics
///
/// Panics if `x` is not strictly positive.
pub fn log8(x: f64) -> f64 {
    assert!(
        x > 0.0,
        "log8 requires a strictly positive argument, got {x}"
    );
    x.log2() / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log4_known_values() {
        assert!((log4(1.0) - 0.0).abs() < 1e-12);
        assert!((log4(2.0) - 0.5).abs() < 1e-12);
        assert!((log4(64.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn log8_known_values() {
        assert!((log8(8.0) - 1.0).abs() < 1e-12);
        assert!((log8(64.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn log4_rejects_zero() {
        let _ = log4(0.0);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn log8_rejects_negative() {
        let _ = log8(-1.0);
    }
}
