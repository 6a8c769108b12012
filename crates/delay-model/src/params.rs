//! Router parameters of the delay model.

use logical_effort::{Tau, CLOCK_TAU4};

/// The parameters that enter the paper's delay equations.
///
/// * `p` — number of physical channels (= crossbar ports; 5 for a 2-D mesh
///   router with an injection/ejection port, 7 for a 3-D mesh router).
/// * `v` — virtual channels per physical channel.
/// * `w` — channel width / phit size in bits.
/// * `clk` — clock cycle in τ (the paper uses 20 τ4 = 100 τ throughout).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouterParams {
    /// Number of physical channels (crossbar ports), `p ≥ 2`.
    pub p: u32,
    /// Virtual channels per physical channel, `v ≥ 1`.
    pub v: u32,
    /// Channel width (phit size) in bits, `w ≥ 1`.
    pub w: u32,
    /// Clock cycle, in τ.
    pub clk: Tau,
}

impl RouterParams {
    /// The paper's default configuration: p = 5, v = 2, w = 32, clk = 20 τ4.
    ///
    /// ```
    /// let p = delay_model::RouterParams::paper_default();
    /// assert_eq!(p.p, 5);
    /// assert_eq!(p.clk.value(), 100.0);
    /// ```
    #[must_use]
    pub fn paper_default() -> Self {
        RouterParams {
            p: 5,
            v: 2,
            w: 32,
            clk: CLOCK_TAU4.as_tau(),
        }
    }

    /// A configuration with the given channel counts, keeping the paper's
    /// phit size and clock.
    ///
    /// # Panics
    ///
    /// Panics if `p < 2` or `v < 1`.
    #[must_use]
    pub fn with_channels(p: u32, v: u32) -> Self {
        let params = RouterParams {
            p,
            v,
            w: 32,
            clk: CLOCK_TAU4.as_tau(),
        };
        params.validate();
        params
    }

    /// Returns a copy with a different clock cycle.
    #[must_use]
    pub fn with_clock(mut self, clk: Tau) -> Self {
        self.clk = clk;
        self
    }

    /// Returns a copy with a different phit size.
    #[must_use]
    pub fn with_width(mut self, w: u32) -> Self {
        self.w = w;
        self
    }

    /// Validates parameter ranges.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of its meaningful range.
    pub fn validate(&self) {
        assert!(
            self.p >= 2,
            "a router needs at least 2 ports, got {}",
            self.p
        );
        assert!(self.v >= 1, "v must be at least 1, got {}", self.v);
        assert!(self.w >= 1, "w must be at least 1, got {}", self.w);
        assert!(
            self.clk.value() > 0.0,
            "clock cycle must be positive, got {}",
            self.clk
        );
    }
}

impl Default for RouterParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_matches_table1_header() {
        let p = RouterParams::paper_default();
        assert_eq!((p.p, p.v, p.w), (5, 2, 32));
        assert_eq!(p.clk, Tau::new(100.0));
        p.validate();
    }

    #[test]
    fn builders_compose() {
        let p = RouterParams::with_channels(7, 8)
            .with_width(64)
            .with_clock(Tau::new(150.0));
        assert_eq!((p.p, p.v, p.w), (7, 8, 64));
        assert_eq!(p.clk, Tau::new(150.0));
    }

    #[test]
    #[should_panic(expected = "at least 2 ports")]
    fn single_port_rejected() {
        let _ = RouterParams::with_channels(1, 2);
    }

    #[test]
    #[should_panic(expected = "v must be at least 1")]
    fn zero_vcs_rejected() {
        let _ = RouterParams::with_channels(5, 0);
    }
}
