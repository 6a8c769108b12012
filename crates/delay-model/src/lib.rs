//! The Peh–Dally router delay model (HPCA 2001).
//!
//! This crate implements the paper's *specific router model* — parametric,
//! technology-independent delay equations for every atomic module of
//! wormhole, virtual-channel (VC) and speculative VC routers (Table 1 of
//! the paper) — and its *general router model*: the EQ 1 procedure that
//! packs atomic modules into pipeline stages given a clock cycle.
//!
//! # Units and conventions
//!
//! All delays are in τ (unit-inverter delay) from the `logical-effort`
//! crate; the paper's canonical clock is 20 τ4 = 100 τ. Every atomic module
//! has a *latency* `t` (inputs presented → outputs stable) and an
//! *overhead* `h` (extra circuitry before the next inputs can be accepted,
//! e.g. arbiter priority updates).
//!
//! # Equation provenance
//!
//! The equation images in the available paper text are OCR-garbled; each
//! closed form here was reconstructed to match the numeric model column of
//! Table 1 **exactly** (p = 5, w = 32, v = 2, clk = 20 τ4): 9.6, 8.4, 11.8,
//! 13.1, 16.9, 10.9 τ4 for SB, XB, VC(Rv/Rp/Rpv), SL, and 14.6/14.6/18.3 τ4
//! for the combined speculative allocation stage under the three routing
//! functions.
//!
//! # Example
//!
//! ```
//! use delay_model::{RouterParams, canonical, FlowControl, RoutingFunction};
//!
//! let params = RouterParams::paper_default(); // p=5, v=2, w=32, clk=20τ4
//! let wh = canonical::pipeline(FlowControl::Wormhole, &params);
//! let vc = canonical::pipeline(
//!     FlowControl::VirtualChannel(RoutingFunction::Rpv), &params);
//! let spec = canonical::pipeline(
//!     FlowControl::SpeculativeVirtualChannel(RoutingFunction::Rv), &params);
//! assert_eq!(wh.depth(), 3);
//! assert_eq!(vc.depth(), 4);
//! assert_eq!(spec.depth(), 3); // speculation recovers wormhole latency
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod canonical;
pub mod chien;
pub mod duato;
pub mod equations;
pub mod module;
pub mod params;
pub mod pipeline;
pub mod routing;
pub mod table1;

pub use equations::{
    combined_va_sa, crossbar, spec_switch_allocator, speculative_combiner, switch_allocator,
    switch_arbiter, vc_allocator,
};
pub use module::{AtomicModule, ModuleDelay, ModuleKind};
pub use params::RouterParams;
pub use pipeline::{OverheadPolicy, Pipeline, PipelineStage};
pub use routing::RoutingFunction;

/// The flow-control method a router implements; determines its canonical
/// architecture, atomic modules, and dependency chain (paper Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlowControl {
    /// Wormhole flow control: per-packet switch arbitration, switch held
    /// for the packet duration (Torus Routing Chip style).
    Wormhole,
    /// Virtual-channel flow control with per-flit switch allocation and the
    /// given routing-function range for the VC allocator.
    VirtualChannel(RoutingFunction),
    /// Speculative virtual-channel flow control: VC allocation and switch
    /// allocation performed in parallel, non-speculative requests
    /// prioritized.
    SpeculativeVirtualChannel(RoutingFunction),
}

impl FlowControl {
    /// Human-readable short name, matching the paper's figure legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FlowControl::Wormhole => "WH",
            FlowControl::VirtualChannel(_) => "VC",
            FlowControl::SpeculativeVirtualChannel(_) => "specVC",
        }
    }
}

impl std::fmt::Display for FlowControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowControl::Wormhole => write!(f, "wormhole"),
            FlowControl::VirtualChannel(r) => write!(f, "virtual-channel ({r})"),
            FlowControl::SpeculativeVirtualChannel(r) => {
                write!(f, "speculative virtual-channel ({r})")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_legends() {
        assert_eq!(FlowControl::Wormhole.label(), "WH");
        assert_eq!(
            FlowControl::VirtualChannel(RoutingFunction::Rv).label(),
            "VC"
        );
        assert_eq!(
            FlowControl::SpeculativeVirtualChannel(RoutingFunction::Rv).label(),
            "specVC"
        );
    }

    #[test]
    fn display_is_descriptive() {
        let s = FlowControl::SpeculativeVirtualChannel(RoutingFunction::Rpv).to_string();
        assert!(s.contains("speculative"));
        assert!(s.contains("Rp→v"));
    }
}
