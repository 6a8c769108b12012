//! Root facade of the Peh–Dally HPCA 2001 reproduction workspace.
//!
//! This crate exists to host the repository-level examples
//! (`examples/*.rs`) and cross-crate integration tests (`tests/*.rs`).
//! All functionality lives in the member crates, re-exported here:
//!
//! * [`peh_dally`] — experiment API (one function per table/figure).
//! * [`delay_model`] — the parametric router delay model.
//! * [`logical_effort`] — the τ/τ4 delay units of the delay model.
//! * [`arbitration`] — matrix arbiters and separable allocators.
//! * [`router_core`] — cycle-accurate router microarchitectures.
//! * [`noc_network`] — the mesh network simulator.

pub use arbitration;
pub use delay_model;
pub use logical_effort;
pub use noc_network;
pub use peh_dally;
pub use router_core;
