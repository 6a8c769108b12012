//! Cycle-accurate pipelined router microarchitectures from Peh & Dally,
//! HPCA 2001: wormhole, virtual-channel, and speculative virtual-channel
//! routers with credit-based flow control.
//!
//! # Model
//!
//! A [`Router`] advances one clock per [`Router::tick`]. Within a cycle the
//! phases run in hardware order: switch traversal of previously granted
//! flits (ST), route computation for newly arrived heads (RC), virtual
//! channel allocation (VA), and switch allocation (SA). Pipeline depth is
//! set by [`Timing`] presets derived from the paper's delay model:
//!
//! * wormhole — 3 stages (RC, SA, ST), body flits stream one per cycle;
//! * virtual-channel — 4 stages (RC, VA, SA, ST);
//! * speculative VC — 3 stages (RC, VA∥SA, ST): the head bids for the
//!   switch while bidding for an output VC, and non-speculative requests
//!   are prioritized over speculative ones;
//! * single-cycle ("unit latency") — every function in one cycle, the
//!   baseline of the paper's §5.2 comparison.
//!
//! The environment (see the `noc-network` crate) delivers flits and
//! credits with [`Router::accept_flit`] / [`Router::accept_credit`] and
//! forwards the departures and credits returned by [`Router::tick`].
//!
//! # Example: a head flit traversing an idle pipelined wormhole router
//!
//! ```
//! use router_core::{Flit, FlitKind, PacketId, Router, RouterConfig};
//!
//! let cfg = RouterConfig::wormhole(5, 8); // 5 ports, 8 flit buffers
//! let mut r = Router::new(cfg);
//! r.set_output_credits(1, 8);
//! let head = Flit::head(PacketId::new(7), /*dest*/ 3, /*vc*/ 0, /*created*/ 0);
//! r.accept_flit(0, head, 10);
//! let mut out = Vec::new();
//! for now in 10..=12 {
//!     out.extend(r.tick(now, &|_: &Flit| 1).departures);
//! }
//! // 3-stage pipeline: arrived at 10, departs in the ST phase of cycle 12.
//! assert_eq!(out.len(), 1);
//! assert_eq!(out[0].out_port, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod config;
pub mod flit;
pub mod link;
pub mod router;
pub mod stats;
pub mod trace;

pub use arena::FlitArena;
pub use config::{FlowControlKind, RouterConfig, Timing};
pub use flit::{Flit, FlitKind, PacketFlits, PacketId};
pub use link::EventWheel;
pub use router::{CreditOut, Departure, Router, RoutingOracle, TickOutput};
pub use stats::RouterStats;
pub use trace::{PipelineEvent, Trace, TraceEntry};
