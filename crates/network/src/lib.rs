//! k-ary n-mesh interconnection-network simulator for the Peh–Dally
//! HPCA 2001 reproduction.
//!
//! Wires `router-core` routers into a mesh (or torus) with 1-cycle links
//! and a configurable-latency credit return path, drives them with
//! constant-rate traffic sources, and measures latency–throughput curves
//! using the paper's protocol: a warm-up phase, then a tagged sample of
//! packets whose average latency — from creation at the source (including
//! source queueing) to ejection of the tail at the destination — is
//! reported.
//!
//! # Example
//!
//! ```
//! use noc_network::{NetworkConfig, Network, RouterKind};
//!
//! // A small 4x4 mesh of speculative VC routers at 20% capacity.
//! let cfg = NetworkConfig::mesh(4, RouterKind::SpeculativeVc { vcs: 2, buffers_per_vc: 4 })
//!     .with_injection(0.2)
//!     .with_warmup(200)
//!     .with_sample(200)
//!     .with_max_cycles(20_000);
//! let result = Network::new(cfg).run();
//! assert!(!result.saturated);
//! assert!(result.avg_latency.unwrap() > 10.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel_load;
pub mod config;
pub mod fault;
pub mod orchestrate;
pub mod routing;
pub mod shard;
pub mod sim;
pub mod source;
pub mod stats;
pub mod sweep;
pub(crate) mod tap;
pub mod topology;
pub mod traffic;

pub use channel_load::ChannelLoad;
pub use config::{
    parse_faults, ConfigError, FaultKind, FaultSpec, FaultTarget, NetworkConfig, RebalanceConfig,
    RouterKind, RoutingAlgo, TelemetryConfig,
};
pub use fault::{DropReason, DropStats, FaultModel};
pub use orchestrate::NetworkRunner;
pub use routing::RouteTable;
// Batches cancel through the same token type the simulator polls.
pub use runqueue::CancelToken;
pub use sim::{Network, RunResult, CANCEL_BATCH};
pub use stats::{LatencyStats, PhaseNanos};
pub use sweep::LoadPoint;
// The observability vocabulary the engines speak, re-exported so
// downstream crates need no direct `telemetry` dependency.
pub use telemetry::{
    FlowPercentiles, FlowStats, JsonlTap, Latencies, MemoryTap, MetricsLog, MetricsTap,
    Percentiles, TraceLog,
};
pub use topology::{Mesh, LOCAL_PORT};
pub use traffic::TrafficPattern;
