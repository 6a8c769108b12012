//! Network simulation configuration.

use crate::source::SEQ_BITS;
use crate::topology::Mesh;
use crate::traffic::TrafficPattern;
use router_core::{RouterConfig, Timing};
use runqueue::CancelToken;
use std::fmt;

/// The most nodes a network may have (2^24): a packet id keeps its
/// source node in the bits above the per-source sequence number.
const MAX_NODES: usize = 1 << (64 - SEQ_BITS);

/// Which router microarchitecture populates the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Wormhole with `buffers` flits of input buffering per port.
    Wormhole {
        /// Flit buffers per input port.
        buffers: usize,
    },
    /// Virtual cut-through (related-work baseline): packets advance only
    /// into buffers with room for the whole packet.
    VirtualCutThrough {
        /// Flit buffers per input port (should be ≥ the packet length).
        buffers: usize,
    },
    /// Non-speculative virtual-channel router.
    VirtualChannel {
        /// Virtual channels per port.
        vcs: usize,
        /// Flit buffers per VC.
        buffers_per_vc: usize,
    },
    /// Speculative virtual-channel router.
    SpeculativeVc {
        /// Virtual channels per port.
        vcs: usize,
        /// Flit buffers per VC.
        buffers_per_vc: usize,
    },
}

impl RouterKind {
    /// The router-core configuration for a router with `ports` ports.
    #[must_use]
    pub fn router_config(&self, ports: usize) -> RouterConfig {
        match *self {
            RouterKind::Wormhole { buffers } => RouterConfig::wormhole(ports, buffers),
            RouterKind::VirtualCutThrough { buffers } => {
                RouterConfig::virtual_cut_through(ports, buffers)
            }
            RouterKind::VirtualChannel {
                vcs,
                buffers_per_vc,
            } => RouterConfig::virtual_channel(ports, vcs, buffers_per_vc),
            RouterKind::SpeculativeVc {
                vcs,
                buffers_per_vc,
            } => RouterConfig::speculative(ports, vcs, buffers_per_vc),
        }
    }

    /// Flit buffers per input VC.
    #[must_use]
    pub fn buffers_per_vc(&self) -> usize {
        match *self {
            RouterKind::Wormhole { buffers } | RouterKind::VirtualCutThrough { buffers } => buffers,
            RouterKind::VirtualChannel { buffers_per_vc, .. }
            | RouterKind::SpeculativeVc { buffers_per_vc, .. } => buffers_per_vc,
        }
    }

    /// Virtual channels per port.
    #[must_use]
    pub fn vcs(&self) -> usize {
        match *self {
            RouterKind::Wormhole { .. } | RouterKind::VirtualCutThrough { .. } => 1,
            RouterKind::VirtualChannel { vcs, .. } | RouterKind::SpeculativeVc { vcs, .. } => vcs,
        }
    }

    /// Figure-legend label, e.g. `VC (2vcsX4bufs)`.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            RouterKind::Wormhole { buffers } => format!("WH ({buffers} bufs)"),
            RouterKind::VirtualCutThrough { buffers } => format!("VCT ({buffers} bufs)"),
            RouterKind::VirtualChannel {
                vcs,
                buffers_per_vc,
            } => format!("VC ({vcs}vcsX{buffers_per_vc}bufs)"),
            RouterKind::SpeculativeVc {
                vcs,
                buffers_per_vc,
            } => format!("specVC ({vcs}vcsX{buffers_per_vc}bufs)"),
        }
    }
}

impl fmt::Display for RouterKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Which schedule of the one engine loop advances the network.
///
/// Every kind runs the same lockstep round over a partition of the mesh
/// into contiguous shards (see [`crate::shard`]): the serial kinds are
/// one-shard schedules of it. All kinds produce **bit-identical**
/// results — ticking only the active set and fast-forwarding quiet
/// cycles skip only provable no-ops, and sharding only reorders
/// operations that provably commute, replaying every order-sensitive
/// accumulation serially in node order. The equivalence is enforced by
/// the differential harness in `tests/engine_equivalence.rs`, which runs
/// the kinds across router kinds, topologies, traffic patterns, loads,
/// and shard counts and asserts identical measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// One shard that ticks every router every cycle and is never
    /// granted a fast-forward (the reference; simple, obviously correct,
    /// O(nodes) per cycle regardless of load, and the oracle the active
    /// set and the quiescence vote are checked against).
    CycleDriven,
    /// One shard that ticks only routers with work pending, waking them
    /// on flit delivery, and fast-forwards quiet stretches — exactly
    /// `ParallelShards { shards: 1 }` (the default: at the low loads
    /// that dominate a latency–throughput sweep, most routers are idle in
    /// most cycles).
    #[default]
    EventDriven,
    /// Partition the mesh into contiguous shards and run lockstep rounds
    /// of **one** gate-barrier episode each: while the workers are
    /// parked at the gate, the coordinator commits measurement state in
    /// fixed node order and decides whether globally quiescent cycles
    /// can be fast-forwarded (every shard votes its earliest future
    /// work); the released round then runs delivery, sources, and router
    /// ticks as one fused parallel phase, exchanging boundary
    /// flits/credits through preallocated per-shard-pair mailboxes
    /// stamped at emission time. Results are bit-identical to the
    /// cycle-driven oracle for any shard count and thread schedule.
    ParallelShards {
        /// Worker shards (≥ 1; clamped to the node count). Each shard
        /// runs on its own thread during [`crate::sim::Network::run`].
        shards: usize,
    },
}

impl EngineKind {
    /// The sharded-parallel engine with `shards` worker shards.
    #[must_use]
    pub fn parallel(shards: usize) -> Self {
        EngineKind::ParallelShards { shards }
    }

    /// How many threads one simulation run occupies under this engine
    /// (1 for the serial engines).
    #[must_use]
    pub fn threads_per_run(&self) -> usize {
        match *self {
            EngineKind::CycleDriven | EngineKind::EventDriven => 1,
            EngineKind::ParallelShards { shards } => shards.max(1),
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineKind::CycleDriven => write!(f, "cycle-driven"),
            EngineKind::EventDriven => write!(f, "event-driven"),
            EngineKind::ParallelShards { shards } => write!(f, "parallel-shards({shards})"),
        }
    }
}

/// Which routing algorithm the network uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingAlgo {
    /// Dimension-ordered routing (the paper's choice; deadlock-free on a
    /// mesh, and on a torus when combined with dateline VC classes).
    #[default]
    DimensionOrdered,
    /// West-first turn-model minimal adaptive routing (extension;
    /// 2-D mesh only).
    WestFirstAdaptive,
    /// Negative-first turn-model minimal adaptive routing (extension;
    /// the Glass–Ni turn model, deadlock-free on a k-ary n-mesh of any
    /// dimension count — the n-D generalization of minimal adaptivity).
    NegativeFirstAdaptive,
}

impl fmt::Display for RoutingAlgo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingAlgo::DimensionOrdered => write!(f, "dimension-ordered"),
            RoutingAlgo::WestFirstAdaptive => write!(f, "west-first adaptive"),
            RoutingAlgo::NegativeFirstAdaptive => write!(f, "negative-first adaptive"),
        }
    }
}

/// Why a [`NetworkConfig`] cannot be simulated, with enough context to
/// fix it. Produced by [`NetworkConfig::validate`] and returned by
/// [`crate::sim::Network::try_new`]; every variant names the offending
/// value and the change that makes the configuration valid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// An offered load (`injection_fraction`) that is not a finite
    /// fraction of capacity above zero: zero, negative, NaN or infinite.
    InjectionFractionInvalid,
    /// A torus with fewer than two VCs per port: the dateline
    /// deadlock-avoidance scheme needs two VC classes per ring.
    TorusNeedsDatelineVcs {
        /// The configured VC count.
        vcs: usize,
    },
    /// West-first adaptive routing outside its 2-D-mesh domain.
    WestFirstNeedsTwoDimMesh {
        /// The configured dimension count.
        dims: usize,
        /// Whether wraparound links were requested.
        torus: bool,
    },
    /// A turn-model adaptive algorithm on a torus, whose wraparound
    /// links reintroduce the channel-dependency cycles turn models
    /// eliminate.
    AdaptiveOnTorus {
        /// The requested algorithm.
        algo: RoutingAlgo,
    },
    /// More dimensions than the adaptive candidate encoding supports.
    TooManyAdaptiveDims {
        /// The configured dimension count.
        dims: usize,
    },
    /// A radix beyond the route table's one-byte coordinate encoding.
    RadixTooLarge {
        /// The configured radix.
        radix: usize,
    },
    /// More than 2^24 nodes: packet ids keep the source node in their
    /// top 24 bits, and flits carry the destination in a `u32`.
    TooManyNodes {
        /// The configured radix.
        radix: usize,
        /// The configured dimension count.
        dims: usize,
    },
    /// A router kind with zero VCs per port.
    VcsZero,
    /// Input buffers of zero flits per VC: no flit could ever enter.
    BuffersZero,
    /// A packet length outside 1..=255 flits: a flit's sequence number
    /// and packet length are one byte each.
    PacketLenOutOfRange {
        /// The configured packet length.
        len: u32,
    },
    /// Zero-cycle credit propagation plus processing: a credit returns
    /// `credit_prop_delay + credit_proc_delay - 1` cycles after the
    /// cycle it is sent, so the sum must be at least 1.
    CreditDelayZero,
    /// Routers with more than [`RouterConfig::MAX_CHANNELS`] input
    /// channels (`ports × vcs`): the router tick keeps its channel sets
    /// and allocator requests in `u64` masks.
    TooManyChannels {
        /// Ports per router (local port included).
        ports: usize,
        /// The configured VCs per port.
        vcs: usize,
    },
    /// A [`TrafficPattern::Hotspot`] whose hot node the mesh does not
    /// have.
    HotspotOutOfRange {
        /// The configured hot node.
        node: usize,
        /// Nodes in the configured mesh.
        nodes: usize,
    },
    /// A [`TrafficPattern::Hotspot`] whose `hotness` is not a fraction
    /// in [0, 1]: NaN, negative or above 1.
    HotnessInvalid,
    /// A zero-cycle rebalance epoch: the work meter needs at least one
    /// executed cycle per decision window.
    RebalanceEpochZero,
    /// A zero-cycle telemetry epoch: snapshots are taken at multiples
    /// of the epoch, so it must cover at least one cycle.
    TelemetryEpochZero,
    /// A rebalance threshold below 1.0 (or NaN): the trigger is a
    /// `work_max / work_mean` ratio, whose floor is 1.0 at perfect
    /// balance, so any lower threshold would fire on every epoch.
    RebalanceThresholdBelowOne,
    /// A fault targeting a node the mesh does not have.
    FaultNodeOutOfRange {
        /// Index of the offending spec in [`NetworkConfig::faults`].
        index: usize,
        /// The out-of-range node id.
        node: usize,
        /// Nodes in the configured mesh.
        nodes: usize,
    },
    /// A link fault naming a port the routers do not have.
    FaultPortOutOfRange {
        /// Index of the offending spec in [`NetworkConfig::faults`].
        index: usize,
        /// The out-of-range port.
        port: usize,
        /// Ports per router in the configured mesh (local included).
        ports: usize,
    },
    /// A link fault on a mesh-edge port with no link behind it.
    FaultLinkMissing {
        /// Index of the offending spec in [`NetworkConfig::faults`].
        index: usize,
        /// Upstream node of the named link.
        node: usize,
        /// The unwired port.
        port: usize,
    },
    /// A flaky fault whose duty cycle is degenerate: the constraint is
    /// `1 <= down < period` and `phase < period`, so the link is down
    /// for part of every period and up for the rest.
    FaultFlakyDuty {
        /// Index of the offending spec in [`NetworkConfig::faults`].
        index: usize,
        /// The configured period.
        period: u32,
        /// The configured down window.
        down: u32,
        /// The configured phase offset.
        phase: u32,
    },
    /// A lossy fault whose probability is not a finite value in [0, 1].
    FaultLossProbInvalid {
        /// Index of the offending spec in [`NetworkConfig::faults`].
        index: usize,
    },
    /// Two flaky (or two lossy) faults landing on the same directed
    /// link, whose merge semantics would be ambiguous.
    FaultDuplicate {
        /// Index of the *second* spec in [`NetworkConfig::faults`].
        index: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ConfigError::InjectionFractionInvalid => write!(
                f,
                "the offered load (injection fraction) must be a finite fraction of \
                 capacity above 0; got zero, a negative value, NaN or infinity"
            ),
            ConfigError::TorusNeedsDatelineVcs { vcs } => write!(
                f,
                "a torus needs >= 2 VCs per port for the dateline deadlock-avoidance \
                 classes, got {vcs}; use a VirtualChannel or SpeculativeVc router with \
                 vcs >= 2, or drop the wraparound links (mesh)"
            ),
            ConfigError::WestFirstNeedsTwoDimMesh { dims, torus } => write!(
                f,
                "west-first adaptive routing is defined for 2-D meshes, got a {dims}-D \
                 {}; use RoutingAlgo::NegativeFirstAdaptive for n-D meshes or \
                 RoutingAlgo::DimensionOrdered for any topology",
                if torus { "torus" } else { "mesh" }
            ),
            ConfigError::AdaptiveOnTorus { algo } => write!(
                f,
                "{algo} routing is defined for meshes only (wraparound links break the \
                 turn model's deadlock freedom); use RoutingAlgo::DimensionOrdered, \
                 whose dateline VC classes handle the torus"
            ),
            ConfigError::TooManyAdaptiveDims { dims } => write!(
                f,
                "adaptive routing supports at most {} dimensions, got {dims}; use \
                 RoutingAlgo::DimensionOrdered for higher-dimensional meshes",
                crate::routing::MAX_CANDIDATES
            ),
            ConfigError::RadixTooLarge { radix } => write!(
                f,
                "radix {radix} exceeds the route table's one-byte coordinate encoding \
                 (max 256 nodes per dimension); add a dimension instead"
            ),
            ConfigError::TooManyNodes { radix, dims } => write!(
                f,
                "a {radix}-ary {dims}-mesh has more than the {MAX_NODES} nodes packet ids \
                 can name (2^24: an id keeps its source node in 24 bits); use a smaller \
                 radix or fewer dimensions"
            ),
            ConfigError::VcsZero => write!(
                f,
                "routers need at least one VC per port, got vcs = 0; set vcs >= 1"
            ),
            ConfigError::BuffersZero => write!(
                f,
                "input buffers need at least one flit per VC, got 0; set buffers \
                 (wormhole, cut-through) or buffers_per_vc >= 1"
            ),
            ConfigError::PacketLenOutOfRange { len } => write!(
                f,
                "packet_len {len} is outside 1..=255 flits (a flit's sequence number \
                 and packet length are one byte each)"
            ),
            ConfigError::CreditDelayZero => write!(
                f,
                "credit_prop_delay + credit_proc_delay is 0, but a credit returns \
                 prop + proc - 1 cycles after the cycle it is sent; set either delay >= 1"
            ),
            ConfigError::TooManyChannels { ports, vcs } => write!(
                f,
                "routers with {ports} ports x {vcs} vcs have {} input channels, more than \
                 the {} a router's u64 masks hold; use fewer vcs or fewer dimensions",
                ports * vcs,
                RouterConfig::MAX_CHANNELS
            ),
            ConfigError::HotspotOutOfRange { node, nodes } => write!(
                f,
                "hotspot node {node} is outside the mesh, whose nodes are 0..{nodes}; \
                 pick a hot node below {nodes} or grow the mesh"
            ),
            ConfigError::HotnessInvalid => write!(
                f,
                "hotspot hotness must be the fraction of packets sent to the hot \
                 node, in [0, 1]; got NaN or a value outside it"
            ),
            ConfigError::RebalanceEpochZero => write!(
                f,
                "rebalance epoch is 0; the work meter needs at least one executed \
                 cycle per decision window — use with_rebalance(epoch >= 1, ..) or \
                 drop the rebalance knob"
            ),
            ConfigError::RebalanceThresholdBelowOne => write!(
                f,
                "rebalance threshold must be a work_max/work_mean ratio >= 1.0 \
                 (1.0 = repartition on any imbalance; f64::INFINITY = meter but \
                 never repartition); got a value below 1.0 or NaN"
            ),
            ConfigError::TelemetryEpochZero => write!(
                f,
                "telemetry epoch is 0; snapshots are taken every `epoch` simulated \
                 cycles — use with_telemetry(epoch >= 1) or drop the telemetry knob"
            ),
            ConfigError::FaultNodeOutOfRange { index, node, nodes } => write!(
                f,
                "faults[{index}] targets node {node}, but the mesh has nodes \
                 0..{nodes}; fix the node id or grow the mesh"
            ),
            ConfigError::FaultPortOutOfRange { index, port, ports } => write!(
                f,
                "faults[{index}] targets port {port}, but routers have ports \
                 0..{ports} (port 2d = dimension d positive, 2d+1 negative, \
                 {} = local/ejection)",
                ports - 1
            ),
            ConfigError::FaultLinkMissing { index, node, port } => write!(
                f,
                "faults[{index}] targets the link out of node {node} through \
                 port {port}, but that port is unwired (mesh edge); pick an \
                 interior link or switch to a torus"
            ),
            ConfigError::FaultFlakyDuty {
                index,
                period,
                down,
                phase,
            } => write!(
                f,
                "faults[{index}] has a degenerate flaky duty cycle \
                 period={period} down={down} phase={phase}; the constraint is \
                 1 <= down < period and phase < period (use dead@CYCLE for an \
                 always-down link)"
            ),
            ConfigError::FaultLossProbInvalid { index } => write!(
                f,
                "faults[{index}] has a loss probability outside [0, 1] (or \
                 NaN/inf); use 1.0 to drop everything or dead@CYCLE to kill \
                 the link"
            ),
            ConfigError::FaultDuplicate { index } => write!(
                f,
                "faults[{index}] lands a second flaky (or lossy) fault on a \
                 directed link that already has one — the merge would be \
                 ambiguous; combine them into one spec (dead faults may \
                 overlap freely: the earliest kill wins)"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Work-metered dynamic shard rebalancing for
/// [`EngineKind::ParallelShards`] (see `shard.rs` for the mechanism).
/// Every `epoch` *executed* cycles the engine folds per-node work
/// counters into EWMAs; when the per-shard `work_max / work_mean` ratio
/// exceeds `threshold`, the partition is re-cut along weighted row seams
/// and in-flight state migrates to the new owners. All inputs are pure
/// functions of simulation state, so results stay bit-identical to the
/// cycle-driven oracle — the knob trades wall-clock, never correctness.
/// The serial kinds run one shard, which has nothing to balance: there
/// the knob is a no-op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RebalanceConfig {
    /// Decision window in executed cycles (≥ 1). Executed cycles — not
    /// simulated cycles — so quiescence fast-forwards do not starve the
    /// meter, and the count is identical for every shard layout.
    pub epoch: u64,
    /// Imbalance trigger: repartition when `work_max / work_mean`
    /// exceeds this ratio (≥ 1.0). `f64::INFINITY` meters the imbalance
    /// without ever repartitioning — the "before" measurement.
    pub threshold: f64,
}

/// Epoch-streaming telemetry for every engine (see `sim.rs` for the
/// wiring). Every `epoch` simulated cycles the engine snapshots its
/// metrics registry into the run's taps, and the run ends by sorting
/// its tagged-sample log per flow. All counter inputs are pure functions of
/// simulation state and snapshots are assembled in fixed shard order,
/// so the counter stream is bit-identical across engine kinds, shard
/// counts, and thread schedules — and the knob itself never changes
/// simulation results.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Snapshot period in simulated cycles (≥ 1). Simulated — not
    /// executed — cycles, so the boundary set is identical whether an
    /// engine fast-forwards through quiescence or steps through it.
    pub epoch: u64,
}

/// When and how a scheduled fault manifests. Every kind is a pure
/// function of (configuration, seed, cycle) — no runtime randomness —
/// so faulted runs stay bit-identical across all three engines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Permanently dead from cycle `at` onward.
    Dead {
        /// First cycle the target is down (inclusive).
        at: u64,
    },
    /// Transient flapping: within each `period`-cycle window, the
    /// `down` cycles starting at offset `phase` are down
    /// (`(cycle - phase) mod period < down`), the rest are up.
    Flaky {
        /// Duty-cycle period in cycles (≥ 2).
        period: u32,
        /// Down cycles per period (`1 ≤ down < period`).
        down: u32,
        /// Offset of the down window within the period (`< period`).
        phase: u32,
    },
    /// The link stays up but drops each *packet* crossing it with
    /// probability `prob`, decided by a seeded hash of the packet id —
    /// deterministic, engine- and schedule-independent.
    Lossy {
        /// Per-packet drop probability in `[0, 1]`.
        prob: f64,
    },
}

/// What a [`FaultSpec`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// The directed link *out of* `node` through `port` (the reverse
    /// direction is a separate link: `Link { neighbor, opposite }`).
    /// `port == mesh.local_port()` names the node's ejection channel.
    Link {
        /// Upstream node of the directed link.
        node: usize,
        /// Output port the link hangs off.
        port: usize,
    },
    /// The whole router at `node`: the fault applies to every link
    /// incident to it, in both directions, including injection and
    /// ejection.
    Router {
        /// The faulted node.
        node: usize,
    },
}

/// One scheduled fault: a target and a kind. Build directly or parse
/// from the spec grammar with [`FaultSpec::parse`] /
/// [`parse_faults`]:
///
/// ```text
/// link:NODE:PORT:dead@CYCLE
/// link:NODE:PORT:flaky@PERIOD/DOWN[/PHASE]
/// link:NODE:PORT:loss@PROB
/// router:NODE:dead@CYCLE           (flaky/loss work on routers too)
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// The link or router the fault applies to.
    pub target: FaultTarget,
    /// When and how it manifests.
    pub kind: FaultKind,
}

impl FaultSpec {
    /// Parses one fault from the spec grammar (see [`FaultSpec`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the expected grammar on any syntax
    /// error. Range checks (node/port bounds, duty cycles, probability
    /// domain) are [`NetworkConfig::validate`]'s job, so a parsed spec
    /// still needs a mesh to be judged against.
    pub fn parse(s: &str) -> Result<FaultSpec, String> {
        let s = s.trim();
        let mut parts = s.split(':');
        let scope = parts.next().unwrap_or("");
        let usize_field = |v: Option<&str>, what: &str| -> Result<usize, String> {
            v.ok_or_else(|| format!("fault `{s}`: missing {what}"))?
                .parse::<usize>()
                .map_err(|_| format!("fault `{s}`: {what} must be a non-negative integer"))
        };
        let target = match scope {
            "link" => FaultTarget::Link {
                node: usize_field(parts.next(), "node")?,
                port: usize_field(parts.next(), "port")?,
            },
            "router" => FaultTarget::Router {
                node: usize_field(parts.next(), "node")?,
            },
            _ => {
                return Err(format!(
                    "fault `{s}`: expected `link:NODE:PORT:KIND@ARGS` or \
                     `router:NODE:KIND@ARGS`"
                ))
            }
        };
        let kind_str = parts.next().ok_or_else(|| {
            format!("fault `{s}`: missing KIND@ARGS (dead@C, flaky@P/D[/PH], loss@PROB)")
        })?;
        if let Some(extra) = parts.next() {
            return Err(format!("fault `{s}`: unexpected trailing `:{extra}`"));
        }
        let (name, args) = kind_str
            .split_once('@')
            .ok_or_else(|| format!("fault `{s}`: kind `{kind_str}` needs `@ARGS`"))?;
        let kind = match name {
            "dead" => FaultKind::Dead {
                at: args
                    .parse::<u64>()
                    .map_err(|_| format!("fault `{s}`: dead@CYCLE needs an integer cycle"))?,
            },
            "flaky" => {
                let mut nums = args.split('/');
                let mut field = |what: &str| -> Result<u32, String> {
                    nums.next()
                        .ok_or_else(|| {
                            format!("fault `{s}`: flaky@PERIOD/DOWN[/PHASE] missing {what}")
                        })?
                        .parse::<u32>()
                        .map_err(|_| format!("fault `{s}`: flaky {what} must be an integer"))
                };
                let period = field("PERIOD")?;
                let down = field("DOWN")?;
                let phase = match nums.next() {
                    Some(p) => p
                        .parse::<u32>()
                        .map_err(|_| format!("fault `{s}`: flaky PHASE must be an integer"))?,
                    None => 0,
                };
                if nums.next().is_some() {
                    return Err(format!(
                        "fault `{s}`: flaky takes at most PERIOD/DOWN/PHASE"
                    ));
                }
                FaultKind::Flaky {
                    period,
                    down,
                    phase,
                }
            }
            "loss" => FaultKind::Lossy {
                prob: args
                    .parse::<f64>()
                    .map_err(|_| format!("fault `{s}`: loss@PROB needs a probability"))?,
            },
            _ => {
                return Err(format!(
                    "fault `{s}`: unknown kind `{name}` (expected dead, flaky, or loss)"
                ))
            }
        };
        Ok(FaultSpec { target, kind })
    }
}

impl fmt::Display for FaultSpec {
    /// The canonical spec-grammar form, parseable by [`FaultSpec::parse`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.target {
            FaultTarget::Link { node, port } => write!(f, "link:{node}:{port}:")?,
            FaultTarget::Router { node } => write!(f, "router:{node}:")?,
        }
        match self.kind {
            FaultKind::Dead { at } => write!(f, "dead@{at}"),
            FaultKind::Flaky {
                period,
                down,
                phase,
            } => write!(f, "flaky@{period}/{down}/{phase}"),
            FaultKind::Lossy { prob } => write!(f, "loss@{prob}"),
        }
    }
}

/// Parses a comma- or semicolon-separated fault list, e.g.
/// `"router:27:dead@500,link:28:2:flaky@64/16"`. Empty items are
/// ignored, so trailing separators are fine.
///
/// # Errors
///
/// The first syntactically invalid item's [`FaultSpec::parse`] message.
pub fn parse_faults(s: &str) -> Result<Vec<FaultSpec>, String> {
    s.split([',', ';'])
        .map(str::trim)
        .filter(|item| !item.is_empty())
        .map(FaultSpec::parse)
        .collect()
}

/// Full configuration of a network experiment.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Topology.
    pub mesh: Mesh,
    /// Routing algorithm.
    pub routing: RoutingAlgo,
    /// Engine schedule (the cycle-driven reference, the event-driven
    /// default, or sharded; results are identical).
    pub engine: EngineKind,
    /// Router microarchitecture.
    pub router: RouterKind,
    /// Use single-cycle ("unit latency") routers instead of the pipelined
    /// model (the §5.2 baseline).
    pub single_cycle: bool,
    /// Flit propagation delay across a channel, in cycles (paper: 1).
    pub link_delay: u64,
    /// Credit propagation delay, in cycles (paper: 1; Figure 18 uses 4).
    pub credit_prop_delay: u64,
    /// Credit pipeline (processing) delay at the receiving router, in
    /// cycles (paper: 1).
    pub credit_proc_delay: u64,
    /// Flits per packet (paper: 5).
    pub packet_len: u32,
    /// Offered load as a fraction of network capacity, `> 0`.
    pub injection_fraction: f64,
    /// Traffic pattern.
    pub pattern: TrafficPattern,
    /// Warm-up cycles before measurement (paper: 10,000).
    pub warmup_cycles: u64,
    /// Number of tagged packets in the measurement sample
    /// (paper: 100,000).
    pub sample_packets: u64,
    /// Hard cycle limit; hitting it marks the run saturated.
    pub max_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Collect per-phase wall-clock attribution
    /// ([`crate::stats::PhaseNanos`]) while running. Off by default: the
    /// clock reads cost a few percent and change no simulation result.
    pub phase_timing: bool,
    /// Cooperative cancellation token, if the run belongs to a batch.
    /// [`crate::sim::Network::run`] polls it once per
    /// [`crate::sim::CANCEL_BATCH`] cycles and winds down early when it
    /// is poisoned (marking the result
    /// [`crate::sim::RunResult::cancelled`]); `None` costs nothing.
    pub cancel: Option<CancelToken>,
    /// Work-metered dynamic shard rebalancing for the sharded-parallel
    /// engine (ignored by the serial engines; results are identical
    /// either way). `None` (the default) keeps the static row-seam
    /// partition.
    pub rebalance: Option<RebalanceConfig>,
    /// Epoch-streaming telemetry (see [`TelemetryConfig`]): metric
    /// snapshots, per-flow exact latency percentiles, and — together with
    /// `phase_timing` — span traces. `None` (the default) allocates no
    /// registry and costs nothing; `Some` never changes simulation
    /// results, it only observes them.
    pub telemetry: Option<TelemetryConfig>,
    /// Scheduled link/router faults (see [`FaultSpec`]). Empty (the
    /// default) reproduces a healthy network bit for bit; a non-empty
    /// plan is still a pure function of (config, seed, cycle), so all
    /// three engines stay bit-identical under it. Unlike the engine
    /// knobs, faults *do* change results and are folded into the
    /// orchestration config hash.
    pub faults: Vec<FaultSpec>,
}

impl NetworkConfig {
    /// A k×k mesh with the paper's defaults (scaled-down sample sizes;
    /// `peh_dally::SimScale::paper` applies the full protocol).
    #[must_use]
    pub fn mesh(k: usize, router: RouterKind) -> Self {
        Self::for_mesh(Mesh::new(k, 2), router)
    }

    /// The same defaults on an arbitrary topology — any k-ary n-mesh or
    /// torus [`Mesh`] describes (e.g. `Mesh::new(4, 3)` for a 4-ary
    /// 3-cube with 7-port routers).
    #[must_use]
    pub fn for_mesh(mesh: Mesh, router: RouterKind) -> Self {
        NetworkConfig {
            mesh,
            routing: RoutingAlgo::DimensionOrdered,
            engine: EngineKind::default(),
            router,
            single_cycle: false,
            link_delay: 1,
            credit_prop_delay: 1,
            credit_proc_delay: 1,
            packet_len: 5,
            injection_fraction: 0.1,
            pattern: TrafficPattern::Uniform,
            warmup_cycles: 1_000,
            sample_packets: 2_000,
            max_cycles: 200_000,
            seed: 0x5EED,
            phase_timing: false,
            cancel: None,
            rebalance: None,
            telemetry: None,
            faults: Vec::new(),
        }
    }

    /// Sets the offered load (fraction of capacity).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fraction`.
    #[must_use]
    pub fn with_injection(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0, "injection fraction must be positive");
        self.injection_fraction = fraction;
        self
    }

    /// Sets the warm-up length in cycles.
    #[must_use]
    pub fn with_warmup(mut self, cycles: u64) -> Self {
        self.warmup_cycles = cycles;
        self
    }

    /// Sets the tagged-sample size in packets.
    #[must_use]
    pub fn with_sample(mut self, packets: u64) -> Self {
        self.sample_packets = packets;
        self
    }

    /// Sets the hard cycle limit.
    #[must_use]
    pub fn with_max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the simulation engine. Results do not depend on the choice
    /// (see [`EngineKind`]); wall-clock time does.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// Enables per-phase wall-clock attribution (see
    /// [`crate::stats::PhaseNanos`]). Results are unaffected; the run
    /// gains clock reads and [`crate::sim::RunResult::phases`].
    #[must_use]
    pub fn with_phase_timing(mut self, on: bool) -> Self {
        self.phase_timing = on;
        self
    }

    /// Attaches a cooperative cancellation token. The run polls it at
    /// cycle-batch granularity ([`crate::sim::CANCEL_BATCH`] cycles) and
    /// stops early once it is poisoned; a cancelled run's result is
    /// flagged [`crate::sim::RunResult::cancelled`] and must not be
    /// recorded as a measurement.
    #[must_use]
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Enables work-metered dynamic shard rebalancing for the
    /// sharded-parallel engine: every `epoch` executed cycles, if the
    /// per-shard `work_max / work_mean` ratio exceeds `threshold`, the
    /// partition is re-cut along weighted row seams. Results do not
    /// depend on the knob (see [`RebalanceConfig`]); wall-clock under
    /// non-uniform traffic does. Bounds (`epoch >= 1`,
    /// `threshold >= 1.0`) are checked by [`NetworkConfig::validate`]
    /// when the network is built, so builder order never matters.
    #[must_use]
    pub fn with_rebalance(mut self, epoch: u64, threshold: f64) -> Self {
        self.rebalance = Some(RebalanceConfig { epoch, threshold });
        self
    }

    /// Enables epoch-streaming telemetry: every `epoch` simulated
    /// cycles the run snapshots its metrics registry, and at the end the
    /// run's tagged-sample log is also sorted per flow into exact
    /// latency percentiles ([`crate::sim::RunResult::flow_stats`]).
    /// Results do not depend on the knob (see [`TelemetryConfig`]);
    /// with `phase_timing` also on, the run additionally collects a
    /// span trace ([`crate::sim::RunResult::trace`]). The bound
    /// (`epoch >= 1`) is checked by [`NetworkConfig::validate`] when the
    /// network is built, so builder order never matters.
    #[must_use]
    pub fn with_telemetry(mut self, epoch: u64) -> Self {
        self.telemetry = Some(TelemetryConfig { epoch });
        self
    }

    /// Schedules link/router faults (replacing any earlier plan). Bounds
    /// and duty cycles are checked by [`NetworkConfig::validate`] when
    /// the network is built, so builder order never matters. An empty
    /// plan reproduces the healthy network bit for bit.
    #[must_use]
    pub fn with_faults(mut self, faults: Vec<FaultSpec>) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the credit propagation delay (Figure 18 sensitivity study).
    #[must_use]
    pub fn with_credit_prop_delay(mut self, cycles: u64) -> Self {
        self.credit_prop_delay = cycles;
        self
    }

    /// Switches to single-cycle ("unit latency") routers.
    #[must_use]
    pub fn with_single_cycle(mut self, on: bool) -> Self {
        self.single_cycle = on;
        self
    }

    /// Sets the traffic pattern.
    #[must_use]
    pub fn with_pattern(mut self, pattern: TrafficPattern) -> Self {
        self.pattern = pattern;
        self
    }

    /// Converts the topology to a torus (wraparound links). Needs a VC
    /// or speculative-VC router with at least two VCs per port —
    /// dimension-ordered routing on a torus is made deadlock-free by the
    /// dateline VC classes (see `routing::dateline_vc_mask`). The
    /// requirement is checked by [`NetworkConfig::validate`] when the
    /// network is built, so builder order never matters.
    #[must_use]
    pub fn into_torus(mut self) -> Self {
        self.mesh = self.mesh.into_torus();
        self
    }

    /// Sets the routing algorithm. Domain restrictions (west-first needs
    /// a 2-D mesh; the turn models reject tori) are checked by
    /// [`NetworkConfig::validate`] when the network is built, so builder
    /// order never matters.
    #[must_use]
    pub fn with_routing(mut self, routing: RoutingAlgo) -> Self {
        self.routing = routing;
        self
    }

    /// Checks that the configuration describes a simulable network,
    /// reporting the first violation as a [`ConfigError`] whose message
    /// names the fix. [`crate::sim::Network::try_new`] calls this before
    /// building anything; call it directly to validate user input early.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`] for the rejected combinations: an offered
    /// load that is not finite and positive, a torus without dateline
    /// VCs, west-first outside a 2-D mesh, a turn model on a torus,
    /// shapes beyond the route table's compact encoding or the packet
    /// ids' 2^24 nodes, routers without VCs or buffers or wider than 64
    /// input channels, packets outside 1..=255 flits, a credit path of
    /// zero cycles, and hotspot traffic aimed off the mesh or with a
    /// hotness outside [0, 1].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(self.injection_fraction.is_finite() && self.injection_fraction > 0.0) {
            return Err(ConfigError::InjectionFractionInvalid);
        }
        let (radix, dims) = (self.mesh.radix(), self.mesh.dims());
        if radix > 256 {
            return Err(ConfigError::RadixTooLarge { radix });
        }
        // Checked: `Mesh::nodes` would overflow on such a shape.
        if u32::try_from(dims)
            .ok()
            .and_then(|d| radix.checked_pow(d))
            .is_none_or(|nodes| nodes > MAX_NODES)
        {
            return Err(ConfigError::TooManyNodes { radix, dims });
        }
        let (ports, vcs) = (self.mesh.ports(), self.router.vcs());
        if vcs == 0 {
            return Err(ConfigError::VcsZero);
        }
        if self.router.buffers_per_vc() == 0 {
            return Err(ConfigError::BuffersZero);
        }
        if !(1..=255).contains(&self.packet_len) {
            return Err(ConfigError::PacketLenOutOfRange {
                len: self.packet_len,
            });
        }
        if self.credit_prop_delay == 0 && self.credit_proc_delay == 0 {
            return Err(ConfigError::CreditDelayZero);
        }
        if ports * vcs > RouterConfig::MAX_CHANNELS {
            return Err(ConfigError::TooManyChannels { ports, vcs });
        }
        if self.mesh.is_torus() && self.router.vcs() < 2 {
            return Err(ConfigError::TorusNeedsDatelineVcs {
                vcs: self.router.vcs(),
            });
        }
        match self.routing {
            RoutingAlgo::DimensionOrdered => {}
            RoutingAlgo::WestFirstAdaptive => {
                if self.mesh.dims() != 2 || self.mesh.is_torus() {
                    return Err(ConfigError::WestFirstNeedsTwoDimMesh {
                        dims: self.mesh.dims(),
                        torus: self.mesh.is_torus(),
                    });
                }
            }
            RoutingAlgo::NegativeFirstAdaptive => {
                if self.mesh.is_torus() {
                    return Err(ConfigError::AdaptiveOnTorus { algo: self.routing });
                }
                if self.mesh.dims() > crate::routing::MAX_CANDIDATES {
                    return Err(ConfigError::TooManyAdaptiveDims {
                        dims: self.mesh.dims(),
                    });
                }
            }
        }
        if let TrafficPattern::Hotspot { hotspot, hotness } = self.pattern {
            let nodes = self.mesh.nodes();
            if hotspot >= nodes {
                return Err(ConfigError::HotspotOutOfRange {
                    node: hotspot,
                    nodes,
                });
            }
            if !(0.0..=1.0).contains(&hotness) {
                return Err(ConfigError::HotnessInvalid);
            }
        }
        if let Some(rb) = self.rebalance {
            if rb.epoch == 0 {
                return Err(ConfigError::RebalanceEpochZero);
            }
            // NaN must be rejected explicitly: a plain `< 1.0` check
            // would let it through and poison every later comparison.
            if rb.threshold.is_nan() || rb.threshold < 1.0 {
                return Err(ConfigError::RebalanceThresholdBelowOne);
            }
        }
        if let Some(t) = self.telemetry {
            if t.epoch == 0 {
                return Err(ConfigError::TelemetryEpochZero);
            }
        }
        self.validate_faults()
    }

    /// The fault-plan half of [`NetworkConfig::validate`]: bounds, duty
    /// cycles, probability domains, and per-link kind uniqueness.
    fn validate_faults(&self) -> Result<(), ConfigError> {
        if self.faults.is_empty() {
            return Ok(());
        }
        let nodes = self.mesh.nodes();
        let ports = self.mesh.ports();
        let local = self.mesh.local_port();
        // Directed-link occupancy for the flaky/lossy ambiguity check:
        // key = node * (ports + 1) + port, with one pseudo-port past the
        // real ones for a node's injection channel (reachable only
        // through router-wide targets). Dead faults may overlap freely
        // (the earliest kill wins), so they claim nothing.
        let mut flaky_links = vec![false; nodes * (ports + 1)];
        let mut lossy_links = vec![false; nodes * (ports + 1)];
        for (index, spec) in self.faults.iter().enumerate() {
            let node = match spec.target {
                FaultTarget::Link { node, .. } | FaultTarget::Router { node } => node,
            };
            if node >= nodes {
                return Err(ConfigError::FaultNodeOutOfRange { index, node, nodes });
            }
            if let FaultTarget::Link { port, .. } = spec.target {
                if port >= ports {
                    return Err(ConfigError::FaultPortOutOfRange { index, port, ports });
                }
                if port != local && self.mesh.neighbor(node, port).is_none() {
                    return Err(ConfigError::FaultLinkMissing { index, node, port });
                }
            }
            let occupancy = match spec.kind {
                FaultKind::Dead { .. } => None,
                FaultKind::Flaky {
                    period,
                    down,
                    phase,
                } => {
                    if down == 0 || down >= period || phase >= period {
                        return Err(ConfigError::FaultFlakyDuty {
                            index,
                            period,
                            down,
                            phase,
                        });
                    }
                    Some(&mut flaky_links)
                }
                FaultKind::Lossy { prob } => {
                    if !prob.is_finite() || !(0.0..=1.0).contains(&prob) {
                        return Err(ConfigError::FaultLossProbInvalid { index });
                    }
                    Some(&mut lossy_links)
                }
            };
            let Some(occupied) = occupancy else { continue };
            let mut claim = |key: usize| {
                if occupied[key] {
                    return Err(ConfigError::FaultDuplicate { index });
                }
                occupied[key] = true;
                Ok(())
            };
            match spec.target {
                FaultTarget::Link { node, port } => claim(node * (ports + 1) + port)?,
                FaultTarget::Router { node } => {
                    for port in 0..ports {
                        if port == local {
                            claim(node * (ports + 1) + port)?;
                        } else if let Some(n) = self.mesh.neighbor(node, port) {
                            claim(node * (ports + 1) + port)?;
                            claim(n * (ports + 1) + (port ^ 1))?;
                        }
                    }
                    claim(node * (ports + 1) + ports)?; // injection channel
                }
            }
        }
        Ok(())
    }

    /// The router-core configuration for this network.
    #[must_use]
    pub fn router_config(&self) -> RouterConfig {
        let mut cfg = self.router.router_config(self.mesh.ports());
        if self.single_cycle {
            cfg.timing = Timing::single_cycle();
        }
        cfg
    }

    /// Packet injection rate per node, in packets/cycle.
    #[must_use]
    pub fn packets_per_node_cycle(&self) -> f64 {
        self.injection_fraction * self.mesh.capacity_flits_per_node() / f64::from(self.packet_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_has_the_paper_network() {
        let cfg = NetworkConfig::mesh(8, RouterKind::Wormhole { buffers: 8 });
        assert_eq!(cfg.mesh.nodes(), 64);
        assert_eq!(cfg.packet_len, 5);
        assert_eq!(cfg.link_delay, 1);
    }

    #[test]
    fn injection_rate_is_capacity_scaled() {
        let cfg = NetworkConfig::mesh(8, RouterKind::Wormhole { buffers: 8 }).with_injection(0.4);
        // 0.4 × 0.5 flits / 5 flits-per-packet = 0.04 packets/node/cycle.
        assert!((cfg.packets_per_node_cycle() - 0.04).abs() < 1e-12);
    }

    #[test]
    fn router_config_respects_single_cycle() {
        let cfg = NetworkConfig::mesh(
            4,
            RouterKind::VirtualChannel {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_single_cycle(true);
        assert_eq!(cfg.router_config().timing, Timing::single_cycle());
    }

    #[test]
    fn labels_match_figure_legends() {
        assert_eq!(RouterKind::Wormhole { buffers: 8 }.label(), "WH (8 bufs)");
        assert_eq!(
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4
            }
            .label(),
            "specVC (2vcsX4bufs)"
        );
    }

    #[test]
    fn kind_accessors() {
        let k = RouterKind::VirtualChannel {
            vcs: 4,
            buffers_per_vc: 4,
        };
        assert_eq!(k.vcs(), 4);
        assert_eq!(k.buffers_per_vc(), 4);
        assert_eq!(RouterKind::Wormhole { buffers: 16 }.vcs(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_injection_rejected() {
        let _ = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 8 }).with_injection(0.0);
    }

    #[test]
    fn for_mesh_keeps_the_topology() {
        let cfg = NetworkConfig::for_mesh(Mesh::new(4, 3), RouterKind::Wormhole { buffers: 8 });
        assert_eq!(cfg.mesh.nodes(), 64);
        assert_eq!(cfg.mesh.ports(), 7);
        assert_eq!(cfg.router_config().ports, 7, "arena sizing follows ports");
        assert_eq!(
            NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 8 }).mesh,
            Mesh::new(4, 2),
            "the k x k constructor still builds 2-D"
        );
    }

    #[test]
    fn validate_accepts_the_supported_grid() {
        let vc = RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        };
        for dims in 1..=3 {
            for radix in [2, 4, 8, 16, 32] {
                let mesh = NetworkConfig::for_mesh(Mesh::new(radix, dims), vc);
                assert_eq!(mesh.validate(), Ok(()), "{radix}-ary {dims}-mesh");
                assert_eq!(
                    mesh.clone().into_torus().validate(),
                    Ok(()),
                    "{radix}-ary {dims}-torus"
                );
                assert_eq!(
                    mesh.with_routing(RoutingAlgo::NegativeFirstAdaptive)
                        .validate(),
                    Ok(()),
                    "negative-first on {radix}-ary {dims}-mesh"
                );
            }
        }
    }

    #[test]
    fn validate_rejects_torus_without_dateline_vcs() {
        for router in [
            RouterKind::Wormhole { buffers: 8 },
            RouterKind::VirtualCutThrough { buffers: 8 },
            RouterKind::VirtualChannel {
                vcs: 1,
                buffers_per_vc: 8,
            },
        ] {
            let err = NetworkConfig::mesh(4, router)
                .into_torus()
                .validate()
                .unwrap_err();
            assert_eq!(
                err,
                ConfigError::TorusNeedsDatelineVcs { vcs: 1 },
                "{router}"
            );
            let msg = err.to_string();
            assert!(msg.contains(">= 2 VCs"), "unactionable: {msg}");
            assert!(msg.contains("SpeculativeVc"), "no fix named: {msg}");
        }
    }

    #[test]
    fn validate_rejects_west_first_outside_two_d_meshes() {
        let vc = RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        };
        for (mesh, dims, torus) in [
            (Mesh::new(4, 3), 3, false),
            (Mesh::new(8, 1), 1, false),
            (Mesh::new(4, 2).into_torus(), 2, true),
        ] {
            let err = NetworkConfig::for_mesh(mesh, vc)
                .with_routing(RoutingAlgo::WestFirstAdaptive)
                .validate()
                .unwrap_err();
            assert_eq!(err, ConfigError::WestFirstNeedsTwoDimMesh { dims, torus });
            let msg = err.to_string();
            assert!(msg.contains("NegativeFirstAdaptive"), "no fix named: {msg}");
        }
    }

    #[test]
    fn validate_rejects_negative_first_on_torus() {
        let vc = RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        };
        let err = NetworkConfig::for_mesh(Mesh::new(4, 3).into_torus(), vc)
            .with_routing(RoutingAlgo::NegativeFirstAdaptive)
            .validate()
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::AdaptiveOnTorus {
                algo: RoutingAlgo::NegativeFirstAdaptive
            }
        );
        assert!(err.to_string().contains("DimensionOrdered"), "{err}");
    }

    #[test]
    fn validate_bounds_the_rebalance_knob() {
        let base = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 8 });
        assert_eq!(base.validate(), Ok(()), "knob off is always valid");
        assert_eq!(
            base.clone().with_rebalance(0, 1.5).validate(),
            Err(ConfigError::RebalanceEpochZero)
        );
        for bad in [0.99, 0.0, -3.0, f64::NAN] {
            assert_eq!(
                base.clone().with_rebalance(64, bad).validate(),
                Err(ConfigError::RebalanceThresholdBelowOne),
                "threshold {bad}"
            );
        }
        for ok in [1.0, 1.5, f64::INFINITY] {
            assert_eq!(
                base.clone().with_rebalance(1, ok).validate(),
                Ok(()),
                "threshold {ok}"
            );
        }
        let msg = ConfigError::RebalanceThresholdBelowOne.to_string();
        assert!(msg.contains("work_max/work_mean"), "message names the fix");
        assert!(ConfigError::RebalanceEpochZero
            .to_string()
            .contains("epoch"));
    }

    #[test]
    fn validate_rejects_shapes_beyond_the_table_encoding() {
        let vc = RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        };
        let err = NetworkConfig::for_mesh(Mesh::new(257, 1), vc)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::RadixTooLarge { radix: 257 });
        assert!(err.to_string().contains("dimension"), "{err}");
        let err = NetworkConfig::for_mesh(Mesh::new(2, 9), vc)
            .with_routing(RoutingAlgo::NegativeFirstAdaptive)
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::TooManyAdaptiveDims { dims: 9 });
        assert_eq!(
            NetworkConfig::for_mesh(Mesh::new(2, 9), vc).validate(),
            Ok(()),
            "dimension-ordered has no dimension cap"
        );
    }

    #[test]
    fn validate_rejects_a_load_that_is_not_finite_and_positive() {
        let ok = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 8 });
        for bad in [0.0, -0.1, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut cfg = ok.clone();
            cfg.injection_fraction = bad;
            assert_eq!(
                cfg.validate(),
                Err(ConfigError::InjectionFractionInvalid),
                "load {bad}"
            );
        }
        // `with_injection` lets infinity through; building the network
        // must then return the error instead of panicking in a source.
        let Err(err) = crate::sim::Network::try_new(ok.clone().with_injection(f64::INFINITY))
        else {
            panic!("an infinite load must be rejected");
        };
        assert_eq!(err, ConfigError::InjectionFractionInvalid);
        assert!(err.to_string().contains("finite"), "{err}");
        assert!(crate::sim::Network::try_new(ok.with_injection(2.0)).is_ok());
    }

    #[test]
    fn try_new_returns_an_error_where_it_used_to_panic() {
        // Each of these passed `validate` and then panicked building the
        // network (zero VCs or buffers, zero-flit packets), at its first
        // credit (a zero-cycle credit path underflows its latency), or in
        // `Mesh::nodes` (256^8 overflows).
        let vc = |vcs, buffers_per_vc| RouterKind::VirtualChannel {
            vcs,
            buffers_per_vc,
        };
        let base = NetworkConfig::mesh(4, vc(2, 4));
        let packets = |len| NetworkConfig {
            packet_len: len,
            ..base.clone()
        };
        let spec_vc = RouterKind::SpeculativeVc {
            vcs: 0,
            buffers_per_vc: 4,
        };
        let no_credit_delay = NetworkConfig {
            credit_proc_delay: 0,
            ..base.clone().with_credit_prop_delay(0)
        };
        let cases = [
            (
                NetworkConfig::mesh(4, vc(0, 4)),
                ConfigError::VcsZero,
                "vcs = 0",
            ),
            (
                NetworkConfig::mesh(4, spec_vc),
                ConfigError::VcsZero,
                "vcs = 0",
            ),
            (
                NetworkConfig::mesh(4, vc(2, 0)),
                ConfigError::BuffersZero,
                "buffers",
            ),
            (
                NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 0 }),
                ConfigError::BuffersZero,
                "buffers",
            ),
            (
                NetworkConfig::mesh(4, RouterKind::VirtualCutThrough { buffers: 0 }),
                ConfigError::BuffersZero,
                "buffers",
            ),
            (
                packets(0),
                ConfigError::PacketLenOutOfRange { len: 0 },
                "1..=255",
            ),
            (
                packets(256),
                ConfigError::PacketLenOutOfRange { len: 256 },
                "1..=255",
            ),
            (no_credit_delay, ConfigError::CreditDelayZero, "delay >= 1"),
            (
                NetworkConfig::for_mesh(Mesh::new(256, 8), vc(2, 4)),
                ConfigError::TooManyNodes {
                    radix: 256,
                    dims: 8,
                },
                "2^24",
            ),
            (
                NetworkConfig::for_mesh(Mesh::new(2, 25), RouterKind::Wormhole { buffers: 8 }),
                ConfigError::TooManyNodes { radix: 2, dims: 25 },
                "2^24",
            ),
        ];
        for (cfg, want, fix) in cases {
            let Err(err) = crate::sim::Network::try_new(cfg) else {
                panic!("{want:?}: the network was built");
            };
            assert_eq!(err, want);
            assert!(err.to_string().contains(fix), "{err}");
        }
        // The edges of each bound are valid.
        for len in [1, 255] {
            assert_eq!(packets(len).validate(), Ok(()), "{len}-flit packets");
        }
        let one_cycle_credits = NetworkConfig {
            credit_proc_delay: 0,
            ..base.clone().with_credit_prop_delay(1)
        };
        assert_eq!(one_cycle_credits.validate(), Ok(()));
        for mesh in [Mesh::new(256, 3), Mesh::new(2, 24)] {
            let wh = NetworkConfig::for_mesh(mesh, RouterKind::Wormhole { buffers: 8 });
            assert_eq!(wh.validate(), Ok(()), "2^24 nodes");
        }
    }

    #[test]
    fn validate_gates_hotspot_traffic() {
        // A hot node off the mesh used to pass `validate` and then panic
        // routing the first hot packet.
        let hotspot = |hotspot, hotness| {
            NetworkConfig::mesh(
                4,
                RouterKind::SpeculativeVc {
                    vcs: 2,
                    buffers_per_vc: 4,
                },
            )
            .with_pattern(TrafficPattern::Hotspot { hotspot, hotness })
        };
        let Err(err) = crate::sim::Network::try_new(hotspot(99, 0.5)) else {
            panic!("a hot node off the mesh must be rejected");
        };
        assert_eq!(
            err,
            ConfigError::HotspotOutOfRange {
                node: 99,
                nodes: 16
            }
        );
        assert!(err.to_string().contains("hotspot node 99"), "{err}");
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY] {
            let Err(err) = crate::sim::Network::try_new(hotspot(5, bad)) else {
                panic!("hotness {bad} must be rejected");
            };
            assert_eq!(err, ConfigError::HotnessInvalid, "hotness {bad}");
            assert!(err.to_string().contains("[0, 1]"), "{err}");
        }
        for (node, hotness) in [(0, 0.0), (15, 1.0), (5, 0.5)] {
            assert_eq!(
                hotspot(node, hotness).validate(),
                Ok(()),
                "{node}, {hotness}"
            );
        }
    }

    #[test]
    fn validate_caps_router_channels_at_64() {
        let wide = |vcs| RouterKind::SpeculativeVc {
            vcs,
            buffers_per_vc: 4,
        };
        // 5 ports x 12 VCs fit a mask; 5 x 13 does not.
        assert_eq!(NetworkConfig::mesh(4, wide(12)).validate(), Ok(()));
        let err = NetworkConfig::mesh(4, wide(13)).validate().unwrap_err();
        assert_eq!(err, ConfigError::TooManyChannels { ports: 5, vcs: 13 });
        let msg = err.to_string();
        assert!(msg.contains("5 ports") && msg.contains("13 vcs"), "{msg}");
        // A 3-D mesh has 7-port routers: 7 x 10 = 70 channels.
        let err = NetworkConfig::for_mesh(Mesh::new(3, 3), wide(10))
            .validate()
            .unwrap_err();
        assert_eq!(err, ConfigError::TooManyChannels { ports: 7, vcs: 10 });
    }

    #[test]
    fn builder_order_no_longer_matters_for_torus_and_routing() {
        // Previously into_torus()/with_routing() asserted eagerly, so a
        // valid end state could panic mid-build; now only the end state
        // is judged.
        let vc = RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        };
        let cfg = NetworkConfig::mesh(4, vc)
            .with_routing(RoutingAlgo::WestFirstAdaptive)
            .with_routing(RoutingAlgo::DimensionOrdered)
            .into_torus();
        assert_eq!(cfg.validate(), Ok(()));
    }

    #[test]
    fn fault_spec_grammar_round_trips() {
        for (s, spec) in [
            (
                "link:28:2:dead@500",
                FaultSpec {
                    target: FaultTarget::Link { node: 28, port: 2 },
                    kind: FaultKind::Dead { at: 500 },
                },
            ),
            (
                "link:3:1:flaky@64/16/8",
                FaultSpec {
                    target: FaultTarget::Link { node: 3, port: 1 },
                    kind: FaultKind::Flaky {
                        period: 64,
                        down: 16,
                        phase: 8,
                    },
                },
            ),
            (
                "link:0:0:loss@0.25",
                FaultSpec {
                    target: FaultTarget::Link { node: 0, port: 0 },
                    kind: FaultKind::Lossy { prob: 0.25 },
                },
            ),
            (
                "router:27:dead@500",
                FaultSpec {
                    target: FaultTarget::Router { node: 27 },
                    kind: FaultKind::Dead { at: 500 },
                },
            ),
        ] {
            assert_eq!(FaultSpec::parse(s), Ok(spec), "{s}");
            assert_eq!(
                FaultSpec::parse(&spec.to_string()),
                Ok(spec),
                "display round-trip of {s}"
            );
        }
        // Phase defaults to 0.
        assert_eq!(
            FaultSpec::parse("link:1:0:flaky@8/2"),
            Ok(FaultSpec {
                target: FaultTarget::Link { node: 1, port: 0 },
                kind: FaultKind::Flaky {
                    period: 8,
                    down: 2,
                    phase: 0
                },
            })
        );
    }

    #[test]
    fn fault_spec_parse_errors_name_the_grammar() {
        for bad in [
            "switch:1:dead@5",
            "link:1:dead@5",
            "link:a:0:dead@5",
            "link:1:0:dead",
            "link:1:0:dead@x",
            "link:1:0:flaky@64",
            "link:1:0:flaky@64/8/1/2",
            "link:1:0:gone@5",
            "router:1:dead@5:extra",
            "",
        ] {
            let err = FaultSpec::parse(bad).unwrap_err();
            assert!(err.contains("fault"), "{bad}: {err}");
        }
        let list = parse_faults("router:27:dead@500, link:28:2:flaky@64/16;").unwrap();
        assert_eq!(list.len(), 2);
        assert!(parse_faults("router:27:dead@500,bogus").is_err());
        assert_eq!(parse_faults(""), Ok(vec![]));
    }

    #[test]
    fn validate_bounds_the_fault_plan() {
        let base = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 8 });
        let fault = |s: &str| FaultSpec::parse(s).unwrap();
        assert_eq!(
            base.clone()
                .with_faults(vec![fault("router:5:dead@100")])
                .validate(),
            Ok(())
        );
        assert_eq!(
            base.clone()
                .with_faults(vec![fault("router:16:dead@100")])
                .validate(),
            Err(ConfigError::FaultNodeOutOfRange {
                index: 0,
                node: 16,
                nodes: 16
            })
        );
        assert_eq!(
            base.clone()
                .with_faults(vec![fault("link:5:7:dead@100")])
                .validate(),
            Err(ConfigError::FaultPortOutOfRange {
                index: 0,
                port: 7,
                ports: 5
            })
        );
        // Node 0 sits at the mesh corner: port 1 (x-negative) is unwired.
        assert_eq!(
            base.clone()
                .with_faults(vec![fault("link:0:1:dead@100")])
                .validate(),
            Err(ConfigError::FaultLinkMissing {
                index: 0,
                node: 0,
                port: 1
            })
        );
        // ...but on a torus the wrap link exists. (Torus needs VCs.)
        let torus = NetworkConfig::mesh(
            4,
            RouterKind::VirtualChannel {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .into_torus();
        assert_eq!(
            torus
                .with_faults(vec![fault("link:0:1:dead@100")])
                .validate(),
            Ok(())
        );
        for bad in ["flaky@8/0", "flaky@8/8", "flaky@8/2/8", "flaky@0/0"] {
            let err = base
                .clone()
                .with_faults(vec![fault(&format!("link:5:0:{bad}"))])
                .validate()
                .unwrap_err();
            assert!(
                matches!(err, ConfigError::FaultFlakyDuty { index: 0, .. }),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains("1 <= down < period"), "{err}");
        }
        for bad in ["loss@1.5", "loss@-0.1", "loss@NaN", "loss@inf"] {
            assert_eq!(
                base.clone()
                    .with_faults(vec![fault(&format!("link:5:0:{bad}"))])
                    .validate(),
                Err(ConfigError::FaultLossProbInvalid { index: 0 }),
                "{bad}"
            );
        }
    }

    #[test]
    fn validate_rejects_ambiguous_fault_merges() {
        let base = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 8 });
        let fault = |s: &str| FaultSpec::parse(s).unwrap();
        // Two flaky faults on the same directed link: ambiguous.
        assert_eq!(
            base.clone()
                .with_faults(vec![
                    fault("link:5:0:flaky@8/2"),
                    fault("link:5:0:flaky@16/4"),
                ])
                .validate(),
            Err(ConfigError::FaultDuplicate { index: 1 })
        );
        // A router-wide flaky fault claims the incident links too.
        assert_eq!(
            base.clone()
                .with_faults(vec![
                    fault("router:5:flaky@8/2"),
                    fault("link:5:0:flaky@16/4"),
                ])
                .validate(),
            Err(ConfigError::FaultDuplicate { index: 1 })
        );
        // ...including the *incoming* direction from the neighbor.
        assert_eq!(
            base.clone()
                .with_faults(vec![
                    fault("router:5:flaky@8/2"),
                    fault("link:6:1:flaky@16/4"),
                ])
                .validate(),
            Err(ConfigError::FaultDuplicate { index: 1 })
        );
        // Dead faults overlap freely (earliest kill wins), and a dead
        // plus a flaky on one link is a valid combination.
        assert_eq!(
            base.clone()
                .with_faults(vec![
                    fault("router:5:dead@200"),
                    fault("link:5:0:dead@100"),
                    fault("link:5:0:flaky@8/2"),
                    fault("link:5:0:loss@0.1"),
                ])
                .validate(),
            Ok(())
        );
        // Different directed links never collide.
        assert_eq!(
            base.with_faults(vec![
                fault("link:5:0:flaky@8/2"),
                fault("link:5:1:flaky@8/2"),
            ])
            .validate(),
            Ok(())
        );
    }

    #[test]
    fn engine_kinds_report_their_thread_footprint() {
        assert_eq!(EngineKind::CycleDriven.threads_per_run(), 1);
        assert_eq!(EngineKind::EventDriven.threads_per_run(), 1);
        assert_eq!(EngineKind::parallel(4).threads_per_run(), 4);
        assert_eq!(
            EngineKind::ParallelShards { shards: 0 }.threads_per_run(),
            1,
            "a degenerate shard count still occupies one thread"
        );
        assert_eq!(EngineKind::parallel(3).to_string(), "parallel-shards(3)");
    }
}
