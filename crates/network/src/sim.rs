//! The network simulator: routers wired by fixed-latency links, driven
//! by constant-rate sources, measured with the paper's warm-up + tagged
//! sample protocol.
//!
//! # One link layer
//!
//! Every wire crossing — a flit switched onto a link or injected by a
//! source, a credit returned for a freed buffer — is scheduled once, as a
//! [`LinkEvent`] on a calendar wheel ([`EventWheel`]) at the cycle it is
//! delivered: `now + 1 + link_delay` for flits, `now + 1 +
//! credit_latency` for credits. The event already names its receiver
//! (the downstream input, the upstream output, or the node's own source),
//! resolved through the [`RouteTable`]'s neighbor table at send time, so
//! delivery is one call. Each wire has one latency, so its items land in
//! one wheel slot per cycle in send order: the per-link FIFO order is
//! kept.
//!
//! # Two serial engines, one result
//!
//! The network can be advanced by either of two serial engines (selected
//! with [`crate::config::EngineKind`]); both drain the same wheel slot at
//! the start of every cycle:
//!
//! * **cycle-driven** — tick every router every cycle and never skip a
//!   cycle. The reference implementation: obviously correct, O(nodes)
//!   work per cycle no matter how idle the fabric is.
//! * **event-driven** — the default. Routers are ticked only while
//!   non-quiescent (see [`Router::is_quiescent`]) and are woken by flit
//!   arrival, and a run fast-forwards over cycles in which nothing can
//!   happen. At the sub-saturation loads that dominate a
//!   latency–throughput curve, most routers are idle in most cycles, so
//!   this skips the bulk of the work.
//!
//! The engines produce **bit-identical** results, because the event
//! engine only elides provable no-ops: a quiescent router's tick changes
//! no state (arbiter priorities move only on grants), and credits are
//! push-delivered. Within a delivery phase the deliveries commute (they
//! touch disjoint buffers and counters), so schedule order is as good as
//! node order; sources are stepped in node order, routers are ticked in
//! node order, and routers only interact through links with ≥ 1 cycle of
//! latency — so every cross-engine reordering is of commuting operations.
//! The claim is enforced, not assumed: `tests/engine_equivalence.rs` runs
//! the engines over randomized configurations and asserts identical
//! measurements, and `tests/golden_results.rs` pins exact results across
//! commits.

use crate::channel_load::ChannelLoad;
use crate::config::{ConfigError, EngineKind, NetworkConfig};
use crate::fault::{clip, ClipSlot, DropReason, DropStats, FaultModel};
use crate::histogram::Histogram;
use crate::routing::RouteTable;
use crate::shard::{
    worker_loop, Lockstep, PoisonGuard, ShardCtx, ShardEnv, ShardOut, ShardSet, SRC_SCAN_CAP,
};
use crate::source::{packet_seq, packet_source, Source, SourceStep};
use crate::stats::{EngineWork, LatencyStats, PhaseNanos};
use crate::tap::{BoundaryCounts, EngineView, TelemetryState};
use crate::topology::Mesh;
use router_core::{EventWheel, Flit, PacketId, Router, RoutingOracle, TickOutput};
use runqueue::CancelToken;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::Instant;
use telemetry::{FlowStats, MetricsLog, MetricsTap, TraceLog};

/// How often a run polls its cancellation token, in cycles. Cooperative
/// cancellation is checked at cycle-*batch* granularity: one relaxed
/// atomic load per 1024 cycles is unmeasurable, while still bounding the
/// post-cancel overshoot of even a paper-scale run to well under a
/// millisecond of work.
pub const CANCEL_BATCH: u64 = 1024;

/// The routing function of one node: two loads from the network's
/// precomputed [`RouteTable`] (see `routing.rs`) — no per-flit coordinate
/// math, no candidate-list allocation.
pub(crate) struct NodeOracle<'a> {
    pub(crate) table: &'a RouteTable,
    pub(crate) node: usize,
    /// The fault model and the kill epoch in force at the tick being
    /// routed, when the run has a fault plan. Routing runs once per
    /// packet per router at the same cycle in every engine, so the
    /// epoch — and therefore the choice — is engine-invariant.
    pub(crate) fault: Option<(&'a FaultModel, usize)>,
}

impl RoutingOracle for NodeOracle<'_> {
    fn output_port(&self, flit: &Flit) -> usize {
        match self.fault {
            None => self.table.route(self.node, flit.dest, flit.packet.value()),
            Some((fm, epoch)) => {
                fm.route(self.table, epoch, self.node, flit.dest, flit.packet.value())
            }
        }
    }

    fn vc_mask(&self, flit: &Flit, _out_port: usize) -> u64 {
        self.table.vc_mask(self.node, flit.dest)
    }
}

/// The result of one simulation run at a fixed offered load.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Offered load, as the configured fraction of capacity.
    pub offered: f64,
    /// Mean latency of the tagged packets (creation → tail ejection), or
    /// `None` if no tagged packet completed.
    pub avg_latency: Option<f64>,
    /// Full latency statistics of the tagged sample.
    pub stats: LatencyStats,
    /// True if the run hit the cycle limit before the tagged sample
    /// drained — the network is saturated at this load.
    pub saturated: bool,
    /// Cycles simulated.
    pub cycles: u64,
    /// Accepted throughput during measurement, as a fraction of capacity.
    pub accepted: f64,
    /// Total flits ejected over the whole run.
    pub flits_ejected: u64,
    /// Latency distribution of the tagged sample (10-cycle buckets).
    pub histogram: Histogram,
    /// Router event counters summed over all nodes.
    pub router_stats: router_core::RouterStats,
    /// Work the engine performed (identical results, different effort —
    /// see [`crate::config::EngineKind`]).
    pub work: EngineWork,
    /// Wall-clock attribution per engine phase, present only when
    /// [`NetworkConfig::with_phase_timing`] was enabled (instrumentation
    /// changes no simulation result, only adds clock reads).
    pub phases: Option<PhaseNanos>,
    /// True if the run stopped early because its
    /// [`NetworkConfig::with_cancel`] token was poisoned. A cancelled
    /// run's measurements are partial (it also reads as `saturated`,
    /// since the sample never drained) and must be discarded, not
    /// recorded.
    pub cancelled: bool,
    /// Flits dropped by the fault layer over the whole run (0 on a
    /// healthy network).
    pub dropped_flits: u64,
    /// Packets dropped by the fault layer (counted at the head flit).
    pub dropped_packets: u64,
    /// Drop counters broken down by [`DropReason`].
    pub drops: DropStats,
    /// Ordered (src, dst) pairs unreachable under the kill epoch in
    /// force when the run ended (0 without permanent kills).
    pub unreachable_pairs: u64,
    /// Delivered-vs-offered ratio: ejected flits over injected flits
    /// (1.0 when nothing was injected — an empty run delivered
    /// everything it was offered).
    pub delivered_ratio: f64,
    /// Per-node drop counters by reason, indexed by node id (always
    /// populated; all-zero on a healthy network).
    pub node_drops: Vec<DropStats>,
    /// Per-(source → dest) latency accumulators of the tagged sample,
    /// present when [`NetworkConfig::with_telemetry`] was set.
    /// Bit-identical across engine kinds, shard counts, and schedules.
    pub flow_stats: Option<FlowStats>,
    /// The retained epoch-snapshot stream, present when telemetry was
    /// on. Its counter section ([`MetricsLog::identity`]) is
    /// bit-identical across engine kinds, shard counts, thread
    /// schedules, and barrier kinds; gauges are engine diagnostics.
    pub metrics: Option<MetricsLog>,
    /// Per-epoch phase spans, present when both telemetry and
    /// [`NetworkConfig::with_phase_timing`] were on (wall-clock
    /// measurements — no identity guarantee). Export with
    /// [`TraceLog::write_chrome_trace`].
    pub trace: Option<TraceLog>,
}

/// One wire crossing in flight, scheduled on a link wheel at the cycle
/// it is delivered. It names its receiver, so delivery needs no neighbor
/// lookup.
#[derive(Debug, Clone, Copy)]
pub(crate) enum LinkEvent {
    /// A flit arriving at input `port` of router `node`.
    Flit { node: u32, port: u8, flit: Flit },
    /// A credit for VC `vc` of output `port` of router `node`: the
    /// downstream input that output feeds freed a buffer.
    Credit { node: u32, port: u8, vc: u32 },
    /// A credit for VC `vc` of `node`'s injection channel, for its
    /// source.
    SourceCredit { node: u32, vc: u32 },
}

impl LinkEvent {
    /// A flit leaving `node` through `out_port`, bound for the input
    /// that port is wired to: the paired direction of the same dimension
    /// ([`Mesh::opposite`]).
    #[inline]
    pub(crate) fn departure(table: &RouteTable, node: usize, out_port: usize, flit: Flit) -> Self {
        let next = table
            .neighbor(node, out_port)
            .expect("departure off the mesh edge");
        LinkEvent::Flit {
            node: next as u32,
            port: (out_port ^ 1) as u8,
            flit,
        }
    }

    /// The credit freed at input `in_port` of `node`, bound for what
    /// feeds that input: the upstream router's output, or the node's own
    /// source on the local port.
    #[inline]
    pub(crate) fn credit(table: &RouteTable, node: usize, in_port: usize, vc: usize) -> Self {
        if in_port == table.local_port() {
            return LinkEvent::SourceCredit {
                node: node as u32,
                vc: vc as u32,
            };
        }
        let up = table
            .neighbor(node, in_port)
            .expect("credit on an unwired port");
        LinkEvent::Credit {
            node: up as u32,
            port: (in_port ^ 1) as u8,
            vc: vc as u32,
        }
    }

    /// The node whose state the event changes (the shard that owns it
    /// holds the event).
    #[inline]
    pub(crate) fn node(&self) -> usize {
        match *self {
            LinkEvent::Flit { node, .. }
            | LinkEvent::Credit { node, .. }
            | LinkEvent::SourceCredit { node, .. } => node as usize,
        }
    }

    #[inline]
    pub(crate) fn is_flit(&self) -> bool {
        matches!(self, LinkEvent::Flit { .. })
    }

    /// Delivers the event at `now` into the per-node state slices, whose
    /// first entry is node `lo`. A flit wakes its router; a credit needs
    /// no wake-up, because it only *enables* work for flits the receiver
    /// already buffers (a non-quiescent receiver is already active, a
    /// quiescent one stays a no-op until a flit arrives — see
    /// [`Router::is_quiescent`]). Returns whether the event was a flit.
    #[inline]
    pub(crate) fn deliver(
        self,
        now: u64,
        lo: usize,
        routers: &mut [Router],
        sources: &mut [Source],
        active: &mut [bool],
    ) -> bool {
        match self {
            LinkEvent::Flit { node, port, flit } => {
                let i = node as usize - lo;
                routers[i].accept_flit(port as usize, flit, now);
                active[i] = true;
                true
            }
            LinkEvent::Credit { node, port, vc } => {
                routers[node as usize - lo].accept_credit(port as usize, vc as usize, now);
                false
            }
            LinkEvent::SourceCredit { node, vc } => {
                sources[node as usize - lo].credit(vc as usize);
                false
            }
        }
    }
}

/// A mesh of routers under simulation.
#[derive(Debug)]
pub struct Network {
    cfg: NetworkConfig,
    routers: Vec<Router>,
    sources: Vec<Source>,
    /// Precomputed per-node routing decisions and neighbors (see
    /// [`RouteTable`]).
    route_table: RouteTable,
    now: u64,
    /// Credit return latency (propagation + processing − 1), cached.
    credit_latency: u64,
    /// Every flit and credit on a wire, keyed by delivery cycle (the
    /// serial engines' link layer; the sharded engine keeps one wheel
    /// per shard instead).
    wheel: EventWheel<LinkEvent>,
    /// Routers with work pending; the event engine ticks them each cycle
    /// until quiescent.
    router_active: Vec<bool>,
    /// Reused tick output buffer.
    tick_buf: TickOutput,
    /// Reused source step buffer.
    source_step_buf: SourceStep,
    /// Router ticks executed (work accounting).
    router_ticks: u64,
    /// Cached earliest cycle at which a source can cross its injection
    /// threshold (the serial event engine's half of the quiescence
    /// fast-forward; the sharded engine keeps per-shard caches instead).
    /// Valid until reached — a quiet source's crossing schedule is pure
    /// accumulator arithmetic and cannot move earlier.
    src_next: u64,
    /// Sharded-parallel engine state (present only under
    /// [`EngineKind::ParallelShards`]; see [`crate::shard`]).
    shards: Option<ShardSet>,
    /// The global, order-sensitive measurement state — one field, so the
    /// serial engines and the parallel [`Committer`] borrow it as a unit
    /// and there is exactly one list of what "measurement" means.
    meas: Measurement,
    /// Reassembly slot per `(node, ejection VC)`: the packet currently
    /// ejecting there and how many of its flits have arrived. Packets
    /// cannot interleave within one ejection VC (the output VC / wormhole
    /// hold is owned until the tail), so this replaces the old
    /// `HashMap<PacketId, u32>` with a dense `node * vcs + vc` lookup.
    /// A count of 0 means the slot is free. (Node-indexed, hence shard-
    /// split under the parallel engine — not part of [`Measurement`].)
    eject_slots: Vec<(PacketId, u32)>,
    /// Per-phase wall-clock attribution (accumulated only when
    /// `cfg.phase_timing` is set).
    phases: PhaseNanos,
    /// The compiled fault plan (`None` on a healthy network — every
    /// fault hook below is behind this option, so an empty plan runs
    /// exactly today's code).
    fault: Option<FaultModel>,
    /// Clip-at-head state per (node, output port, VC) — the fate a head
    /// flit decided at a link, held until its tail passes. Node-indexed
    /// (shard-split; untouched by rebalancing migration, which only
    /// re-homes due-cycle state).
    clip_out: Vec<ClipSlot>,
    /// Clip-at-head state per (node, injection VC) — a source holds one
    /// packet per VC but interleaves packets across its VCs.
    clip_in: Vec<ClipSlot>,
    /// Per-node drop counters by reason (node = where the drop
    /// happened; shard-split, order-independent sums).
    drops: Vec<DropStats>,
}

/// Measurement state. All of it is index-addressed — no hash structure
/// anywhere in the per-cycle path.
#[derive(Debug)]
struct Measurement {
    /// Per source node, the half-open `[lo, hi)` range of packet
    /// sequence numbers belonging to the tagged sample. Tagging is by
    /// creation order while a global monotone counter is below the
    /// sample size, so each node's tagged seqs are contiguous — a range
    /// replaces the old `HashSet<PacketId>` exactly.
    tagged_ranges: Vec<(u64, u64)>,
    tagged_created: u64,
    tagged_done: u64,
    latency: LatencyStats,
    histogram: Histogram,
    channel_load: ChannelLoad,
    flits_ejected: u64,
    measured_flits: u64,
    measure_start: Option<u64>,
    /// Telemetry state, allocated only when
    /// [`NetworkConfig::with_telemetry`] is set. Lives inside
    /// `Measurement` because every mutation happens at serially-ordered
    /// points: the serial engines' own steps, or the sharded engine's
    /// leader-only commit.
    telemetry: Option<Box<TelemetryState>>,
}

impl Measurement {
    /// Tags `id` if the sample is still filling (call in creation order;
    /// shared by [`Network::step_sources`] and the parallel commit).
    #[inline]
    fn tag_created(&mut self, id: PacketId, now: u64, cfg: &NetworkConfig) {
        if self.tagged_created < cfg.sample_packets {
            let seq = packet_seq(id);
            let range = &mut self.tagged_ranges[packet_source(id)];
            if range.0 == range.1 {
                *range = (seq, seq + 1);
            } else {
                debug_assert_eq!(seq, range.1, "non-contiguous tagged seq");
                range.1 = seq + 1;
            }
            self.tagged_created += 1;
            if self.measure_start.is_none() {
                self.measure_start = Some(now);
            }
        }
    }

    /// Records a tail ejection at cycle `now` of a packet created at
    /// `created` and delivered to `dest`, if it belongs to the tagged
    /// sample.
    #[inline]
    fn record_tail(&mut self, packet: PacketId, created: u64, now: u64, dest: usize) {
        let (lo, hi) = self.tagged_ranges[packet_source(packet)];
        let seq = packet_seq(packet);
        if (lo..hi).contains(&seq) {
            self.tagged_done += 1;
            self.latency.record(now - created);
            self.histogram.record(now - created);
            if let Some(t) = self.telemetry.as_deref_mut() {
                t.flows.record(packet_source(packet), dest, now - created);
            }
        }
    }

    /// Resolves a tagged packet whose head the fault layer dropped: the
    /// sample must not wait for a tail that will never eject. Counts the
    /// packet done without contributing a latency observation.
    #[inline]
    fn record_dropped(&mut self, packet: PacketId) {
        let (lo, hi) = self.tagged_ranges[packet_source(packet)];
        let seq = packet_seq(packet);
        if (lo..hi).contains(&seq) {
            self.tagged_done += 1;
        }
    }
}

impl Network {
    /// Builds and wires the network described by `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if [`NetworkConfig::validate`] rejects `cfg`, with the
    /// [`ConfigError`] message; use [`Network::try_new`] to handle the
    /// rejection instead.
    #[must_use]
    pub fn new(cfg: NetworkConfig) -> Self {
        Self::try_new(cfg).unwrap_or_else(|e| panic!("invalid network configuration: {e}"))
    }

    /// Builds and wires the network described by `cfg`, rejecting
    /// unsimulable configurations instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns whatever [`NetworkConfig::validate`] reports: a torus
    /// without dateline VCs, a turn-model adaptive algorithm outside its
    /// domain, or a topology beyond the route table's compact encoding.
    pub fn try_new(cfg: NetworkConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let mesh = &cfg.mesh;
        let nodes = mesh.nodes();
        let ports = mesh.ports();
        let local = mesh.local_port();
        let rcfg = cfg.router_config();
        let buffers = rcfg.buffers_per_vc as u64;

        let mut routers: Vec<Router> = (0..nodes).map(|_| Router::new(rcfg)).collect();
        for (node, router) in routers.iter_mut().enumerate() {
            for port in 0..ports {
                if port == local {
                    router.mark_sink(port);
                } else if mesh.neighbor(node, port).is_some() {
                    router.set_output_credits(port, buffers);
                } else {
                    router.set_output_credits(port, 0); // mesh edge
                }
            }
        }

        let rate = cfg.packets_per_node_cycle();
        let sources = (0..nodes)
            .map(|node| Source::new(node, rate, cfg.packet_len, rcfg.vcs, buffers, cfg.seed))
            .collect();

        let route_table = RouteTable::new(mesh, cfg.routing, rcfg.vcs);
        let fault = FaultModel::new(&cfg, &route_table);
        let credit_latency = cfg.credit_prop_delay + cfg.credit_proc_delay - 1;
        // Horizon: an event sent during cycle `t` arrives at
        // `t + 1 + latency`, so the wheel must reach that far ahead.
        let horizon = 1 + cfg.link_delay.max(credit_latency) + 1;
        let channel_load = ChannelLoad::new(&cfg.mesh);
        let vcs = cfg.router.vcs();
        let shards = match cfg.engine {
            EngineKind::ParallelShards { shards } => {
                Some(ShardSet::new(&cfg.mesh, shards, horizon, cfg.rebalance))
            }
            EngineKind::CycleDriven | EngineKind::EventDriven => None,
        };
        // Each input port receives at most one flit and frees at most one
        // buffer per cycle, which bounds a wheel slot; presized, the
        // serial link wheel never allocates (the sharded engine keeps
        // per-shard wheels instead).
        let per_slot = if shards.is_some() {
            0
        } else {
            2 * nodes * ports
        };
        // One trace lane per effective shard (the partition may clamp
        // below the requested count); the serial engines use lane 0.
        let lanes = shards.as_ref().map_or(1, |s| s.ranges.len());
        let telemetry = cfg
            .telemetry
            .map(|t| Box::new(TelemetryState::new(t.epoch, nodes, lanes, cfg.phase_timing)));
        Ok(Network {
            cfg,
            routers,
            sources,
            route_table,
            now: 0,
            credit_latency,
            wheel: EventWheel::with_slot_capacity(horizon, per_slot),
            router_active: vec![false; nodes],
            tick_buf: TickOutput::default(),
            source_step_buf: SourceStep::default(),
            router_ticks: 0,
            src_next: 0,
            shards,
            meas: Measurement {
                tagged_ranges: vec![(0, 0); nodes],
                tagged_created: 0,
                tagged_done: 0,
                latency: LatencyStats::new(),
                histogram: Histogram::new(10, 500),
                channel_load,
                flits_ejected: 0,
                measured_flits: 0,
                measure_start: None,
                telemetry,
            },
            eject_slots: vec![(PacketId::new(0), 0); nodes * vcs],
            phases: PhaseNanos::default(),
            fault,
            // Always allocated (cheap, and keeps the shard split uniform
            // whether or not a fault plan is present).
            clip_out: vec![ClipSlot::default(); nodes * ports * vcs],
            clip_in: vec![ClipSlot::default(); nodes * vcs],
            drops: vec![DropStats::default(); nodes],
        })
    }

    /// The configuration being simulated.
    #[must_use]
    pub fn config(&self) -> &NetworkConfig {
        &self.cfg
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.now
    }

    /// Per-channel flit counts observed so far.
    #[must_use]
    pub fn channel_load(&self) -> &ChannelLoad {
        &self.meas.channel_load
    }

    /// Total source backlog in packets (diagnostic; grows without bound
    /// past saturation).
    #[must_use]
    pub fn total_backlog(&self) -> usize {
        self.sources.iter().map(Source::backlog).sum()
    }

    /// Shard migrations performed so far (nonzero only under
    /// [`EngineKind::ParallelShards`] with
    /// [`NetworkConfig::with_rebalance`] set and an imbalance above its
    /// threshold).
    #[must_use]
    pub fn rebalances(&self) -> u64 {
        self.phases.rebalances
    }

    /// Advances the network one cycle with the configured engine.
    ///
    /// Under [`EngineKind::ParallelShards`] this executes the sharded
    /// protocol inline on the calling thread (shard by shard, in index
    /// order) — bit-identical to the threaded run, which only exists for
    /// wall-clock speed. [`Network::run`] is where the worker pool lives.
    pub fn step(&mut self) {
        match self.cfg.engine {
            EngineKind::CycleDriven | EngineKind::EventDriven => self.step_serial(),
            EngineKind::ParallelShards { .. } => self.step_parallel_inline(),
        }
    }

    /// One cycle of a serial engine: deliver what the wheel holds for
    /// this cycle, step the sources, tick the routers. The cycle-driven
    /// engine ticks every router; the event engine ticks only the active
    /// set. See the module docs for the equivalence argument.
    fn step_serial(&mut self) {
        let now = self.now;
        let mesh = self.cfg.mesh;
        let timing = self.cfg.phase_timing;
        let t0 = timing.then(Instant::now);

        // 1. Deliver every flit and credit due this cycle.
        let mut due = self.wheel.take_due(now);
        for ev in due.drain(..) {
            ev.deliver(
                now,
                0,
                &mut self.routers,
                &mut self.sources,
                &mut self.router_active,
            );
        }
        self.wheel.restore(now, due);

        let t1 = timing.then(Instant::now);

        // 2. Sources generate and inject (every cycle: constant-rate
        // accumulation must add `rate` exactly once per cycle).
        self.step_sources(now, &mesh);

        let t2 = timing.then(Instant::now);

        // 3. Tick routers in node order (eject order feeds the latency
        // accumulator, whose floating-point state is order-sensitive).
        // The event engine skips and retires quiescent routers.
        let tick_all = self.cfg.engine == EngineKind::CycleDriven;
        for node in 0..mesh.nodes() {
            if tick_all || self.router_active[node] {
                self.tick_router(now, node);
                if self.routers[node].is_quiescent() {
                    self.router_active[node] = false;
                }
            }
        }

        let t3 = timing.then(Instant::now);
        self.meas.channel_load.tick();
        self.now += 1;
        if let (Some(t0), Some(t1), Some(t2), Some(t3)) = (t0, t1, t2, t3) {
            self.phases.accumulate(t0, t1, t2, t3, Instant::now());
        }
        self.telemetry_boundary();
    }

    /// Emits the epoch snapshot if this engine has just *arrived* at the
    /// telemetry boundary (every path that advances `self.now` — a step
    /// or a clamped fast-forward — calls this). No-op without telemetry
    /// or away from the boundary.
    fn telemetry_boundary(&mut self) {
        let Some(t) = self.meas.telemetry.as_deref() else {
            return;
        };
        if self.now != t.next {
            return;
        }
        let cycle = self.now;
        let unreachable = self
            .fault
            .as_ref()
            .map_or(0, |f| f.unreachable_pairs(cycle));
        let view = if matches!(self.cfg.engine, EngineKind::ParallelShards { .. }) {
            EngineView::Sharded
        } else {
            EngineView::Serial {
                router_ticks: self.router_ticks,
                wheel_pending: self.wheel.pending() as u64,
            }
        };
        let meas = &mut self.meas;
        let counts = BoundaryCounts {
            flits_ejected: meas.flits_ejected,
            tagged_created: meas.tagged_created,
            tagged_done: meas.tagged_done,
            unreachable_pairs: unreachable,
        };
        meas.telemetry.as_deref_mut().expect("checked above").emit(
            cycle,
            counts,
            &self.phases,
            view,
        );
    }

    /// Steps every source in node order; tags sample packets and sends
    /// injected flits over the local input channel.
    fn step_sources(&mut self, now: u64, mesh: &Mesh) {
        let local = mesh.local_port();
        let measuring = now >= self.cfg.warmup_cycles;
        let mut step = std::mem::take(&mut self.source_step_buf);
        for node in 0..mesh.nodes() {
            self.sources[node].step_into(now, mesh, &self.cfg.pattern, &mut step);
            if measuring {
                for &id in &step.created {
                    self.meas.tag_created(id, now, &self.cfg);
                }
            }
            if let Some(flit) = step.injected {
                let vcs = self.cfg.router.vcs();
                if let Some(t) = self.meas.telemetry.as_deref_mut() {
                    t.count_injected();
                }
                let reason = self.fault.as_ref().and_then(|fm| {
                    clip(&mut self.clip_in[node * vcs + flit.vc], &flit, || {
                        fm.injection_drop(node, flit.dest, now, flit.packet)
                    })
                });
                if let Some(reason) = reason {
                    // The flit never enters the network: bounce the
                    // credit the source consumed and account the drop.
                    self.sources[node].credit(flit.vc);
                    self.drops[node].count(reason, flit.kind.is_head());
                    if let Some(t) = self.meas.telemetry.as_deref_mut() {
                        t.count_drop(reason, flit.kind.is_head());
                    }
                    if flit.kind.is_head() {
                        self.meas.record_dropped(flit.packet);
                    }
                    continue;
                }
                self.wheel.schedule(
                    now + 1 + self.cfg.link_delay,
                    LinkEvent::Flit {
                        node: node as u32,
                        port: local as u8,
                        flit,
                    },
                );
            }
        }
        self.source_step_buf = step;
    }

    /// Applies the fault layer to a departure leaving `node` through
    /// `out_port` at `now`, returning `true` when the flit is dropped
    /// (the caller then skips forwarding it). The head flit decides the
    /// packet's fate at each link; bodies and tails follow it via the
    /// clip slot, so wormhole packets are never torn. Credits the
    /// crossbar grant consumed are reclaimed synchronously — dead links
    /// must not leak VC buffers.
    fn clip_departure(&mut self, now: u64, node: usize, out_port: usize, flit: &Flit) -> bool {
        let Some(fm) = self.fault.as_ref() else {
            return false;
        };
        let mesh = self.cfg.mesh;
        let local = mesh.local_port();
        let vcs = self.cfg.router.vcs();
        let reason = if out_port == local && flit.dest != node {
            // Stranded: adaptive routing found no live candidate and
            // resolved to the sink. The whole packet routes there, so
            // the per-flit check is consistent without a clip slot.
            Some(DropReason::Stranded)
        } else {
            let slot = &mut self.clip_out[(node * mesh.ports() + out_port) * vcs + flit.vc];
            clip(slot, flit, || {
                fm.link_drop(node, out_port, now, flit.packet)
            })
        };
        let Some(reason) = reason else {
            return false;
        };
        if out_port != local {
            // The flit never reaches the downstream buffer; return the
            // credit so the VC refills. Ejection consumes no credit.
            self.routers[node].accept_credit(out_port, flit.vc, now);
        }
        self.drops[node].count(reason, flit.kind.is_head());
        if let Some(t) = self.meas.telemetry.as_deref_mut() {
            t.count_drop(reason, flit.kind.is_head());
        }
        if flit.kind.is_head() {
            self.meas.record_dropped(flit.packet);
        }
        true
    }

    /// Ticks router `node`, sending its departures and credits over
    /// their links.
    fn tick_router(&mut self, now: u64, node: usize) {
        let local = self.cfg.mesh.local_port();
        let oracle = NodeOracle {
            table: &self.route_table,
            node,
            fault: self.fault.as_ref().map(|f| (f, f.epoch_at(now))),
        };
        let mut out = std::mem::take(&mut self.tick_buf);
        self.routers[node].tick_into(now, &oracle, &mut out);
        self.router_ticks += 1;
        for dep in out.departures.drain(..) {
            self.meas.channel_load.record(node, dep.out_port);
            if self.fault.is_some() && self.clip_departure(now, node, dep.out_port, &dep.flit) {
                continue;
            }
            if dep.out_port == local {
                self.eject(node, dep.flit);
            } else {
                self.wheel.schedule(
                    now + 1 + self.cfg.link_delay,
                    LinkEvent::departure(&self.route_table, node, dep.out_port, dep.flit),
                );
            }
        }
        for c in out.credits.drain(..) {
            self.wheel.schedule(
                now + 1 + self.credit_latency,
                LinkEvent::credit(&self.route_table, node, c.in_port, c.vc),
            );
        }
        self.tick_buf = out;
    }

    /// Consumes an ejected flit at its destination ("immediate ejection").
    fn eject(&mut self, node: usize, flit: Flit) {
        assert_eq!(flit.dest, node, "flit ejected at the wrong node");
        self.meas.flits_ejected += 1;
        if self.meas.measure_start.is_some() {
            self.meas.measured_flits += 1;
        }
        // Index-addressed reassembly: flits of one packet arrive on one
        // ejection VC in order and packets never interleave within a VC
        // (the upstream output VC / wormhole hold is held to the tail).
        let slot = &mut self.eject_slots[node * self.cfg.router.vcs() + flit.vc];
        if slot.1 == 0 {
            *slot = (flit.packet, 1);
        } else {
            assert_eq!(
                slot.0, flit.packet,
                "packets interleaved within one ejection VC"
            );
            slot.1 += 1;
        }
        if flit.kind.is_tail() {
            let received = slot.1;
            slot.1 = 0;
            assert_eq!(
                received, self.cfg.packet_len,
                "tail ejected before the whole packet arrived"
            );
            self.meas
                .record_tail(flit.packet, flit.created, self.now, node);
        }
    }

    /// One cycle of the sharded-parallel protocol, executed inline on the
    /// calling thread: every shard runs each phase in index order, so the
    /// result is identical to the threaded [`Network::run`] loop by
    /// construction (cross-shard interaction happens only through the
    /// round-separated mailboxes either way; quiescence fast-forward is a
    /// run-loop optimization and never fires here, where callers expect
    /// cycle granularity). This is what [`Network::step`] uses — the
    /// worker pool only pays off amortized over a whole run.
    fn step_parallel_inline(&mut self) {
        let mut set = self.shards.take().expect("parallel engine state");
        let now = self.now;
        let vcs = self.cfg.router.vcs();
        let rb_epoch = self.cfg.rebalance.map_or(0, |rb| rb.epoch);
        let mut stamps = self.cfg.phase_timing.then(|| [Instant::now(); 5]);
        {
            let pv = self.cfg.mesh.ports() * vcs;
            let env = ShardEnv {
                mesh: self.cfg.mesh,
                pattern: &self.cfg.pattern,
                route_table: &self.route_table,
                fault: self.fault.as_ref(),
                node_shard: &set.node_shard,
                link_delay: self.cfg.link_delay,
                credit_latency: self.credit_latency,
                packet_len: self.cfg.packet_len,
                vcs,
                mail: &set.mail,
                outs: &set.outs,
                rebalance_epoch: rb_epoch,
                // The inline path runs no `run_cycle`, so per-shard span
                // stamping never happens here; spans come from the
                // threaded run loop only.
                trace: false,
            };
            // A shard's disjoint view, re-borrowed per phase call (the
            // macro keeps the borrows field-granular).
            macro_rules! ctx {
                ($s:expr) => {{
                    let (lo, hi) = set.ranges[$s];
                    ShardCtx {
                        idx: $s,
                        lo,
                        routers: &mut self.routers[lo..hi],
                        sources: &mut self.sources[lo..hi],
                        eject_slots: &mut self.eject_slots[lo * vcs..hi * vcs],
                        clip_out: &mut self.clip_out[lo * pv..hi * pv],
                        clip_in: &mut self.clip_in[lo * vcs..hi * vcs],
                        drops: &mut self.drops[lo..hi],
                        active: &mut self.router_active[lo..hi],
                        aux: &mut set.aux[$s],
                        work_epoch: &mut set.work_epoch[lo..hi],
                        work_ewma: &mut set.work_ewma[lo..hi],
                    }
                }};
            }
            let shards = set.ranges.len();
            for s in 0..shards {
                ctx!(s).phase_deliver(&env, now);
            }
            mark(&mut stamps, 1);
            for s in 0..shards {
                ctx!(s).phase_sources(&env, now);
            }
            mark(&mut stamps, 2);
            for s in 0..shards {
                ctx!(s).phase_tick(&env, now);
            }
            mark(&mut stamps, 3);
            if rb_epoch != 0 {
                for s in 0..shards {
                    if let Some(total) = ctx!(s).end_cycle(rb_epoch) {
                        set.rebal.epoch_totals[s] = total;
                    }
                }
            }
        }
        self.committer().commit(now, &set.outs);
        self.maybe_rebalance_inline(&mut set);
        mark(&mut stamps, 4);
        if let Some(t) = stamps {
            // Same shape as the serial engines: delivery, sources,
            // router, stats — there is no barrier on the inline path.
            self.phases.accumulate(t[0], t[1], t[2], t[3], t[4]);
        }
        self.now = now + 1;
        self.telemetry_boundary();
        self.shards = Some(set);
    }

    /// The inline path's rebalance decision, mirroring the threaded
    /// leader's serial section: at an epoch boundary, meter the shards'
    /// published work totals; above the threshold, recut the partition
    /// along the per-node EWMAs and migrate. (The threaded run reaches
    /// the same state by ending its worker-pool era first — migration
    /// needs the whole flat state, which the workers' shard views
    /// borrow.)
    fn maybe_rebalance_inline(&mut self, set: &mut ShardSet) {
        let Some(rb) = self.cfg.rebalance else { return };
        let exec = set.aux[0].executed;
        if exec == 0 || !exec.is_multiple_of(rb.epoch) {
            return;
        }
        if !set.rebal.record_epoch(&mut self.phases, exec, rb.threshold) {
            return;
        }
        let shards = set.ranges.len();
        let ok = self.cfg.mesh.weighted_shard_ranges_into(
            &set.work_ewma,
            shards,
            &mut set.rebal.prefix,
            &mut set.rebal.new_ranges,
        );
        let mut migrated = false;
        if ok && set.rebal.new_ranges != set.ranges {
            let moved = set.migrate();
            self.phases.rebalances += 1;
            self.phases.migrated_nodes += moved;
            migrated = true;
        }
        set.rebal.after_decision(migrated, exec, rb.epoch);
    }

    /// The serial measurement commit over this network's global state.
    fn committer(&mut self) -> Committer<'_> {
        Committer {
            cfg: &self.cfg,
            meas: &mut self.meas,
        }
    }

    /// The threaded sharded-parallel loop: a scoped worker pool (one
    /// thread per shard beyond the coordinator, which doubles as shard
    /// 0's worker) in lockstep rounds of **one gate barrier episode
    /// each**. At the gate the coordinator — while every worker is
    /// parked — commits the previous cycle's measurement records in
    /// node order, then either stops, grants a quiescence fast-forward
    /// (all shards voted their next work later than the coming cycle;
    /// the skipped cycles execute no phases and wait at no barrier,
    /// composing the event engine's idle-skipping with sharding), or
    /// releases the workers into the next fused compute phase.
    ///
    /// The pool runs in **eras**: when a rebalance decision fires at an
    /// epoch gate (see [`crate::shard::RebalanceState`]), the era ends —
    /// workers return, their borrowed shard views die, the coordinator
    /// migrates the flat state onto the new partition, and a fresh pool
    /// is spawned. A new era's first round always executes (never
    /// skips): re-running a possibly quiescent cycle is exactly what the
    /// serial reference would do, so nothing is lost but a round.
    ///
    /// Advances the network until the sample completes, `max_cycles` is
    /// hit, or the cancellation token (polled every [`CANCEL_BATCH`]
    /// cycles on the coordinator; fast-forwards are clamped to batch
    /// boundaries so no poll is skipped) is poisoned — the return value
    /// is true for that last case.
    fn run_parallel(&mut self) -> bool {
        let mut set = self.shards.take().expect("parallel engine state");
        let vcs = self.cfg.router.vcs();
        let pv = self.cfg.mesh.ports() * vcs;
        let timing = self.cfg.phase_timing;
        let max_cycles = self.cfg.max_cycles;
        let cancel = self.cfg.cancel.clone();
        let rebalance = self.cfg.rebalance;
        // Span tracing: shards stamp phase durations only when both the
        // clock reads (phase timing) and somewhere to put them
        // (telemetry) exist.
        let tracing = timing && self.meas.telemetry.is_some();
        // Epoch boundaries a leader decision has already consumed — a
        // post-fast-forward gate sees the same executed count again and
        // must not re-decide it.
        let mut epoch_handled = 0u64;

        let cancelled = loop {
            let start_now = self.now;
            let lockstep = Lockstep::new(self.cfg.barrier, set.ranges.len(), start_now);
            let fault = self.fault.as_ref();
            let env = ShardEnv {
                mesh: self.cfg.mesh,
                pattern: &self.cfg.pattern,
                route_table: &self.route_table,
                fault,
                node_shard: &set.node_shard,
                link_delay: self.cfg.link_delay,
                credit_latency: self.credit_latency,
                packet_len: self.cfg.packet_len,
                vcs,
                mail: &set.mail,
                outs: &set.outs,
                rebalance_epoch: rebalance.map_or(0, |rb| rb.epoch),
                trace: tracing,
            };
            let ctxs = split_shards(
                &set.ranges,
                vcs,
                pv,
                &mut self.routers,
                &mut self.sources,
                &mut self.eject_slots,
                &mut self.clip_out,
                &mut self.clip_in,
                &mut self.drops,
                &mut self.router_active,
                &mut set.aux,
                &mut set.work_epoch,
                &mut set.work_ewma,
            );
            let mut committer = Committer {
                cfg: &self.cfg,
                meas: &mut self.meas,
            };
            let phases = &mut self.phases;
            let rebal = &mut set.rebal;
            let epoch_handled = &mut epoch_handled;

            let (final_now, end) = std::thread::scope(|scope| {
                let mut ctx_iter = ctxs.into_iter();
                let mut ctx0 = ctx_iter.next().expect("at least one shard");
                for ctx in ctx_iter {
                    let (env, lockstep) = (&env, &lockstep);
                    scope.spawn(move || worker_loop(ctx, env, lockstep, start_now));
                }
                // The coordinator is shard 0's worker; if it panics (e.g.
                // a conservation assert), poison the lockstep so the
                // workers panic out of their gate waits instead of
                // spinning forever.
                let _guard = PoisonGuard(&lockstep.gate);
                let mut now = start_now;
                // No cycle has executed yet this era: nothing to commit,
                // no votes to read, and the first round must run (not
                // skip).
                let mut executed = false;
                let mut pending_commit = start_now;
                let mut quiet_until = start_now;
                let end = loop {
                    let t0 = timing.then(Instant::now);
                    lockstep.gate.wait_followers();
                    let t1 = timing.then(Instant::now);
                    // ---- serial section: every worker is parked ----
                    if executed {
                        committer.commit(pending_commit, env.outs);
                        quiet_until = lockstep.take_vote();
                        // The commit completed cycle `pending_commit`,
                        // so the stream boundary is the cycle after it.
                        committer.telemetry_boundary(pending_commit + 1, fault, phases);
                    }
                    let finished = now >= max_cycles || committer.sample_complete();
                    let cancel_due = !finished
                        && now.is_multiple_of(CANCEL_BATCH)
                        && cancel.as_ref().is_some_and(CancelToken::is_cancelled);
                    if finished || cancel_due {
                        lockstep.stop.store(true, Ordering::Release);
                        lockstep.gate.release();
                        break EraEnd::Done {
                            cancelled: cancel_due,
                        };
                    }
                    if executed {
                        if let Some(rb) = rebalance {
                            let exec = ctx0.aux.executed;
                            if exec > *epoch_handled && exec.is_multiple_of(rb.epoch) {
                                *epoch_handled = exec;
                                let totals = rebal.epoch_totals.iter_mut();
                                for (t, w) in totals.zip(&lockstep.shard_work) {
                                    *t = w.load(Ordering::Acquire);
                                }
                                if rebal.record_epoch(phases, exec, rb.threshold) {
                                    // End the era: the migration needs
                                    // the flat state the workers' shard
                                    // views currently borrow.
                                    lockstep.stop.store(true, Ordering::Release);
                                    lockstep.gate.release();
                                    break EraEnd::Rebalance { executed: exec };
                                }
                            }
                        }
                    }
                    let mut target = quiet_until.min(max_cycles);
                    if let Some(fm) = fault {
                        // A scheduled fault is a wake-up event: never
                        // jump over a kill or a flaky edge, whose cycle
                        // changes what in-flight traffic would do.
                        target = target.min(fm.next_transition_at_or_after(now));
                    }
                    if cancel.is_some() {
                        // Never jump a cancellation poll point.
                        target = target.min((now / CANCEL_BATCH + 1) * CANCEL_BATCH);
                    }
                    if let Some(t) = committer.meas.telemetry.as_deref() {
                        // Epoch boundaries are wake-up points: land on
                        // them exactly so every engine snapshots at the
                        // same cycles.
                        target = target.min(t.next);
                    }
                    if target > now {
                        // Fast-forward round: cycles [now, target) are
                        // provably no-ops for every shard. The only
                        // global per-cycle effect is the channel-load
                        // window.
                        let skipped = target - now;
                        committer.meas.channel_load.tick_n(skipped);
                        phases.fast_forwarded += skipped;
                        lockstep.skip_to.store(target, Ordering::Release);
                        executed = false;
                        lockstep.gate.release();
                        ctx0.fast_forward(now, target);
                        now = target;
                        // A clamped jump can land exactly on the epoch
                        // boundary; the skipped cycles changed no
                        // counter, mirroring the serial fast-forward.
                        committer.telemetry_boundary(now, fault, phases);
                        continue;
                    }
                    lockstep.skip_to.store(now, Ordering::Release);
                    executed = true;
                    pending_commit = now;
                    lockstep.gate.release();
                    // ---- fused compute phase, shard 0's share ----
                    let t2 = timing.then(Instant::now);
                    ctx0.phase_deliver(&env, now);
                    let t3 = timing.then(Instant::now);
                    ctx0.phase_sources(&env, now);
                    let t4 = timing.then(Instant::now);
                    ctx0.phase_tick(&env, now);
                    if tracing {
                        // Shard 0's phase spans, stamped from the same
                        // instants the phase attribution uses (worker
                        // shards stamp inside `run_cycle`).
                        if let (Some(t2), Some(t3), Some(t4)) = (t2, t3, t4) {
                            let deltas = [t3 - t2, t4 - t3, Instant::now() - t4]
                                .map(|d| d.as_nanos() as u64);
                            let mut o = env.outs[0].lock().expect("shard out poisoned");
                            for (slot, d) in o.span_nanos.iter_mut().zip(deltas) {
                                *slot += d;
                            }
                        }
                    }
                    ctx0.finish_cycle(&env, &lockstep);
                    ctx0.vote(&lockstep, now);
                    if let (Some(t0), Some(t1), Some(t2), Some(t3), Some(t4)) = (t0, t1, t2, t3, t4)
                    {
                        phases.accumulate_parallel(&[t0, t1, t2, t3, t4, Instant::now()]);
                    }
                    now += 1;
                };
                (now, end)
            });
            self.now = final_now;
            match end {
                EraEnd::Done { cancelled } => break cancelled,
                EraEnd::Rebalance { executed } => {
                    let rb = rebalance.expect("rebalance era requires the knob");
                    let shards = set.ranges.len();
                    let ok = self.cfg.mesh.weighted_shard_ranges_into(
                        &set.work_ewma,
                        shards,
                        &mut set.rebal.prefix,
                        &mut set.rebal.new_ranges,
                    );
                    let mut migrated = false;
                    if ok && set.rebal.new_ranges != set.ranges {
                        let moved = set.migrate();
                        self.phases.rebalances += 1;
                        self.phases.migrated_nodes += moved;
                        migrated = true;
                    }
                    set.rebal.after_decision(migrated, executed, rb.epoch);
                }
            }
        };
        self.shards = Some(set);
        cancelled
    }

    /// Fast-forwards the serial event engine over cycles in which
    /// provably nothing happens: no router is active, no delivery is due
    /// before the next wheel event, and no source can cross its
    /// injection threshold. The skipped cycles' only effects — one
    /// accumulator addition per source and the channel-load window — are
    /// applied in bulk, bit-identically to stepping through them (the
    /// sharded engine does the same globally when every shard votes
    /// quiescent; the cycle-driven engine never skips, which is what
    /// makes it the reference that proves these skips correct).
    fn maybe_fast_forward(&mut self) {
        debug_assert_eq!(self.cfg.engine, EngineKind::EventDriven);
        if self.router_active.iter().any(|&a| a) {
            return;
        }
        let now = self.now;
        // About to execute cycle `now`: a quiet source's step at `now`
        // has not happened yet, so its first possible crossing is at
        // `now + quiet_horizon`.
        if now >= self.src_next {
            let mut s = u64::MAX;
            for src in &self.sources {
                let q = src.quiet_horizon(SRC_SCAN_CAP);
                s = s.min(now + q);
                if q == 0 {
                    break;
                }
            }
            self.src_next = s;
        }
        let mut target = self
            .wheel
            .next_due()
            .unwrap_or(u64::MAX)
            .min(self.src_next)
            .min(self.cfg.max_cycles);
        if let Some(fm) = self.fault.as_ref() {
            // A scheduled fault is a wake-up event: never jump over a
            // kill or a flaky edge.
            target = target.min(fm.next_transition_at_or_after(now));
        }
        if self.cfg.cancel.is_some() {
            // Never jump a cancellation poll point.
            target = target.min((now / CANCEL_BATCH + 1) * CANCEL_BATCH);
        }
        if let Some(t) = self.meas.telemetry.as_deref() {
            // Epoch boundaries are wake-up points: land on them exactly
            // so every engine snapshots at the same cycles.
            target = target.min(t.next);
        }
        if target <= now {
            return;
        }
        let skipped = target - now;
        for src in &mut self.sources {
            src.fast_forward(skipped);
        }
        self.wheel.advance_to(target - 1);
        self.meas.channel_load.tick_n(skipped);
        self.phases.fast_forwarded += skipped;
        self.now = target;
        // A clamped jump can land exactly on the epoch boundary; the
        // skipped cycles changed no counter, so snapshotting here is
        // bit-identical to having stepped through them.
        self.telemetry_boundary();
    }

    /// Whether the tagged sample has been fully created and received.
    #[must_use]
    pub fn sample_complete(&self) -> bool {
        self.meas.tagged_created >= self.cfg.sample_packets
            && self.meas.tagged_done >= self.meas.tagged_created
    }

    /// Router ticks executed so far (work accounting; the event-driven
    /// and sharded-parallel engines execute fewer than `cycles × nodes`).
    #[must_use]
    pub fn router_ticks(&self) -> u64 {
        self.router_ticks + self.shards.as_ref().map_or(0, ShardSet::router_ticks)
    }

    /// Total flits injected by all sources so far.
    #[must_use]
    pub fn flits_injected(&self) -> u64 {
        self.sources.iter().map(|s| s.flits_injected).sum()
    }

    /// Total flits ejected at their destinations so far.
    #[must_use]
    pub fn flits_ejected(&self) -> u64 {
        self.meas.flits_ejected
    }

    /// Flits currently on a wire (sent over a link, not yet delivered).
    #[must_use]
    pub fn flits_in_flight(&self) -> u64 {
        let on_wheel = |w: &EventWheel<LinkEvent>| w.iter().filter(|e| e.is_flit()).count() as u64;
        let mut n = on_wheel(&self.wheel);
        if let Some(set) = &self.shards {
            // Boundary flits sit in a shard mailbox across a cycle
            // boundary (staged at emission, scheduled by the receiver at
            // the start of its next round) — they are on the wire too.
            n += set.aux.iter().map(|a| on_wheel(&a.wheel)).sum::<u64>();
            n += set.mail.staged_flits();
        }
        n
    }

    /// Flits currently buffered inside routers.
    #[must_use]
    pub fn flits_buffered(&self) -> u64 {
        self.routers.iter().map(|r| r.buffered_flits() as u64).sum()
    }

    /// Total flits dropped by the fault layer so far (0 on a healthy
    /// network).
    #[must_use]
    pub fn flits_dropped(&self) -> u64 {
        self.drops.iter().map(DropStats::total_flits).sum()
    }

    /// Drop counters by reason, aggregated over all nodes.
    #[must_use]
    pub fn drop_stats(&self) -> DropStats {
        let mut total = DropStats::default();
        for d in &self.drops {
            total.merge(d);
        }
        total
    }

    /// Asserts the flit-conservation invariant: every flit a source
    /// injected is either ejected at its destination, on a wire,
    /// buffered in a router, or was dropped by the fault layer (with
    /// its credit reclaimed) — nothing is duplicated or silently lost.
    /// Holds at every cycle boundary; [`Network::run`] checks it once
    /// at the end of every run.
    ///
    /// # Panics
    ///
    /// Panics if the books do not balance.
    pub fn assert_flit_conservation(&self) {
        let injected = self.flits_injected();
        let ejected = self.flits_ejected();
        let in_flight = self.flits_in_flight();
        let buffered = self.flits_buffered();
        let dropped = self.flits_dropped();
        assert_eq!(
            injected,
            ejected + in_flight + buffered + dropped,
            "flit conservation violated at cycle {}: injected {injected} != \
             ejected {ejected} + in-flight {in_flight} + buffered {buffered} \
             + dropped {dropped}",
            self.now
        );
    }

    /// Runs the full protocol: warm-up, tagged sample, drain; returns the
    /// measurements. Hitting `max_cycles` first marks the run saturated.
    ///
    /// Under [`EngineKind::ParallelShards`] the run executes on a
    /// persistent scoped worker pool (one thread per shard); the result
    /// is bit-identical to the serial engines regardless of shard count
    /// or thread schedule.
    pub fn run(mut self) -> RunResult {
        let cancelled = if matches!(self.cfg.engine, EngineKind::ParallelShards { .. }) {
            self.run_parallel()
        } else {
            let cancel = self.cfg.cancel.clone();
            let event_driven = self.cfg.engine == EngineKind::EventDriven;
            let mut cancelled = false;
            while self.now < self.cfg.max_cycles && !self.sample_complete() {
                if self.now.is_multiple_of(CANCEL_BATCH)
                    && cancel.as_ref().is_some_and(CancelToken::is_cancelled)
                {
                    cancelled = true;
                    break;
                }
                if event_driven {
                    let before = self.now;
                    self.maybe_fast_forward();
                    if self.now != before {
                        // Re-check the cycle limit, the sample, and the
                        // cancellation poll point before executing.
                        continue;
                    }
                }
                self.step();
            }
            cancelled
        };
        self.assert_flit_conservation();
        let saturated = !self.sample_complete();
        let span = self
            .meas
            .measure_start
            .map_or(1, |s| self.now.saturating_sub(s).max(1));
        let per_node_cycle =
            self.meas.measured_flits as f64 / (span as f64 * self.cfg.mesh.nodes() as f64);
        let mut router_stats = router_core::RouterStats::default();
        for r in &self.routers {
            router_stats.merge(r.stats());
        }
        let drops = self.drop_stats();
        let injected = self.flits_injected();
        let delivered_ratio = if injected == 0 {
            1.0
        } else {
            self.meas.flits_ejected as f64 / injected as f64
        };
        let node_drops = std::mem::take(&mut self.drops);
        let (metrics, flow_stats, trace) = match self.meas.telemetry.take() {
            Some(t) => {
                let (metrics, flows, trace) = t.into_parts();
                (Some(metrics), Some(flows), trace)
            }
            None => (None, None, None),
        };
        RunResult {
            offered: self.cfg.injection_fraction,
            avg_latency: self.meas.latency.mean(),
            stats: self.meas.latency.clone(),
            saturated,
            cycles: self.now,
            accepted: per_node_cycle / self.cfg.mesh.capacity_flits_per_node(),
            flits_ejected: self.meas.flits_ejected,
            histogram: self.meas.histogram.clone(),
            router_stats,
            work: EngineWork {
                cycles: self.now,
                router_ticks: self.router_ticks(),
                router_ticks_possible: self.now * self.cfg.mesh.nodes() as u64,
            },
            phases: self.cfg.phase_timing.then_some(self.phases),
            cancelled,
            dropped_flits: drops.total_flits(),
            dropped_packets: drops.total_packets(),
            drops,
            unreachable_pairs: self
                .fault
                .as_ref()
                .map_or(0, |f| f.unreachable_pairs(self.now)),
            delivered_ratio,
            node_drops,
            flow_stats,
            metrics,
            trace,
        }
    }

    /// Attaches a streaming metrics tap: every epoch snapshot is
    /// forwarded to `tap` as it is taken, from the thread that owns the
    /// serial section (the retained [`RunResult::metrics`] log is
    /// collected either way).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no telemetry — set
    /// [`NetworkConfig::with_telemetry`] first.
    pub fn set_metrics_tap(&mut self, tap: Box<dyn MetricsTap + Send>) {
        self.meas
            .telemetry
            .as_deref_mut()
            .expect("set_metrics_tap requires with_telemetry(epoch)")
            .set_stream(tap);
    }
}

/// Why one worker-pool era of the threaded sharded run ended.
enum EraEnd {
    /// The run is over (cycle limit, sample drained, or cancellation).
    Done { cancelled: bool },
    /// A rebalance decision fired at this executed-cycle count; the
    /// coordinator migrates and spawns a fresh pool.
    Rebalance { executed: u64 },
}

/// Records a phase-boundary timestamp when phase timing is enabled
/// (no clock read otherwise).
#[inline]
fn mark<const N: usize>(stamps: &mut Option<[Instant; N]>, i: usize) {
    if let Some(t) = stamps.as_mut() {
        t[i] = Instant::now();
    }
}

/// Splits the network's flat per-node state into disjoint per-shard
/// views along `ranges` (which are contiguous and cover all nodes).
#[allow(clippy::too_many_arguments)]
fn split_shards<'a>(
    ranges: &[(usize, usize)],
    vcs: usize,
    pv: usize,
    mut routers: &'a mut [Router],
    mut sources: &'a mut [Source],
    mut eject_slots: &'a mut [(PacketId, u32)],
    mut clip_out: &'a mut [ClipSlot],
    mut clip_in: &'a mut [ClipSlot],
    mut drops: &'a mut [DropStats],
    mut active: &'a mut [bool],
    aux: &'a mut [crate::shard::ShardAux],
    mut work_epoch: &'a mut [u64],
    mut work_ewma: &'a mut [u64],
) -> Vec<ShardCtx<'a>> {
    let mut ctxs = Vec::with_capacity(ranges.len());
    let mut aux_iter = aux.iter_mut();
    for (idx, &(lo, hi)) in ranges.iter().enumerate() {
        let n = hi - lo;
        let (r, rest) = std::mem::take(&mut routers).split_at_mut(n);
        routers = rest;
        let (s, rest) = std::mem::take(&mut sources).split_at_mut(n);
        sources = rest;
        let (e, rest) = std::mem::take(&mut eject_slots).split_at_mut(n * vcs);
        eject_slots = rest;
        let (co, rest) = std::mem::take(&mut clip_out).split_at_mut(n * pv);
        clip_out = rest;
        let (ci, rest) = std::mem::take(&mut clip_in).split_at_mut(n * vcs);
        clip_in = rest;
        let (d, rest) = std::mem::take(&mut drops).split_at_mut(n);
        drops = rest;
        let (a, rest) = std::mem::take(&mut active).split_at_mut(n);
        active = rest;
        let (we, rest) = std::mem::take(&mut work_epoch).split_at_mut(n);
        work_epoch = rest;
        let (ww, rest) = std::mem::take(&mut work_ewma).split_at_mut(n);
        work_ewma = rest;
        ctxs.push(ShardCtx {
            idx,
            lo,
            routers: r,
            sources: s,
            eject_slots: e,
            clip_out: co,
            clip_in: ci,
            drops: d,
            active: a,
            aux: aux_iter.next().expect("one aux per shard"),
            work_epoch: we,
            work_ewma: ww,
        });
    }
    ctxs
}

/// The serial measurement commit of the sharded-parallel engine: drains
/// every shard's per-cycle records **in shard (= node) order**, replaying
/// exactly the serial engines' within-cycle event sequence — tagging
/// first (the source phase precedes every ejection), then the
/// floating-point latency accumulators and channel-load counters. This
/// is the only place per-shard state is merged, and it never depends on
/// thread completion order.
struct Committer<'a> {
    cfg: &'a NetworkConfig,
    meas: &'a mut Measurement,
}

impl Committer<'_> {
    fn sample_complete(&self) -> bool {
        self.meas.tagged_created >= self.cfg.sample_packets
            && self.meas.tagged_done >= self.meas.tagged_created
    }

    fn commit(&mut self, now: u64, outs: &[Mutex<ShardOut>]) {
        let measuring = now >= self.cfg.warmup_cycles;
        // Tagging first: the serial engines tag during the source phase,
        // before any ejection of the same cycle is observed. (A packet
        // created this cycle cannot eject this cycle — every path has
        // ≥ 1 cycle of pipe latency — but the measure_start transition
        // must see the source-phase state.)
        for out in outs {
            let mut o = out.lock().expect("shard out poisoned");
            for id in o.created.drain(..) {
                if measuring {
                    self.meas.tag_created(id, now, self.cfg);
                }
            }
        }
        // Then the ejection-side accumulators, in shard (= node) order.
        for (lane, out) in outs.iter().enumerate() {
            let mut o = out.lock().expect("shard out poisoned");
            self.meas.flits_ejected += o.ejected;
            if self.meas.measure_start.is_some() {
                self.meas.measured_flits += o.ejected;
            }
            o.ejected = 0;
            for (node, port) in o.loads.drain(..) {
                self.meas.channel_load.record(node as usize, port as usize);
            }
            for (packet, created, dest) in o.tails.drain(..) {
                self.meas.record_tail(packet, created, now, dest as usize);
            }
            // Dropped tagged packets resolve here, after tagging above
            // (a packet clipped at injection the cycle it was created
            // is tagged first, exactly like the serial engines). Only a
            // counter — order against tails is immaterial.
            for packet in o.drops.drain(..) {
                self.meas.record_dropped(packet);
            }
            // Telemetry deltas fold in fixed shard order (or just
            // reset, so a later telemetry run never inherits garbage).
            if let Some(t) = self.meas.telemetry.as_deref_mut() {
                t.absorb_shard(lane, &mut o);
            } else {
                o.injected = 0;
                o.ticks = 0;
                o.mail_flits = 0;
                o.mail_credits = 0;
                o.drop_stats = DropStats::default();
                o.span_nanos = [0; 3];
            }
        }
        self.meas.channel_load.tick();
    }

    /// Emits the epoch snapshot if `cycle` — the first *uncommitted*
    /// cycle — is the telemetry boundary. Runs only in the serial
    /// section (every worker parked) or after a fast-forward grant
    /// (workers touch only their own shard state), so the measurement
    /// and mailbox state it reads are stable.
    fn telemetry_boundary(&mut self, cycle: u64, fault: Option<&FaultModel>, phases: &PhaseNanos) {
        let Some(t) = self.meas.telemetry.as_deref() else {
            return;
        };
        if cycle != t.next {
            return;
        }
        let unreachable = fault.map_or(0, |f| f.unreachable_pairs(cycle));
        let meas = &mut *self.meas;
        let counts = BoundaryCounts {
            flits_ejected: meas.flits_ejected,
            tagged_created: meas.tagged_created,
            tagged_done: meas.tagged_done,
            unreachable_pairs: unreachable,
        };
        meas.telemetry.as_deref_mut().expect("checked above").emit(
            cycle,
            counts,
            phases,
            EngineView::Sharded,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterKind;

    fn quick(cfg: NetworkConfig) -> RunResult {
        Network::new(cfg).run()
    }

    fn low_load(kind: RouterKind) -> NetworkConfig {
        NetworkConfig::mesh(8, kind)
            .with_injection(0.05)
            .with_warmup(300)
            .with_sample(300)
            .with_max_cycles(30_000)
    }

    #[test]
    fn wormhole_zero_load_latency_close_to_paper() {
        let r = quick(low_load(RouterKind::Wormhole { buffers: 8 }));
        assert!(!r.saturated);
        let lat = r.avg_latency.expect("sample completed");
        // Paper: 29 cycles at zero load on the 8×8 mesh.
        assert!((26.0..33.0).contains(&lat), "WH zero-load latency {lat}");
    }

    #[test]
    fn vc_zero_load_latency_close_to_paper() {
        let r = quick(low_load(RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        }));
        let lat = r.avg_latency.expect("sample completed");
        // Paper: 36 cycles (one extra stage per hop). Our credit-loop
        // accounting charges the uncovered 4-buffer credit loop ~2 cycles
        // more at the source than the paper's (see EXPERIMENTS.md).
        assert!((33.0..41.0).contains(&lat), "VC zero-load latency {lat}");
    }

    #[test]
    fn spec_zero_load_matches_wormhole() {
        let wh = quick(low_load(RouterKind::Wormhole { buffers: 8 }));
        let spec = quick(low_load(RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        }));
        let (a, b) = (wh.avg_latency.unwrap(), spec.avg_latency.unwrap());
        // Paper: 29 vs 30 — the speculative router pays ~1 cycle because 4
        // buffers/VC do not quite cover the credit loop (footnote 15); our
        // credit accounting charges ~2. Same pipeline depth otherwise.
        assert!(b >= a - 0.5, "specVC cannot beat WH: {a} vs {b}");
        assert!(b - a < 4.0, "specVC must stay close to WH: {a} vs {b}");
    }

    #[test]
    fn single_cycle_zero_load_close_to_paper() {
        let cfg = low_load(RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        })
        .with_single_cycle(true);
        let lat = quick(cfg).avg_latency.expect("completes");
        // Paper: 16 cycles for the unit-latency model.
        assert!((13.0..19.0).contains(&lat), "unit-latency model {lat}");
    }

    #[test]
    fn all_flits_accounted_for() {
        let cfg = NetworkConfig::mesh(
            4,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(0.3)
        .with_warmup(100)
        .with_sample(200)
        .with_max_cycles(20_000);
        let r = quick(cfg);
        assert!(!r.saturated);
        // Untagged packets may still be mid-flight when the run stops, but
        // at least the tagged sample's flits were all delivered.
        assert!(r.flits_ejected >= 200 * 5);
    }

    #[test]
    fn overdriven_network_saturates() {
        let cfg = NetworkConfig::mesh(4, RouterKind::Wormhole { buffers: 4 })
            .with_injection(2.0) // 200% of capacity
            .with_warmup(100)
            .with_sample(2_000)
            .with_max_cycles(4_000);
        let r = quick(cfg);
        assert!(r.accepted < 1.2, "cannot accept far beyond capacity");
        let p: crate::sweep::LoadPoint = r.into();
        assert!(p.saturated, "accepted must fall short of 2x capacity");
    }

    #[test]
    fn accepted_tracks_offered_below_saturation() {
        let cfg = NetworkConfig::mesh(
            4,
            RouterKind::VirtualChannel {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(0.2)
        .with_warmup(200)
        .with_sample(400)
        .with_max_cycles(40_000);
        let r = quick(cfg);
        assert!(!r.saturated);
        assert!(
            (r.accepted - 0.2).abs() < 0.08,
            "accepted {:.3} vs offered 0.2",
            r.accepted
        );
    }

    #[test]
    fn transpose_fixed_points_keep_throughput_accounting_correct() {
        // On a k×k mesh under transpose, the k diagonal sources are
        // permutation fixed points and send nothing. Accepted throughput
        // must reflect the real traffic — offered load scaled by the
        // (nodes − k) / nodes active fraction — rather than drifting
        // from phantom injections, and the tagged sample must still
        // complete from the active sources alone.
        let offered = 0.2;
        let cfg = NetworkConfig::mesh(
            4,
            RouterKind::VirtualChannel {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(offered)
        .with_pattern(crate::traffic::TrafficPattern::Transpose)
        .with_warmup(300)
        .with_sample(300)
        .with_max_cycles(60_000);
        let r = quick(cfg);
        assert!(!r.saturated);
        assert_eq!(r.stats.count(), 300, "sample completes without diagonals");
        let active_fraction = (16.0 - 4.0) / 16.0;
        let expected = offered * active_fraction;
        assert!(
            (r.accepted - expected).abs() < 0.05,
            "accepted {:.3} vs expected {:.3} (offered {offered} × {active_fraction})",
            r.accepted,
            expected
        );
    }

    /// The link timing: a flit that departs at `t` is accepted
    /// downstream at `t + 1 + link_delay`, and the credit its departure
    /// frees is due upstream at `t + 1 + credit_latency`. Flits are
    /// matched through the routers' event traces, credits through the
    /// wheel's schedule (that the wheel delivers at the due cycle is
    /// `link.rs`'s contract). `tests/fig16_turnaround.rs` checks the same
    /// credit loop end to end, as the throughput of a saturated link.
    #[test]
    fn links_deliver_after_their_latency() {
        use router_core::PipelineEvent;
        const SOURCE: usize = usize::MAX;
        for engine in [EngineKind::CycleDriven, EngineKind::EventDriven] {
            for (link_delay, credit_prop) in [(1, 1), (3, 4)] {
                let mut cfg = NetworkConfig::mesh(
                    2,
                    RouterKind::VirtualChannel {
                        vcs: 2,
                        buffers_per_vc: 4,
                    },
                )
                .with_pattern(crate::traffic::TrafficPattern::NearestNeighbor)
                .with_injection(0.5)
                .with_credit_prop_delay(credit_prop)
                .with_engine(engine);
                cfg.mesh = Mesh::new(2, 1);
                cfg.link_delay = link_delay;
                let mesh = cfg.mesh;
                let local = mesh.local_port();
                let mut net = Network::new(cfg);
                for r in &mut net.routers {
                    r.enable_trace(1 << 16);
                }
                let credit_latency = net.credit_latency;
                let mut credits = 0;
                for _ in 0..300 {
                    let now = net.cycle();
                    net.step();
                    // Credits freed by this cycle's traversals, keyed by
                    // receiver: (node, output port or SOURCE, vc).
                    let mut freed = Vec::new();
                    for (node, r) in net.routers.iter().enumerate() {
                        for e in r.trace().entries().iter().filter(|e| e.cycle == now) {
                            if let PipelineEvent::Traversed { .. } = e.event {
                                freed.push(if e.in_port == local {
                                    (node, SOURCE, e.in_vc)
                                } else {
                                    let up = mesh.neighbor(node, e.in_port).unwrap();
                                    (up, mesh.opposite(e.in_port), e.in_vc)
                                });
                            }
                        }
                    }
                    let mut pending = Vec::new();
                    net.wheel.clone().drain_pending_into(&mut pending);
                    let mut due: Vec<_> = pending
                        .into_iter()
                        .filter(|(at, _)| *at == now + 1 + credit_latency)
                        .filter_map(|(_, ev)| match ev {
                            LinkEvent::Credit { node, port, vc } => {
                                Some((node as usize, port as usize, vc as usize))
                            }
                            LinkEvent::SourceCredit { node, vc } => {
                                Some((node as usize, SOURCE, vc as usize))
                            }
                            LinkEvent::Flit { .. } => None,
                        })
                        .collect();
                    freed.sort_unstable();
                    due.sort_unstable();
                    assert_eq!(due, freed, "{engine}: credits sent at {now}");
                    credits += freed.len();
                }
                // Every departure over a link arrives exactly
                // `1 + link_delay` cycles later, on the same VC.
                let end = net.cycle();
                let (mut sent, mut arrived) = (Vec::new(), Vec::new());
                for (node, r) in net.routers.iter().enumerate() {
                    for e in r.trace().entries() {
                        match e.event {
                            PipelineEvent::Traversed { out_port, out_vc }
                                if out_port != local && e.cycle + 1 + link_delay < end =>
                            {
                                let next = mesh.neighbor(node, out_port).unwrap();
                                let port = mesh.opposite(out_port);
                                sent.push((e.cycle + 1 + link_delay, next, port, out_vc, e.packet));
                            }
                            PipelineEvent::Arrived if e.in_port != local => {
                                arrived.push((e.cycle, node, e.in_port, e.in_vc, e.packet));
                            }
                            _ => {}
                        }
                    }
                }
                sent.sort_unstable();
                arrived.sort_unstable();
                assert!(!sent.is_empty() && credits > 0, "{engine}: no traffic");
                assert_eq!(sent, arrived, "{engine}: link_delay {link_delay}");
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mk = || {
            NetworkConfig::mesh(
                4,
                RouterKind::SpeculativeVc {
                    vcs: 2,
                    buffers_per_vc: 4,
                },
            )
            .with_injection(0.25)
            .with_warmup(100)
            .with_sample(150)
            .with_max_cycles(20_000)
            .with_seed(99)
        };
        let a = quick(mk());
        let b = quick(mk());
        assert_eq!(a.avg_latency, b.avg_latency);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.flits_ejected, b.flits_ejected);
    }
}
