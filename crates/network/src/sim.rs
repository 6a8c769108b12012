//! The network simulator: routers wired by fixed-latency links, driven
//! by constant-rate sources, measured with the paper's warm-up + tagged
//! sample protocol.
//!
//! # One link layer
//!
//! Every wire crossing — a flit switched onto a link or injected by a
//! source, a credit returned for a freed buffer — is scheduled once, as a
//! `LinkEvent` on a calendar wheel ([`EventWheel`]) at the cycle it is
//! delivered: `now + 1 + link_delay` for flits, `now + 1 +
//! credit_latency` for credits. The event already names its receiver
//! (the downstream input, the upstream output, or the node's own source),
//! resolved through the [`RouteTable`]'s neighbor table at send time, so
//! delivery is one call. Each wire has one latency, so its items land in
//! one wheel slot per cycle in send order: the per-link FIFO order is
//! kept.
//!
//! # One engine loop
//!
//! Every [`EngineKind`] is a schedule of the same lockstep round over a
//! partition of the routers into contiguous shards (see
//! [`crate::shard`]): the cycle-driven oracle and the event-driven
//! default run one shard, the sharded kind one per thread.
//!
//! One driver runs the rounds. Its serial section runs on the calling
//! thread while every worker is parked at the gate, and does, in order:
//! commit the previous cycle; take the quiescence vote; emit the
//! telemetry boundary; take the rebalance decision; stop or cancel;
//! grant a fast-forward, or release the next cycle. [`Network::run`]
//! runs shard 0 on the calling thread and every other shard on a scoped
//! worker; [`Network::step`] runs one round with every shard on the
//! calling thread. Every engine feature is therefore wired once.
//!
//! The kinds produce **bit-identical** results; [`crate::shard`] gives
//! the argument and the tests that enforce it.

use crate::channel_load::ChannelLoad;
use crate::config::{ConfigError, EngineKind, NetworkConfig};
use crate::fault::{ClipSlot, DropStats, FaultModel};
use crate::routing::RouteTable;
use crate::shard::{
    lock_mailbox, worker_loop, Lockstep, PoisonGuard, RebalanceState, ShardAux, ShardCtx, ShardEnv,
    ShardOut, ShardSet,
};
use crate::source::{packet_seq, packet_source, Source};
use crate::stats::{EngineWork, LatencyStats, PhaseNanos};
use crate::tap::{BoundaryCounts, TelemetryState};
use router_core::{EventWheel, Flit, PacketId, Router, RoutingOracle};
use runqueue::CancelToken;
use std::ops::ControlFlow;
use std::sync::Mutex;
use std::time::Instant;
use telemetry::{FlowStats, Latencies, MetricsLog, MetricsTap, TraceLog};

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
        let dest = flit.dest as usize;
        match self.fault {
            None => self.table.route(self.node, dest, flit.packet.value()),
            Some((fm, epoch)) => fm.route(self.table, epoch, self.node, dest, flit.packet.value()),
        }
    }

    fn vc_mask(&self, flit: &Flit, _out_port: usize) -> u64 {
        self.table.vc_mask(self.node, flit.dest as usize)
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
    /// The tagged sample's latencies, sorted: exact nearest-rank
    /// p50/p95/p99 through [`Latencies::percentiles`]. The field keeps
    /// the name it had when it held a bucketed histogram, because the
    /// readers of the public result (`runq` records and the benchmark)
    /// reach the quantiles through it.
    pub histogram: Latencies,
    /// Tagged packets still in flight when the run stopped: created,
    /// but neither ejected nor dropped. Nonzero only when the sample did
    /// not drain (a saturated or cancelled run); the quantiles then
    /// describe the packets that made it.
    pub censored: u64,
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
    /// Drop counters broken down by [`crate::fault::DropReason`].
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
    /// The tagged sample's latencies per (source → dest) flow, with
    /// exact nearest-rank quantiles; present when
    /// [`NetworkConfig::with_telemetry`] was set. Bit-identical across
    /// engine kinds, shard counts, and schedules.
    pub flow_stats: Option<FlowStats>,
    /// The retained epoch-snapshot stream, present when telemetry was
    /// on. Its counter section ([`MetricsLog::identity`]) is
    /// bit-identical across engine kinds, shard counts, and thread
    /// schedules; gauges are engine diagnostics.
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
    /// ([`crate::topology::Mesh::opposite`]).
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
    /// Routers with work pending; every kind but the cycle-driven oracle
    /// ticks only these, each cycle until quiescent.
    router_active: Vec<bool>,
    /// The source wake calendar: the cycle each node's source is next
    /// due to step. Every kind but the cycle-driven oracle steps only the
    /// sources due (see [`crate::shard`]). Node-indexed, hence
    /// shard-split, so a migration leaves it as it is.
    source_wake: Vec<u64>,
    /// The engine state: shard partition, per-shard link wheels,
    /// exchange and lockstep (one shard for the serial kinds; see
    /// [`crate::shard`]).
    shards: ShardSet,
    /// The global, order-sensitive measurement state — one field, so the
    /// serial [`Committer`] borrows it as a unit and there is exactly one
    /// list of what "measurement" means.
    meas: Measurement,
    /// Reassembly slot per `(node, ejection VC)`: the packet currently
    /// ejecting there and how many of its flits have arrived. Packets
    /// cannot interleave within one ejection VC (the output VC / wormhole
    /// hold is owned until the tail), so this replaces the old
    /// `HashMap<PacketId, u32>` with a dense `node * vcs + vc` lookup.
    /// A count of 0 means the slot is free. (Node-indexed, hence shard-
    /// split — not part of [`Measurement`].)
    eject_slots: Vec<(PacketId, u32)>,
    /// Per-phase wall-clock attribution (accumulated only when
    /// `cfg.phase_timing` is set) and the engine's event counters.
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
    /// The tagged-sample log, the run's one latency record: `(src, dst,
    /// latency)` per ejected tagged packet, in commit order. A run tags
    /// at most `sample_packets` packets, so the log is reserved for that
    /// many at construction and never reallocates; a sample too large to
    /// reserve (such as `with_sample(u64::MAX)`) starts empty and grows.
    /// [`Network::run`] derives the latency statistics and the exact
    /// tails from it.
    sample_log: Vec<(u32, u32, u64)>,
    flits_ejected: u64,
    measured_flits: u64,
    measure_start: Option<u64>,
    /// Telemetry state, allocated only when
    /// [`NetworkConfig::with_telemetry`] is set. Lives inside
    /// `Measurement` because every mutation happens in the serial
    /// section, at the epoch boundary.
    telemetry: Option<Box<TelemetryState>>,
}

impl Measurement {
    /// Whether the tagged sample has been fully created and received.
    fn sample_complete(&self, cfg: &NetworkConfig) -> bool {
        self.tagged_created >= cfg.sample_packets && self.tagged_done >= self.tagged_created
    }

    /// Tags `id` if the sample is still filling (call in creation order).
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
            self.sample_log
                .push((packet_source(packet) as u32, dest as u32, now - created));
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
        let packet_len =
            u8::try_from(cfg.packet_len).expect("validate bounds packet_len to a byte");
        let sources = (0..nodes)
            .map(|node| Source::new(node, rate, packet_len, rcfg.vcs, buffers, cfg.seed))
            .collect();

        let route_table = RouteTable::new(mesh, cfg.routing, rcfg.vcs);
        let fault = FaultModel::new(&cfg, &route_table);
        let credit_latency = cfg.credit_prop_delay + cfg.credit_proc_delay - 1;
        // Horizon: an event sent during cycle `t` arrives at
        // `t + 1 + latency`, so the wheel must reach that far ahead.
        let horizon = 1 + cfg.link_delay.max(credit_latency) + 1;
        let vcs = cfg.router.vcs();
        let (shards, rebalance) = match cfg.engine {
            EngineKind::ParallelShards { shards } => (shards, cfg.rebalance),
            // The serial kinds are one-shard schedules, and a single
            // shard has nothing to balance.
            EngineKind::CycleDriven | EngineKind::EventDriven => (1, None),
        };
        let shards = ShardSet::new(&cfg.mesh, shards, horizon, rebalance);
        // One trace lane per effective shard (the partition may clamp
        // below the requested count).
        let telemetry = cfg.telemetry.map(|t| {
            let lanes = shards.ranges.len();
            Box::new(TelemetryState::new(t.epoch, lanes, cfg.phase_timing))
        });
        // A sample too large to reserve leaves the log to grow instead.
        let mut sample_log = Vec::new();
        let _ =
            sample_log.try_reserve_exact(usize::try_from(cfg.sample_packets).unwrap_or(usize::MAX));
        Ok(Network {
            cfg,
            routers,
            sources,
            route_table,
            now: 0,
            credit_latency,
            router_active: vec![false; nodes],
            source_wake: vec![0; nodes],
            shards,
            meas: Measurement {
                tagged_ranges: vec![(0, 0); nodes],
                tagged_created: 0,
                tagged_done: 0,
                sample_log,
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

    /// Per-channel flit counts observed so far, read off the routers'
    /// departure counters, over a window of every cycle simulated.
    #[must_use]
    pub fn channel_load(&self) -> ChannelLoad {
        ChannelLoad::from_routers(&self.routers, self.cfg.mesh.ports(), self.now)
    }

    /// Shard migrations performed so far (nonzero only under
    /// [`EngineKind::ParallelShards`] with
    /// [`NetworkConfig::with_rebalance`] set and an imbalance above its
    /// threshold).
    #[must_use]
    pub fn rebalances(&self) -> u64 {
        self.phases.rebalances
    }

    /// Advances the network one cycle with the configured engine: one
    /// round of the engine loop with every shard on the calling thread,
    /// shard after shard in index order — bit-identical to the threaded
    /// [`Network::run`], whose worker pool only pays off amortized over a
    /// whole run. A step always executes its cycle, even past
    /// `max_cycles` or a drained sample, and never fast-forwards:
    /// callers expect cycle granularity.
    pub fn step(&mut self) {
        self.drive(Schedule::Step);
    }

    /// The engine loop behind [`Network::step`] and [`Network::run`]:
    /// eras of lockstep rounds, with a migration between two eras
    /// whenever a rebalance decision fires (it needs the flat state the
    /// shard views of an era borrow). Returns whether the run was
    /// cancelled.
    fn drive(&mut self, schedule: Schedule) -> bool {
        loop {
            match self.era(schedule) {
                EraEnd::Done { cancelled } => return cancelled,
                EraEnd::Rebalance { executed } => {
                    self.shards
                        .rebalance(&self.cfg.mesh, &mut self.phases, executed);
                    if schedule == Schedule::Step {
                        return false;
                    }
                }
            }
        }
    }

    /// One era of the engine loop: the shard views split the flat
    /// per-node state, the rounds run until the serial section ends the
    /// era, and the views die with it. Under [`Schedule::Run`] every
    /// shard but shard 0 runs on a scoped worker (with one shard nothing
    /// is spawned). A new era's first round always executes: re-running
    /// a possibly quiescent cycle is exactly what the cycle-driven
    /// oracle does, so nothing is lost but a round.
    fn era(&mut self, schedule: Schedule) -> EraEnd {
        let start = self.now;
        let set = &mut self.shards;
        let lockstep = &set.lockstep;
        lockstep.restart(start);
        let vcs = self.cfg.router.vcs();
        let env = ShardEnv {
            cfg: &self.cfg,
            route_table: &self.route_table,
            fault: self.fault.as_ref(),
            node_shard: &set.node_shard,
            credit_latency: self.credit_latency,
            vcs,
            mail: &set.mail,
            outs: &set.outs,
            rebalance_epoch: set.rebal.knob.map_or(0, |rb| rb.epoch),
            tick_all: self.cfg.engine == EngineKind::CycleDriven,
            // Spans need both the clock reads and somewhere to put them.
            trace: self.cfg.phase_timing && self.meas.telemetry.is_some(),
        };
        let mut views = split_shards(
            &set.ranges,
            vcs,
            self.cfg.mesh.ports() * vcs,
            &mut self.routers,
            &mut self.sources,
            &mut self.eject_slots,
            &mut self.clip_out,
            &mut self.clip_in,
            &mut self.drops,
            &mut self.router_active,
            &mut self.source_wake,
            &mut set.aux,
            &mut set.work_epoch,
            &mut set.work_ewma,
        );
        let ctx0 = views.next().expect("at least one shard");
        let mut committer = Committer {
            cfg: &self.cfg,
            meas: &mut self.meas,
            phases: &mut self.phases,
            rebal: &mut set.rebal,
            now: start,
            executed: false,
        };
        let end = match schedule {
            Schedule::Step => committer.rounds(&env, lockstep, ctx0, views, schedule),
            Schedule::Run => std::thread::scope(|scope| {
                for ctx in views.by_ref() {
                    let env = &env;
                    scope.spawn(move || worker_loop(ctx, env, lockstep, start));
                }
                // If the coordinator panics (e.g. a conservation
                // assert), poison the gate so the workers panic out of
                // their waits instead of spinning forever.
                let _guard = PoisonGuard(&lockstep.gate);
                committer.rounds(&env, lockstep, ctx0, views, schedule)
            }),
        };
        self.now = committer.now;
        end
    }

    /// Whether the tagged sample has been fully created and received.
    #[must_use]
    pub fn sample_complete(&self) -> bool {
        self.meas.sample_complete(&self.cfg)
    }

    /// Router ticks executed so far (work accounting; every kind but
    /// the cycle-driven oracle executes fewer than `cycles × nodes`).
    #[must_use]
    pub fn router_ticks(&self) -> u64 {
        self.shards.router_ticks()
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
        let set = &self.shards;
        // Boundary flits sit in a shard mailbox across a cycle boundary
        // (staged at emission, scheduled by the receiver when it next
        // drains its mailboxes) — they are on the wire too.
        set.aux.iter().map(|a| on_wheel(&a.wheel)).sum::<u64>()
            + set.mail.staged(LinkEvent::is_flit)
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
    /// The run drives the engine loop with shard 0 on the calling thread
    /// and every other shard on a scoped worker (one thread per shard);
    /// the result is bit-identical for every engine kind, shard count
    /// and thread schedule. The cancellation token is polled every
    /// [`CANCEL_BATCH`] cycles (fast-forwards are clamped to batch
    /// boundaries so no poll is skipped).
    pub fn run(mut self) -> RunResult {
        let cancelled = self.drive(Schedule::Run);
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
        let log = std::mem::take(&mut self.meas.sample_log);
        // Folded in commit order, which the floating-point statistics
        // depend on, before the tails sort the log.
        let mut stats = LatencyStats::new();
        for &(_, _, latency) in &log {
            stats.record(latency);
        }
        let histogram = Latencies::new(log.iter().map(|&(_, _, latency)| latency).collect());
        let (metrics, flow_stats, trace) = match self.meas.telemetry.take() {
            Some(t) => {
                let (metrics, trace) = t.into_parts();
                let flows = FlowStats::new(self.cfg.mesh.nodes(), log);
                (Some(metrics), Some(flows), trace)
            }
            None => (None, None, None),
        };
        RunResult {
            offered: self.cfg.injection_fraction,
            avg_latency: stats.mean(),
            stats,
            saturated,
            cycles: self.now,
            accepted: per_node_cycle / self.cfg.mesh.capacity_flits_per_node(),
            flits_ejected: self.meas.flits_ejected,
            histogram,
            censored: self.meas.tagged_created - self.meas.tagged_done,
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

/// How the engine loop schedules its rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Schedule {
    /// [`Network::run`]: rounds until the run ends, shard 0 on the
    /// calling thread and every other shard on a scoped worker.
    Run,
    /// [`Network::step`]: one executed round with every shard on the
    /// calling thread, in index order — no gate waits, no fast-forward,
    /// no stop condition, and no thread scope (whose `Arc` would make a
    /// step allocate).
    Step,
}

/// Why one era of the engine loop ended.
#[derive(Debug, Clone, Copy)]
enum EraEnd {
    /// The schedule is over: a step's round ran, or the run hit its
    /// cycle limit, drained its sample, or was cancelled.
    Done { cancelled: bool },
    /// A rebalance decision fired at this executed-cycle count; the
    /// driver migrates, and a run starts a fresh era.
    Rebalance { executed: u64 },
}

/// Splits the network's flat per-node state into disjoint per-shard
/// views along `ranges` (which are contiguous and cover all nodes),
/// lazily and in shard order.
#[allow(clippy::too_many_arguments)]
fn split_shards<'a>(
    ranges: &'a [(usize, usize)],
    vcs: usize,
    pv: usize,
    mut routers: &'a mut [Router],
    mut sources: &'a mut [Source],
    mut eject_slots: &'a mut [(PacketId, u32)],
    mut clip_out: &'a mut [ClipSlot],
    mut clip_in: &'a mut [ClipSlot],
    mut drops: &'a mut [DropStats],
    mut active: &'a mut [bool],
    mut wake: &'a mut [u64],
    aux: &'a mut [ShardAux],
    mut work_epoch: &'a mut [u64],
    mut work_ewma: &'a mut [u64],
) -> impl Iterator<Item = ShardCtx<'a>> {
    ranges
        .iter()
        .zip(aux)
        .enumerate()
        .map(move |(idx, (&(lo, hi), aux))| {
            let n = hi - lo;
            ShardCtx {
                idx,
                lo,
                routers: take_front(&mut routers, n),
                sources: take_front(&mut sources, n),
                eject_slots: take_front(&mut eject_slots, n * vcs),
                clip_out: take_front(&mut clip_out, n * pv),
                clip_in: take_front(&mut clip_in, n * vcs),
                drops: take_front(&mut drops, n),
                active: take_front(&mut active, n),
                wake: take_front(&mut wake, n),
                aux,
                work_epoch: take_front(&mut work_epoch, n),
                work_ewma: take_front(&mut work_ewma, n),
            }
        })
}

/// Splits the first `n` items off `slice`, leaving it the rest.
fn take_front<'a, T>(slice: &mut &'a mut [T], n: usize) -> &'a mut [T] {
    let (head, rest) = std::mem::take(slice).split_at_mut(n);
    *slice = rest;
    head
}

/// The serial section of one era: the global, order-sensitive state the
/// calling thread alone touches while every worker is parked at the
/// gate. Its commit drains only what is order-sensitive — the created
/// ids it tags, the tails that feed the tagged-sample log, the dropped
/// heads — plus one ejection sum, **in shard (= node) order**, which
/// never depends on thread completion order. Every commutative count
/// stays where it happens: routers count channel load, and shards keep
/// the running totals the telemetry boundary reads.
struct Committer<'a> {
    cfg: &'a NetworkConfig,
    meas: &'a mut Measurement,
    phases: &'a mut PhaseNanos,
    rebal: &'a mut RebalanceState,
    /// The first cycle neither executed nor skipped yet.
    now: u64,
    /// Whether the last round executed cycle `now - 1`, whose records
    /// await the commit.
    executed: bool,
}

impl Committer<'_> {
    /// The rounds of one era. Each is one gate episode (under
    /// [`Schedule::Run`] the calling thread first waits for the workers
    /// to park), the serial section, then the released round: shard 0's
    /// share of a granted fast-forward, or its share of the fused
    /// compute phase followed by every other shard the calling thread
    /// holds (none under `Run`, the rest under `Step`).
    fn rounds<'v>(
        &mut self,
        env: &ShardEnv<'_>,
        lockstep: &Lockstep,
        mut ctx0: ShardCtx<'v>,
        mut rest: impl Iterator<Item = ShardCtx<'v>>,
        schedule: Schedule,
    ) -> EraEnd {
        let timing = self.cfg.phase_timing;
        loop {
            let t0 = timing.then(Instant::now);
            if schedule == Schedule::Run {
                lockstep.gate.wait_followers();
            }
            let t1 = timing.then(Instant::now);
            let next = self.serial_section(env, lockstep, ctx0.aux.executed, schedule);
            let t2 = timing.then(Instant::now);
            let now = self.now;
            let spans = match next {
                ControlFlow::Break(_) => {
                    lockstep.release(now, true);
                    None
                }
                ControlFlow::Continue(target) if target > now => {
                    lockstep.release(target, false);
                    ctx0.fast_forward(now, target);
                    self.now = target;
                    None
                }
                ControlFlow::Continue(_) => {
                    lockstep.release(now, false);
                    let spans = ctx0.run_cycle(env, lockstep, now);
                    for mut ctx in rest.by_ref() {
                        ctx.run_cycle(env, lockstep, now);
                    }
                    self.now = now + 1;
                    Some(spans)
                }
            };
            if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
                self.phases.add_round(t1 - t0, t2 - t1, spans);
            }
            if let ControlFlow::Break(end) = next {
                return end;
            }
        }
    }

    /// The serial section. In order: commit the cycle the last round
    /// executed; take the quiescence vote; emit the telemetry boundary;
    /// take the rebalance decision (`executed_cycles` is the epoch
    /// clock); stop or cancel; grant a fast-forward, or release the next
    /// cycle. Continues with the cycle the next round resumes at: a
    /// later one to fast-forward to, otherwise `now` executes.
    fn serial_section(
        &mut self,
        env: &ShardEnv<'_>,
        lockstep: &Lockstep,
        executed_cycles: u64,
        schedule: Schedule,
    ) -> ControlFlow<EraEnd, u64> {
        let (cfg, now) = (self.cfg, self.now);
        // With no cycle to commit (an era's first round, or the one
        // after a fast-forward) there is no vote either: execute `now`.
        let mut quiet_until = now;
        if self.executed {
            self.commit(now - 1, env.outs);
            quiet_until = lockstep.take_vote();
        }
        self.telemetry_boundary(now, env);
        if let Some(rb) = self.rebal.knob {
            if self.executed
                && executed_cycles.is_multiple_of(rb.epoch)
                && self.rebal.record_epoch(
                    &lockstep.shard_work,
                    self.phases,
                    executed_cycles,
                    rb.threshold,
                )
            {
                return ControlFlow::Break(EraEnd::Rebalance {
                    executed: executed_cycles,
                });
            }
        }
        let (finished, cancelled) = match schedule {
            Schedule::Step => (self.executed, false),
            Schedule::Run => {
                let finished = now >= cfg.max_cycles || self.meas.sample_complete(cfg);
                let cancelled = !finished
                    && now.is_multiple_of(CANCEL_BATCH)
                    && cfg.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
                (finished, cancelled)
            }
        };
        if finished || cancelled {
            return ControlFlow::Break(EraEnd::Done { cancelled });
        }
        // A step executes its cycle, and the cycle-driven oracle never
        // skips.
        let mut target = if schedule == Schedule::Step || env.tick_all {
            now
        } else {
            quiet_until.min(cfg.max_cycles)
        };
        if let Some(fm) = env.fault {
            // A scheduled fault is a wake-up event: never jump over a
            // kill or a flaky edge, whose cycle changes what in-flight
            // traffic would do.
            target = target.min(fm.next_transition_at_or_after(now));
        }
        if cfg.cancel.is_some() {
            // Never jump a cancellation poll point.
            target = target.min((now / CANCEL_BATCH + 1) * CANCEL_BATCH);
        }
        if let Some(t) = self.meas.telemetry.as_deref() {
            // Epoch boundaries are wake-up points: land on them exactly
            // so every schedule snapshots at the same cycles.
            target = target.min(t.next);
        }
        self.executed = target <= now;
        if target > now {
            // Cycles [now, target) are provably no-ops for every shard.
            self.phases.fast_forwarded += target - now;
        }
        ControlFlow::Continue(target)
    }

    /// Commits the cycle `now` in one pass, one lock per shard: within
    /// a shard the created ids, then the tails, then the drops. This
    /// replays the one-shard schedule exactly, although a later shard
    /// tags after an earlier one's tails: a packet created this cycle
    /// cannot eject or be clipped at a link this cycle (every path has
    /// ≥ 1 cycle of latency), one clipped at injection belongs to its
    /// own source's shard, and a tagged range only grows past the
    /// sequence numbers older tails hold. The ejection sum lands after
    /// the loop, so a later shard's tagging still opens the measurement
    /// window for the whole cycle.
    fn commit(&mut self, now: u64, outs: &[Mutex<ShardOut>]) {
        let measuring = now >= self.cfg.warmup_cycles;
        let mut ejected = 0;
        for out in outs {
            let mut o = lock_mailbox(out);
            for id in o.created.drain(..) {
                if measuring {
                    self.meas.tag_created(id, now, self.cfg);
                }
            }
            for (packet, created, dest) in o.tails.drain(..) {
                self.meas.record_tail(packet, created, now, dest as usize);
            }
            for packet in o.drops.drain(..) {
                self.meas.record_dropped(packet);
            }
            ejected += std::mem::take(&mut o.ejected);
        }
        self.meas.flits_ejected += ejected;
        if self.meas.measure_start.is_some() {
            self.meas.measured_flits += ejected;
        }
    }

    /// Emits the epoch snapshot if `cycle` — the first *uncommitted*
    /// cycle — is the telemetry boundary. Runs only in the serial
    /// section, every worker parked, so the measurement, shard and
    /// mailbox state it reads are stable. This is the only emitter.
    fn telemetry_boundary(&mut self, cycle: u64, env: &ShardEnv<'_>) {
        let Some(t) = self.meas.telemetry.as_deref_mut() else {
            return;
        };
        if cycle != t.next {
            return;
        }
        let counts = BoundaryCounts {
            flits_ejected: self.meas.flits_ejected,
            tagged_created: self.meas.tagged_created,
            tagged_done: self.meas.tagged_done,
            unreachable_pairs: env.fault.map_or(0, |f| f.unreachable_pairs(cycle)),
            staged_mail: env.mail.staged(|_| true),
        };
        t.emit(cycle, counts, self.phases, env.outs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterKind;
    use crate::topology::Mesh;

    fn quick(cfg: NetworkConfig) -> RunResult {
        Network::new(cfg).run()
    }

    #[test]
    fn a_link_event_is_32_bytes() {
        assert_eq!(std::mem::size_of::<LinkEvent>(), 32);
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
        // Paper: 36 cycles (one extra stage per hop). Ours reads 3.9
        // cycles more: the 4-buffer credit loop is uncovered
        // (`vc_zero_load_residual_is_the_4_buffer_credit_loop`).
        assert!((33.0..41.0).contains(&lat), "VC zero-load latency {lat}");
    }

    /// Average latency at `low_load`'s warm-up and sample and injection
    /// 0.01, close to zero load.
    fn near_zero_load(kind: RouterKind) -> f64 {
        quick(low_load(kind).with_injection(0.01))
            .avg_latency
            .expect("sample completed")
    }

    #[test]
    fn vc_zero_load_residual_is_the_4_buffer_credit_loop() {
        // Paper: 36 cycles. With 5 buffers per VC the credit loop is
        // covered and VC reads 36.15; with the paper's 4 it reads 40.02,
        // so the whole residual is the uncovered loop.
        let vc = |buffers_per_vc| {
            near_zero_load(RouterKind::VirtualChannel {
                vcs: 2,
                buffers_per_vc,
            })
        };
        let (four, five) = (vc(4), vc(5));
        assert!((five - 36.15).abs() < 0.01, "VC 2x5 reads {five}");
        assert!((four - 40.02).abs() < 0.01, "VC 2x4 reads {four}");
    }

    #[test]
    fn spec_zero_load_gap_is_the_4_buffer_credit_loop() {
        // Paper: specVC 30 vs WH 29, the cycle footnote 15 puts on 4
        // buffers per VC. With 5 buffers per VC specVC reads within 0.05
        // cycle of WH (29.70 vs 29.68); with 4 it reads 32.66.
        let wh = near_zero_load(RouterKind::Wormhole { buffers: 8 });
        let spec = |buffers_per_vc| {
            near_zero_load(RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc,
            })
        };
        let (four, five) = (spec(4), spec(5));
        assert!((wh - 29.68).abs() < 0.01, "WH reads {wh}");
        assert!((five - wh).abs() < 0.05, "specVC 2x5 {five} vs WH {wh}");
        assert!((four - 32.66).abs() < 0.01, "specVC 2x4 reads {four}");
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
        // buffers/VC do not quite cover the credit loop (footnote 15); ours
        // pays 2.84 (`spec_zero_load_gap_is_the_4_buffer_credit_loop`).
        // Same pipeline depth otherwise.
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
    /// schedule on the serial kinds' one shard wheel (that the wheel
    /// delivers at the due cycle is `link.rs`'s contract). `tests/fig16_turnaround.rs` checks the same
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
                    net.shards.aux[0]
                        .wheel
                        .clone()
                        .drain_pending_into(&mut pending);
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
    fn the_quiescence_vote_skips_a_pinned_count_of_cycles() {
        // At load 0.01 most cycles are idle: every one the vote lets the
        // engine skip is counted. A vote that woke later than the
        // sources' next crossing would break results; one that woke
        // earlier, or a calendar that kept a source awake, would skip
        // fewer cycles. Either moves these counts.
        let cfg = NetworkConfig::mesh(
            4,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(0.01)
        .with_warmup(200)
        .with_sample(300)
        .with_phase_timing(true);
        for (engine, skipped) in [
            (EngineKind::EventDriven, 5_234),
            (EngineKind::parallel(2), 5_210),
        ] {
            let r = quick(cfg.clone().with_engine(engine));
            assert!(!r.saturated, "{engine}");
            let phases = r.phases.expect("phase timing is on");
            assert_eq!(phases.fast_forwarded, skipped, "{engine}");
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
