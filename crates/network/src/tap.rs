//! Engine-side telemetry state: the glue between the simulator's engine
//! loop and the dependency-free [`telemetry`] crate.
//!
//! A [`TelemetryState`] is allocated only when
//! [`crate::NetworkConfig::with_telemetry`] is set — telemetry off means
//! no registry exists and the hot paths execute no metric code beyond a
//! branch on an `Option` (enforced by the counting-allocator tests).
//! When on, every update is an integer store into preallocated slots,
//! so the steady state stays allocation-free too. The per-flow
//! latencies are not kept here: they come from the tagged-sample log
//! every run keeps, sorted into a [`telemetry::FlowStats`] when a run
//! with telemetry ends.
//!
//! The snapshot stream's **counter** section is part of the engine
//! equivalence contract: it must be bit-identical across engine kinds,
//! shard counts, and thread schedules. That works
//! because every counter is either maintained at a serially-ordered
//! point (the serial section's commit, which drains shard outputs in
//! fixed shard order) or recomputed at the boundary from state that is
//! itself bit-identical (`Measurement` totals, the pure
//! `FaultModel::unreachable_pairs` function). **Gauges** are
//! engine-specific diagnostics — router ticks, mailbox traffic, barrier
//! waits — and are excluded from the identity check by design.

use crate::fault::{DropReason, DropStats, DROP_REASONS};
use crate::shard::ShardOut;
use crate::stats::PhaseNanos;
use std::fmt;
use telemetry::{MemoryTap, MetricId, MetricsLog, MetricsRegistry, MetricsTap, TraceLog};

/// Counter names for dropped flits, indexed by `DropReason as usize`
/// (kept in sync with [`DropReason::label`] by a test below).
const DROP_FLIT_NAMES: [&str; DROP_REASONS] = [
    "dropped_flits_link_down",
    "dropped_flits_router_dead",
    "dropped_flits_lossy",
    "dropped_flits_unreachable",
    "dropped_flits_stranded",
];

/// Counter names for dropped packets, same indexing.
const DROP_PACKET_NAMES: [&str; DROP_REASONS] = [
    "dropped_packets_link_down",
    "dropped_packets_router_dead",
    "dropped_packets_lossy",
    "dropped_packets_unreachable",
    "dropped_packets_stranded",
];

/// The fused phase span names, matching `ShardOut::span_nanos` order.
const SHARD_PHASES: [&str; 3] = ["delivery", "sources", "router"];

/// Ids of every registered metric, in registration (= schema) order.
struct Ids {
    // Counters: the bit-identity section.
    flits_injected: MetricId,
    flits_ejected: MetricId,
    tagged_created: MetricId,
    tagged_done: MetricId,
    drop_flits: [MetricId; DROP_REASONS],
    drop_packets: [MetricId; DROP_REASONS],
    unreachable_pairs: MetricId,
    // Gauges: engine-specific diagnostics.
    router_ticks: MetricId,
    wheel_pending: MetricId,
    mail_flits: MetricId,
    mail_credits: MetricId,
    fast_forwarded: MetricId,
    barrier_waits: MetricId,
    rebalances: MetricId,
    migrated_nodes: MetricId,
}

/// Phase-span accumulation state, present only when both telemetry and
/// `phase_timing` are on.
struct TraceState {
    log: TraceLog,
    /// Cumulative per-lane (= per-shard) phase nanos.
    cum: Vec<[u64; 3]>,
    /// The cumulative values at the previous epoch boundary.
    last: Vec<[u64; 3]>,
}

/// The boundary-computed values the serial section hands to
/// [`TelemetryState::emit`]: totals it reads off bit-identical
/// measurement state at the epoch boundary rather than maintaining
/// incrementally, plus the link-layer level.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BoundaryCounts {
    /// Flits ejected so far (the `Measurement` total).
    pub(crate) flits_ejected: u64,
    /// Tagged packets created so far.
    pub(crate) tagged_created: u64,
    /// Tagged packets retired so far.
    pub(crate) tagged_done: u64,
    /// Source→destination pairs currently unroutable under the fault
    /// plan (pure function of config and cycle).
    pub(crate) unreachable_pairs: u64,
    /// Flits and credits in flight on the wires (the `wheel_pending`
    /// gauge): every shard's wheel plus the staged boundary mail.
    pub(crate) wheel_pending: u64,
}

/// All telemetry state of one run. Boxed inside `Measurement` so the
/// telemetry-off layout cost is one pointer.
pub(crate) struct TelemetryState {
    /// Snapshot period in simulated cycles (≥ 1, validated).
    epoch: u64,
    /// The next boundary cycle. Engines must arrange to *arrive* at
    /// this cycle (fast-forwards clamp to it) and call their boundary
    /// hook there.
    pub(crate) next: u64,
    /// Snapshots emitted so far.
    epochs: u64,
    reg: MetricsRegistry,
    ids: Ids,
    /// The retained stream, always collected (it lands in `RunResult`).
    mem: MemoryTap,
    /// Optional user-supplied streaming tap (e.g. a `JsonlTap`).
    stream: Option<Box<dyn MetricsTap + Send>>,
    trace: Option<TraceState>,
}

impl fmt::Debug for TelemetryState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryState")
            .field("epoch", &self.epoch)
            .field("next", &self.next)
            .field("epochs", &self.epochs)
            .field("snapshots", &self.mem.log.len())
            .field("stream", &self.stream.is_some())
            .field("tracing", &self.trace.is_some())
            .finish_non_exhaustive()
    }
}

impl TelemetryState {
    /// Builds the full registry schema. `lanes` is the shard count (1
    /// for the serial kinds); `tracing` enables span accumulation and
    /// should mirror `phase_timing`.
    pub(crate) fn new(epoch: u64, lanes: usize, tracing: bool) -> Self {
        let mut reg = MetricsRegistry::new();
        let ids = Ids {
            flits_injected: reg.counter("flits_injected"),
            flits_ejected: reg.counter("flits_ejected"),
            tagged_created: reg.counter("tagged_created"),
            tagged_done: reg.counter("tagged_done"),
            drop_flits: DROP_FLIT_NAMES.map(|n| reg.counter(n)),
            drop_packets: DROP_PACKET_NAMES.map(|n| reg.counter(n)),
            unreachable_pairs: reg.counter("unreachable_pairs"),
            router_ticks: reg.gauge("router_ticks"),
            wheel_pending: reg.gauge("wheel_pending"),
            mail_flits: reg.gauge("mail_flits"),
            mail_credits: reg.gauge("mail_credits"),
            fast_forwarded: reg.gauge("fast_forwarded"),
            barrier_waits: reg.gauge("barrier_waits"),
            rebalances: reg.gauge("rebalances"),
            migrated_nodes: reg.gauge("migrated_nodes"),
        };
        TelemetryState {
            epoch,
            next: epoch,
            epochs: 0,
            reg,
            ids,
            mem: MemoryTap::default(),
            stream: None,
            trace: tracing.then(|| TraceState {
                log: TraceLog::new(lanes),
                cum: vec![[0; 3]; lanes],
                last: vec![[0; 3]; lanes],
            }),
        }
    }

    /// Attaches a streaming tap; every future snapshot is forwarded.
    pub(crate) fn set_stream(&mut self, tap: Box<dyn MetricsTap + Send>) {
        self.stream = Some(tap);
    }

    /// Folds one shard's per-cycle telemetry deltas into the registry
    /// and resets them. Called by the serial commit for every shard in
    /// fixed shard order, so the counter section stays deterministic.
    pub(crate) fn absorb_shard(&mut self, lane: usize, out: &mut ShardOut) {
        self.reg.add(self.ids.flits_injected, out.injected);
        out.injected = 0;
        self.reg.add(self.ids.router_ticks, out.ticks);
        out.ticks = 0;
        self.reg.add(self.ids.mail_flits, out.mail_flits);
        out.mail_flits = 0;
        self.reg.add(self.ids.mail_credits, out.mail_credits);
        out.mail_credits = 0;
        for r in DropReason::ALL {
            let i = r as usize;
            self.reg
                .add(self.ids.drop_flits[i], out.drop_stats.flits[i]);
            self.reg
                .add(self.ids.drop_packets[i], out.drop_stats.packets[i]);
        }
        out.drop_stats = DropStats::default();
        if let Some(tr) = self.trace.as_mut() {
            for (slot, v) in tr.cum[lane].iter_mut().zip(out.span_nanos) {
                *slot += v;
            }
        }
        out.span_nanos = [0; 3];
    }

    /// Emits the snapshot for boundary `cycle` (callers check
    /// [`TelemetryState::next`] first): refreshes the boundary-computed
    /// counters and the gauges, records into the retained log and the
    /// optional stream, flushes phase spans, and advances the boundary.
    pub(crate) fn emit(&mut self, cycle: u64, counts: BoundaryCounts, phases: &PhaseNanos) {
        debug_assert_eq!(cycle, self.next, "emit off the epoch boundary");
        self.reg.set(self.ids.flits_ejected, counts.flits_ejected);
        self.reg.set(self.ids.tagged_created, counts.tagged_created);
        self.reg.set(self.ids.tagged_done, counts.tagged_done);
        self.reg
            .set(self.ids.unreachable_pairs, counts.unreachable_pairs);
        self.reg.set(self.ids.wheel_pending, counts.wheel_pending);
        self.reg.set(self.ids.fast_forwarded, phases.fast_forwarded);
        self.reg.set(self.ids.barrier_waits, phases.barrier_waits);
        self.reg.set(self.ids.rebalances, phases.rebalances);
        self.reg.set(self.ids.migrated_nodes, phases.migrated_nodes);
        let snap = self.reg.snapshot(cycle, self.epochs);
        self.mem.record(&snap);
        if let Some(stream) = self.stream.as_mut() {
            stream.record(&snap);
        }
        if let Some(tr) = self.trace.as_mut() {
            for lane in 0..tr.cum.len() {
                for (p, name) in SHARD_PHASES.iter().enumerate() {
                    tr.log.push(lane, name, tr.cum[lane][p] - tr.last[lane][p]);
                }
                tr.last[lane] = tr.cum[lane];
            }
        }
        self.epochs += 1;
        self.next += self.epoch;
    }

    /// Tears the state down into its result artifacts: the retained
    /// snapshot log and the span log (when tracing was on).
    pub(crate) fn into_parts(self) -> (MetricsLog, Option<TraceLog>) {
        (self.mem.log, self.trace.map(|t| t.log))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_counter_names_track_the_reason_labels() {
        for r in DropReason::ALL {
            assert_eq!(
                DROP_FLIT_NAMES[r as usize],
                format!("dropped_flits_{}", r.label())
            );
            assert_eq!(
                DROP_PACKET_NAMES[r as usize],
                format!("dropped_packets_{}", r.label())
            );
        }
    }

    #[test]
    fn emit_advances_the_boundary_and_records_both_sections() {
        let mut t = TelemetryState::new(64, 1, false);
        assert_eq!(t.next, 64);
        let mut out = ShardOut {
            injected: 1,
            ticks: 99,
            ..ShardOut::default()
        };
        out.drop_stats.count(DropReason::Lossy, true);
        t.absorb_shard(0, &mut out);
        let counts = BoundaryCounts {
            flits_ejected: 7,
            tagged_created: 3,
            tagged_done: 2,
            unreachable_pairs: 1,
            wheel_pending: 5,
        };
        t.emit(64, counts, &PhaseNanos::default());
        assert_eq!(t.next, 128);
        let (log, trace) = t.into_parts();
        assert_eq!(log.len(), 1);
        assert_eq!(log.value(0, "flits_injected"), Some(1));
        assert_eq!(log.value(0, "flits_ejected"), Some(7));
        assert_eq!(log.value(0, "dropped_flits_lossy"), Some(1));
        assert_eq!(log.value(0, "dropped_packets_lossy"), Some(1));
        assert_eq!(log.value(0, "unreachable_pairs"), Some(1));
        assert_eq!(log.value(0, "router_ticks"), Some(99));
        assert_eq!(log.value(0, "wheel_pending"), Some(5));
        assert!(trace.is_none());
    }

    #[test]
    fn shard_absorption_resets_the_out_and_feeds_lanes() {
        let mut t = TelemetryState::new(32, 2, true);
        let mut out = ShardOut {
            injected: 3,
            ticks: 10,
            mail_flits: 2,
            mail_credits: 1,
            span_nanos: [100, 200, 300],
            ..ShardOut::default()
        };
        out.drop_stats.flits[DropReason::LinkDown as usize] = 4;
        t.absorb_shard(1, &mut out);
        assert_eq!(out.injected, 0);
        assert_eq!(out.ticks, 0);
        assert_eq!(out.span_nanos, [0; 3]);
        assert_eq!(out.drop_stats, DropStats::default());
        t.emit(32, BoundaryCounts::default(), &PhaseNanos::default());
        let (log, trace) = t.into_parts();
        assert_eq!(log.value(0, "flits_injected"), Some(3));
        assert_eq!(log.value(0, "router_ticks"), Some(10));
        assert_eq!(log.value(0, "mail_flits"), Some(2));
        assert_eq!(log.value(0, "dropped_flits_link_down"), Some(4));
        let spans = trace.unwrap();
        // Only lane 1 accumulated nanos; three spans, one per phase.
        assert_eq!(spans.spans().len(), 3);
        assert!(spans.spans().iter().all(|s| s.lane == 1));
    }
}
