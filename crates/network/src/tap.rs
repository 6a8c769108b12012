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
//! shard counts, and thread schedules. That works because every counter
//! is read at the boundary from state that is itself bit-identical:
//! `Measurement` totals, the pure `FaultModel::unreachable_pairs`
//! function, and sums of the shards' running totals — integer sums, so
//! the partition does not change them. Nothing is folded per cycle.
//! **Gauges** are engine-specific diagnostics — router ticks, mailbox
//! traffic, barrier waits — and are excluded from the identity check by
//! design.

use crate::fault::{DropReason, DropStats, DROP_REASONS};
use crate::shard::{lock_mailbox, ShardOut};
use crate::stats::PhaseNanos;
use std::fmt;
use std::sync::Mutex;
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
    /// Each lane's (= shard's) `ShardOut::span_nanos` at the previous
    /// epoch boundary.
    last: Vec<[u64; 3]>,
}

/// The values the serial section hands to [`TelemetryState::emit`]
/// beside the shard outputs: totals it reads off bit-identical
/// measurement state at the epoch boundary, plus the staged mail.
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
    /// Boundary mail staged at the gate, which its receiver has not
    /// scheduled yet: with every shard's wheel level, the flits and
    /// credits on the wires (the `wheel_pending` gauge).
    pub(crate) staged_mail: u64,
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
                last: vec![[0; 3]; lanes],
            }),
        }
    }

    /// Attaches a streaming tap; every future snapshot is forwarded.
    pub(crate) fn set_stream(&mut self, tap: Box<dyn MetricsTap + Send>) {
        self.stream = Some(tap);
    }

    /// Emits the snapshot for boundary `cycle` (callers check
    /// [`TelemetryState::next`] first): sums the shards' running totals
    /// in shard order, refreshes every metric, records into the retained
    /// log and the optional stream, pushes each lane's span growth since
    /// the previous boundary, and advances the boundary.
    pub(crate) fn emit(
        &mut self,
        cycle: u64,
        counts: BoundaryCounts,
        phases: &PhaseNanos,
        outs: &[Mutex<ShardOut>],
    ) {
        debug_assert_eq!(cycle, self.next, "emit off the epoch boundary");
        let (mut injected, mut ticks, mut mail_flits, mut mail_credits) = (0, 0, 0, 0);
        let mut on_wheels = 0;
        let mut drops = DropStats::default();
        for (lane, out) in outs.iter().enumerate() {
            let o = lock_mailbox(out);
            injected += o.injected;
            ticks += o.ticks;
            mail_flits += o.mail_flits;
            mail_credits += o.mail_credits;
            on_wheels += o.wheel_pending;
            drops.merge(&o.drop_stats);
            if let Some(tr) = self.trace.as_mut() {
                for (p, name) in SHARD_PHASES.iter().enumerate() {
                    tr.log.push(lane, name, o.span_nanos[p] - tr.last[lane][p]);
                }
                tr.last[lane] = o.span_nanos;
            }
        }
        self.reg.set(self.ids.flits_injected, injected);
        self.reg.set(self.ids.flits_ejected, counts.flits_ejected);
        self.reg.set(self.ids.tagged_created, counts.tagged_created);
        self.reg.set(self.ids.tagged_done, counts.tagged_done);
        for r in DropReason::ALL {
            let i = r as usize;
            self.reg.set(self.ids.drop_flits[i], drops.flits[i]);
            self.reg.set(self.ids.drop_packets[i], drops.packets[i]);
        }
        self.reg
            .set(self.ids.unreachable_pairs, counts.unreachable_pairs);
        self.reg.set(self.ids.router_ticks, ticks);
        self.reg
            .set(self.ids.wheel_pending, on_wheels + counts.staged_mail);
        self.reg.set(self.ids.mail_flits, mail_flits);
        self.reg.set(self.ids.mail_credits, mail_credits);
        self.reg.set(self.ids.fast_forwarded, phases.fast_forwarded);
        self.reg.set(self.ids.barrier_waits, phases.barrier_waits);
        self.reg.set(self.ids.rebalances, phases.rebalances);
        self.reg.set(self.ids.migrated_nodes, phases.migrated_nodes);
        let snap = self.reg.snapshot(cycle, self.epochs);
        self.mem.record(&snap);
        if let Some(stream) = self.stream.as_mut() {
            stream.record(&snap);
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
            wheel_pending: 3,
            ..ShardOut::default()
        };
        out.drop_stats.count(DropReason::Lossy, true);
        let counts = BoundaryCounts {
            flits_ejected: 7,
            tagged_created: 3,
            tagged_done: 2,
            unreachable_pairs: 1,
            staged_mail: 2,
        };
        t.emit(64, counts, &PhaseNanos::default(), &[Mutex::new(out)]);
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
    fn boundaries_read_shard_sums_and_each_lane_span_growth() {
        let mut t = TelemetryState::new(32, 2, true);
        let outs = [
            Mutex::new(ShardOut {
                injected: 3,
                ticks: 10,
                mail_flits: 2,
                mail_credits: 1,
                span_nanos: [100, 200, 300],
                ..ShardOut::default()
            }),
            Mutex::new(ShardOut {
                injected: 4,
                ticks: 5,
                span_nanos: [10, 20, 30],
                ..ShardOut::default()
            }),
        ];
        lock_mailbox(&outs[0]).drop_stats.flits[DropReason::LinkDown as usize] = 4;
        t.emit(32, BoundaryCounts::default(), &PhaseNanos::default(), &outs);
        // The totals only grow; lane 1 spent no time this epoch.
        {
            let mut o = lock_mailbox(&outs[0]);
            o.injected += 2;
            o.ticks += 6;
            o.mail_flits += 1;
            o.span_nanos[2] += 50;
        }
        lock_mailbox(&outs[1]).drop_stats.flits[DropReason::LinkDown as usize] = 1;
        t.emit(64, BoundaryCounts::default(), &PhaseNanos::default(), &outs);
        let (log, trace) = t.into_parts();
        assert_eq!(log.value(0, "flits_injected"), Some(7));
        assert_eq!(log.value(0, "router_ticks"), Some(15));
        assert_eq!(log.value(0, "mail_flits"), Some(2));
        assert_eq!(log.value(0, "mail_credits"), Some(1));
        assert_eq!(log.value(0, "dropped_flits_link_down"), Some(4));
        assert_eq!(log.value(1, "flits_injected"), Some(9));
        assert_eq!(log.value(1, "router_ticks"), Some(21));
        assert_eq!(log.value(1, "mail_flits"), Some(3));
        assert_eq!(log.value(1, "mail_credits"), Some(1));
        assert_eq!(log.value(1, "dropped_flits_link_down"), Some(5));
        let spans: Vec<_> = trace
            .unwrap()
            .spans()
            .iter()
            .map(|s| (s.lane, s.name, s.dur_ns))
            .collect();
        // One span per phase per lane at the first boundary, then only
        // the growth: zero-length spans are not pushed.
        assert_eq!(
            spans,
            [
                (0, "delivery", 100),
                (0, "sources", 200),
                (0, "router", 300),
                (1, "delivery", 10),
                (1, "sources", 20),
                (1, "router", 30),
                (0, "router", 50),
            ]
        );
    }
}
