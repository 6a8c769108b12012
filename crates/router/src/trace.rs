//! Pipeline event tracing.
//!
//! When enabled, a router records one [`TraceEntry`] per microarchitectural
//! event — flit arrival, route computation, VC allocation, switch
//! allocation (speculative or not), wasted speculation, and switch
//! traversal — letting tests pin the exact cycle-by-cycle pipeline
//! behavior and users debug stalls.
//!
//! Capture is gated behind an explicit buffer: a router holds
//! `Option<Box<Trace>>`, `None` by default, so the hot tick path pays a
//! single pointer-null test per *potential* event and never constructs a
//! [`TraceEntry`] it would throw away. [`Trace`] is that bounded buffer;
//! read it back through [`crate::router::Router::trace`].
//!
//! This is the *microarchitectural* trace — one entry per pipeline
//! event inside one router. Run-level observability (named counter
//! snapshots at epoch boundaries, per-flow latency percentiles, and
//! wall-clock phase spans exportable to Perfetto) lives in the
//! `telemetry` crate and is wired through the network simulator's
//! `with_telemetry` knob; the two layers share the same
//! off-by-default, zero-cost-when-off discipline.

use crate::flit::PacketId;
use std::fmt;

/// The disabled trace every untraced router exposes through
/// [`crate::router::Router::trace`] — recording into it is a no-op.
pub(crate) static DISABLED: Trace = Trace {
    entries: Vec::new(),
    capacity: 0,
    enabled: false,
};

/// A pipeline event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineEvent {
    /// Flit written into an input buffer (BW stage).
    Arrived,
    /// Head decoded and routed (RC stage); payload is the output port.
    RouteComputed {
        /// Output port selected by the routing function.
        out_port: usize,
    },
    /// Output VC granted by the VC allocator (VA stage).
    VaGranted {
        /// The granted output VC.
        out_vc: usize,
    },
    /// Switch granted (SA stage).
    SaGranted {
        /// Whether the grant came from the speculative plane.
        speculative: bool,
    },
    /// A speculative switch grant went unused (crossbar slot wasted).
    SpecWasted,
    /// Flit traversed the crossbar (ST stage).
    Traversed {
        /// Output port traversed.
        out_port: usize,
        /// Output VC the flit departs on.
        out_vc: usize,
    },
}

impl fmt::Display for PipelineEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineEvent::Arrived => write!(f, "BW"),
            PipelineEvent::RouteComputed { out_port } => write!(f, "RC->p{out_port}"),
            PipelineEvent::VaGranted { out_vc } => write!(f, "VA->v{out_vc}"),
            PipelineEvent::SaGranted { speculative: true } => write!(f, "SA(spec)"),
            PipelineEvent::SaGranted { speculative: false } => write!(f, "SA"),
            PipelineEvent::SpecWasted => write!(f, "SA(wasted)"),
            PipelineEvent::Traversed { out_port, out_vc } => {
                write!(f, "ST->p{out_port}v{out_vc}")
            }
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Cycle the event happened in.
    pub cycle: u64,
    /// Input port of the channel involved.
    pub in_port: usize,
    /// Input VC of the channel involved.
    pub in_vc: usize,
    /// Packet involved (the head's packet for allocation events).
    pub packet: PacketId,
    /// The event.
    pub event: PipelineEvent,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "@{:<5} p{}v{} {} {}",
            self.cycle, self.in_port, self.in_vc, self.packet, self.event
        )
    }
}

/// An event recorder (bounded; silently drops past capacity).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
    capacity: usize,
    enabled: bool,
}

impl Trace {
    /// A disabled trace.
    #[must_use]
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// An enabled trace retaining up to `capacity` events.
    #[must_use]
    pub fn enabled(capacity: usize) -> Self {
        Trace {
            entries: Vec::new(),
            capacity,
            enabled: true,
        }
    }

    /// Records an event (no-op when disabled or full).
    pub fn record(&mut self, entry: TraceEntry) {
        if self.enabled && self.entries.len() < self.capacity {
            self.entries.push(entry);
        }
    }

    /// The recorded events, in order.
    #[must_use]
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Events of one packet, in order.
    #[must_use]
    pub fn of_packet(&self, packet: PacketId) -> Vec<TraceEntry> {
        self.entries
            .iter()
            .copied()
            .filter(|e| e.packet == packet)
            .collect()
    }

    /// Renders the trace as one line per event.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(cycle: u64, event: PipelineEvent) -> TraceEntry {
        TraceEntry {
            cycle,
            in_port: 0,
            in_vc: 0,
            packet: PacketId::new(1),
            event,
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(entry(1, PipelineEvent::Arrived));
        assert!(t.entries().is_empty());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled(10);
        t.record(entry(1, PipelineEvent::Arrived));
        t.record(entry(2, PipelineEvent::RouteComputed { out_port: 3 }));
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.entries()[0].cycle, 1);
    }

    #[test]
    fn capacity_bounds_recording() {
        let mut t = Trace::enabled(2);
        for c in 0..5 {
            t.record(entry(c, PipelineEvent::Arrived));
        }
        assert_eq!(t.entries().len(), 2);
    }

    #[test]
    fn of_packet_filters() {
        let mut t = Trace::enabled(10);
        t.record(entry(1, PipelineEvent::Arrived));
        let mut other = entry(2, PipelineEvent::Arrived);
        other.packet = PacketId::new(9);
        t.record(other);
        assert_eq!(t.of_packet(PacketId::new(9)).len(), 1);
    }

    #[test]
    fn render_is_line_per_event() {
        let mut t = Trace::enabled(10);
        t.record(entry(4, PipelineEvent::SaGranted { speculative: true }));
        let s = t.render();
        assert!(s.contains("@4"));
        assert!(s.contains("SA(spec)"));
        assert_eq!(s.lines().count(), 1);
    }

    #[test]
    fn the_shared_disabled_trace_is_inert() {
        assert!(DISABLED.entries().is_empty());
        let mut t = DISABLED.clone();
        t.record(entry(1, PipelineEvent::Arrived));
        assert!(t.entries().is_empty(), "the shared trace is disabled");
    }

    #[test]
    fn event_display_is_stage_shorthand() {
        assert_eq!(PipelineEvent::Arrived.to_string(), "BW");
        assert_eq!(
            PipelineEvent::Traversed {
                out_port: 2,
                out_vc: 1
            }
            .to_string(),
            "ST->p2v1"
        );
        assert_eq!(PipelineEvent::SpecWasted.to_string(), "SA(wasted)");
    }
}
