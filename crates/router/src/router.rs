//! The cycle-accurate router engine.
//!
//! One [`Router::tick`] advances the router a clock cycle through the
//! hardware phases, in this order:
//!
//! 1. **ST** — switch traversal of flits granted in earlier cycles
//!    (wormhole flits *flow* through their held output);
//! 2. **RC** — route computation for head flits that reached the front of
//!    an idle channel;
//! 3. **VA** — virtual-channel allocation (separable allocator);
//! 4. **SA** — switch allocation: non-speculative first, then (for the
//!    speculative router) the parallel speculative plane, with
//!    non-speculative grants strictly prioritized.
//!
//! Running ST first models the stage registers: a grant issued in cycle
//! `t` with `st_delay = 1` performs its traversal in the ST phase of
//! `t + 1`, while single-cycle ("unit latency") routers execute grants
//! inline in the same cycle.
//!
//! # The hot path is allocation-free
//!
//! A steady-state [`Router::tick_into`] performs **zero heap
//! allocation** and walks a few small blocks. Every input VC buffers its
//! flits in a ring window of the router's single [`FlitArena`] slab. The
//! rest of the router is one array per input channel (the channel's
//! routed port, held output channel, first bid cycle and permitted output
//! channels), one per output channel (downstream credits and depth), one
//! per port (departure count, wormhole holder, and the switch
//! allocator's per-port request and winner slots), the VC allocator, two
//! [`MatrixBank`]s of switch arbiters, and `u64` masks. What a tick
//! hands from one phase to the next is masks in locals, so there is no
//! scratch buffer to grow. Trace capture is gated behind an
//! `Option<Box<Trace>>` sink that costs one null test when disabled. The
//! only allocation left is capacity growth of the caller's reused
//! [`TickOutput`] during warm-up. The counting-allocator test in
//! `tests/alloc_free.rs` enforces the claim and counts what
//! [`Router::new`] allocates.
//!
//! # The hot path works on `u64` masks
//!
//! Every set the tick handles is a `u64` bitmask over the flattened
//! channel index `port * vcs + vc` (or over port numbers), so a router
//! has at most 64 input channels — [`RouterConfig`] asserts
//! `ports × vcs <= 64`, and the network configuration reports it as a
//! typed error. The channel state machine (`invc_state` in the paper) is
//! two of these masks, and the masks are kept in step with the arena and
//! the arrays as they change:
//!
//! * `occupied` — the ring holds a flit (set on [`Router::accept_flit`],
//!   cleared when a traversal empties the ring);
//! * `busy` — the channel is not idle (set by RC, cleared by a tail's
//!   traversal);
//! * `allocating` — the channel bids for an output VC, or on hold-based
//!   routers for its output port (set by RC, cleared by a VA grant or a
//!   wormhole hold grant); a busy channel that is not allocating is
//!   active;
//! * `st` — the channels granted the switch last cycle (see below);
//! * `may_send` — the output channels that are sinks or have a credit;
//! * `free` — the output channels no input channel holds;
//! * `sink` — the output channels of ejection ports.
//!
//! So each stage visits only the channels that can act: RC walks
//! `occupied & !busy`, VA walks `allocating`, and switch allocation's
//! first stage walks `busy & !allocating & occupied`, port by port,
//! reading each channel's first bid cycle and held output channel from
//! its array and the output channel's bit in `may_send`. The arbiters
//! take the request masks directly (see the `arbitration` crate): a VA
//! bidder adds one request row, `free` ANDed with the output channels the
//! routing function permits; SA stage 1 files each input port's winner
//! under its output port, so stage 2 visits only requested outputs; and
//! the speculative plane checks bidders and VA winners by mask. Grants
//! come out in the same order as a scan over every channel would produce
//! them, so results are bit-identical to it. Debug builds check every
//! mask and array against the arena and against each other after every
//! tick.
//!
//! # The SA→ST register is a mask
//!
//! [`Timing`](crate::Timing) allows an `st_delay` of 0 or 1, so a switch
//! grant traverses in its own cycle or in the next one. The grants
//! awaiting traversal are therefore the `st` mask of last cycle's granted
//! channels, each of which still holds its output channel; the next ST
//! phase traverses them in channel order.
//!
//! # The tick is a side-effect-free compute half
//!
//! The router's cycle is already split into the two halves a
//! deterministic parallel simulator needs:
//!
//! * **compute** — [`Router::tick_into`] mutates *only this router's own
//!   state* (its arena, channel state, arbiters, counters). Everything
//!   destined for the rest of the world — departures and upstream
//!   credits — is written into the caller's [`TickOutput`], never pushed
//!   into a neighbor.
//! * **commit** — [`Router::accept_flit`] / [`Router::accept_credit`]
//!   apply remote effects, and within one delivery phase they commute:
//!   flit acceptance appends to per-`(port, vc)` FIFOs that each have
//!   exactly one upstream writer per cycle, and credit acceptance only
//!   increments per-`(port, vc)` counters.
//!
//! Because the compute half never aliases another router and the commit
//! half commutes, a sharded simulator may tick disjoint router sets on
//! different threads and exchange `TickOutput`s at a barrier, and the
//! result is bit-identical to a serial sweep in node order — the
//! contract `noc-network`'s `ParallelShards` engine is built on
//! (enforced end to end by `tests/engine_equivalence.rs` at the
//! workspace root, and locally by `cross_thread_ticks_match_serial`
//! below).

use crate::arena::FlitArena;
use crate::config::{FlowControlKind, RouterConfig};
use crate::flit::{Flit, PacketId};
use crate::stats::RouterStats;
use crate::trace::{PipelineEvent, Trace, TraceEntry};
use arbitration::{low_bits, MatrixBank, SeparableAllocator};

/// The routing function a router consults during route computation.
///
/// Implemented for any `Fn(&Flit) -> usize` closure (returning the output
/// port, with all output VCs permitted). Implement the trait directly to
/// also restrict which output VCs a packet may be allocated — e.g. the
/// dateline VC classes that make dimension-ordered routing deadlock-free
/// on a torus.
pub trait RoutingOracle {
    /// The output port for a head flit (deterministic routing; adaptive
    /// selection, if any, happens inside the oracle).
    fn output_port(&self, flit: &Flit) -> usize;

    /// Bitmask of output VCs the packet may be allocated at `out_port`
    /// (bit `i` = VC `i`). Defaults to all.
    fn vc_mask(&self, _flit: &Flit, _out_port: usize) -> u64 {
        u64::MAX
    }
}

impl<F: Fn(&Flit) -> usize> RoutingOracle for F {
    fn output_port(&self, flit: &Flit) -> usize {
        self(flit)
    }
}

/// A flit leaving through an output port this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Departure {
    /// The flit, with its `vc` field already rewritten to the output VC.
    pub flit: Flit,
    /// The output port it leaves through.
    pub out_port: usize,
}

/// A credit to return upstream: the buffer of `(in_port, vc)` was freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditOut {
    /// Input port whose buffer was freed.
    pub in_port: usize,
    /// Virtual channel within that port.
    pub vc: usize,
}

/// Everything a router produced in one cycle.
#[derive(Debug, Clone, Default)]
pub struct TickOutput {
    /// Flits that traversed the crossbar this cycle.
    pub departures: Vec<Departure>,
    /// Credits to send upstream.
    pub credits: Vec<CreditOut>,
}

impl TickOutput {
    /// Empties both lists, keeping their capacity (for buffer reuse with
    /// [`Router::tick_into`]).
    pub fn clear(&mut self) {
        self.departures.clear();
        self.credits.clear();
    }
}

/// What one input channel is doing (`invc_state` in the paper's Figures
/// 2–3), each fact once. Whether the channel is idle, allocating or
/// active is in the router's `busy` and `allocating` masks, and its
/// buffered flits are its arena ring.
#[derive(Debug, Clone, Copy, Default)]
struct VcState {
    /// The first cycle the front flit may bid. While allocating: for an
    /// output VC (VC router), for an output VC and the switch at once
    /// (speculative), or for the output port (hold-based). While active:
    /// for the switch; hold-based routers flow `st_delay` cycles later.
    /// With a body or tail flit at the front it is that flit's arrival
    /// plus `body_sa_delay`.
    bid_at: u64,
    /// The output channels the routing function permits, at `out_port`
    /// (read while allocating).
    want: u64,
    /// The output port the routing function chose.
    out_port: u8,
    /// The output channel `out_port * vcs + out_vc` held (read while
    /// active).
    out_chan: u8,
}

/// Downstream buffer accounting of one output channel.
#[derive(Debug, Clone, Copy, Default)]
struct Credits {
    /// Free downstream buffers (ignored at sinks).
    count: u32,
    /// The downstream buffer depth, which `count` never exceeds.
    cap: u32,
}

/// Per-port state: the output side's departure count and wormhole
/// holder, and switch allocation's slots for this port.
#[derive(Debug, Clone, Copy, Default)]
struct Port {
    /// Flits that have left through this output port.
    departures: u64,
    /// Stage-2 switch requests for this output port (bit = input port),
    /// filed by stage 1 and zeroed again as stage 2 consumes them.
    reqs: u64,
    /// The input port holding this output (hold-based routers only).
    holder: Option<u8>,
    /// The VC this input port's stage-1 arbiter picked this cycle.
    winner: u8,
}

/// Iterates the set bits of `mask`, lowest first.
#[inline]
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Splits channel mask `chans` by input port: yields `(port, vcs)` with
/// `vcs` the port's channels as a VC mask, ports ascending.
#[inline]
fn by_port(mut chans: u64, v: usize) -> impl Iterator<Item = (usize, u64)> {
    let vc_bits = low_bits(v);
    std::iter::from_fn(move || {
        (chans != 0).then(|| {
            let port = chans.trailing_zeros() as usize / v;
            let base = port * v;
            let vcs = chans >> base & vc_bits;
            chans &= !(vc_bits << base);
            (port, vcs)
        })
    })
}

/// Records an event of channel `chan` (of a router with `v` VCs per
/// port) if tracing is on.
#[inline]
fn record(
    trace: &mut Option<Box<Trace>>,
    v: usize,
    cycle: u64,
    chan: usize,
    packet: PacketId,
    event: PipelineEvent,
) {
    if let Some(t) = trace.as_deref_mut() {
        t.record(TraceEntry {
            cycle,
            in_port: chan / v,
            in_vc: chan % v,
            packet,
            event,
        });
    }
}

/// A cycle-accurate wormhole / VC / speculative-VC router.
#[derive(Debug, Clone)]
pub struct Router {
    cfg: RouterConfig,
    /// All input flit buffers: one slab, one ring window per (port, VC).
    arena: FlitArena,
    /// Per input channel `port * vcs + vc` (also its arena ring).
    chans: Box<[VcState]>,
    /// Per output channel `port * vcs + vc`.
    credits: Box<[Credits]>,
    /// Per port.
    ports: Box<[Port]>,
    va: SeparableAllocator,
    /// Switch-allocation stage 1: one arbiter per input port over its
    /// VCs; arbiters `ports..2 * ports` are the speculative plane's.
    sa_in: MatrixBank,
    /// Switch-allocation stage 2: one arbiter per output port over the
    /// input ports, planes laid out as in `sa_in`.
    sa_out: MatrixBank,
    stats: RouterStats,
    /// Trace buffer; `None` (the default) costs one null test per event
    /// site — see [`crate::trace`].
    trace: Option<Box<Trace>>,
    last_tick: Option<u64>,
    /// Flits currently buffered across all input VCs (wake accounting:
    /// kept in O(1) so [`Router::is_quiescent`] is a cheap field test).
    buffered: usize,
    /// Channels whose ring holds at least one flit: set by
    /// [`Router::accept_flit`], cleared when a traversal empties the ring.
    occupied: u64,
    /// Channels that are not idle: set by RC, cleared by a tail's
    /// traversal.
    busy: u64,
    /// Channels bidding for an output VC or port: set by RC, cleared by a
    /// VA grant or a wormhole hold grant.
    allocating: u64,
    /// Channels granted the switch last cycle, which traverse in this
    /// cycle's ST phase (the SA→ST register).
    st: u64,
    /// Output channels that may take a flit: sinks, or a credit left.
    may_send: u64,
    /// Output channels no input channel holds (VC routers).
    free: u64,
    /// Output channels of ejection ports.
    sink: u64,
}

impl Router {
    /// Builds a router from its configuration. Output credit counters
    /// start at zero: wire the router with [`Router::set_output_credits`]
    /// / [`Router::mark_sink`] before simulating.
    #[must_use]
    pub fn new(cfg: RouterConfig) -> Self {
        let p = cfg.ports;
        let channels = p * cfg.vcs;
        let planes = if cfg.kind == FlowControlKind::SpeculativeVc {
            2
        } else {
            1
        };
        Router {
            cfg,
            arena: FlitArena::new(channels, cfg.buffers_per_vc),
            chans: vec![VcState::default(); channels].into_boxed_slice(),
            credits: vec![Credits::default(); channels].into_boxed_slice(),
            ports: vec![Port::default(); p].into_boxed_slice(),
            va: SeparableAllocator::new(channels, channels),
            sa_in: MatrixBank::new(planes * p, cfg.vcs),
            sa_out: MatrixBank::new(planes * p, p),
            stats: RouterStats::default(),
            trace: None,
            last_tick: None,
            buffered: 0,
            occupied: 0,
            busy: 0,
            allocating: 0,
            st: 0,
            may_send: 0,
            free: low_bits(channels),
            sink: 0,
        }
    }

    /// The flattened channel index of `(port, vc)` — also its arena ring.
    #[inline]
    fn chan(&self, port: usize, vc: usize) -> usize {
        port * self.cfg.vcs + vc
    }

    /// The channel mask of every VC of `port`.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    fn port_chans(&self, port: usize) -> u64 {
        assert!(
            port < self.cfg.ports,
            "port {port} out of range ({} ports)",
            self.cfg.ports
        );
        low_bits(self.cfg.vcs) << (port * self.cfg.vcs)
    }

    /// Whether hold-based switching (wormhole, cut-through) is in use.
    fn holds_ports(&self) -> bool {
        matches!(
            self.cfg.kind,
            FlowControlKind::Wormhole | FlowControlKind::VirtualCutThrough
        )
    }

    /// The configuration this router was built with.
    #[must_use]
    pub fn config(&self) -> &RouterConfig {
        &self.cfg
    }

    /// Lifetime event counters.
    #[must_use]
    pub fn stats(&self) -> &RouterStats {
        &self.stats
    }

    /// Enables pipeline event tracing, retaining up to `capacity` events
    /// (see [`crate::trace`]). Until this is called the router carries no
    /// trace sink and the tick path pays nothing for tracing.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(Box::new(Trace::enabled(capacity)));
    }

    /// The recorded pipeline trace (the shared disabled trace if tracing
    /// was never enabled).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        self.trace.as_deref().unwrap_or(&crate::trace::DISABLED)
    }

    /// Flits that have left through `out_port` so far, the ejection
    /// port included: every departure passes one switch traversal.
    #[must_use]
    pub fn departures(&self, out_port: usize) -> u64 {
        self.ports[out_port].departures
    }

    #[inline]
    fn record(&mut self, cycle: u64, chan: usize, packet: PacketId, event: PipelineEvent) {
        record(&mut self.trace, self.cfg.vcs, cycle, chan, packet, event);
    }

    /// Initializes the credit counters of `out_port` to the downstream
    /// input buffer depth (per VC).
    ///
    /// # Panics
    ///
    /// Panics if `out_port` is out of range or `per_vc` exceeds
    /// `u32::MAX`.
    pub fn set_output_credits(&mut self, out_port: usize, per_vc: u64) {
        let outs = self.port_chans(out_port);
        let depth = u32::try_from(per_vc).expect("a credit depth fits u32");
        for o in bits(outs) {
            self.credits[o] = Credits {
                count: depth,
                cap: depth,
            };
        }
        if depth > 0 {
            self.may_send |= outs;
        } else {
            self.may_send &= !outs | self.sink;
        }
    }

    /// Marks `out_port` as an ejection port with immediate (unbounded)
    /// ejection.
    ///
    /// # Panics
    ///
    /// Panics if `out_port` is out of range.
    pub fn mark_sink(&mut self, out_port: usize) {
        let outs = self.port_chans(out_port);
        self.sink |= outs;
        self.may_send |= outs;
    }

    /// Consumes one credit of output channel `o` at switch allocation
    /// (none at a sink).
    ///
    /// # Panics
    ///
    /// Panics if no credit is left: the allocator must check `may_send`
    /// first.
    fn consume_credit(&mut self, o: usize) {
        if self.sink & 1 << o != 0 {
            return;
        }
        let c = &mut self.credits[o];
        assert!(c.count > 0, "consuming credit below zero on channel {o}");
        c.count -= 1;
        if c.count == 0 {
            self.may_send &= !(1 << o);
        }
    }

    /// Occupancy of input buffer `(port, vc)` in flits (diagnostics).
    #[must_use]
    pub fn input_occupancy(&self, port: usize, vc: usize) -> usize {
        self.arena.len(self.chan(port, vc))
    }

    /// Total flits buffered in the router (O(1): maintained by
    /// [`Router::accept_flit`] and switch traversal).
    #[must_use]
    pub fn buffered_flits(&self) -> usize {
        debug_assert_eq!(
            self.buffered,
            self.arena.total_len(),
            "buffered-flit accounting out of sync"
        );
        self.buffered
    }

    /// Whether the next [`Router::tick`] is guaranteed to be a no-op, so
    /// an event-driven simulator may skip it entirely.
    ///
    /// A router is quiescent when no input VC buffers a flit and no
    /// granted switch traversal is pending. Everything a tick does is
    /// driven by a buffered flit (route computation, VC allocation, switch
    /// requests, wormhole flow) or a pending traversal; credits are
    /// push-delivered via [`Router::accept_credit`] and only *enable*
    /// work for buffered flits, so a credit arriving at a quiescent router
    /// cannot make a tick non-trivial. The only transition out of
    /// quiescence is [`Router::accept_flit`] — that is the wake-up event.
    #[must_use]
    pub fn is_quiescent(&self) -> bool {
        self.buffered == 0 && self.st == 0
    }

    /// Delivers a flit into input `port` during the delivery phase of
    /// cycle `now` (call before [`Router::tick`] for the same cycle).
    ///
    /// # Panics
    ///
    /// Panics if the flit's VC is out of range or its buffer overflows
    /// (i.e. the upstream violated credit flow control).
    pub fn accept_flit(&mut self, port: usize, flit: Flit, now: u64) {
        let vc = usize::from(flit.vc);
        assert!(
            vc < self.cfg.vcs,
            "flit vc {vc} out of range ({} vcs)",
            self.cfg.vcs
        );
        let chan = self.chan(port, vc);
        self.record(now, chan, flit.packet, PipelineEvent::Arrived);
        self.arena.push_back(chan, flit, now);
        if self.occupied & 1 << chan == 0 {
            // The flit is the new front. A body or tail bids
            // `body_sa_delay` after arriving; RC sets a head's bid.
            self.chans[chan].bid_at = now + self.cfg.timing.body_sa_delay;
        }
        self.occupied |= 1 << chan;
        self.buffered += 1;
    }

    /// Delivers a credit for downstream VC `vc` of output `port` (the
    /// downstream router freed a buffer).
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range, or if the counter would exceed the
    /// downstream buffer depth — that means a duplicated credit.
    pub fn accept_credit(&mut self, port: usize, vc: usize, _now: u64) {
        assert!(
            vc < self.cfg.vcs,
            "credit vc {vc} out of range ({} vcs)",
            self.cfg.vcs
        );
        let o = self.chan(port, vc);
        let c = &mut self.credits[o];
        assert!(
            c.count < c.cap,
            "credit overflow on channel {o}: duplicate credit"
        );
        c.count += 1;
        self.may_send |= 1 << o;
    }

    /// Advances one clock cycle. `route` maps a head flit to its output
    /// port (the routing function, a black box per the paper) and may
    /// restrict the permissible output VCs (see [`RoutingOracle`]).
    ///
    /// Cycle numbers need not be contiguous: an event-driven environment
    /// may skip the cycles where the router [is
    /// quiescent](Router::is_quiescent), which by construction are no-ops.
    ///
    /// # Panics
    ///
    /// Panics if called with a non-increasing cycle number.
    pub fn tick(&mut self, now: u64, route: &dyn RoutingOracle) -> TickOutput {
        let mut out = TickOutput::default();
        self.tick_into(now, route, &mut out);
        out
    }

    /// [`Router::tick`] into a caller-provided buffer, so a simulator
    /// ticking thousands of routers per cycle reuses one allocation
    /// instead of building fresh `Vec`s each tick. `out` is cleared first.
    ///
    /// # Panics
    ///
    /// Panics if called with a non-increasing cycle number.
    pub fn tick_into(&mut self, now: u64, route: &dyn RoutingOracle, out: &mut TickOutput) {
        if let Some(last) = self.last_tick {
            assert!(now > last, "tick({now}) after tick({last})");
            debug_assert!(self.st == 0 || now == last + 1, "missed an ST slot");
        }
        self.last_tick = Some(now);

        out.clear();

        // Phase 1: ST — previously granted traversals.
        self.phase_st(now, out);

        // Phase 2: RC.
        self.phase_rc(now, route);

        // Phase 3: VA (remembering who was bidding, for the speculative
        // plane which runs its SA in parallel with VA).
        let (bidders, va_winners) = self.phase_va(now);

        // Phase 4: SA.
        match self.cfg.kind {
            FlowControlKind::Wormhole | FlowControlKind::VirtualCutThrough => {
                self.phase_sa_wormhole(now, out);
            }
            FlowControlKind::VirtualChannel => {
                self.phase_sa_vc(now, out);
            }
            FlowControlKind::SpeculativeVc => {
                let taken = self.phase_sa_vc(now, out);
                self.phase_sa_speculative(now, bidders, va_winners, taken, out);
            }
        }

        debug_assert!(
            self.channel_masks_agree(),
            "router masks out of step with the arena and the channel arrays"
        );
    }

    /// Whether every mask agrees with the arena, the channel, credit and
    /// port arrays, and the other masks (the debug-build check of the
    /// flat state). Allocation-free, like the tick it checks.
    fn channel_masks_agree(&self) -> bool {
        let v = self.cfg.vcs;
        let channels = self.chans.len();
        let hold = self.holds_ports();
        let active = self.busy & !self.allocating;
        let mut held = 0u64;
        for chan in 0..channels {
            let bit = 1u64 << chan;
            let s = self.chans[chan];
            let front = self.arena.front(chan);
            if (self.occupied & bit != 0) != front.is_some() {
                return false;
            }
            // An allocating channel is busy and holds its routed head.
            if self.allocating & bit != 0
                && (self.busy & bit == 0 || !front.is_some_and(|(f, _)| f.kind.is_head()))
            {
                return false;
            }
            if active & bit == 0 {
                continue;
            }
            // An active channel's body or tail at the front bids
            // `body_sa_delay` after it arrived.
            if front.is_some_and(|(f, arrival)| {
                !f.kind.is_head() && s.bid_at != arrival + self.cfg.timing.body_sa_delay
            }) {
                return false;
            }
            // It holds one output channel of its routed port, which no
            // other channel holds.
            let (out_port, out_chan) = (usize::from(s.out_port), usize::from(s.out_chan));
            if out_chan / v != out_port || held & 1 << out_chan != 0 {
                return false;
            }
            held |= 1 << out_chan;
            if hold && self.ports[out_port].holder != Some(chan as u8) {
                return false;
            }
        }
        let holders = self.ports.iter().filter(|p| p.holder.is_some()).count();
        let ownership_agrees = if hold {
            holders == active.count_ones() as usize && self.free == low_bits(channels)
        } else {
            holders == 0 && self.free == !held & low_bits(channels)
        };
        let credits_agree = self.credits.iter().enumerate().all(|(o, c)| {
            let sink = self.sink & 1 << o != 0;
            c.count <= c.cap && (self.may_send & 1 << o != 0) == (sink || c.count > 0)
        });
        ownership_agrees
            && credits_agree
            && self.allocating & !self.busy == 0
            && self.st & !(active & self.occupied) == 0
            && (self.st == 0 || self.cfg.timing.st_delay == 1)
            && self.ports.iter().all(|p| p.reqs == 0)
            && (0..self.cfg.ports).all(|p| {
                let outs = low_bits(v) << (p * v);
                self.sink & outs == 0 || self.sink & outs == outs
            })
    }

    // ----- ST ---------------------------------------------------------

    fn phase_st(&mut self, now: u64, out: &mut TickOutput) {
        // Last cycle's per-flit grants.
        for chan in bits(std::mem::take(&mut self.st)) {
            self.traverse(now, chan, out);
        }

        // Wormhole/cut-through flow through held outputs.
        if self.holds_ports() {
            for out_port in 0..self.cfg.ports {
                self.wormhole_flow(now, out_port, out);
            }
        }
    }

    /// Moves one flit of the packet holding `out_port`, if any is eligible
    /// and a credit is available (hold-based routers, one VC per port, so
    /// a channel index is its input port).
    fn wormhole_flow(&mut self, now: u64, out_port: usize, out: &mut TickOutput) {
        let Some(chan) = self.ports[out_port].holder else {
            return;
        };
        let chan = usize::from(chan);
        let eligible = self.occupied & 1 << chan != 0
            && now >= self.chans[chan].bid_at + self.cfg.timing.st_delay;
        if !eligible || self.may_send & 1 << out_port == 0 {
            return;
        }
        self.consume_credit(out_port);
        self.traverse(now, chan, out);
    }

    /// Executes one switch traversal of channel `chan` through the output
    /// channel it holds: pops the flit, rewrites its VC id, releases
    /// resources on tails, and emits the departure plus the upstream
    /// credit.
    fn traverse(&mut self, now: u64, chan: usize, out: &mut TickOutput) {
        let v = self.cfg.vcs;
        let out_port = usize::from(self.chans[chan].out_port);
        let out_chan = usize::from(self.chans[chan].out_chan);
        let (mut flit, _) = self
            .arena
            .pop_front(chan)
            .expect("granted traversal with empty queue");
        self.buffered -= 1;
        match self.arena.front(chan) {
            None => self.occupied &= !(1 << chan),
            Some((next, arrival)) => {
                debug_assert!(
                    flit.kind.is_tail() || next.packet == flit.packet,
                    "foreign flit on an active channel"
                );
                self.chans[chan].bid_at = arrival + self.cfg.timing.body_sa_delay;
            }
        }
        let out_vc = out_chan - out_port * v;
        // vcs <= 64, so a VC id fits a byte.
        flit.vc = out_vc as u8;
        if flit.kind.is_tail() {
            if self.holds_ports() {
                self.ports[out_port].holder = None;
            } else {
                self.free |= 1 << out_chan;
            }
            self.busy &= !(1 << chan);
        }
        self.stats.flits_switched += 1;
        self.stats.credits_sent += 1;
        self.ports[out_port].departures += 1;
        self.record(
            now,
            chan,
            flit.packet,
            PipelineEvent::Traversed { out_port, out_vc },
        );
        out.departures.push(Departure { flit, out_port });
        out.credits.push(CreditOut {
            in_port: chan / v,
            vc: chan % v,
        });
    }

    // ----- RC ---------------------------------------------------------

    /// Route computation for every idle channel holding a flit — which,
    /// at an idle channel, must be a packet's head.
    fn phase_rc(&mut self, now: u64, route: &dyn RoutingOracle) {
        let bid_at = now + self.cfg.timing.rc_delay;
        let ports = self.cfg.ports;
        let v = self.cfg.vcs;
        for chan in bits(self.occupied & !self.busy) {
            let (front, _) = self
                .arena
                .front(chan)
                .expect("occupied channel without a front flit");
            assert!(
                front.kind.is_head(),
                "non-head flit {front} at the front of an idle channel"
            );
            let out_port = route.output_port(front);
            assert!(out_port < ports, "routing returned port {out_port}");
            let vc_mask = route.vc_mask(front, out_port) & low_bits(v);
            assert!(
                vc_mask != 0,
                "routing permitted no output VC at port {out_port}"
            );
            let packet = front.packet;
            // ports * vcs <= 64, so every port and channel fits a byte.
            self.chans[chan] = VcState {
                bid_at,
                want: vc_mask << (out_port * v),
                out_port: out_port as u8,
                out_chan: (out_port * v) as u8,
            };
            self.busy |= 1 << chan;
            self.allocating |= 1 << chan;
            self.record(now, chan, packet, PipelineEvent::RouteComputed { out_port });
        }
    }

    // ----- VA ---------------------------------------------------------

    /// Runs VC allocation and returns the channels that presented VA
    /// requests this cycle and the subset that won an output VC — the
    /// speculative switch allocator needs both. A bidder's request row is
    /// the free output channels the routing function permits it.
    fn phase_va(&mut self, now: u64) -> (u64, u64) {
        // The head may bid (non-speculatively) for the switch va_sa_delay
        // cycles after its VA grant; the speculative router bids in
        // parallel *this* cycle through the speculative plane and falls
        // back to non-speculative requests from the next cycle.
        let sa_request_at = match self.cfg.kind {
            FlowControlKind::Wormhole | FlowControlKind::VirtualCutThrough => return (0, 0),
            FlowControlKind::VirtualChannel => now + self.cfg.timing.va_sa_delay,
            FlowControlKind::SpeculativeVc => now + 1,
        };
        let mut bidders = 0u64;
        let mut requested = false;
        for chan in bits(self.allocating) {
            let s = self.chans[chan];
            if now < s.bid_at {
                continue;
            }
            bidders |= 1 << chan;
            let free = self.free & s.want;
            if free != 0 {
                self.va.request(chan, free);
                requested = true;
            }
        }
        if !requested {
            // Nothing bid (the common case while bodies stream): skip the
            // allocator's stage scans entirely.
            return (bidders, 0);
        }
        let v = self.cfg.vcs;
        let mut winners = 0u64;
        let (chans, free, stats, trace, arena) = (
            &mut self.chans,
            &mut self.free,
            &mut self.stats,
            &mut self.trace,
            &self.arena,
        );
        self.va.allocate_with(|g| {
            *free &= !(1 << g.resource);
            let s = &mut chans[g.input];
            s.out_chan = g.resource as u8;
            s.bid_at = sa_request_at;
            winners |= 1 << g.input;
            stats.va_grants += 1;
            if trace.is_some() {
                let packet = arena
                    .front(g.input)
                    .expect("VA bid without a head flit")
                    .0
                    .packet;
                let event = PipelineEvent::VaGranted {
                    out_vc: g.resource % v,
                };
                record(trace, v, now, g.input, packet, event);
            }
        });
        self.allocating &= !winners;
        (bidders, winners)
    }

    // ----- SA ---------------------------------------------------------

    /// Non-speculative separable switch allocation (VC and speculative
    /// routers; the speculative plane runs after this and never overrides
    /// its grants). Stage 1 visits only active channels holding a flit:
    /// one requests when its first bid cycle has come and its output
    /// channel may send. It files each port's winner under its output
    /// port. Returns the input and output ports granted this cycle, the
    /// crossbar connections the speculative plane must avoid.
    fn phase_sa_vc(&mut self, now: u64, out: &mut TickOutput) -> (u64, u64) {
        let v = self.cfg.vcs;

        // Stage 1: per input port, pick one requesting VC.
        let mut requested_outs = 0u64;
        for (port, vcs) in by_port(self.busy & !self.allocating & self.occupied, v) {
            let base = port * v;
            let mut reqs = 0u64;
            for vc in bits(vcs) {
                let s = &self.chans[base + vc];
                if now >= s.bid_at && self.may_send >> s.out_chan & 1 != 0 {
                    reqs |= 1 << vc;
                }
            }
            let Some(vc) = self.sa_in.peek_mask(port, reqs) else {
                continue;
            };
            let out_port = usize::from(self.chans[base + vc].out_port);
            self.ports[port].winner = vc as u8;
            self.ports[out_port].reqs |= 1 << port;
            requested_outs |= 1 << out_port;
        }

        // Stage 2: per requested output port, pick one input port.
        let (mut in_taken, mut out_taken) = (0u64, 0u64);
        for out_port in bits(requested_outs) {
            let reqs = std::mem::take(&mut self.ports[out_port].reqs);
            let win_port = self
                .sa_out
                .peek_mask(out_port, reqs)
                .expect("a requested output has a winner");
            let vc = usize::from(self.ports[win_port].winner);
            self.sa_out.demote(out_port, win_port);
            self.sa_in.demote(win_port, vc);
            self.grant_switch(now, win_port * v + vc, false, out);
            self.stats.sa_grants += 1;
            in_taken |= 1 << win_port;
            out_taken |= 1 << out_port;
        }
        (in_taken, out_taken)
    }

    /// The speculative switch-allocation plane: channels still bidding for
    /// an output VC bid for the switch in parallel, each for its routed
    /// port. A speculative grant is used only if the channel also won VA
    /// *this cycle* and the granted VC may send; otherwise the crossbar
    /// slot is wasted. Output ports and input ports already granted
    /// non-speculatively (`taken`) are excluded — non-speculative
    /// requests have strict priority.
    fn phase_sa_speculative(
        &mut self,
        now: u64,
        bidders: u64,
        va_winners: u64,
        (in_taken, out_taken): (u64, u64),
        out: &mut TickOutput,
    ) {
        let p = self.cfg.ports;
        let v = self.cfg.vcs;

        // Stage 1: per input port not granted non-speculatively this
        // cycle (those grants traverse in the same cycle as any
        // speculative grant issued now, so they conflict; traversals of
        // *earlier* grants do not), pick one speculatively bidding VC.
        let mut requested_outs = 0u64;
        for (port, vcs) in by_port(bidders, v) {
            if in_taken & 1 << port != 0 {
                continue;
            }
            self.stats.spec_requests += u64::from(vcs.count_ones());
            let vc = self
                .sa_in
                .peek_mask(p + port, vcs)
                .expect("a bidding port has a winner");
            let out_port = usize::from(self.chans[port * v + vc].out_port);
            self.ports[port].winner = vc as u8;
            self.ports[out_port].reqs |= 1 << port;
            requested_outs |= 1 << out_port;
        }

        // Stage 2: per requested output port not already granted, pick
        // one input port.
        for out_port in bits(requested_outs) {
            let reqs = std::mem::take(&mut self.ports[out_port].reqs);
            if out_taken & 1 << out_port != 0 {
                continue;
            }
            let win_port = self
                .sa_out
                .peek_mask(p + out_port, reqs)
                .expect("a requested output has a winner");
            let vc = usize::from(self.ports[win_port].winner);
            self.sa_out.demote(p + out_port, win_port);
            self.sa_in.demote(p + win_port, vc);

            // Validate the speculation: the channel must have won VA this
            // very cycle and the granted output VC must be able to send.
            let chan = win_port * v + vc;
            if va_winners & 1 << chan == 0 {
                self.stats.spec_wasted += 1;
                if let Some((front, _)) = self.arena.front(chan) {
                    let packet = front.packet;
                    self.record(now, chan, packet, PipelineEvent::SpecWasted);
                }
                continue;
            }
            if self.may_send >> self.chans[chan].out_chan & 1 == 0 {
                self.stats.spec_wasted += 1;
                continue;
            }
            self.grant_switch(now, chan, true, out);
            self.stats.spec_hits += 1;
        }
    }

    /// Wormhole switch arbitration: channels bid to *hold* a free output
    /// port; held ports then stream flits (see [`Router::wormhole_flow`]).
    /// With one VC per port, a channel index is its input port.
    fn phase_sa_wormhole(&mut self, now: u64, out: &mut TickOutput) {
        debug_assert_eq!(self.cfg.vcs, 1, "hold-based routers have one VC");
        let t = self.cfg.timing;
        let mut requested_outs = 0u64;
        for port in bits(self.allocating) {
            let s = self.chans[port];
            let out_port = usize::from(s.out_port);
            if now < s.bid_at || self.ports[out_port].holder.is_some() {
                continue;
            }
            // Cut-through admission: the downstream buffer must have
            // room for the entire packet before it may advance.
            if self.cfg.kind == FlowControlKind::VirtualCutThrough {
                let (head, _) = self.arena.front(port).expect("bid without head");
                let room = self.sink & 1 << out_port != 0
                    || self.credits[out_port].count >= u32::from(head.len);
                if !room {
                    continue;
                }
            }
            self.ports[out_port].reqs |= 1 << port;
            requested_outs |= 1 << out_port;
        }
        for out_port in bits(requested_outs) {
            let reqs = std::mem::take(&mut self.ports[out_port].reqs);
            let winner = self
                .sa_out
                .peek_mask(out_port, reqs)
                .expect("a requested output has a winner");
            self.sa_out.demote(out_port, winner);
            let (head, arrival) = self
                .arena
                .front(winner)
                .expect("switch bid without a head flit");
            let packet = head.packet;
            self.ports[out_port].holder = Some(winner as u8);
            // Flits flow from `st_delay` after the grant, and never before
            // `body_sa_delay + st_delay` after their own arrival.
            self.chans[winner].bid_at = now.max(arrival + t.body_sa_delay);
            self.allocating &= !(1 << winner);
            self.stats.sa_grants += 1;
            self.record(
                now,
                winner,
                packet,
                PipelineEvent::SaGranted { speculative: false },
            );
        }
        // Single-cycle routers start flowing in the grant cycle itself
        // (every requested output was granted above).
        if t.st_delay == 0 {
            for out_port in bits(requested_outs) {
                self.wormhole_flow(now, out_port, out);
            }
        }
    }

    /// Commits a per-flit switch grant of channel `chan`: consumes the
    /// credit of the output channel it holds and schedules (or, for
    /// single-cycle routers, immediately executes) its traversal.
    fn grant_switch(&mut self, now: u64, chan: usize, speculative: bool, out: &mut TickOutput) {
        if self.trace.is_some() {
            if let Some((front, _)) = self.arena.front(chan) {
                let packet = front.packet;
                self.record(now, chan, packet, PipelineEvent::SaGranted { speculative });
            }
        }
        self.consume_credit(usize::from(self.chans[chan].out_chan));
        if self.cfg.timing.st_delay == 0 {
            self.traverse(now, chan, out);
        } else {
            self.st |= 1 << chan;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterConfig;
    use crate::flit::FlitKind;

    /// Runs `router` from `from` to `to` inclusive, collecting output.
    fn run(router: &mut Router, from: u64, to: u64, route: impl Fn(&Flit) -> usize) -> TickOutput {
        let mut all = TickOutput::default();
        for now in from..=to {
            let o = router.tick(now, &route);
            all.departures.extend(o.departures);
            all.credits.extend(o.credits);
        }
        all
    }

    /// Runs `router`, delivering one flit per cycle from `feeds` =
    /// `(port, flits)` as a real upstream link would.
    fn run_feeding(
        router: &mut Router,
        from: u64,
        to: u64,
        feeds: &mut [(usize, std::collections::VecDeque<Flit>)],
        route: impl Fn(&Flit) -> usize,
    ) -> TickOutput {
        let mut all = TickOutput::default();
        for now in from..=to {
            for (port, q) in feeds.iter_mut() {
                if let Some(f) = q.pop_front() {
                    router.accept_flit(*port, f, now);
                }
            }
            let o = router.tick(now, &route);
            all.departures.extend(o.departures);
            all.credits.extend(o.credits);
        }
        all
    }

    fn wired(cfg: RouterConfig, credits: u64) -> Router {
        let mut r = Router::new(cfg);
        for port in 0..cfg.ports {
            r.set_output_credits(port, credits);
        }
        r
    }

    #[test]
    fn a_departure_is_32_bytes() {
        assert_eq!(std::mem::size_of::<Departure>(), 32);
    }

    #[test]
    fn channels_start_idle_on_their_own_rings() {
        let mut r = Router::new(RouterConfig::speculative(5, 2, 4));
        assert_eq!((r.occupied, r.busy, r.allocating, r.st), (0, 0, 0, 0));
        assert_eq!(r.free, low_bits(10), "every output channel is free");
        assert_eq!(r.may_send, 0, "no output channel may send before wiring");
        assert_eq!(r.arena.rings(), 10, "one arena ring per channel");
        r.accept_flit(3, Flit::head(PacketId::new(1), 9, 1, 0), 10);
        assert_eq!(
            r.arena.len(3 * 2 + 1),
            1,
            "channel (3, 1) buffers in ring 7"
        );
        assert_eq!(r.input_occupancy(3, 1), 1);
        assert!(r.channel_masks_agree());
    }

    #[test]
    fn credits_consume_and_return() {
        let mut r = Router::new(RouterConfig::virtual_channel(5, 2, 4));
        r.set_output_credits(2, 3);
        let (vc0, vc1) = (r.chan(2, 0), r.chan(2, 1));
        assert_eq!(r.may_send, 0b11 << vc0);
        for _ in 0..3 {
            r.consume_credit(vc0);
        }
        assert_eq!(r.may_send, 1 << vc1, "VC 0 ran out, VC 1 did not");
        r.accept_credit(2, 0, 20);
        assert_eq!(r.may_send, 0b11 << vc0);
        assert_eq!(r.credits[vc0].count, 1);
        assert!(r.channel_masks_agree());
    }

    #[test]
    #[should_panic(expected = "duplicate credit")]
    fn credit_overflow_panics() {
        let mut r = wired(RouterConfig::virtual_channel(5, 2, 4), 2);
        r.accept_credit(1, 1, 10);
    }

    #[test]
    #[should_panic(expected = "below zero")]
    fn credit_underflow_panics() {
        let mut r = wired(RouterConfig::wormhole(5, 8), 0);
        r.consume_credit(1);
    }

    #[test]
    fn sinks_have_infinite_credit() {
        let mut r = Router::new(RouterConfig::virtual_channel(5, 2, 4));
        r.mark_sink(4);
        r.set_output_credits(4, 0);
        let sink = 0b11 << r.chan(4, 0);
        assert_eq!(r.may_send, sink);
        for _ in 0..100 {
            r.consume_credit(r.chan(4, 1));
        }
        assert_eq!(r.may_send, sink, "a sink never runs out");
        assert!(r.channel_masks_agree());
    }

    #[test]
    fn free_vcs_tracks_ownership() {
        // A 2-flit packet from port 0 to port 2 claims one of port 2's
        // three output VCs at its VA grant and frees it with its tail.
        let mut r = wired(RouterConfig::virtual_channel(5, 3, 4), 4);
        let port2 = low_bits(3) << r.chan(2, 0);
        for f in Flit::packet(PacketId::new(1), 9, 0, 0, 2) {
            r.accept_flit(0, f, 10);
        }
        let _ = r.tick(10, &|_: &Flit| 2); // RC
        assert_eq!(r.free & port2, port2);
        let _ = r.tick(11, &|_: &Flit| 2); // VA
        let held = usize::from(r.chans[0].out_chan);
        assert_eq!(r.free & port2, port2 & !(1 << held), "VA claims one VC");
        let out = run(&mut r, 12, 20, |_: &Flit| 2);
        assert_eq!(out.departures.len(), 2);
        assert!(out
            .departures
            .iter()
            .all(|d| usize::from(d.flit.vc) == held - r.chan(2, 0)));
        assert_eq!(r.free & port2, port2, "the tail's traversal frees it");
    }

    #[test]
    fn channel_masks_agree_catches_each_desync() {
        // Mid-packet on a pipelined specVC router: the head has left, the
        // body waits in the ST register and the tail is buffered.
        let mut r = wired(RouterConfig::speculative(5, 2, 4), 4);
        for f in Flit::packet(PacketId::new(1), 9, 0, 0, 3) {
            r.accept_flit(0, f, 10);
        }
        let _ = run(&mut r, 10, 12, |_: &Flit| 2);
        assert_ne!(r.st, 0, "a grant awaits traversal");
        assert!(r.channel_masks_agree());
        let corruptions: [fn(&mut Router); 8] = [
            |r| r.occupied ^= 1 << 1,
            |r| r.allocating |= 1 << 1,
            |r| r.st |= 1 << 2,
            |r| r.may_send ^= 1 << 9,
            |r| r.free = low_bits(10),
            |r| r.sink |= 1,
            |r| r.chans[0].bid_at += 1,
            |r| r.ports[3].reqs = 1,
        ];
        for (i, corrupt) in corruptions.iter().enumerate() {
            let mut bad = r.clone();
            corrupt(&mut bad);
            assert!(!bad.channel_masks_agree(), "corruption {i} went unnoticed");
        }
    }

    #[test]
    fn wormhole_head_takes_three_stages() {
        let mut r = wired(RouterConfig::wormhole(5, 8), 8);
        r.accept_flit(0, Flit::head(PacketId::new(1), 9, 0, 0), 10);
        assert!(r.tick(10, &|_: &Flit| 2).departures.is_empty()); // RC
        assert!(r.tick(11, &|_: &Flit| 2).departures.is_empty()); // SA
        let o = r.tick(12, &|_: &Flit| 2); // ST
        assert_eq!(o.departures.len(), 1);
        assert_eq!(o.departures[0].out_port, 2);
        assert_eq!(o.credits, vec![CreditOut { in_port: 0, vc: 0 }]);
    }

    #[test]
    fn vc_head_takes_four_stages() {
        let mut r = wired(RouterConfig::virtual_channel(5, 2, 4), 4);
        r.accept_flit(0, Flit::head(PacketId::new(1), 9, 0, 0), 10);
        for now in 10..=12 {
            assert!(
                r.tick(now, &|_: &Flit| 3).departures.is_empty(),
                "cycle {now}"
            );
        }
        let o = r.tick(13, &|_: &Flit| 3);
        assert_eq!(o.departures.len(), 1);
        assert_eq!(o.departures[0].out_port, 3);
    }

    #[test]
    fn speculative_head_takes_three_stages() {
        let mut r = wired(RouterConfig::speculative(5, 2, 4), 4);
        r.accept_flit(0, Flit::head(PacketId::new(1), 9, 0, 0), 10);
        assert!(r.tick(10, &|_: &Flit| 4).departures.is_empty()); // RC
        assert!(r.tick(11, &|_: &Flit| 4).departures.is_empty()); // VA ∥ SA
        let o = r.tick(12, &|_: &Flit| 4); // ST
        assert_eq!(o.departures.len(), 1);
        assert_eq!(r.stats().spec_hits, 1);
        assert_eq!(r.stats().spec_wasted, 0);
    }

    #[test]
    fn single_cycle_router_departs_same_cycle() {
        for cfg in [
            RouterConfig::wormhole(5, 8).into_single_cycle(),
            RouterConfig::virtual_channel(5, 2, 4).into_single_cycle(),
            RouterConfig::speculative(5, 2, 4).into_single_cycle(),
        ] {
            let mut r = wired(cfg, 4);
            r.accept_flit(0, Flit::head(PacketId::new(1), 9, 0, 0), 10);
            let o = r.tick(10, &|_: &Flit| 1);
            assert_eq!(o.departures.len(), 1, "{cfg}");
        }
    }

    #[test]
    fn five_flit_packet_streams_one_per_cycle() {
        let mut r = wired(RouterConfig::wormhole(5, 8), 8);
        let flits = Flit::packet(PacketId::new(1), 9, 0, 0, 5);
        for (i, f) in flits.into_iter().enumerate() {
            r.accept_flit(0, f, 10 + i as u64);
        }
        let out = run(&mut r, 10, 30, |_: &Flit| 2);
        assert_eq!(out.departures.len(), 5);
        // Head departs at 12; body/tail at 13, 14, 15, 16.
        let kinds: Vec<FlitKind> = out.departures.iter().map(|d| d.flit.kind).collect();
        assert_eq!(kinds[0], FlitKind::Head);
        assert_eq!(kinds[4], FlitKind::Tail);
    }

    #[test]
    fn tail_releases_wormhole_hold_for_next_packet() {
        let mut r = wired(RouterConfig::wormhole(5, 8), 8);
        // Packet 1 from port 0, packet 2 from port 1, both to output 2.
        for f in Flit::packet(PacketId::new(1), 9, 0, 0, 2) {
            r.accept_flit(0, f, 10);
        }
        for f in Flit::packet(PacketId::new(2), 9, 0, 0, 2) {
            r.accept_flit(1, f, 10);
        }
        let out = run(&mut r, 10, 40, |_: &Flit| 2);
        assert_eq!(out.departures.len(), 4);
        // No interleaving: once packet A starts, its tail departs before
        // packet B's head.
        let ids: Vec<u64> = out
            .departures
            .iter()
            .map(|d| d.flit.packet.value())
            .collect();
        assert!(
            ids == vec![1, 1, 2, 2] || ids == vec![2, 2, 1, 1],
            "{ids:?}"
        );
    }

    #[test]
    fn vc_router_interleaves_packets_from_different_vcs() {
        let mut r = wired(RouterConfig::virtual_channel(5, 2, 4), 4);
        for f in Flit::packet(PacketId::new(1), 9, 0, 0, 3) {
            r.accept_flit(0, f, 10);
        }
        for f in Flit::packet(PacketId::new(2), 9, 1, 0, 3) {
            r.accept_flit(0, f, 10);
        }
        // Both packets leave through output 2 on different output VCs.
        let out = run(&mut r, 10, 40, |_: &Flit| 2);
        assert_eq!(out.departures.len(), 6);
        let vcs: std::collections::HashSet<u8> = out.departures.iter().map(|d| d.flit.vc).collect();
        assert_eq!(vcs.len(), 2, "two output VCs in use");
    }

    #[test]
    fn no_credit_no_departure() {
        let mut r = wired(RouterConfig::wormhole(5, 8), 0);
        r.accept_flit(0, Flit::head(PacketId::new(1), 9, 0, 0), 10);
        let out = run(&mut r, 10, 20, |_: &Flit| 2);
        assert!(out.departures.is_empty(), "no credits downstream");
        assert_eq!(r.buffered_flits(), 1);
    }

    #[test]
    fn credit_return_resumes_flow() {
        let mut r = wired(RouterConfig::wormhole(5, 8), 1);
        for f in Flit::packet(PacketId::new(1), 9, 0, 0, 2) {
            r.accept_flit(0, f, 10);
        }
        let out = run(&mut r, 10, 20, |_: &Flit| 2);
        assert_eq!(out.departures.len(), 1, "one credit, one flit");
        r.accept_credit(2, 0, 21);
        let out = run(&mut r, 21, 25, |_: &Flit| 2);
        assert_eq!(out.departures.len(), 1, "returned credit releases the tail");
    }

    #[test]
    fn speculation_fails_gracefully_when_no_free_vc() {
        let mut r = wired(RouterConfig::speculative(5, 1, 4), 16);
        // Packet A's head claims the only output VC of port 2 and then its
        // body stalls (we withhold it). Packet B bids for the same port:
        // VA fails (VC owned by A), so its speculative switch grant — made
        // while output 2 sits idle — must be wasted.
        let a = Flit::packet(PacketId::new(1), 9, 0, 0, 8);
        r.accept_flit(0, a[0], 10);
        r.accept_flit(1, Flit::head(PacketId::new(2), 9, 0, 0), 11);
        let _ = run(&mut r, 10, 16, |_: &Flit| 2);
        assert!(
            r.stats().spec_wasted > 0,
            "speculation should have been wasted"
        );
        // B's head is still buffered.
        assert_eq!(r.input_occupancy(1, 0), 1);
    }

    #[test]
    fn nonspec_priority_over_speculative() {
        let mut r = wired(RouterConfig::speculative(5, 2, 8), 8);
        // Packet A (port 0, vc 0) becomes non-speculative (active) first.
        for f in Flit::packet(PacketId::new(1), 9, 0, 0, 5) {
            r.accept_flit(0, f, 10);
        }
        let _ = run(&mut r, 10, 11, |_: &Flit| 2);
        // Packet B arrives at port 1 with its VA∥SA cycle at 13, while A's
        // body flits are streaming non-speculatively to the same output.
        r.accept_flit(1, Flit::head(PacketId::new(2), 9, 0, 0), 12);
        let out = run(&mut r, 12, 13, |_: &Flit| 2);
        // At cycle 13 output 2 carries a non-speculative flit of A, not B.
        let last = out.departures.last().expect("A streams every cycle");
        assert_eq!(last.flit.packet, PacketId::new(1));
        assert!(r.stats().spec_requests > 0, "B did bid speculatively");
    }

    #[test]
    fn cut_through_waits_for_whole_packet_room() {
        // Downstream has room for 3 flits; a 5-flit packet must not
        // advance under cut-through, but does under wormhole.
        let mut vct = wired(RouterConfig::virtual_cut_through(5, 8), 3);
        let mut wh = wired(RouterConfig::wormhole(5, 8), 3);
        for r in [&mut vct, &mut wh] {
            let mut feeds = [(0usize, Flit::packet(PacketId::new(1), 9, 0, 0, 5).into())];
            let out = run_feeding(r, 10, 30, &mut feeds, |_: &Flit| 2);
            match r.config().kind {
                FlowControlKind::VirtualCutThrough => {
                    assert!(out.departures.is_empty(), "VCT must hold the packet")
                }
                _ => assert_eq!(out.departures.len(), 3, "WH streams into the room"),
            }
        }
    }

    #[test]
    fn cut_through_advances_with_room() {
        let mut r = wired(RouterConfig::virtual_cut_through(5, 8), 5);
        let mut feeds = [(0usize, Flit::packet(PacketId::new(1), 9, 0, 0, 5).into())];
        let out = run_feeding(&mut r, 10, 30, &mut feeds, |_: &Flit| 2);
        assert_eq!(out.departures.len(), 5);
    }

    #[test]
    fn cut_through_has_wormhole_pipeline_depth() {
        let mut r = wired(RouterConfig::virtual_cut_through(5, 8), 8);
        r.accept_flit(0, Flit::head(PacketId::new(1), 9, 0, 0), 10);
        assert!(r.tick(10, &|_: &Flit| 2).departures.is_empty()); // RC
        assert!(r.tick(11, &|_: &Flit| 2).departures.is_empty()); // SA
        assert_eq!(r.tick(12, &|_: &Flit| 2).departures.len(), 1); // ST
    }

    #[test]
    fn sink_ports_never_block() {
        let mut r = Router::new(RouterConfig::virtual_channel(5, 2, 4));
        for port in 0..5 {
            r.set_output_credits(port, 0);
        }
        r.mark_sink(4);
        let mut feeds = [(0usize, Flit::packet(PacketId::new(1), 0, 0, 0, 5).into())];
        let out = run_feeding(&mut r, 10, 30, &mut feeds, |_: &Flit| 4);
        assert_eq!(out.departures.len(), 5, "ejection is immediate");
    }

    #[test]
    fn credits_equal_departures() {
        let mut r = wired(RouterConfig::speculative(5, 2, 4), 8);
        let mut feeds = [(3usize, Flit::packet(PacketId::new(1), 9, 0, 0, 5).into())];
        let out = run_feeding(&mut r, 10, 40, &mut feeds, |_: &Flit| 0);
        assert_eq!(out.departures.len(), 5);
        assert_eq!(out.departures.len(), out.credits.len());
        assert!(out.credits.iter().all(|c| c.in_port == 3 && c.vc == 0));
    }

    #[test]
    #[should_panic(expected = "tick(10) after tick(10)")]
    fn repeated_tick_rejected() {
        let mut r = wired(RouterConfig::wormhole(2, 4), 4);
        let _ = r.tick(10, &|_: &Flit| 0);
        let _ = r.tick(10, &|_: &Flit| 0);
    }

    #[test]
    fn fresh_router_is_quiescent_and_flits_wake_it() {
        let mut r = wired(RouterConfig::speculative(5, 2, 4), 4);
        assert!(r.is_quiescent());
        r.accept_flit(0, Flit::head(PacketId::new(1), 9, 0, 0), 10);
        assert!(!r.is_quiescent());
        let out = run(&mut r, 10, 14, |_: &Flit| 2);
        assert_eq!(out.departures.len(), 1);
        assert!(r.is_quiescent(), "drained router goes quiescent again");
        assert_eq!(r.buffered_flits(), 0);
    }

    #[test]
    fn pending_traversal_keeps_router_awake() {
        // In a pipelined router the SA grant schedules ST for the next
        // cycle; between grant and traversal the router must not be
        // considered quiescent even though the grant is the only work.
        let mut r = wired(RouterConfig::wormhole(5, 8), 8);
        r.accept_flit(0, Flit::head(PacketId::new(1), 9, 0, 0), 10);
        let _ = r.tick(10, &|_: &Flit| 2); // RC
        let _ = r.tick(11, &|_: &Flit| 2); // SA: hold granted, flow at 12
        assert!(!r.is_quiescent());
    }

    #[test]
    fn quiescent_credit_arrival_needs_no_tick() {
        // A credit delivered while the router is quiescent must not
        // require a tick to take effect: the next packet consumes it on
        // the normal pipeline schedule, with no tick in between.
        let mut r = wired(RouterConfig::wormhole(5, 8), 1);
        r.accept_flit(0, Flit::packet(PacketId::new(1), 9, 0, 0, 1)[0], 10);
        let out = run(&mut r, 10, 13, |_: &Flit| 2);
        assert_eq!(out.departures.len(), 1, "the only credit is consumed");
        assert!(r.is_quiescent());
        r.accept_credit(2, 0, 20); // downstream freed the buffer
        assert!(r.is_quiescent(), "credits do not wake a drained router");
        // Next packet, with no ticks since the credit, departs on the
        // standard 3-stage schedule.
        r.accept_flit(0, Flit::packet(PacketId::new(2), 9, 0, 0, 1)[0], 30);
        let out = run(&mut r, 30, 32, |_: &Flit| 2);
        assert_eq!(out.departures.len(), 1, "returned credit was usable");
    }

    #[test]
    fn skipping_quiescent_cycles_is_equivalent_to_ticking_them() {
        // Drive two identical routers with the same stimulus; tick one
        // every cycle and the other only when non-quiescent. Outputs and
        // stats must match exactly — the contract the event-driven
        // network engine is built on.
        let mk = || wired(RouterConfig::speculative(5, 2, 4), 8);
        let mut every = mk();
        let mut lazy = mk();
        let stimulus = |r: &mut Router, now: u64| {
            if now == 20 {
                for f in Flit::packet(PacketId::new(1), 9, 0, 0, 3) {
                    r.accept_flit(0, f, now);
                }
            }
            if now == 40 {
                r.accept_flit(1, Flit::head(PacketId::new(2), 9, 1, 0), now);
            }
        };
        let mut out_every = TickOutput::default();
        let mut out_lazy = TickOutput::default();
        for now in 10..60 {
            stimulus(&mut every, now);
            stimulus(&mut lazy, now);
            let o = every.tick(now, &|_: &Flit| 2);
            out_every.departures.extend(o.departures);
            out_every.credits.extend(o.credits);
            if !lazy.is_quiescent() {
                let o = lazy.tick(now, &|_: &Flit| 2);
                out_lazy.departures.extend(o.departures);
                out_lazy.credits.extend(o.credits);
            }
        }
        assert_eq!(out_every.departures, out_lazy.departures);
        assert_eq!(out_every.credits, out_lazy.credits);
        assert_eq!(every.stats(), lazy.stats());
        assert_eq!(out_every.departures.len(), 4, "both packets delivered");
    }

    #[test]
    fn cross_thread_ticks_match_serial() {
        // The compute/commit contract behind sharded-parallel simulation:
        // two routers fed identical stimulus, one ticked on the main
        // thread and one on a worker, produce identical outputs and
        // stats — Router is Send and its tick touches no shared state.
        fn drive(mut r: Router) -> (TickOutput, RouterStats) {
            let mut all = TickOutput::default();
            let mut buf = TickOutput::default();
            for now in 0..40 {
                if now % 3 == 0 {
                    let mut f = Flit::head(PacketId::new(now + 1), 9, 0, now);
                    f.kind = crate::flit::FlitKind::HeadTail;
                    r.accept_flit((now as usize) % 4, f, now);
                }
                r.tick_into(now, &|_: &Flit| 2, &mut buf);
                // Credits loop straight back, as a sharded commit phase
                // would deliver them.
                for dep in &buf.departures {
                    r.accept_credit(dep.out_port, usize::from(dep.flit.vc), now);
                }
                all.departures.append(&mut buf.departures);
                all.credits.append(&mut buf.credits);
            }
            (all, *r.stats())
        }
        let mk = || wired(RouterConfig::speculative(5, 2, 4), 4);
        let serial = drive(mk());
        let threaded = std::thread::spawn(move || drive(mk()))
            .join()
            .expect("worker tick");
        assert_eq!(serial.0.departures, threaded.0.departures);
        assert_eq!(serial.0.credits, threaded.0.credits);
        assert_eq!(serial.1, threaded.1);
        assert!(!serial.0.departures.is_empty(), "traffic moved");
    }

    #[test]
    fn tick_into_reuses_buffers_and_matches_tick() {
        let mut a = wired(RouterConfig::virtual_channel(5, 2, 4), 4);
        let mut b = wired(RouterConfig::virtual_channel(5, 2, 4), 4);
        for f in Flit::packet(PacketId::new(1), 9, 0, 0, 2) {
            a.accept_flit(0, f, 10);
            b.accept_flit(0, f, 10);
        }
        let mut buf = TickOutput::default();
        for now in 10..20 {
            let o = a.tick(now, &|_: &Flit| 2);
            b.tick_into(now, &|_: &Flit| 2, &mut buf);
            assert_eq!(o.departures, buf.departures, "cycle {now}");
            assert_eq!(o.credits, buf.credits, "cycle {now}");
        }
    }
}
