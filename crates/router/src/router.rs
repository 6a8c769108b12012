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
//! allocation** and walks contiguous memory: every input VC buffers its
//! flits in a ring window of the router's single [`FlitArena`] slab, all
//! per-phase working sets live in a retained `Scratch` struct (and in
//! the allocators' own retained buffers), and trace capture is gated
//! behind an `Option<Box<Trace>>` sink that costs one null test when
//! disabled. The only allocations left are capacity growth of the
//! caller's reused [`TickOutput`] and of `pending_st` during warm-up —
//! both reach a fixed point after a few cycles. The claim is enforced by
//! the counting-allocator test in `tests/alloc_free.rs`.
//!
//! # The hot path works on `u64` masks
//!
//! Every set the tick handles is a `u64` bitmask over the flattened
//! channel index `port * vcs + vc` (or over port numbers), so a router
//! has at most 64 input channels — [`RouterConfig`] asserts
//! `ports × vcs <= 64`, and the network configuration reports it as a
//! typed error. Three channel masks are kept in step with the arena and
//! the channel states as they change:
//!
//! * `occupied` — the ring holds a flit (set on [`Router::accept_flit`],
//!   cleared when a traversal empties the ring);
//! * `busy` — the state is not [`VcState::Idle`] (set by RC, cleared by a
//!   tail's traversal);
//! * `allocating` — the state is [`VcState::Allocating`] (set by RC,
//!   cleared by a VA grant or a wormhole hold grant).
//!
//! So each stage visits only the channels that can act: RC walks
//! `occupied & !busy`, VA walks `allocating`, and switch allocation's
//! first stage walks `busy & !allocating & occupied`, port by port. The
//! arbiters take the request masks directly (see the `arbitration`
//! crate): a VA bidder adds one request row, its output port's free-VC
//! mask ANDed with the VCs the routing function permits; SA stage 1 files
//! each input port's winner under its output port, so stage 2 visits
//! only requested outputs; and the speculative plane checks bidders and
//! VA winners by mask. Grants come out in the same order as a scan over
//! every channel would produce them, so results are bit-identical to it.
//! Debug builds check the three masks against the arena and the channel
//! states after every tick.
//!
//! # The tick is a side-effect-free compute half
//!
//! The router's cycle is already split into the two halves a
//! deterministic parallel simulator needs:
//!
//! * **compute** — [`Router::tick_into`] mutates *only this router's own
//!   state* (its arena, channel states, arbiters, counters). Everything
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
use crate::flit::Flit;
use crate::ports::{InputVc, OutputPort, VcState};
use crate::stats::RouterStats;
use crate::trace::{PipelineEvent, Trace, TraceEntry};
use arbitration::{Grant, MatrixArbiter, SeparableAllocator};

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

#[derive(Debug, Clone, Copy)]
struct StEntry {
    in_port: usize,
    in_vc: usize,
    out_port: usize,
    out_vc: usize,
    depart_at: u64,
}

/// Retained per-phase working buffers: taken out of the router at the
/// top of a tick, threaded through the phases, and put back — so the
/// phases can borrow scratch and router state disjointly and no phase
/// ever allocates in steady state. Channel sets are `u64` masks over the
/// flattened channel index `port * vcs + vc`; port sets are masks over
/// port numbers.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// ST entries due this cycle (drained from `pending_st`).
    st_due: Vec<StEntry>,
    /// Channels that presented VA requests this cycle.
    va_bidders: u64,
    /// Grants returned by the VC allocator.
    va_grants: Vec<Grant>,
    /// Channels that won an output VC this cycle.
    va_winners: u64,
    /// SA stage-1 winner per input port: `(vc, out_vc)`, valid for the
    /// ports that have a bit in some `port_reqs` entry.
    sa_port_winner: Vec<(usize, usize)>,
    /// Stage-2 requests per output port (bit = input port), filled by
    /// stage 1 and zeroed again as stage 2 consumes them.
    port_reqs: Vec<u64>,
    /// Input ports consumed by non-speculative grants.
    in_taken: u64,
    /// Output ports consumed by non-speculative grants.
    out_taken: u64,
    /// Speculative stage-1 winning VC per input port.
    spec_winner: Vec<usize>,
}

impl Scratch {
    fn new(ports: usize) -> Self {
        Scratch {
            sa_port_winner: vec![(0, 0); ports],
            port_reqs: vec![0; ports],
            spec_winner: vec![0; ports],
            ..Scratch::default()
        }
    }
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

/// A cycle-accurate wormhole / VC / speculative-VC router.
#[derive(Debug, Clone)]
pub struct Router {
    cfg: RouterConfig,
    /// All input flit buffers: one slab, one ring window per (port, VC).
    arena: FlitArena,
    /// Flattened channel state, indexed `port * vcs + vc`.
    inputs: Vec<InputVc>,
    outputs: Vec<OutputPort>,
    va: SeparableAllocator,
    sa1: Vec<MatrixArbiter>,
    sa2: Vec<MatrixArbiter>,
    spec_sa1: Vec<MatrixArbiter>,
    spec_sa2: Vec<MatrixArbiter>,
    pending_st: Vec<StEntry>,
    scratch: Scratch,
    stats: RouterStats,
    /// Trace buffer; `None` (the default) costs one null test per event
    /// site — see [`crate::trace`].
    trace: Option<Box<Trace>>,
    last_tick: Option<u64>,
    /// Flits currently buffered across all input VCs (wake accounting:
    /// kept in O(1) so [`Router::is_quiescent`] is a cheap field test).
    buffered: usize,
    /// Channels whose ring holds at least one flit (bit `port * vcs +
    /// vc`): set by [`Router::accept_flit`], cleared when a traversal
    /// empties the ring.
    occupied: u64,
    /// Channels whose state is not [`VcState::Idle`]: set by RC, cleared
    /// by a tail's traversal.
    busy: u64,
    /// Channels in [`VcState::Allocating`]: set by RC, cleared by a VA
    /// grant or a wormhole hold grant.
    allocating: u64,
}

impl Router {
    /// Builds a router from its configuration. Output credit counters
    /// start at zero: wire the router with [`Router::set_output_credits`]
    /// / [`Router::mark_sink`] before simulating.
    #[must_use]
    pub fn new(cfg: RouterConfig) -> Self {
        let p = cfg.ports;
        let v = cfg.vcs;
        Router {
            cfg,
            arena: FlitArena::new(p * v, cfg.buffers_per_vc),
            inputs: (0..p * v).map(InputVc::new).collect(),
            outputs: (0..p).map(|_| OutputPort::new(v)).collect(),
            va: SeparableAllocator::new(p * v, p * v),
            sa1: (0..p).map(|_| MatrixArbiter::new(v)).collect(),
            sa2: (0..p).map(|_| MatrixArbiter::new(p)).collect(),
            spec_sa1: (0..p).map(|_| MatrixArbiter::new(v)).collect(),
            spec_sa2: (0..p).map(|_| MatrixArbiter::new(p)).collect(),
            pending_st: Vec::new(),
            scratch: Scratch::new(p),
            stats: RouterStats::default(),
            trace: None,
            last_tick: None,
            buffered: 0,
            occupied: 0,
            busy: 0,
            allocating: 0,
        }
    }

    /// The flattened channel index of `(port, vc)` — also its arena ring.
    #[inline]
    fn chan(&self, port: usize, vc: usize) -> usize {
        port * self.cfg.vcs + vc
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
        self.outputs[out_port].departures
    }

    #[inline]
    fn record(
        &mut self,
        cycle: u64,
        in_port: usize,
        in_vc: usize,
        packet: crate::flit::PacketId,
        event: PipelineEvent,
    ) {
        if let Some(t) = self.trace.as_deref_mut() {
            t.record(TraceEntry {
                cycle,
                in_port,
                in_vc,
                packet,
                event,
            });
        }
    }

    /// Initializes the credit counters of `out_port` to the downstream
    /// input buffer depth (per VC).
    pub fn set_output_credits(&mut self, out_port: usize, per_vc: u64) {
        self.outputs[out_port].set_credits(per_vc);
    }

    /// Marks `out_port` as an ejection port with immediate (unbounded)
    /// ejection.
    pub fn mark_sink(&mut self, out_port: usize) {
        self.outputs[out_port].mark_sink();
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
        self.buffered == 0 && self.pending_st.is_empty()
    }

    /// Delivers a flit into input `port` during the delivery phase of
    /// cycle `now` (call before [`Router::tick`] for the same cycle).
    ///
    /// # Panics
    ///
    /// Panics if the flit's VC is out of range or its buffer overflows
    /// (i.e. the upstream violated credit flow control).
    pub fn accept_flit(&mut self, port: usize, mut flit: Flit, now: u64) {
        assert!(
            flit.vc < self.cfg.vcs,
            "flit vc {} out of range ({} vcs)",
            flit.vc,
            self.cfg.vcs
        );
        flit.arrival = now;
        self.record(now, port, flit.vc, flit.packet, PipelineEvent::Arrived);
        let chan = self.chan(port, flit.vc);
        self.arena.push_back(chan, flit);
        self.occupied |= 1 << chan;
        self.buffered += 1;
    }

    /// Delivers a credit for downstream VC `vc` of output `port` (the
    /// downstream router freed a buffer).
    pub fn accept_credit(&mut self, port: usize, vc: usize, _now: u64) {
        self.outputs[port].return_credit(vc);
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
        }
        self.last_tick = Some(now);

        out.clear();
        let mut s = std::mem::take(&mut self.scratch);

        // Phase 1: ST — previously granted traversals.
        self.phase_st(now, &mut s, out);

        // Phase 2: RC.
        self.phase_rc(now, route);

        // Phase 3: VA (remembering who was bidding, for the speculative
        // plane which runs its SA in parallel with VA).
        self.phase_va(now, &mut s);

        // Phase 4: SA.
        match self.cfg.kind {
            FlowControlKind::Wormhole | FlowControlKind::VirtualCutThrough => {
                self.phase_sa_wormhole(now, &mut s, out);
            }
            FlowControlKind::VirtualChannel => {
                self.phase_sa_vc(now, &mut s, out);
            }
            FlowControlKind::SpeculativeVc => {
                self.phase_sa_vc(now, &mut s, out);
                self.phase_sa_speculative(now, &mut s, out);
            }
        }

        self.scratch = s;
        debug_assert!(
            self.channel_masks_agree(),
            "channel masks out of step with the arena and channel states"
        );
    }

    /// Whether `occupied`, `busy` and `allocating` match the arena and
    /// every channel's [`VcState`] (the debug-build check of the masks).
    fn channel_masks_agree(&self) -> bool {
        (0..self.inputs.len()).all(|chan| {
            let bit = |mask: u64| mask >> chan & 1 == 1;
            let state = self.inputs[chan].state;
            bit(self.occupied) != self.arena.is_empty(chan)
                && bit(self.busy) == (state != VcState::Idle)
                && bit(self.allocating) == matches!(state, VcState::Allocating { .. })
        })
    }

    // ----- ST ---------------------------------------------------------

    fn phase_st(&mut self, now: u64, s: &mut Scratch, out: &mut TickOutput) {
        // Granted per-flit traversals whose time has come.
        s.st_due.clear();
        let due = &mut s.st_due;
        self.pending_st.retain(|e| {
            if e.depart_at <= now {
                due.push(*e);
                false
            } else {
                true
            }
        });
        for i in 0..s.st_due.len() {
            let e = s.st_due[i];
            debug_assert_eq!(e.depart_at, now, "missed an ST slot");
            self.traverse(now, e, out);
        }

        // Wormhole/cut-through flow through held outputs.
        if matches!(
            self.cfg.kind,
            FlowControlKind::Wormhole | FlowControlKind::VirtualCutThrough
        ) {
            for out_port in 0..self.cfg.ports {
                self.wormhole_flow(now, out_port, out);
            }
        }
    }

    /// Moves one flit of the packet holding `out_port`, if any is eligible
    /// and a credit is available (wormhole only).
    fn wormhole_flow(&mut self, now: u64, out_port: usize, out: &mut TickOutput) {
        let Some(in_port) = self.outputs[out_port].holder else {
            return;
        };
        let t = self.cfg.timing;
        let chan = self.chan(in_port, 0);
        let VcState::Active {
            sa_request_at: flow_start,
            ..
        } = self.inputs[chan].state
        else {
            unreachable!("holder without active channel");
        };
        let Some(front) = self.arena.front(chan) else {
            return;
        };
        let eligible = now >= flow_start && now >= front.arrival + t.body_sa_delay + t.st_delay;
        if !eligible || !self.outputs[out_port].has_credit(0) {
            return;
        }
        self.outputs[out_port].consume_credit(0);
        self.traverse(
            now,
            StEntry {
                in_port,
                in_vc: 0,
                out_port,
                out_vc: 0,
                depart_at: now,
            },
            out,
        );
    }

    /// Executes one switch traversal: pops the flit, rewrites its VC id,
    /// releases resources on tails, and emits the departure plus the
    /// upstream credit.
    fn traverse(&mut self, now: u64, e: StEntry, out: &mut TickOutput) {
        let chan = self.chan(e.in_port, e.in_vc);
        let mut flit = self
            .arena
            .pop_front(chan)
            .expect("granted traversal with empty queue");
        self.buffered -= 1;
        if self.arena.is_empty(chan) {
            self.occupied &= !(1 << chan);
        }
        if let VcState::Active { packet, .. } = self.inputs[chan].state {
            debug_assert_eq!(packet, flit.packet, "foreign flit on an active channel");
        }
        flit.vc = e.out_vc;
        flit.arrival = now;
        if flit.kind.is_tail() {
            match self.cfg.kind {
                FlowControlKind::Wormhole | FlowControlKind::VirtualCutThrough => {
                    self.outputs[e.out_port].holder = None;
                }
                _ => self.outputs[e.out_port].release(e.out_vc),
            }
            self.inputs[chan].state = VcState::Idle;
            self.busy &= !(1 << chan);
        }
        self.stats.flits_switched += 1;
        self.stats.credits_sent += 1;
        self.outputs[e.out_port].departures += 1;
        self.record(
            now,
            e.in_port,
            e.in_vc,
            flit.packet,
            PipelineEvent::Traversed {
                out_port: e.out_port,
                out_vc: e.out_vc,
            },
        );
        out.departures.push(Departure {
            flit,
            out_port: e.out_port,
        });
        out.credits.push(CreditOut {
            in_port: e.in_port,
            vc: e.in_vc,
        });
    }

    // ----- RC ---------------------------------------------------------

    /// Route computation for every idle channel holding a flit — which,
    /// at an idle channel, must be a packet's head.
    fn phase_rc(&mut self, now: u64, route: &dyn RoutingOracle) {
        let rc_delay = self.cfg.timing.rc_delay;
        let ports = self.cfg.ports;
        let v = self.cfg.vcs;
        for chan in bits(self.occupied & !self.busy) {
            let front = self
                .arena
                .front(chan)
                .expect("occupied channel without a front flit");
            assert!(
                front.kind.is_head(),
                "non-head flit {front} at the front of an idle channel"
            );
            let out_port = route.output_port(front);
            assert!(out_port < ports, "routing returned port {out_port}");
            let vc_mask = route.vc_mask(front, out_port);
            assert!(
                vc_mask & arbitration::low_bits(v) != 0,
                "routing permitted no output VC at port {out_port}"
            );
            let packet = front.packet;
            self.inputs[chan].state = VcState::Allocating {
                out_port,
                request_at: now + rc_delay,
                vc_mask,
            };
            self.busy |= 1 << chan;
            self.allocating |= 1 << chan;
            self.record(
                now,
                chan / v,
                chan % v,
                packet,
                PipelineEvent::RouteComputed { out_port },
            );
        }
    }

    // ----- VA ---------------------------------------------------------

    /// Runs VC allocation, setting `s.va_bidders` to the channels that
    /// presented VA requests this cycle and `s.va_winners` to the subset
    /// that won an output VC — the speculative switch allocator needs
    /// both. A bidder's request row is its output port's free VCs that
    /// the routing function permits, placed at that port's resource
    /// offset.
    fn phase_va(&mut self, now: u64, s: &mut Scratch) {
        s.va_bidders = 0;
        s.va_winners = 0;
        if matches!(
            self.cfg.kind,
            FlowControlKind::Wormhole | FlowControlKind::VirtualCutThrough
        ) {
            return;
        }
        let v = self.cfg.vcs;
        let mut requested = false;
        for chan in bits(self.allocating) {
            let VcState::Allocating {
                out_port,
                request_at,
                vc_mask,
            } = self.inputs[chan].state
            else {
                unreachable!("allocating mask names a non-allocating channel");
            };
            if now < request_at {
                continue;
            }
            s.va_bidders |= 1 << chan;
            let free = self.outputs[out_port].free_vcs() & vc_mask;
            if free != 0 {
                self.va.request(chan, free << (out_port * v));
                requested = true;
            }
        }
        if !requested {
            // Nothing bid (the common case while bodies stream): skip the
            // allocator's stage scans entirely.
            return;
        }
        self.va.allocate_requested(&mut s.va_grants);
        for g in &s.va_grants {
            let (port, vc) = (g.input / v, g.input % v);
            let (out_port, out_vc) = (g.resource / v, g.resource % v);
            self.outputs[out_port].claim(out_vc, (port, vc));
            let packet = self
                .arena
                .front(g.input)
                .expect("VA bid without a head flit")
                .packet;
            // The head may bid (non-speculatively) for the switch
            // va_sa_delay cycles later; the speculative router bids in
            // parallel *this* cycle through the speculative plane and
            // falls back to non-speculative requests from the next cycle.
            let sa_request_at = match self.cfg.kind {
                FlowControlKind::VirtualChannel => now + self.cfg.timing.va_sa_delay,
                FlowControlKind::SpeculativeVc => now + 1,
                FlowControlKind::Wormhole | FlowControlKind::VirtualCutThrough => {
                    unreachable!("hold-based routers do not allocate VCs")
                }
            };
            self.inputs[g.input].state = VcState::Active {
                out_port,
                out_vc,
                sa_request_at,
                packet,
            };
            self.allocating &= !(1 << g.input);
            self.stats.va_grants += 1;
            self.record(now, port, vc, packet, PipelineEvent::VaGranted { out_vc });
            s.va_winners |= 1 << g.input;
        }
    }

    // ----- SA ---------------------------------------------------------

    /// Whether active channel `chan` has a switch request this cycle: an
    /// eligible front flit and a downstream credit.
    fn sa_request(&self, now: u64, chan: usize) -> bool {
        let t = self.cfg.timing;
        let VcState::Active {
            out_port,
            out_vc,
            sa_request_at,
            ..
        } = self.inputs[chan].state
        else {
            unreachable!("switch request from a channel that is not active");
        };
        let front = self
            .arena
            .front(chan)
            .expect("occupied channel without a front flit");
        let eligible = if front.kind.is_head() {
            now >= sa_request_at
        } else {
            now >= front.arrival + t.body_sa_delay
        };
        eligible && self.outputs[out_port].has_credit(out_vc)
    }

    /// Splits channel mask `chans` by input port: yields `(port, vcs)`
    /// with `vcs` the port's channels as a VC mask, ports ascending.
    fn by_port(&self, mut chans: u64) -> impl Iterator<Item = (usize, u64)> {
        let v = self.cfg.vcs;
        let vc_bits = arbitration::low_bits(v);
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

    /// Non-speculative separable switch allocation (VC and speculative
    /// routers; the speculative plane runs after this and never overrides
    /// its grants). Stage 1 visits only active channels holding a flit
    /// and files each port's winner under its output in `s.port_reqs`.
    /// Sets `s.in_taken` / `s.out_taken` to the crossbar connections
    /// granted this cycle — the ones the speculative plane must avoid.
    fn phase_sa_vc(&mut self, now: u64, s: &mut Scratch, out: &mut TickOutput) {
        let v = self.cfg.vcs;
        s.in_taken = 0;
        s.out_taken = 0;

        // Stage 1: per input port, pick one requesting VC.
        let mut requested_outs = 0u64;
        for (port, vcs) in self.by_port(self.busy & !self.allocating & self.occupied) {
            let base = port * v;
            let reqs = bits(vcs)
                .filter(|&vc| self.sa_request(now, base + vc))
                .fold(0u64, |m, vc| m | 1 << vc);
            let Some(vc) = self.sa1[port].peek_mask(reqs) else {
                continue;
            };
            let VcState::Active {
                out_port, out_vc, ..
            } = self.inputs[base + vc].state
            else {
                unreachable!("stage-1 winner is active");
            };
            s.sa_port_winner[port] = (vc, out_vc);
            s.port_reqs[out_port] |= 1 << port;
            requested_outs |= 1 << out_port;
        }

        // Stage 2: per requested output port, pick one input port.
        for out_port in bits(requested_outs) {
            let reqs = std::mem::take(&mut s.port_reqs[out_port]);
            let win_port = self.sa2[out_port]
                .peek_mask(reqs)
                .expect("a requested output has a winner");
            let (vc, out_vc) = s.sa_port_winner[win_port];
            self.sa2[out_port].demote(win_port);
            self.sa1[win_port].demote(vc);
            let entry = self.st_entry(now, win_port, vc, (out_port, out_vc));
            self.grant_switch(now, entry, false, out);
            self.stats.sa_grants += 1;
            s.in_taken |= 1 << win_port;
            s.out_taken |= 1 << out_port;
        }
    }

    /// The output port a VA bidder speculatively requests: its routed
    /// port, whether VA failed (still allocating) or succeeded (active).
    fn spec_target(&self, chan: usize) -> Option<usize> {
        match self.inputs[chan].state {
            VcState::Allocating { out_port, .. } | VcState::Active { out_port, .. } => {
                Some(out_port)
            }
            VcState::Idle => None,
        }
    }

    /// The speculative switch-allocation plane: channels still bidding for
    /// an output VC bid for the switch in parallel. A speculative grant is
    /// used only if the channel also won VA *this cycle* and the granted
    /// VC has a credit; otherwise the crossbar slot is wasted. Output
    /// ports and input ports already granted non-speculatively are
    /// excluded — non-speculative requests have strict priority.
    fn phase_sa_speculative(&mut self, now: u64, s: &mut Scratch, out: &mut TickOutput) {
        let v = self.cfg.vcs;

        // Stage 1: per input port not granted non-speculatively this
        // cycle (those grants traverse in the same cycle as any
        // speculative grant issued now, so they conflict; traversals of
        // *earlier* grants do not), pick one speculatively bidding VC.
        let mut requested_outs = 0u64;
        for (port, vcs) in self.by_port(s.va_bidders) {
            if s.in_taken & 1 << port != 0 {
                continue;
            }
            let base = port * v;
            let mut reqs = 0u64;
            for vc in bits(vcs) {
                if self.spec_target(base + vc).is_some() {
                    reqs |= 1 << vc;
                    self.stats.spec_requests += 1;
                }
            }
            let Some(vc) = self.spec_sa1[port].peek_mask(reqs) else {
                continue;
            };
            let out_port = self.spec_target(base + vc).expect("had target");
            s.spec_winner[port] = vc;
            s.port_reqs[out_port] |= 1 << port;
            requested_outs |= 1 << out_port;
        }

        // Stage 2: per requested output port not already granted, pick
        // one input port.
        for out_port in bits(requested_outs) {
            let reqs = std::mem::take(&mut s.port_reqs[out_port]);
            if s.out_taken & 1 << out_port != 0 {
                continue;
            }
            let win_port = self.spec_sa2[out_port]
                .peek_mask(reqs)
                .expect("a requested output has a winner");
            let vc = s.spec_winner[win_port];
            self.spec_sa2[out_port].demote(win_port);
            self.spec_sa1[win_port].demote(vc);

            // Validate the speculation: the channel must have won VA this
            // very cycle and the granted output VC must have a credit.
            let chan = win_port * v + vc;
            if s.va_winners & 1 << chan == 0 {
                self.stats.spec_wasted += 1;
                if let Some(front) = self.arena.front(chan) {
                    let packet = front.packet;
                    self.record(now, win_port, vc, packet, PipelineEvent::SpecWasted);
                }
                continue;
            }
            let VcState::Active { out_vc, .. } = self.inputs[chan].state else {
                unreachable!("VA winner must be active");
            };
            if !self.outputs[out_port].has_credit(out_vc) {
                self.stats.spec_wasted += 1;
                continue;
            }
            let entry = self.st_entry(now, win_port, vc, (out_port, out_vc));
            self.grant_switch(now, entry, true, out);
            self.stats.spec_hits += 1;
        }
    }

    /// Wormhole switch arbitration: channels bid to *hold* a free output
    /// port; held ports then stream flits (see [`Router::wormhole_flow`]).
    /// With one VC per port, a channel index is its input port.
    fn phase_sa_wormhole(&mut self, now: u64, s: &mut Scratch, out: &mut TickOutput) {
        debug_assert_eq!(self.cfg.vcs, 1, "hold-based routers have one VC");
        let mut requested_outs = 0u64;
        for port in bits(self.allocating) {
            let VcState::Allocating {
                out_port,
                request_at,
                ..
            } = self.inputs[port].state
            else {
                unreachable!("allocating mask names a non-allocating channel");
            };
            if now < request_at || self.outputs[out_port].holder.is_some() {
                continue;
            }
            // Cut-through admission: the downstream buffer must have
            // room for the entire packet before it may advance.
            if self.cfg.kind == FlowControlKind::VirtualCutThrough {
                let head = self.arena.front(port).expect("bid without head");
                let room = self.outputs[out_port].is_sink()
                    || self.outputs[out_port].credit_count(0) >= u64::from(head.len);
                if !room {
                    continue;
                }
            }
            s.port_reqs[out_port] |= 1 << port;
            requested_outs |= 1 << out_port;
        }
        for out_port in bits(requested_outs) {
            let reqs = std::mem::take(&mut s.port_reqs[out_port]);
            let winner = self.sa2[out_port]
                .peek_mask(reqs)
                .expect("a requested output has a winner");
            self.sa2[out_port].demote(winner);
            let packet = self
                .arena
                .front(winner)
                .expect("switch bid without a head flit")
                .packet;
            self.outputs[out_port].holder = Some(winner);
            self.inputs[winner].state = VcState::Active {
                out_port,
                out_vc: 0,
                sa_request_at: now + self.cfg.timing.st_delay, // flow_start
                packet,
            };
            self.allocating &= !(1 << winner);
            self.stats.sa_grants += 1;
            self.record(
                now,
                winner,
                0,
                packet,
                PipelineEvent::SaGranted { speculative: false },
            );
        }
        // Single-cycle routers start flowing in the grant cycle itself
        // (every requested output was granted above).
        if self.cfg.timing.st_delay == 0 {
            for out_port in bits(requested_outs) {
                self.wormhole_flow(now, out_port, out);
            }
        }
    }

    /// Commits a per-flit switch grant: consumes the credit and schedules
    /// (or, for single-cycle routers, immediately executes) the traversal
    /// of `entry` (whose `depart_at` the caller set to `now + st_delay`).
    fn grant_switch(&mut self, now: u64, entry: StEntry, speculative: bool, out: &mut TickOutput) {
        if self.trace.is_some() {
            if let Some(front) = self.arena.front(self.chan(entry.in_port, entry.in_vc)) {
                let packet = front.packet;
                self.record(
                    now,
                    entry.in_port,
                    entry.in_vc,
                    packet,
                    PipelineEvent::SaGranted { speculative },
                );
            }
        }
        self.outputs[entry.out_port].consume_credit(entry.out_vc);
        if self.cfg.timing.st_delay == 0 {
            self.traverse(now, entry, out);
        } else {
            self.pending_st.push(entry);
        }
    }

    /// The [`StEntry`] for a grant issued at `now`.
    fn st_entry(&self, now: u64, in_port: usize, in_vc: usize, out: (usize, usize)) -> StEntry {
        StEntry {
            in_port,
            in_vc,
            out_port: out.0,
            out_vc: out.1,
            depart_at: now + self.cfg.timing.st_delay,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RouterConfig;
    use crate::flit::{Flit, FlitKind, PacketId};

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
        let vcs: std::collections::HashSet<usize> =
            out.departures.iter().map(|d| d.flit.vc).collect();
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
                    r.accept_credit(dep.out_port, dep.flit.vc, now);
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
