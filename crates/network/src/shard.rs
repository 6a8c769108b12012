//! Deterministic sharded-parallel execution of the network simulator.
//!
//! The [`crate::config::EngineKind::ParallelShards`] engine partitions the
//! mesh's routers into contiguous per-thread shards
//! ([`crate::topology::Mesh::shard_ranges`]) and executes the simulation
//! in lockstep rounds whose results are **bit-identical** to the serial
//! engines for any shard count and any thread schedule. Each round is one
//! *gate* barrier episode followed by one fused compute phase:
//!
//! 1. **Gate** — workers arrive and block; the coordinator waits for
//!    them, then runs the serial section alone: it commits the previous
//!    cycle's measurement records **in fixed node order** (sample
//!    tagging, then the floating-point latency / histogram /
//!    channel-load accumulators — the only order-sensitive state, which
//!    never leaves this section), evaluates the stop condition, and
//!    decides whether the next cycles can be **fast-forwarded**: every
//!    shard votes (via a `fetch_min` register) the earliest future cycle
//!    at which it has any work — pending link events, staged
//!    boundary mail, active routers, or a source about to cross its
//!    injection threshold — and when the minimum lies beyond the next
//!    cycle, the skipped cycles are provably no-ops for *every* shard
//!    and are elided exactly the way the serial event engine elides
//!    quiescent-router ticks. The gate is either a central
//!    sense-reversing spin barrier or a sense-reversing combining tree
//!    ([`crate::config::BarrierKind`]); both spin briefly then yield.
//! 2. **Fused compute** (parallel, no internal barrier) — each shard:
//!    schedules the boundary flits and credits other shards published
//!    *last* round onto its own link wheel (each carries its absolute
//!    due cycle), delivers the wheel's events due this cycle, steps its
//!    sources in node order, and ticks its active routers in node order.
//!    A shard's wheel holds exactly the [`LinkEvent`]s that target its
//!    own nodes: departures and credits bound for another shard are
//!    staged in per-shard-pair mailboxes **at emission time**, stamped
//!    with the cycle they are due, so the receiver can schedule them a
//!    full round later without any mid-cycle exchange barrier. Tail
//!    ejections, channel-load events, and created packet ids are
//!    recorded per shard in node order for the next gate's serial
//!    commit.
//!
//! Why this is bit-identical: within one cycle the serial engine's
//! deliveries commute (disjoint buffers and counters — the same argument
//! the event engine rests on), every event lands in the same cycle it
//! would have under the serial engine (the staged due cycle *is* the
//! serial delivery cycle), sources interact with nothing but their own
//! state and their own injection channel, and routers only interact
//! through links with ≥ 1 cycle of latency. Fast-forwarded cycles are
//! cycles in which no shard would deliver, inject, or tick anything —
//! sources advance their fractional accumulators by pure repeated
//! addition ([`Source::fast_forward`]), exactly the operations the
//! skipped steps would have performed, so even the floating-point state
//! is identical.
//! The only order-sensitive state — the global tagging counter and the
//! floating-point latency accumulators — never leaves the serial commit.
//!
//! Everything here is allocation-free in steady state: mailboxes,
//! wheels, scratch buffers, and the per-cycle record vectors are
//! retained and reach a fixed capacity after warm-up (enforced by
//! `crates/network/tests/alloc_free_parallel.rs`).
//!
//! # Work-metered dynamic rebalancing
//!
//! Contiguous even cuts balance *nodes*, not *work*: under a hotspot
//! pattern the shard holding the hot column does most of the ticking
//! while its siblings spin at the gate. When
//! [`crate::config::NetworkConfig::with_rebalance`] is set, every node
//! accrues a work meter (weighted router ticks, flit deliveries, and
//! departures — all pure functions of simulation state, so the meter is
//! identical for every partition and thread schedule), folded into a
//! per-node EWMA at the end of every `epoch` *executed* cycles. Each
//! shard folds its own slice and publishes its shard total through
//! [`Lockstep::shard_work`]; at the next gate the leader reads the
//! totals and, when `work_max / work_mean` exceeds the configured
//! threshold, recuts the partition along the EWMA curve
//! ([`crate::topology::Mesh::weighted_shard_ranges_into`] — still
//! contiguous and row-seam-snapped) and **migrates**: every wheel and
//! the staged boundary mail are drained with their due cycles intact,
//! and each event is re-homed onto the wheel of the shard that now owns
//! its target node. No new barrier is added — the decision rides the
//! existing gate, and the migration happens between worker-pool *eras*
//! while no worker holds a shard view. Because the meter, the epoch boundaries (counted
//! in executed cycles, which every shard executes in lockstep), and the
//! cut computation are all deterministic, the partition *sequence* is
//! deterministic — and since no partition choice ever affects results
//! (the serial commit owns all order-sensitive state), rebalanced runs
//! stay bit-identical to the serial engines.

use crate::config::{BarrierKind, RebalanceConfig};
use crate::fault::{clip, ClipSlot, DropReason, DropStats, FaultModel};
use crate::routing::RouteTable;
use crate::sim::{LinkEvent, NodeOracle};
use crate::source::{Source, SourceStep};
use crate::stats::PhaseNanos;
use crate::topology::Mesh;
use crate::traffic::TrafficPattern;
use router_core::{EventWheel, Flit, PacketId, Router, TickOutput};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Cap on how far ahead one quiescence vote scans a source's injection
/// accumulator ([`Source::quiet_horizon`]). Bounds the per-vote cost on
/// near-zero-rate sources; a longer quiet stretch is simply covered by
/// several consecutive fast-forwards, each re-voted after one executed
/// cycle.
pub(crate) const SRC_SCAN_CAP: u64 = 4096;

/// Work-meter weight of one router tick relative to one flit delivery
/// or departure. A tick runs route computation, VC and switch
/// allocation, and the crossbar pass — several times the cost of
/// delivering one flit — so the meter weights it accordingly.
/// Only the *ratios* between per-node meters matter to the cuts.
const W_TICK: u64 = 4;

/// Stride-doubling cap for no-op rebalance decisions: once a steady
/// imbalance keeps triggering decisions whose cuts do not change, the
/// decision interval backs off exponentially to this many epochs so the
/// engine is not respawning its worker pool for nothing.
const MAX_DECISION_STRIDE: u64 = 1 << 10;

/// The message every stalled waiter dies with when a sibling shard
/// panics — one clear failure instead of a cascade of unrelated
/// mutex-poisoning panics.
const SIBLING_PANIC: &str = "a sibling shard panicked; abandoning the cycle lockstep";

/// Locks a mailbox (or shard-out record), converting mutex poisoning —
/// a sibling shard panicked while holding the lock — into the same
/// single clear failure the barrier's poison path produces, instead of
/// a generic `PoisonError` unwrap that buries the original panic.
pub(crate) fn lock_mailbox<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|_| panic!("{SIBLING_PANIC}"))
}

/// Spins briefly, then yields (the yield fallback keeps oversubscribed
/// configurations — more shards than cores — live instead of burning a
/// core per waiter).
#[inline]
fn spin_or_yield(spins: &mut u32) {
    *spins += 1;
    if *spins < 128 {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

/// A reusable leader-gate built on a central sense-reversing counter.
///
/// The protocol is asymmetric: workers [`SpinBarrier::arrive`] and
/// block; the leader [`SpinBarrier::wait_followers`], runs its serial
/// section while everyone is parked, then [`SpinBarrier::release`]s.
/// One episode per simulated cycle replaces the previous engine's three
/// symmetric barrier waits.
///
/// `std::sync::Barrier` parks threads on a futex; at the microsecond
/// cycle times of this simulator the wake-up latency would dominate the
/// compute phase, so arrivals spin briefly before yielding.
///
/// The gate is *poisonable*: a shard that panics mid-phase poisons it
/// from a drop guard, and every waiter converts the poison into its own
/// panic instead of deadlocking the lockstep.
#[derive(Debug)]
pub(crate) struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    pub(crate) fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a gate needs at least one party");
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn check_poison(&self) {
        assert!(!self.poisoned.load(Ordering::Acquire), "{SIBLING_PANIC}");
    }

    /// Worker side: signals arrival and blocks until the leader releases
    /// this episode.
    fn arrive(&self) {
        self.check_poison();
        let generation = self.generation.load(Ordering::Acquire);
        self.arrived.fetch_add(1, Ordering::AcqRel);
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == generation {
            self.check_poison();
            spin_or_yield(&mut spins);
        }
    }

    /// Leader side: blocks until every worker has arrived (and parked).
    fn wait_followers(&self) {
        let mut spins = 0u32;
        while self.arrived.load(Ordering::Acquire) != self.parties - 1 {
            self.check_poison();
            spin_or_yield(&mut spins);
        }
    }

    /// Leader side: opens the gate. Everything the leader wrote in its
    /// serial section happens-before the workers' post-arrive reads.
    fn release(&self) {
        self.arrived.store(0, Ordering::Release);
        self.generation.fetch_add(1, Ordering::AcqRel);
    }
}

/// A leader-gate built on a sense-reversing combining tree: arrivals
/// propagate up a binary tree of per-party flags (parent of `i` is
/// `(i − 1) / 2`; the leader, party 0, is the root), so no cache line is
/// written by more than a constant number of parties per episode —
/// unlike the central counter, whose single line every party contends
/// on. Release is a single sense flag every parked worker reads.
#[derive(Debug)]
pub(crate) struct TreeBarrier {
    parties: usize,
    /// `ready[i]` is set by party `i ≥ 1` once its whole subtree has
    /// arrived this episode; sense-encoded, so it never needs resetting.
    ready: Vec<AtomicBool>,
    /// Per-party local sense; `sense[i]` is written only by party `i`.
    sense: Vec<AtomicBool>,
    /// Global release flag, flipped to the episode's sense by the leader.
    release: AtomicBool,
    poisoned: AtomicBool,
}

impl TreeBarrier {
    pub(crate) fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a gate needs at least one party");
        TreeBarrier {
            parties,
            ready: (0..parties).map(|_| AtomicBool::new(false)).collect(),
            sense: (0..parties).map(|_| AtomicBool::new(false)).collect(),
            release: AtomicBool::new(false),
            poisoned: AtomicBool::new(false),
        }
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn check_poison(&self) {
        assert!(!self.poisoned.load(Ordering::Acquire), "{SIBLING_PANIC}");
    }

    /// Waits until both children of `party` (if any) have posted this
    /// episode's sense.
    fn gather_children(&self, party: usize, episode_sense: bool) {
        for child in [2 * party + 1, 2 * party + 2] {
            if child >= self.parties {
                break;
            }
            let mut spins = 0u32;
            while self.ready[child].load(Ordering::Acquire) != episode_sense {
                self.check_poison();
                spin_or_yield(&mut spins);
            }
        }
    }

    /// Worker side (`party ≥ 1`): combines its subtree's arrival up the
    /// tree, then blocks on the release flag.
    fn arrive(&self, party: usize) {
        self.check_poison();
        let s = !self.sense[party].load(Ordering::Relaxed);
        self.gather_children(party, s);
        self.ready[party].store(s, Ordering::Release);
        let mut spins = 0u32;
        while self.release.load(Ordering::Acquire) != s {
            self.check_poison();
            spin_or_yield(&mut spins);
        }
        self.sense[party].store(s, Ordering::Relaxed);
    }

    /// Leader side: blocks until the root's children report their
    /// subtrees complete — i.e. every worker has arrived.
    fn wait_followers(&self) {
        let s = !self.sense[0].load(Ordering::Relaxed);
        self.gather_children(0, s);
    }

    /// Leader side: opens the gate by flipping the release sense.
    fn release(&self) {
        let s = !self.sense[0].load(Ordering::Relaxed);
        self.sense[0].store(s, Ordering::Relaxed);
        self.release.store(s, Ordering::Release);
    }
}

/// The per-cycle gate, behind one interface so
/// [`crate::config::BarrierKind`] can swap implementations without the
/// engine caring.
#[derive(Debug)]
pub(crate) enum Gate {
    Spin(SpinBarrier),
    Tree(TreeBarrier),
}

impl Gate {
    pub(crate) fn new(kind: BarrierKind, parties: usize) -> Self {
        match kind {
            BarrierKind::Spin => Gate::Spin(SpinBarrier::new(parties)),
            BarrierKind::Tree => Gate::Tree(TreeBarrier::new(parties)),
        }
    }

    /// Marks the gate dead; every current and future waiter panics.
    pub(crate) fn poison(&self) {
        match self {
            Gate::Spin(b) => b.poison(),
            Gate::Tree(b) => b.poison(),
        }
    }

    /// Worker side: arrive and block until released.
    pub(crate) fn arrive(&self, party: usize) {
        match self {
            Gate::Spin(b) => b.arrive(),
            Gate::Tree(b) => b.arrive(party),
        }
    }

    /// Leader side: block until all workers are parked at the gate.
    pub(crate) fn wait_followers(&self) {
        match self {
            Gate::Spin(b) => b.wait_followers(),
            Gate::Tree(b) => b.wait_followers(),
        }
    }

    /// Leader side: open the gate.
    pub(crate) fn release(&self) {
        match self {
            Gate::Spin(b) => b.release(),
            Gate::Tree(b) => b.release(),
        }
    }
}

/// Poisons the gate if the holder unwinds, so sibling shards panic out
/// of their waits instead of spinning forever.
pub(crate) struct PoisonGuard<'a>(pub &'a Gate);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// The coordination state shared by the leader and every worker: the
/// gate plus the broadcast (stop / fast-forward target) and gather
/// (quiescence vote) registers around it.
#[derive(Debug)]
pub(crate) struct Lockstep {
    pub(crate) gate: Gate,
    /// Leader → workers: wind down and return.
    pub(crate) stop: AtomicBool,
    /// Leader → workers: the cycle to resume execution at. Equal to the
    /// worker's own cycle counter when no fast-forward was granted;
    /// greater when the skipped cycles should be fast-forwarded instead
    /// of executed.
    pub(crate) skip_to: AtomicU64,
    /// Workers → leader: `fetch_min` of every shard's earliest future
    /// cycle with work. Read and reset by the leader at the gate.
    pub(crate) next_work: AtomicU64,
    /// Workers → leader: each shard's work-EWMA total, published at the
    /// end of every rebalance epoch (the worker folds its own slice of
    /// the per-node meters — the leader cannot read worker-borrowed
    /// state — and the gate's happens-before makes the totals visible
    /// in the next serial section). Unused when rebalancing is off.
    pub(crate) shard_work: Vec<AtomicU64>,
}

impl Lockstep {
    pub(crate) fn new(kind: BarrierKind, parties: usize, start: u64) -> Self {
        Lockstep {
            gate: Gate::new(kind, parties),
            stop: AtomicBool::new(false),
            skip_to: AtomicU64::new(start),
            next_work: AtomicU64::new(u64::MAX),
            shard_work: (0..parties).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Leader side: takes the round's combined vote and resets the
    /// register for the next one.
    pub(crate) fn take_vote(&self) -> u64 {
        self.next_work.swap(u64::MAX, Ordering::AcqRel)
    }
}

/// A link event crossing a shard boundary, stamped with the cycle it is
/// due — the cycle the serial engine would deliver it.
pub(crate) type Mail = (u64, LinkEvent);

/// Preallocated per-shard-pair mailboxes. Slot `(from, to)` is written
/// by shard `from` at the end of its fused compute phase and drained by
/// shard `to` at the start of its next one; the gate between rounds
/// keeps every lock uncontended, and the retained `Vec`s make the
/// exchange allocation-free once capacities plateau.
#[derive(Debug)]
pub(crate) struct Mailboxes {
    shards: usize,
    slots: Vec<Mutex<Vec<Mail>>>,
}

impl Mailboxes {
    pub(crate) fn new(shards: usize) -> Self {
        Mailboxes {
            shards,
            slots: (0..shards * shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Boundary flits currently staged (emitted but not yet scheduled by
    /// their receiving shard). They live here across a cycle boundary,
    /// so flit conservation must count them as in flight.
    pub(crate) fn staged_flits(&self) -> u64 {
        self.slots
            .iter()
            .map(|m| lock_mailbox(m).iter().filter(|(_, e)| e.is_flit()).count() as u64)
            .sum()
    }

    /// Drains every staged event into the migration scratch (each
    /// carries its due cycle, everything needed to re-home it). Called
    /// only between eras, when no shard holds a mailbox lock.
    pub(crate) fn drain_all(&self, into: &mut Vec<Mail>) {
        for slot in &self.slots {
            into.append(&mut lock_mailbox(slot));
        }
    }

    fn slot(&self, from: usize, to: usize) -> &Mutex<Vec<Mail>> {
        &self.slots[from * self.shards + to]
    }
}

/// What one shard reports to the serial commit each cycle. Every vector
/// is filled in node order during the parallel phases and drained by the
/// coordinating thread, so concatenating the shards in index order
/// replays the serial engine's exact event sequence.
#[derive(Debug, Default)]
pub(crate) struct ShardOut {
    /// Packets created this cycle, in node order.
    pub created: Vec<PacketId>,
    /// Tail-flit ejections this cycle, in node order: `(packet,
    /// creation cycle, destination node)`.
    pub tails: Vec<(PacketId, u64, u32)>,
    /// Channel-load events this cycle: `(node, out_port)`.
    pub loads: Vec<(u32, u8)>,
    /// Flits ejected this cycle.
    pub ejected: u64,
    /// Packets whose head the fault layer dropped this cycle, in node
    /// order — resolved against the tagged sample at the serial commit.
    pub drops: Vec<PacketId>,
    /// Flits handed to the injection stage this cycle (pre-clip, so the
    /// telemetry counter matches the sources' own accounting).
    pub injected: u64,
    /// Router ticks executed this cycle (telemetry gauge delta).
    pub ticks: u64,
    /// Cross-shard flits staged into mailboxes this cycle.
    pub mail_flits: u64,
    /// Cross-shard credits staged into mailboxes this cycle.
    pub mail_credits: u64,
    /// Per-reason drop deltas this cycle, absorbed by the telemetry
    /// registry at the serial commit (in fixed shard order).
    pub drop_stats: DropStats,
    /// Wall-clock nanoseconds this cycle spent in the fused phases
    /// `[delivery, sources, router]` — stamped only when tracing is on.
    pub span_nanos: [u64; 3],
}

/// Per-shard state that persists across cycles (the shard's half of the
/// event-driven machinery plus its outbound mailbox staging).
#[derive(Debug)]
pub(crate) struct ShardAux {
    /// Every flit and credit in flight to this shard's nodes, keyed by
    /// delivery cycle.
    pub wheel: EventWheel<LinkEvent>,
    /// Reused router tick output buffer.
    pub tick_buf: TickOutput,
    /// Reused source step buffer.
    pub step_buf: SourceStep,
    /// Router ticks executed by this shard (work accounting).
    pub router_ticks: u64,
    /// Cycles this shard has *executed* (fast-forwarded cycles are not
    /// counted — no work can happen in them). Every shard executes the
    /// same cycles in lockstep, so this counter is identical across
    /// shards and partition-independent; rebalance epoch boundaries are
    /// measured against it.
    pub(crate) executed: u64,
    /// Cached earliest cycle at which one of this shard's sources can
    /// cross its injection threshold; valid until reached (a quiet
    /// source's crossing schedule is pure accumulator arithmetic, so it
    /// cannot move earlier). Recomputed lazily by [`ShardCtx::vote`].
    src_next: u64,
    /// Whether this cycle's tick left any router active.
    busy: bool,
    /// Whether this cycle staged any outbound boundary mail.
    sent_mail: bool,
    /// Outbound boundary staging, one buffer per destination shard.
    out_mail: Vec<Vec<Mail>>,
}

impl ShardAux {
    pub(crate) fn new(shards: usize, horizon: u64, per_slot: usize) -> Self {
        ShardAux {
            wheel: EventWheel::with_slot_capacity(horizon, per_slot),
            tick_buf: TickOutput::default(),
            step_buf: SourceStep::default(),
            router_ticks: 0,
            executed: 0,
            src_next: 0,
            busy: false,
            sent_mail: false,
            out_mail: (0..shards).map(|_| Vec::new()).collect(),
        }
    }
}

/// The full sharded-engine state owned by a `Network` (present only when
/// the engine is `ParallelShards`).
#[derive(Debug)]
pub(crate) struct ShardSet {
    /// Contiguous `[lo, hi)` node range per shard.
    pub ranges: Vec<(usize, usize)>,
    /// Owning shard of every node (`O(1)` boundary lookups).
    pub node_shard: Vec<u32>,
    /// Persistent per-shard engine state.
    pub aux: Vec<ShardAux>,
    /// The per-shard-pair exchange.
    pub mail: Mailboxes,
    /// Per-shard commit records.
    pub outs: Vec<Mutex<ShardOut>>,
    /// Per-node work accrued this epoch (node-indexed, so it survives
    /// migration untouched; each shard writes only its own slice).
    pub work_epoch: Vec<u64>,
    /// Per-node work EWMA across epochs — the weight vector the cuts
    /// are computed from.
    pub work_ewma: Vec<u64>,
    /// Decision state and preallocated migration scratch.
    pub rebal: RebalanceState,
}

/// Rebalance decision state plus the preallocated scratch a migration
/// drains into — sized up front (when the knob is on) so even the first
/// migration allocates nothing.
#[derive(Debug)]
pub(crate) struct RebalanceState {
    /// Earliest executed-cycle count at which the next migration
    /// decision may fire (imbalance is *metered* every epoch either
    /// way). Starts at 0: the first epoch may decide.
    next_decision: u64,
    /// Current decision backoff, in epochs (see [`MAX_DECISION_STRIDE`]).
    stride: u64,
    /// The leader's snapshot of [`Lockstep::shard_work`], one slot per
    /// shard.
    pub(crate) epoch_totals: Vec<u64>,
    /// Every in-flight link event, drained from the wheels and the
    /// mailboxes with its due cycle.
    events: Vec<Mail>,
    /// Row prefix-sum scratch for the weighted cut.
    pub(crate) prefix: Vec<u128>,
    /// The candidate partition the cut computes into.
    pub(crate) new_ranges: Vec<(usize, usize)>,
}

impl RebalanceState {
    fn new(enabled: bool, shards: usize, mesh: &Mesh, horizon: u64) -> Self {
        // Worst-case in-flight volume: each input port receives at most
        // one flit and frees at most one credit per cycle, and each is
        // pending for at most `latency + 1 <= horizon - 1` cycles.
        let events = if enabled {
            mesh.nodes() * mesh.ports() * 2 * (horizon as usize - 1)
        } else {
            0
        };
        let rows = mesh.nodes() / mesh.radix();
        RebalanceState {
            next_decision: 0,
            stride: 1,
            epoch_totals: vec![0; if enabled { shards } else { 0 }],
            events: Vec::with_capacity(events),
            prefix: Vec::with_capacity(if enabled { rows + 1 } else { 0 }),
            new_ranges: Vec::with_capacity(if enabled { shards } else { 0 }),
        }
    }

    /// Meters one epoch's imbalance from the published shard totals and
    /// reports whether a migration decision should fire: the decision
    /// backoff has elapsed and `work_max / work_mean` exceeds
    /// `threshold` (compared multiplied out — no division, so the
    /// trigger is exact and deterministic). An all-idle epoch meters as
    /// perfectly balanced and never triggers.
    pub(crate) fn record_epoch(
        &mut self,
        phases: &mut PhaseNanos,
        executed: u64,
        threshold: f64,
    ) -> bool {
        let s = self.epoch_totals.len() as u64;
        let total: u64 = self.epoch_totals.iter().sum();
        let max = self.epoch_totals.iter().copied().max().unwrap_or(0);
        let milli = if total == 0 {
            1000
        } else {
            (u128::from(max) * 1000 * u128::from(s) / u128::from(total)) as u64
        };
        phases.imbalance_milli_sum += milli;
        phases.imbalance_epochs += 1;
        total > 0
            && executed >= self.next_decision
            && (max as f64) * (s as f64) > threshold * (total as f64)
    }

    /// Applies the decision backoff: a migration resets the stride (the
    /// new cuts may need refinement soon); a no-op decision — the
    /// weighted cut reproduced the current partition — doubles it, so a
    /// steady already-balanced imbalance stops respawning the pool.
    pub(crate) fn after_decision(&mut self, migrated: bool, executed: u64, epoch: u64) {
        if migrated {
            self.stride = 1;
        } else {
            self.stride = (self.stride * 2).min(MAX_DECISION_STRIDE);
        }
        self.next_decision = executed + epoch.saturating_mul(self.stride);
    }
}

impl ShardSet {
    pub(crate) fn new(
        mesh: &Mesh,
        shards: usize,
        horizon: u64,
        rebalance: Option<RebalanceConfig>,
    ) -> Self {
        let ranges = mesh.shard_ranges(shards);
        let s = ranges.len();
        let mut node_shard = vec![0u32; mesh.nodes()];
        for (i, &(lo, hi)) in ranges.iter().enumerate() {
            for slot in &mut node_shard[lo..hi] {
                *slot = i as u32;
            }
        }
        // Each input port receives at most one flit and frees at most one
        // buffer per cycle, so a wheel slot never holds more than two
        // events per port of the nodes the shard can come to own.
        let per_slot = |&(lo, hi): &(usize, usize)| {
            let owned = if rebalance.is_some() {
                mesh.nodes()
            } else {
                hi - lo
            };
            2 * owned * mesh.ports()
        };
        let aux = ranges
            .iter()
            .map(|r| ShardAux::new(s, horizon, per_slot(r)))
            .collect();
        ShardSet {
            ranges,
            node_shard,
            aux,
            mail: Mailboxes::new(s),
            outs: (0..s).map(|_| Mutex::new(ShardOut::default())).collect(),
            work_epoch: vec![0; mesh.nodes()],
            work_ewma: vec![0; mesh.nodes()],
            rebal: RebalanceState::new(rebalance.is_some(), s, mesh, horizon),
        }
    }

    /// Router ticks executed across all shards.
    pub(crate) fn router_ticks(&self) -> u64 {
        self.aux.iter().map(|a| a.router_ticks).sum()
    }

    /// Repartitions the flat per-node state along `rebal.new_ranges`,
    /// re-homing every in-flight link event onto the wheel of the shard
    /// that now owns its target node. Runs between eras — no worker
    /// holds a shard view — right after an executed cycle `N`, which pins
    /// the timing invariants: every wheel's cursor is at `N`, and every
    /// pending or staged event is due in `(N, N + horizon]` — so every
    /// re-schedule below satisfies the wheels' horizon asserts. Returns
    /// how many nodes changed owner.
    pub(crate) fn migrate(&mut self) -> u64 {
        let rebal = &mut self.rebal;
        debug_assert_eq!(rebal.new_ranges.len(), self.ranges.len());
        // 1. Strip every shard's wheel and the staged boundary mail into
        //    the scratch, due cycles intact. The cached source horizons
        //    are partition scoped only in the sense that a new owner
        //    re-votes them; reset forces that re-vote.
        rebal.events.clear();
        for aux in &mut self.aux {
            aux.wheel.drain_pending_into(&mut rebal.events);
            aux.src_next = 0;
        }
        self.mail.drain_all(&mut rebal.events);
        // 2. Install the new partition.
        let mut moved = 0u64;
        self.ranges.copy_from_slice(&rebal.new_ranges);
        for (i, &(lo, hi)) in self.ranges.iter().enumerate() {
            for slot in &mut self.node_shard[lo..hi] {
                if *slot != i as u32 {
                    moved += 1;
                    *slot = i as u32;
                }
            }
        }
        // 3. Re-home every event onto its target's new owner.
        for &(due, ev) in &rebal.events {
            let owner = self.node_shard[ev.node()] as usize;
            self.aux[owner].wheel.schedule(due, ev);
        }
        moved
    }
}

/// Read-only environment shared by every shard during a cycle.
pub(crate) struct ShardEnv<'a> {
    pub mesh: Mesh,
    pub pattern: &'a TrafficPattern,
    pub route_table: &'a RouteTable,
    /// The compiled fault plan, when the run has one. Shared read-only;
    /// every fault decision is a pure function of (plan, seed, cycle),
    /// so shards need no coordination to agree on it.
    pub fault: Option<&'a FaultModel>,
    pub node_shard: &'a [u32],
    pub link_delay: u64,
    pub credit_latency: u64,
    pub packet_len: u32,
    pub vcs: usize,
    pub mail: &'a Mailboxes,
    pub outs: &'a [Mutex<ShardOut>],
    /// Rebalance epoch length in executed cycles; `0` disables metering
    /// entirely (the per-event counter writes are skipped).
    pub rebalance_epoch: u64,
    /// Whether phase spans are being collected (telemetry + phase
    /// timing): shards stamp wall-clock phase durations into their
    /// `ShardOut` each cycle.
    pub trace: bool,
}

/// One shard's disjoint mutable view of the network: slices of the flat
/// per-node state plus its persistent aux. Shards never alias — every
/// cross-shard effect travels through [`Mailboxes`].
pub(crate) struct ShardCtx<'a> {
    pub idx: usize,
    /// First node of the shard (global index of `routers[0]`).
    pub lo: usize,
    pub routers: &'a mut [Router],
    pub sources: &'a mut [Source],
    /// Reassembly slots of this shard's nodes (`(hi - lo) * vcs` entries).
    pub eject_slots: &'a mut [(PacketId, u32)],
    /// Clip-at-head slots of this shard's nodes' output links
    /// (`(hi - lo) * ports * vcs` entries).
    pub clip_out: &'a mut [ClipSlot],
    /// Clip-at-head slots of this shard's nodes' injection channels
    /// (`(hi - lo) * vcs` entries — sources interleave packets across
    /// their injection VCs).
    pub clip_in: &'a mut [ClipSlot],
    /// Per-node drop counters of this shard's nodes.
    pub drops: &'a mut [DropStats],
    pub active: &'a mut [bool],
    pub aux: &'a mut ShardAux,
    /// This shard's slice of the per-node work meters (current epoch).
    pub work_epoch: &'a mut [u64],
    /// This shard's slice of the per-node work EWMAs.
    pub work_ewma: &'a mut [u64],
}

impl ShardCtx<'_> {
    /// Phase 1a: schedules the boundary mail other shards published last
    /// round onto this shard's wheel, each event at its stamped due
    /// cycle (exactly where a same-shard send would have put it), then
    /// delivers every event due at `now`. Mirrors the serial engines'
    /// delivery phase.
    pub(crate) fn phase_deliver(&mut self, env: &ShardEnv<'_>, now: u64) {
        for from in 0..env.mail.shards() {
            if from == self.idx {
                continue;
            }
            let mut slot = lock_mailbox(env.mail.slot(from, self.idx));
            for (due, ev) in slot.drain(..) {
                self.aux.wheel.schedule(due, ev);
            }
        }
        let metering = env.rebalance_epoch != 0;
        let mut due = self.aux.wheel.take_due(now);
        for ev in due.drain(..) {
            let i = ev.node() - self.lo;
            let flit = ev.deliver(now, self.lo, self.routers, self.sources, self.active);
            if metering && flit {
                self.work_epoch[i] += 1;
            }
        }
        self.aux.wheel.restore(now, due);
    }

    /// Phase 1b: steps this shard's sources in node order, recording the
    /// created packet ids for the serial tagging commit.
    pub(crate) fn phase_sources(&mut self, env: &ShardEnv<'_>, now: u64) {
        let mesh = env.mesh;
        let local = mesh.local_port();
        let mut step = std::mem::take(&mut self.aux.step_buf);
        let mut out = lock_mailbox(&env.outs[self.idx]);
        for i in 0..self.sources.len() {
            self.sources[i].step_into(now, &mesh, env.pattern, &mut step);
            out.created.extend_from_slice(&step.created);
            if let Some(flit) = step.injected {
                out.injected += 1;
                let reason = env.fault.and_then(|fm| {
                    clip(&mut self.clip_in[i * env.vcs + flit.vc], &flit, || {
                        fm.injection_drop(self.lo + i, flit.dest, now, flit.packet)
                    })
                });
                if let Some(reason) = reason {
                    // Mirror of the serial engines' injection clip:
                    // bounce the credit, account the drop.
                    self.sources[i].credit(flit.vc);
                    self.drops[i].count(reason, flit.kind.is_head());
                    out.drop_stats.count(reason, flit.kind.is_head());
                    if flit.kind.is_head() {
                        out.drops.push(flit.packet);
                    }
                    continue;
                }
                self.aux.wheel.schedule(
                    now + 1 + env.link_delay,
                    LinkEvent::Flit {
                        node: (self.lo + i) as u32,
                        port: local as u8,
                        flit,
                    },
                );
            }
        }
        drop(out);
        self.aux.step_buf = step;
    }

    /// Phase 2: ticks this shard's active routers in node order.
    /// Cross-shard departures and credits are staged in the mailboxes at
    /// emission time (stamped with their due cycle); ejections and
    /// channel-load events are recorded for the serial commit.
    pub(crate) fn phase_tick(&mut self, env: &ShardEnv<'_>, now: u64) {
        let local = env.mesh.local_port();
        let metering = env.rebalance_epoch != 0;
        self.aux.busy = false;
        self.aux.sent_mail = false;

        let mut buf = std::mem::take(&mut self.aux.tick_buf);
        let mut out = lock_mailbox(&env.outs[self.idx]);
        for i in 0..self.routers.len() {
            if !self.active[i] {
                continue;
            }
            let node = self.lo + i;
            let oracle = NodeOracle {
                table: env.route_table,
                node,
                fault: env.fault.map(|f| (f, f.epoch_at(now))),
            };
            self.routers[i].tick_into(now, &oracle, &mut buf);
            self.aux.router_ticks += 1;
            out.ticks += 1;
            if metering {
                self.work_epoch[i] += W_TICK + buf.departures.len() as u64;
            }
            for dep in buf.departures.drain(..) {
                out.loads.push((node as u32, dep.out_port as u8));
                if env.fault.is_some()
                    && self.clip_departure(env, now, node, dep.out_port, &dep.flit, &mut out)
                {
                    continue;
                }
                if dep.out_port == local {
                    self.eject(env, node, dep.flit, &mut out);
                } else {
                    let ev = LinkEvent::departure(env.route_table, node, dep.out_port, dep.flit);
                    self.send(env, now + 1 + env.link_delay, ev, &mut out);
                }
            }
            for c in buf.credits.drain(..) {
                let ev = LinkEvent::credit(env.route_table, node, c.in_port, c.vc);
                self.send(env, now + 1 + env.credit_latency, ev, &mut out);
            }
            if self.routers[i].is_quiescent() {
                self.active[i] = false;
            } else {
                self.aux.busy = true;
            }
        }
        drop(out);
        self.aux.tick_buf = buf;

        // Publish staged boundary mail for the owners' next begin phase.
        for to in 0..env.mail.shards() {
            if to == self.idx {
                continue;
            }
            if !self.aux.out_mail[to].is_empty() {
                let mut slot = lock_mailbox(env.mail.slot(self.idx, to));
                slot.append(&mut self.aux.out_mail[to]);
                self.aux.sent_mail = true;
            }
        }
    }

    /// Sends `ev`, due at cycle `due`: onto this shard's wheel when it
    /// targets one of the shard's own nodes, otherwise into the staging
    /// buffer for the owning shard's mailbox.
    #[inline]
    fn send(&mut self, env: &ShardEnv<'_>, due: u64, ev: LinkEvent, out: &mut ShardOut) {
        let owner = env.node_shard[ev.node()] as usize;
        if owner == self.idx {
            self.aux.wheel.schedule(due, ev);
        } else {
            if ev.is_flit() {
                out.mail_flits += 1;
            } else {
                out.mail_credits += 1;
            }
            self.aux.out_mail[owner].push((due, ev));
        }
    }

    /// Casts this shard's quiescence vote after executing cycle `now`:
    /// the earliest future cycle at which it has any work. A busy shard
    /// (active routers, or mail published this cycle that the receiver
    /// must schedule next round) votes `now + 1`; an idle one votes the
    /// earliest of its pending link events and the next possible
    /// source-injection crossing (cached — a quiet
    /// source's crossing schedule is fixed arithmetic, so the cache
    /// stays valid until reached).
    pub(crate) fn vote(&mut self, lockstep: &Lockstep, now: u64) {
        let next = if self.aux.busy || self.aux.sent_mail {
            now + 1
        } else {
            let v = self.aux.wheel.next_due().unwrap_or(u64::MAX);
            if now + 1 >= self.aux.src_next {
                let mut s = u64::MAX;
                for src in self.sources.iter() {
                    let q = src.quiet_horizon(SRC_SCAN_CAP);
                    s = s.min(now + 1 + q);
                    if q == 0 {
                        break; // cannot vote earlier than now + 1
                    }
                }
                self.aux.src_next = s;
            }
            v.min(self.aux.src_next)
        };
        lockstep.next_work.fetch_min(next, Ordering::AcqRel);
    }

    /// Counts the just-executed cycle against the rebalance epoch; at an
    /// epoch boundary, folds this shard's slice of the work meters into
    /// the per-node EWMAs (`ewma ← (3·ewma + epoch) / 4`, integer — the
    /// fold is per node, so it is identical under every partition) and
    /// returns the shard's EWMA total. No-op when metering is off.
    pub(crate) fn end_cycle(&mut self, epoch: u64) -> Option<u64> {
        if epoch == 0 {
            return None;
        }
        self.aux.executed += 1;
        if !self.aux.executed.is_multiple_of(epoch) {
            return None;
        }
        let mut total = 0u64;
        for (w, e) in self.work_ewma.iter_mut().zip(self.work_epoch.iter_mut()) {
            *w = (*w * 3 + *e) / 4;
            total += *w;
            *e = 0;
        }
        Some(total)
    }

    /// [`ShardCtx::end_cycle`] for the threaded run: publishes the epoch
    /// total for the leader's next serial section.
    pub(crate) fn finish_cycle(&mut self, env: &ShardEnv<'_>, lockstep: &Lockstep) {
        if let Some(total) = self.end_cycle(env.rebalance_epoch) {
            lockstep.shard_work[self.idx].store(total, Ordering::Release);
        }
    }

    /// Executes one full cycle (the fused compute phase) and votes.
    /// With tracing on, the wall-clock duration of each fused phase is
    /// accumulated into this shard's `ShardOut` for the leader's span
    /// log.
    pub(crate) fn run_cycle(&mut self, env: &ShardEnv<'_>, lockstep: &Lockstep, now: u64) {
        if env.trace {
            let t0 = std::time::Instant::now();
            self.phase_deliver(env, now);
            let t1 = std::time::Instant::now();
            self.phase_sources(env, now);
            let t2 = std::time::Instant::now();
            self.phase_tick(env, now);
            let t3 = std::time::Instant::now();
            let deltas = [t1 - t0, t2 - t1, t3 - t2].map(|d| d.as_nanos() as u64);
            let mut out = lock_mailbox(&env.outs[self.idx]);
            for (slot, d) in out.span_nanos.iter_mut().zip(deltas) {
                *slot += d;
            }
            drop(out);
        } else {
            self.phase_deliver(env, now);
            self.phase_sources(env, now);
            self.phase_tick(env, now);
        }
        self.finish_cycle(env, lockstep);
        self.vote(lockstep, now);
    }

    /// Fast-forwards this shard over the quiescent cycles
    /// `[now, target)`: sources advance their accumulators by pure
    /// repeated addition (bit-identical to stepping them through cycles
    /// that inject nothing), and the wheel skips ahead (debug-asserting
    /// that no pending event is jumped — the vote guarantees it).
    pub(crate) fn fast_forward(&mut self, now: u64, target: u64) {
        debug_assert!(target > now, "fast-forward must move forward");
        for src in self.sources.iter_mut() {
            src.fast_forward(target - now);
        }
        self.aux.wheel.advance_to(target - 1);
    }

    /// The shard-local mirror of the serial engines' departure clip
    /// (see [`crate::sim::Network`]): same slot indexing relative to the
    /// shard's base node, same synchronous credit reclaim — the reclaim
    /// touches only this shard's own router, so no mail is needed and
    /// the result is identical under every partition.
    fn clip_departure(
        &mut self,
        env: &ShardEnv<'_>,
        now: u64,
        node: usize,
        out_port: usize,
        flit: &Flit,
        out: &mut ShardOut,
    ) -> bool {
        let Some(fm) = env.fault else {
            return false;
        };
        let local = env.mesh.local_port();
        let i = node - self.lo;
        let reason = if out_port == local && flit.dest != node {
            Some(DropReason::Stranded)
        } else {
            let slot = &mut self.clip_out[(i * env.mesh.ports() + out_port) * env.vcs + flit.vc];
            clip(slot, flit, || {
                fm.link_drop(node, out_port, now, flit.packet)
            })
        };
        let Some(reason) = reason else {
            return false;
        };
        if out_port != local {
            self.routers[i].accept_credit(out_port, flit.vc, now);
        }
        self.drops[i].count(reason, flit.kind.is_head());
        out.drop_stats.count(reason, flit.kind.is_head());
        if flit.kind.is_head() {
            out.drops.push(flit.packet);
        }
        true
    }

    /// Consumes an ejected flit at its destination — the shard-local half
    /// of [`crate::sim::Network`]'s ejection: reassembly and conservation
    /// checks happen here; the order-sensitive tagging/latency updates are
    /// deferred to the serial commit via `out.tails`.
    fn eject(&mut self, env: &ShardEnv<'_>, node: usize, flit: Flit, out: &mut ShardOut) {
        assert_eq!(flit.dest, node, "flit ejected at the wrong node");
        out.ejected += 1;
        let slot = &mut self.eject_slots[(node - self.lo) * env.vcs + flit.vc];
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
                received, env.packet_len,
                "tail ejected before the whole packet arrived"
            );
            out.tails.push((flit.packet, flit.created, node as u32));
        }
    }
}

/// The worker-thread loop: one gate episode per round, mirroring the
/// coordinating thread's sequence in [`crate::sim::Network::run`]
/// exactly. A round either executes one cycle (fused compute phase) or
/// fast-forwards a granted quiescent stretch.
pub(crate) fn worker_loop(
    mut ctx: ShardCtx<'_>,
    env: &ShardEnv<'_>,
    lockstep: &Lockstep,
    mut now: u64,
) {
    let party = ctx.idx;
    let _guard = PoisonGuard(&lockstep.gate);
    loop {
        lockstep.gate.arrive(party);
        if lockstep.stop.load(Ordering::Acquire) {
            return;
        }
        let target = lockstep.skip_to.load(Ordering::Acquire);
        if target > now {
            ctx.fast_forward(now, target);
            now = target;
        } else {
            ctx.run_cycle(env, lockstep, now);
            now += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives the leader-gate protocol: workers increment then arrive,
    /// the leader must observe exactly one increment per worker per
    /// round while it holds the serial section.
    fn gate_round_trips(kind: BarrierKind, parties: usize) {
        let gate = Gate::new(kind, parties);
        let counter = AtomicU64::new(0);
        let rounds = 200u64;
        std::thread::scope(|scope| {
            for p in 1..parties {
                let (gate, counter) = (&gate, &counter);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        counter.fetch_add(1, Ordering::AcqRel);
                        gate.arrive(p);
                    }
                });
            }
            for round in 0..rounds {
                gate.wait_followers();
                // Serial section: every worker has arrived this round and
                // none has started the next one.
                assert_eq!(
                    counter.load(Ordering::Acquire),
                    (round + 1) * (parties as u64 - 1)
                );
                gate.release();
            }
        });
    }

    #[test]
    fn spin_gate_synchronizes_rounds() {
        gate_round_trips(BarrierKind::Spin, 4);
    }

    #[test]
    fn tree_gate_synchronizes_rounds() {
        // 7 parties exercises a two-level tree with an incomplete last
        // row; 2 exercises the single-child root.
        gate_round_trips(BarrierKind::Tree, 7);
        gate_round_trips(BarrierKind::Tree, 2);
    }

    #[test]
    fn single_party_gate_never_blocks() {
        for kind in [BarrierKind::Spin, BarrierKind::Tree] {
            let gate = Gate::new(kind, 1);
            for _ in 0..10 {
                gate.wait_followers();
                gate.release();
            }
        }
    }

    #[test]
    #[should_panic(expected = "sibling shard panicked")]
    fn poisoned_gate_panics_waiters() {
        let gate = Gate::new(BarrierKind::Spin, 2);
        gate.poison();
        gate.arrive(1);
    }

    #[test]
    #[should_panic(expected = "sibling shard panicked")]
    fn poisoned_tree_gate_panics_waiters() {
        let gate = Gate::new(BarrierKind::Tree, 2);
        gate.poison();
        gate.arrive(1);
    }

    #[test]
    fn poison_guard_fires_only_on_unwind() {
        let gate = Gate::new(BarrierKind::Spin, 1);
        {
            let _guard = PoisonGuard(&gate);
        }
        gate.wait_followers(); // not poisoned by a clean drop
        gate.release();

        let gate = std::sync::Arc::new(Gate::new(BarrierKind::Spin, 2));
        let g = std::sync::Arc::clone(&gate);
        let worker = std::thread::spawn(move || {
            let _guard = PoisonGuard(&g);
            panic!("boom");
        });
        assert!(worker.join().is_err());
        assert!(std::panic::catch_unwind(|| gate.arrive(1)).is_err());
    }

    #[test]
    fn mailbox_poison_reports_the_sibling_panic() {
        // A shard that panics while holding a mailbox lock poisons the
        // mutex; the sibling must die with the one clear lockstep
        // message, not a generic PoisonError unwrap.
        let mail = std::sync::Arc::new(Mutex::new(Vec::<u32>::new()));
        let m = std::sync::Arc::clone(&mail);
        let worker = std::thread::spawn(move || {
            let _guard = m.lock().unwrap();
            panic!("original failure");
        });
        assert!(worker.join().is_err());
        let err = std::panic::catch_unwind(|| {
            drop(lock_mailbox(&mail));
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("sibling shard panicked"), "got: {msg}");
    }
}
