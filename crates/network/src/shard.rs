//! The engine loop: every [`crate::config::EngineKind`] advances the
//! network in lockstep rounds over a partition of the mesh's routers
//! into contiguous shards ([`crate::topology::Mesh::shard_ranges`]).
//! `ParallelShards(n)` cuts `n` shards; the serial kinds are one-shard
//! schedules of the same round — `EventDriven` is `ParallelShards(1)`,
//! and `CycleDriven` ticks every router and is never granted a
//! fast-forward, which keeps it the never-skipping oracle for the active
//! set and the quiescence vote. Results are **bit-identical** for every
//! kind, shard count and thread schedule. Each round is one *gate*
//! barrier episode followed by one fused compute phase:
//!
//! 1. **Gate** — workers arrive and block; the coordinator waits for
//!    them, then runs the serial section alone (see `crate::sim`): it
//!    commits the previous cycle's order-sensitive records **in fixed
//!    node order** (sample tagging, a global count in creation order,
//!    and the tagged-sample log, filled in tail order — state that never
//!    leaves this section), emits the telemetry boundary, takes the
//!    rebalance decision, evaluates the stop condition, and decides
//!    whether the next cycles can be **fast-forwarded**: every shard
//!    votes (via a `fetch_min` register) the earliest future cycle at
//!    which it has any work — pending link events, staged boundary mail,
//!    active routers, or the earliest wake cycle on its source calendar
//!    — and when the minimum lies beyond the next cycle, the skipped
//!    cycles are provably no-ops for *every* shard and are elided. The
//!    gate is a central sense-reversing spin barrier (`SpinBarrier`) that
//!    spins briefly then yields; with one party it never blocks. Its
//!    arrival count, generation word and vote register each own a
//!    `LINE_PAIR`, as does every per-shard record the fused phase
//!    writes, so no two shards write one cache line pair.
//! 2. **Fused compute** (parallel, no internal barrier) — each shard:
//!    schedules the boundary flits and credits other shards published
//!    onto its own link wheel (each carries its absolute due cycle),
//!    delivers the wheel's events due this cycle, steps the sources its
//!    wake calendar holds due this cycle in node order, and ticks its
//!    active routers in node order. A shard's wheel holds exactly the
//!    `LinkEvent`s that target its own nodes:
//!    departures and credits bound for another shard are staged in
//!    per-shard-pair mailboxes **at emission time**, stamped with the
//!    cycle they are due (≥ the next cycle), so the receiver can schedule
//!    them whenever it next drains its mailboxes without any mid-cycle
//!    exchange barrier. Created packet ids, tail ejections and dropped
//!    heads are recorded per shard in node order for the next gate's
//!    serial commit. Every commutative count stays where it happens:
//!    routers count their departures (the channel load), and each shard
//!    keeps running telemetry totals that the epoch boundary sums.
//!
//! [`crate::sim::Network::run`] runs shard 0 on the calling thread and
//! every other shard on a scoped worker; [`crate::sim::Network::step`]
//! runs one round with every shard on the calling thread, shard after
//! shard in index order, which is one legal interleaving of the fused
//! phase.
//!
//! Why this is bit-identical: within one cycle the deliveries commute
//! (they touch disjoint buffers and counters), every event lands in the
//! same cycle under every partition (the staged due cycle *is* the cycle
//! a same-shard send would have used), sources interact with nothing but
//! their own state and their own injection channel, and routers only
//! interact through links with ≥ 1 cycle of latency. Ticking only the
//! active set elides provable no-ops: a quiescent router's tick changes
//! no state (arbiter priorities move only on grants), and a credit needs
//! no wake-up (see `LinkEvent::deliver`). The source wake calendar
//! elides provable no-ops too: between two threshold crossings an idle
//! constant-rate source only adds `rate` to its accumulator, so right
//! after its step it performs those additions at once — the same
//! additions in the same order, so even the floating-point state is
//! identical — and is not stepped again until the crossing, while a
//! source holding a packet is due every cycle. Fast-forwarded cycles are
//! cycles in which no shard would deliver, inject, or tick anything, and
//! no source is due in them. The only order-sensitive state — the global
//! tagging counter and the tagged-sample log — never leaves the serial
//! commit, and the latency statistics are folded over that log once the
//! run ends. `tests/engine_equivalence.rs` enforces the claim against
//! the cycle-driven oracle (which steps every source every cycle), and
//! `tests/golden_results.rs` pins exact results across commits.
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
//! `Lockstep::shard_work`; at the next gate the leader reads the
//! totals and, when `work_max / work_mean` exceeds the configured
//! threshold, recuts the partition along the EWMA curve
//! ([`crate::topology::Mesh::weighted_shard_ranges_into`] — still
//! contiguous and row-seam-snapped) and **migrates**: every wheel and
//! the staged boundary mail are drained with their due cycles intact,
//! and each event is re-homed onto the wheel of the shard that now owns
//! its target node (`ShardSet::rebalance`). No new barrier is added —
//! the decision rides the existing gate, and the migration happens
//! between *eras* of the engine loop, while no shard view exists.
//! Because the meter, the epoch boundaries (counted in executed cycles,
//! which every shard executes in lockstep), and the cut computation are
//! all deterministic, the partition *sequence* is deterministic — and
//! since no partition choice ever affects results (the serial commit
//! owns all order-sensitive state), rebalanced runs stay bit-identical
//! to the cycle-driven oracle. The serial kinds run a single shard,
//! which has nothing to balance, so they never meter.

use crate::config::{NetworkConfig, RebalanceConfig};
use crate::fault::{clip, ClipSlot, DropReason, DropStats, FaultModel};
use crate::routing::RouteTable;
use crate::sim::{LinkEvent, NodeOracle};
use crate::source::{Source, SourceStep};
use crate::stats::PhaseNanos;
use crate::topology::Mesh;
use router_core::{EventWheel, Flit, PacketId, Router, TickOutput};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// The bytes a value written by one shard must own so that no other
/// shard's writes touch its cache lines: two 64-byte lines, because the
/// adjacent-line prefetcher of x86-64 cores fetches lines in pairs
/// (crossbeam's `CachePadded` uses 128 there for the same reason).
/// [`Padded`], [`ShardAux`] and [`ShardOut`] are aligned to it; a unit
/// test checks each against this constant.
pub(crate) const LINE_PAIR: usize = 128;

/// A value on a [`LINE_PAIR`] of its own: aligned to it, and padded to a
/// multiple of it. Each mailbox slot and each word of the gate that
/// changes every round (arrival count, generation, vote) is one.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct Padded<T>(pub(crate) T);

impl<T> Deref for Padded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

// `repr(align)` takes only a literal: hold each one to the constant.
const _: () = assert!(
    std::mem::align_of::<Padded<u8>>() == LINE_PAIR
        && std::mem::align_of::<ShardAux>() == LINE_PAIR
        && std::mem::align_of::<ShardOut>() == LINE_PAIR
);

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
    /// Written by every worker once a round, spun on by the leader.
    arrived: Padded<AtomicUsize>,
    /// Written by the leader once a round, spun on by every worker.
    generation: Padded<AtomicUsize>,
    poisoned: AtomicBool,
}

impl SpinBarrier {
    pub(crate) fn new(parties: usize) -> Self {
        assert!(parties >= 1, "a gate needs at least one party");
        SpinBarrier {
            parties,
            arrived: Padded(AtomicUsize::new(0)),
            generation: Padded(AtomicUsize::new(0)),
            poisoned: AtomicBool::new(false),
        }
    }

    /// Marks the gate dead; every current and future waiter panics.
    pub(crate) fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
    }

    fn check_poison(&self) {
        assert!(!self.poisoned.load(Ordering::Acquire), "{SIBLING_PANIC}");
    }

    /// Worker side: signals arrival and blocks until the leader releases
    /// this episode.
    pub(crate) fn arrive(&self) {
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
    pub(crate) fn wait_followers(&self) {
        let mut spins = 0u32;
        while self.arrived.load(Ordering::Acquire) != self.parties - 1 {
            self.check_poison();
            spin_or_yield(&mut spins);
        }
    }

    /// Leader side: opens the gate. Everything the leader wrote in its
    /// serial section happens-before the workers' post-arrive reads.
    pub(crate) fn release(&self) {
        self.arrived.store(0, Ordering::Release);
        self.generation.fetch_add(1, Ordering::AcqRel);
    }
}

/// Poisons the gate if the holder unwinds, so sibling shards panic out
/// of their waits instead of spinning forever.
pub(crate) struct PoisonGuard<'a>(pub &'a SpinBarrier);

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// The coordination state shared by the leader and every worker: the
/// gate plus the broadcast (stop / fast-forward target) and gather
/// (quiescence vote, rebalance epoch totals) registers around it. Built
/// once per network; [`Lockstep::restart`] rearms it for each era.
#[derive(Debug)]
pub(crate) struct Lockstep {
    pub(crate) gate: SpinBarrier,
    /// Leader → workers: wind down and return.
    pub(crate) stop: AtomicBool,
    /// Leader → workers: the cycle to resume execution at. Equal to the
    /// worker's own cycle counter when no fast-forward was granted;
    /// greater when the skipped cycles should be fast-forwarded instead
    /// of executed.
    pub(crate) skip_to: AtomicU64,
    /// Workers → leader: `fetch_min` of every shard's earliest future
    /// cycle with work. Read and reset by the leader at the gate.
    pub(crate) next_work: Padded<AtomicU64>,
    /// Workers → leader: each shard's work-EWMA total, published at the
    /// end of every rebalance epoch (each shard folds its own slice of
    /// the per-node meters, and the gate's happens-before makes the
    /// totals visible in the next serial section). Unused when
    /// rebalancing is off.
    pub(crate) shard_work: Vec<AtomicU64>,
}

impl Lockstep {
    pub(crate) fn new(parties: usize) -> Self {
        Lockstep {
            gate: SpinBarrier::new(parties),
            stop: AtomicBool::new(false),
            skip_to: AtomicU64::new(0),
            next_work: Padded(AtomicU64::new(u64::MAX)),
            shard_work: (0..parties).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Rearms the registers for an era whose first round executes cycle
    /// `start`. The gate needs no reset: the previous era ended with a
    /// release, and its workers have all returned. `Relaxed` suffices:
    /// this runs before the era's workers are spawned, and spawning a
    /// thread happens-before everything the thread does.
    pub(crate) fn restart(&self, start: u64) {
        self.stop.store(false, Ordering::Relaxed);
        self.skip_to.store(start, Ordering::Relaxed);
        self.next_work.store(u64::MAX, Ordering::Relaxed);
    }

    /// Leader side: takes the round's combined vote and resets the
    /// register for the next one.
    pub(crate) fn take_vote(&self) -> u64 {
        self.next_work.swap(u64::MAX, Ordering::AcqRel)
    }

    /// Leader side: opens the gate into a round that resumes at cycle
    /// `skip_to` (see [`Lockstep::skip_to`]), or, with `stop`, sends the
    /// workers home.
    pub(crate) fn release(&self, skip_to: u64, stop: bool) {
        self.skip_to.store(skip_to, Ordering::Release);
        self.stop.store(stop, Ordering::Release);
        self.gate.release();
    }
}

/// A link event crossing a shard boundary, stamped with the cycle it is
/// due — the cycle a same-shard send would be delivered.
pub(crate) type Mail = (u64, LinkEvent);

/// Preallocated per-shard-pair mailboxes. Slot `(from, to)` is written
/// by shard `from` at the end of its fused compute phase and drained by
/// shard `to` at the start of its next one; the gate between rounds
/// keeps every lock uncontended, and the retained `Vec`s make the
/// exchange allocation-free once capacities plateau.
#[derive(Debug)]
pub(crate) struct Mailboxes {
    shards: usize,
    slots: Vec<Padded<Mutex<Vec<Mail>>>>,
}

impl Mailboxes {
    pub(crate) fn new(shards: usize) -> Self {
        Mailboxes {
            shards,
            slots: (0..shards * shards)
                .map(|_| Padded(Mutex::new(Vec::new())))
                .collect(),
        }
    }

    pub(crate) fn shards(&self) -> usize {
        self.shards
    }

    /// Staged events that satisfy `keep` (emitted but not yet scheduled
    /// by their receiving shard). They live here across a cycle
    /// boundary, so flit conservation and the `wheel_pending` gauge
    /// count them as in flight.
    pub(crate) fn staged(&self, keep: impl Fn(&LinkEvent) -> bool) -> u64 {
        self.slots
            .iter()
            .map(|m| lock_mailbox(m).iter().filter(|(_, e)| keep(e)).count() as u64)
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

/// What one shard reports past the gate. The per-cycle records are
/// filled in node order during the fused phase and drained by the
/// serial commit, so concatenating the shards in index order replays the
/// one-shard schedule's exact event sequence. The rest are running
/// totals, never reset, that the telemetry boundary sums in shard order.
/// Every field is written by its shard each cycle, so each record owns
/// its [`LINE_PAIR`]s.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct ShardOut {
    /// Packets created this cycle, in node order.
    pub created: Vec<PacketId>,
    /// Tail-flit ejections this cycle, in node order: `(packet,
    /// creation cycle, destination node)`.
    pub tails: Vec<(PacketId, u64, u32)>,
    /// Flits ejected this cycle.
    pub ejected: u64,
    /// Packets whose head the fault layer dropped this cycle, in node
    /// order — resolved against the tagged sample at the serial commit.
    pub drops: Vec<PacketId>,
    /// Flits handed to the injection stage so far (pre-clip, so the
    /// telemetry counter matches the sources' own accounting).
    pub injected: u64,
    /// Router ticks executed so far.
    pub ticks: u64,
    /// Cross-shard flits staged into mailboxes so far.
    pub mail_flits: u64,
    /// Cross-shard credits staged into mailboxes so far.
    pub mail_credits: u64,
    /// Drops so far, by reason.
    pub drop_stats: DropStats,
    /// Wall-clock nanoseconds spent so far in the fused phases
    /// `[delivery, sources, router]` — stamped only when tracing is on.
    pub span_nanos: [u64; 3],
    /// Events on this shard's wheel as its last tick phase left them (a
    /// level, not a total). Mail the shard published is not counted
    /// here — its receiver may already have scheduled it.
    pub wheel_pending: u64,
}

/// Per-shard state that persists across cycles (the shard's half of the
/// event-driven machinery plus its outbound mailbox staging). Its shard
/// writes it every cycle, so each one owns its [`LINE_PAIR`]s.
#[derive(Debug)]
#[repr(align(128))]
pub(crate) struct ShardAux {
    /// Every flit and credit in flight to this shard's nodes, keyed by
    /// delivery cycle.
    pub wheel: EventWheel<LinkEvent>,
    /// Reused router tick output buffer.
    pub tick_buf: TickOutput,
    /// Reused source step buffer.
    pub step_buf: SourceStep,
    /// Cycles this shard has *executed* (fast-forwarded cycles are not
    /// counted — no work can happen in them). Every shard executes the
    /// same cycles in lockstep, so this counter is identical across
    /// shards and partition-independent; rebalance epoch boundaries are
    /// measured against it (and it counts only while metering is on).
    pub(crate) executed: u64,
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
            executed: 0,
            busy: false,
            sent_mail: false,
            out_mail: (0..shards).map(|_| Vec::new()).collect(),
        }
    }
}

/// The engine state a `Network` owns next to its flat per-node state:
/// the partition, the per-shard wheels and exchange, and the lockstep
/// (one shard for the serial kinds).
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
    /// The gate and its registers, shared with the workers of a run.
    pub lockstep: Lockstep,
}

/// Rebalance decision state plus the preallocated scratch a migration
/// drains into — sized up front (when the knob is on) so even the first
/// migration allocates nothing.
#[derive(Debug)]
pub(crate) struct RebalanceState {
    /// The knob as the engine applies it: `None` for the serial kinds
    /// and with rebalancing off, which turns metering off too.
    pub(crate) knob: Option<RebalanceConfig>,
    /// Earliest executed-cycle count at which the next migration
    /// decision may fire (imbalance is *metered* every epoch either
    /// way). Starts at 0: the first epoch may decide.
    next_decision: u64,
    /// Current decision backoff, in epochs (see [`MAX_DECISION_STRIDE`]).
    stride: u64,
    /// Every in-flight link event, drained from the wheels and the
    /// mailboxes with its due cycle.
    events: Vec<Mail>,
    /// Row prefix-sum scratch for the weighted cut.
    prefix: Vec<u128>,
    /// The candidate partition the cut computes into.
    new_ranges: Vec<(usize, usize)>,
}

impl RebalanceState {
    fn new(knob: Option<RebalanceConfig>, shards: usize, mesh: &Mesh, horizon: u64) -> Self {
        let enabled = knob.is_some();
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
            knob,
            next_decision: 0,
            stride: 1,
            events: Vec::with_capacity(events),
            prefix: Vec::with_capacity(if enabled { rows + 1 } else { 0 }),
            new_ranges: Vec::with_capacity(if enabled { shards } else { 0 }),
        }
    }

    /// Meters one epoch's imbalance from the shard totals published in
    /// [`Lockstep::shard_work`] and reports whether a migration decision
    /// should fire: the decision backoff has elapsed and `work_max /
    /// work_mean` exceeds `threshold` (compared multiplied out — no
    /// division, so the trigger is exact and deterministic). An all-idle
    /// epoch meters as perfectly balanced and never triggers.
    pub(crate) fn record_epoch(
        &mut self,
        shard_work: &[AtomicU64],
        phases: &mut PhaseNanos,
        executed: u64,
        threshold: f64,
    ) -> bool {
        let s = shard_work.len() as u64;
        let (mut total, mut max) = (0u64, 0u64);
        for w in shard_work {
            let w = w.load(Ordering::Acquire);
            total += w;
            max = max.max(w);
        }
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
    fn after_decision(&mut self, migrated: bool, executed: u64, epoch: u64) {
        if migrated {
            self.stride = 1;
        } else {
            self.stride = (self.stride * 2).min(MAX_DECISION_STRIDE);
        }
        self.next_decision = executed + epoch.saturating_mul(self.stride);
    }
}

impl ShardSet {
    /// Partitions `mesh` into `shards` contiguous shards (clamped to the
    /// node count). `rebalance` is the knob as the engine applies it —
    /// `None` for the serial kinds — and sizes the migration scratch.
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
            rebal: RebalanceState::new(rebalance, s, mesh, horizon),
            lockstep: Lockstep::new(s),
        }
    }

    /// Router ticks executed across all shards.
    pub(crate) fn router_ticks(&self) -> u64 {
        self.outs.iter().map(|o| lock_mailbox(o).ticks).sum()
    }

    /// Acts on a rebalance decision that fired after `executed` cycles:
    /// recuts the partition along the per-node work EWMAs and, when the
    /// cut moved, migrates onto it; then applies the decision backoff.
    pub(crate) fn rebalance(&mut self, mesh: &Mesh, phases: &mut PhaseNanos, executed: u64) {
        let rebal = &mut self.rebal;
        let epoch = rebal
            .knob
            .expect("a rebalance decision requires the knob")
            .epoch;
        let ok = mesh.weighted_shard_ranges_into(
            &self.work_ewma,
            self.ranges.len(),
            &mut rebal.prefix,
            &mut rebal.new_ranges,
        );
        let migrated = ok && rebal.new_ranges != self.ranges;
        if migrated {
            phases.rebalances += 1;
            phases.migrated_nodes += self.migrate();
        }
        self.rebal.after_decision(migrated, executed, epoch);
    }

    /// Repartitions the flat per-node state along `rebal.new_ranges`,
    /// re-homing every in-flight link event onto the wheel of the shard
    /// that now owns its target node. Runs between eras — no worker
    /// holds a shard view — right after an executed cycle `N`, which pins
    /// the timing invariants: every wheel's cursor is at `N`, and every
    /// pending or staged event is due in `(N, N + horizon]` — so every
    /// re-schedule below satisfies the wheels' horizon asserts. Returns
    /// how many nodes changed owner.
    fn migrate(&mut self) -> u64 {
        let rebal = &mut self.rebal;
        debug_assert_eq!(rebal.new_ranges.len(), self.ranges.len());
        // 1. Strip every shard's wheel and the staged boundary mail into
        //    the scratch, due cycles intact.
        rebal.events.clear();
        for aux in &mut self.aux {
            aux.wheel.drain_pending_into(&mut rebal.events);
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
    pub cfg: &'a NetworkConfig,
    pub route_table: &'a RouteTable,
    /// The compiled fault plan, when the run has one. Shared read-only;
    /// every fault decision is a pure function of (plan, seed, cycle),
    /// so shards need no coordination to agree on it.
    pub fault: Option<&'a FaultModel>,
    pub node_shard: &'a [u32],
    pub credit_latency: u64,
    pub vcs: usize,
    pub mail: &'a Mailboxes,
    pub outs: &'a [Mutex<ShardOut>],
    /// Rebalance epoch length in executed cycles; `0` disables metering
    /// entirely (the per-event counter writes are skipped).
    pub rebalance_epoch: u64,
    /// Tick every router, not just the active set (the cycle-driven
    /// oracle).
    pub tick_all: bool,
    /// Whether phase spans are being collected (telemetry + phase
    /// timing): shards add their phase durations to their `ShardOut`
    /// each cycle.
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
    /// The cycle each of this shard's sources is next due to step (the
    /// source wake calendar; see [`ShardCtx::phase_sources`]).
    pub wake: &'a mut [u64],
    pub aux: &'a mut ShardAux,
    /// This shard's slice of the per-node work meters (current epoch).
    pub work_epoch: &'a mut [u64],
    /// This shard's slice of the per-node work EWMAs.
    pub work_ewma: &'a mut [u64],
}

impl ShardCtx<'_> {
    /// Phase 1a: schedules the boundary mail other shards have published
    /// onto this shard's wheel, each event at its stamped due cycle
    /// (exactly where a same-shard send would have put it), then delivers
    /// every event due at `now`. Within the phase the deliveries commute,
    /// so schedule order is as good as node order.
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

    /// Phase 1b: steps this shard's sources that are due at `now`, in
    /// node order, recording the created packet ids for the serial
    /// tagging commit. After its step a source goes back on the wake
    /// calendar: an idle one adds `rate` for each quiet cycle up to its
    /// next threshold crossing at once and sleeps until then, one holding
    /// a packet is due the next cycle (`Source::sleep`). Constant-rate
    /// accumulation thus still adds `rate` exactly once per cycle, in
    /// cycle order. Under `tick_all` every source steps every cycle and
    /// none sleeps, so the cycle-driven oracle checks the calendar.
    pub(crate) fn phase_sources(&mut self, env: &ShardEnv<'_>, now: u64, out: &mut ShardOut) {
        let mesh = env.cfg.mesh;
        let local = mesh.local_port();
        let mut step = std::mem::take(&mut self.aux.step_buf);
        for i in 0..self.sources.len() {
            if !env.tick_all {
                debug_assert!(self.wake[i] >= now, "source {} overslept", self.lo + i);
                if self.wake[i] != now {
                    continue;
                }
            }
            self.sources[i].step_into(now, &mesh, &env.cfg.pattern, &mut step);
            if !env.tick_all {
                self.wake[i] = self.sources[i].sleep(now, env.cfg.max_cycles);
            }
            out.created.extend_from_slice(&step.created);
            if let Some(flit) = step.injected {
                out.injected += 1;
                let vc = usize::from(flit.vc);
                let reason = env.fault.and_then(|fm| {
                    clip(&mut self.clip_in[i * env.vcs + vc], &flit, || {
                        fm.injection_drop(self.lo + i, flit.dest as usize, now, flit.packet)
                    })
                });
                if let Some(reason) = reason {
                    // The flit never enters the network: bounce the
                    // credit the source consumed and account the drop.
                    self.sources[i].credit(vc);
                    self.drops[i].count(reason, flit.kind.is_head());
                    out.drop_stats.count(reason, flit.kind.is_head());
                    if flit.kind.is_head() {
                        out.drops.push(flit.packet);
                    }
                    continue;
                }
                self.aux.wheel.schedule(
                    now + 1 + env.cfg.link_delay,
                    LinkEvent::Flit {
                        node: (self.lo + i) as u32,
                        port: local as u8,
                        flit,
                    },
                );
            }
        }
        self.aux.step_buf = step;
    }

    /// Phase 2: ticks this shard's active routers — every router under
    /// `tick_all` — in node order (the ejection order fills the
    /// tagged-sample log), and retires the ones left quiescent.
    /// Cross-shard departures and credits are staged in the mailboxes at
    /// emission time (stamped with their due cycle); ejections are
    /// recorded for the serial commit.
    pub(crate) fn phase_tick(&mut self, env: &ShardEnv<'_>, now: u64, out: &mut ShardOut) {
        let local = env.cfg.mesh.local_port();
        let metering = env.rebalance_epoch != 0;
        self.aux.busy = false;
        self.aux.sent_mail = false;

        let fault = env.fault.map(|f| (f, f.epoch_at(now)));
        let mut buf = std::mem::take(&mut self.aux.tick_buf);
        for i in 0..self.routers.len() {
            if !(env.tick_all || self.active[i]) {
                continue;
            }
            let node = self.lo + i;
            let oracle = NodeOracle {
                table: env.route_table,
                node,
                fault,
            };
            self.routers[i].tick_into(now, &oracle, &mut buf);
            out.ticks += 1;
            if metering {
                self.work_epoch[i] += W_TICK + buf.departures.len() as u64;
            }
            for dep in buf.departures.drain(..) {
                if env.fault.is_some()
                    && self.clip_departure(env, now, node, dep.out_port, &dep.flit, out)
                {
                    continue;
                }
                if dep.out_port == local {
                    self.eject(env, node, dep.flit, out);
                } else {
                    let ev = LinkEvent::departure(env.route_table, node, dep.out_port, dep.flit);
                    self.send(env, now + 1 + env.cfg.link_delay, ev, out);
                }
            }
            for c in buf.credits.drain(..) {
                let ev = LinkEvent::credit(env.route_table, node, c.in_port, c.vc);
                self.send(env, now + 1 + env.credit_latency, ev, out);
            }
            if self.routers[i].is_quiescent() {
                self.active[i] = false;
            } else {
                self.aux.busy = true;
            }
        }
        out.wheel_pending = self.aux.wheel.pending() as u64;
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
    /// earliest of its pending link events and its sources' wake cycles.
    fn vote(&self, lockstep: &Lockstep, now: u64) {
        let next = if self.aux.busy || self.aux.sent_mail {
            now + 1
        } else {
            let wheel = self.aux.wheel.next_due().unwrap_or(u64::MAX);
            let sources = self.wake.iter().copied().min().unwrap_or(u64::MAX);
            wheel.min(sources)
        };
        lockstep.next_work.fetch_min(next, Ordering::AcqRel);
    }

    /// Counts the just-executed cycle against the rebalance epoch; at an
    /// epoch boundary, folds this shard's slice of the work meters into
    /// the per-node EWMAs (`ewma ← (3·ewma + epoch) / 4`, integer — the
    /// fold is per node, so it is identical under every partition) and
    /// publishes the shard's EWMA total for the leader's next serial
    /// section. No-op when metering is off.
    fn end_cycle(&mut self, env: &ShardEnv<'_>, lockstep: &Lockstep) {
        let epoch = env.rebalance_epoch;
        if epoch == 0 {
            return;
        }
        self.aux.executed += 1;
        if !self.aux.executed.is_multiple_of(epoch) {
            return;
        }
        let mut total = 0u64;
        for (w, e) in self.work_ewma.iter_mut().zip(self.work_epoch.iter_mut()) {
            *w = (*w * 3 + *e) / 4;
            total += *w;
            *e = 0;
        }
        lockstep.shard_work[self.idx].store(total, Ordering::Release);
    }

    /// Executes one full cycle (the fused compute phase) under one lock
    /// of this shard's `ShardOut`, counts it against the rebalance epoch,
    /// and votes. With phase timing on, returns the wall-clock
    /// nanoseconds of `[delivery, sources, router]` (all zero otherwise),
    /// which tracing also adds to the `ShardOut` for the span log.
    pub(crate) fn run_cycle(
        &mut self,
        env: &ShardEnv<'_>,
        lockstep: &Lockstep,
        now: u64,
    ) -> [u64; 3] {
        let mut out = lock_mailbox(&env.outs[self.idx]);
        let mut spans = [0; 3];
        if env.cfg.phase_timing {
            let t0 = Instant::now();
            self.phase_deliver(env, now);
            let t1 = Instant::now();
            self.phase_sources(env, now, &mut out);
            let t2 = Instant::now();
            self.phase_tick(env, now, &mut out);
            spans = [t1 - t0, t2 - t1, t2.elapsed()].map(|d| d.as_nanos() as u64);
            if env.trace {
                for (slot, d) in out.span_nanos.iter_mut().zip(spans) {
                    *slot += d;
                }
            }
        } else {
            self.phase_deliver(env, now);
            self.phase_sources(env, now, &mut out);
            self.phase_tick(env, now, &mut out);
        }
        drop(out);
        self.end_cycle(env, lockstep);
        self.vote(lockstep, now);
        spans
    }

    /// Fast-forwards this shard over the quiescent cycles
    /// `[now, target)`: the wheel skips ahead (debug-asserting that no
    /// pending event is jumped — the vote guarantees it). Sources need
    /// nothing: every one sleeps until `target` or later, its
    /// accumulator already advanced through the skipped cycles.
    pub(crate) fn fast_forward(&mut self, now: u64, target: u64) {
        debug_assert!(target > now, "fast-forward must move forward");
        debug_assert!(
            self.wake.iter().all(|&w| w >= target),
            "fast-forward past a source's wake cycle"
        );
        self.aux.wheel.advance_to(target - 1);
    }

    /// Applies the fault layer to a departure leaving `node` through
    /// `out_port` at `now`, returning `true` when the flit is dropped
    /// (the caller then skips forwarding it). The head flit decides the
    /// packet's fate at each link; bodies and tails follow it via the
    /// clip slot, so wormhole packets are never torn. Credits the
    /// crossbar grant consumed are reclaimed synchronously — dead links
    /// must not leak VC buffers — and the reclaim touches only this
    /// shard's own router, so no mail is needed and the result is
    /// identical under every partition.
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
        let local = env.cfg.mesh.local_port();
        let i = node - self.lo;
        let vc = usize::from(flit.vc);
        let reason = if out_port == local && flit.dest as usize != node {
            // Stranded: adaptive routing found no live candidate and
            // resolved to the sink. The whole packet routes there, so
            // the per-flit check is consistent without a clip slot.
            Some(DropReason::Stranded)
        } else {
            let slot = &mut self.clip_out[(i * env.cfg.mesh.ports() + out_port) * env.vcs + vc];
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
            self.routers[i].accept_credit(out_port, vc, now);
        }
        self.drops[i].count(reason, flit.kind.is_head());
        out.drop_stats.count(reason, flit.kind.is_head());
        if flit.kind.is_head() {
            out.drops.push(flit.packet);
        }
        true
    }

    /// Consumes an ejected flit at its destination ("immediate
    /// ejection"): reassembly and conservation checks happen here; the
    /// order-sensitive sample bookkeeping is deferred to the serial
    /// commit via `out.tails`.
    fn eject(&mut self, env: &ShardEnv<'_>, node: usize, flit: Flit, out: &mut ShardOut) {
        assert_eq!(flit.dest as usize, node, "flit ejected at the wrong node");
        out.ejected += 1;
        // Index-addressed reassembly: flits of one packet arrive on one
        // ejection VC in order and packets never interleave within a VC
        // (the upstream output VC / wormhole hold is held to the tail).
        let slot = &mut self.eject_slots[(node - self.lo) * env.vcs + usize::from(flit.vc)];
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
                received, env.cfg.packet_len,
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
    let _guard = PoisonGuard(&lockstep.gate);
    loop {
        lockstep.gate.arrive();
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
    #[test]
    fn spin_gate_synchronizes_rounds() {
        let parties = 4;
        let gate = SpinBarrier::new(parties);
        let counter = AtomicU64::new(0);
        let rounds = 200u64;
        std::thread::scope(|scope| {
            for _ in 1..parties {
                let (gate, counter) = (&gate, &counter);
                scope.spawn(move || {
                    for _ in 0..rounds {
                        counter.fetch_add(1, Ordering::AcqRel);
                        gate.arrive();
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
    fn shard_records_and_gate_words_own_their_line_pairs() {
        use std::mem::{align_of, size_of};
        let lockstep = Lockstep::new(2);
        let mail = Mailboxes::new(2);
        let line = |addr: usize| addr / LINE_PAIR;
        // The words a round writes: each on a line pair of its own.
        let words = [
            std::ptr::from_ref(&*lockstep.gate.arrived) as usize,
            std::ptr::from_ref(&*lockstep.gate.generation) as usize,
            std::ptr::from_ref(&*lockstep.next_work) as usize,
        ];
        for (i, a) in words.iter().enumerate() {
            assert_eq!(a % LINE_PAIR, 0, "gate word {i}");
            for b in &words[i + 1..] {
                assert_ne!(line(*a), line(*b), "gate words share a line pair");
            }
        }
        for slot in &mail.slots {
            assert_eq!(std::ptr::from_ref(slot) as usize % LINE_PAIR, 0);
        }
        assert!(align_of::<Padded<Mutex<Vec<Mail>>>>() >= LINE_PAIR);
        assert!(align_of::<Padded<AtomicUsize>>() >= LINE_PAIR);
        assert!(align_of::<Padded<AtomicU64>>() >= LINE_PAIR);
        assert!(align_of::<ShardAux>() >= LINE_PAIR);
        assert!(align_of::<ShardOut>() >= LINE_PAIR);
        assert!(align_of::<Mutex<ShardOut>>() >= LINE_PAIR);
        // Alignment rounds each size up, so array neighbours never share.
        assert_eq!(size_of::<ShardAux>() % LINE_PAIR, 0);
        assert_eq!(size_of::<Mutex<ShardOut>>() % LINE_PAIR, 0);
        assert_eq!(size_of::<Padded<Mutex<Vec<Mail>>>>(), LINE_PAIR);
    }

    #[test]
    fn single_party_gate_never_blocks() {
        let gate = SpinBarrier::new(1);
        for _ in 0..10 {
            gate.wait_followers();
            gate.release();
        }
    }

    #[test]
    #[should_panic(expected = "sibling shard panicked")]
    fn poisoned_gate_panics_waiters() {
        let gate = SpinBarrier::new(2);
        gate.poison();
        gate.arrive();
    }

    #[test]
    fn poison_guard_fires_only_on_unwind() {
        let gate = SpinBarrier::new(1);
        {
            let _guard = PoisonGuard(&gate);
        }
        gate.wait_followers(); // not poisoned by a clean drop
        gate.release();

        let gate = std::sync::Arc::new(SpinBarrier::new(2));
        let g = std::sync::Arc::clone(&gate);
        let worker = std::thread::spawn(move || {
            let _guard = PoisonGuard(&g);
            panic!("boom");
        });
        assert!(worker.join().is_err());
        assert!(std::panic::catch_unwind(|| gate.arrive()).is_err());
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
