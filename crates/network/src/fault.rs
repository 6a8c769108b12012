//! The fault-injection layer: compiled fault schedules, the
//! clip-at-head drop rule, drop accounting, and the fault-aware routing
//! overlay.
//!
//! A [`crate::config::FaultSpec`] list on [`NetworkConfig`] compiles
//! into a [`FaultModel`]: one [`LinkFault`] record per *directed* link
//! (including each node's ejection channel and its injection channel),
//! a sorted schedule of permanent-kill cycles, and — only when kills
//! exist — a reachability overlay per kill epoch. Everything here is a
//! pure function of (configuration, seed, cycle, packet id): no clocks,
//! no RNG state, no engine-visible ordering, which is what keeps
//! faulted runs bit-identical across the cycle-driven, event-driven,
//! and sharded engines for any shard count, thread schedule, and live
//! rebalancing migration.
//!
//! **Drop semantics (clip-at-head).** A link decides a packet's fate
//! exactly once, when the *head* flit presents at the link: dead and
//! flaky links consult the link state at that cycle, lossy links a
//! seeded hash of the packet id. Body and tail flits then follow the
//! head's recorded fate (a [`ClipSlot`] per (link, VC)) regardless of
//! later link state, so a packet is always dropped or delivered whole —
//! no partial packets wedge downstream VC buffers. Dropped departures
//! reclaim their upstream credit synchronously (the ejection link
//! consumes none), so credits never leak and the flit-conservation
//! invariant extends cleanly to `injected = ejected + in-flight +
//! buffered + dropped`.
//!
//! **Routing overlay.** Permanent kills partition time into epochs (one
//! per distinct kill cycle). Per epoch the overlay precomputes which
//! (node, dest) pairs can still reach each other through the routing
//! algorithm's own candidate sets with dead links masked out; the hot
//! path then filters the base candidates against it. A filtered choice
//! is always a subset of the healthy turn-model set, so deadlock
//! freedom is inherited; a packet with no live candidate is routed to
//! the local port and dropped there as [`DropReason::Stranded`], and a
//! packet whose destination is unreachable at injection time is dropped
//! at the source as [`DropReason::Unreachable`] — reported, never spun
//! on. Flaky and lossy links deliberately do *not* affect routing: they
//! model transient loss on a link that is still provisioned.

use crate::config::{FaultKind, FaultTarget, NetworkConfig};
use crate::routing::{RouteTable, MAX_CANDIDATES};
use crate::topology::Mesh;
use router_core::{Flit, PacketId};

/// `dead_at` value for a link that never dies.
const NEVER: u64 = u64::MAX;

/// Why a flit (and the packet it belongs to) was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum DropReason {
    /// The link was down (dead past its kill cycle, or inside a flaky
    /// down-window) when the head flit presented.
    LinkDown = 0,
    /// The link was down because the router it touches is dead — the
    /// same mechanism as [`DropReason::LinkDown`], attributed to the
    /// router kill that caused it.
    RouterDead = 1,
    /// A lossy link's seeded per-packet hash came up tails.
    Lossy = 2,
    /// The destination was unreachable when the packet tried to enter
    /// the network; it was refused at the source, not injected to spin.
    Unreachable = 3,
    /// A packet already in flight ran out of live candidate ports after
    /// a kill and was drained out of the network at the router where it
    /// stranded.
    Stranded = 4,
}

/// Number of [`DropReason`] variants (array dimension for counters).
pub const DROP_REASONS: usize = 5;

impl DropReason {
    /// All reasons, in counter-index order.
    pub const ALL: [DropReason; DROP_REASONS] = [
        DropReason::LinkDown,
        DropReason::RouterDead,
        DropReason::Lossy,
        DropReason::Unreachable,
        DropReason::Stranded,
    ];

    /// The snake_case label used in JSON output and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DropReason::LinkDown => "link_down",
            DropReason::RouterDead => "router_dead",
            DropReason::Lossy => "lossy",
            DropReason::Unreachable => "unreachable",
            DropReason::Stranded => "stranded",
        }
    }

    fn from_index(i: u8) -> DropReason {
        Self::ALL[i as usize]
    }
}

/// Flit and packet drop counters by [`DropReason`] — used both as the
/// per-node accumulator (shard-local, order-independent sums) and as
/// the aggregated per-run total in [`crate::sim::RunResult`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropStats {
    /// Dropped flits per reason, indexed by `DropReason as usize`.
    pub flits: [u64; DROP_REASONS],
    /// Dropped packets per reason (counted once, at the head flit).
    pub packets: [u64; DROP_REASONS],
}

impl DropStats {
    /// Counts one dropped flit (and, for a head flit, its packet).
    pub(crate) fn count(&mut self, reason: DropReason, head: bool) {
        self.flits[reason as usize] += 1;
        if head {
            self.packets[reason as usize] += 1;
        }
    }

    /// Folds another counter in (per-node → per-run aggregation).
    pub(crate) fn merge(&mut self, other: &DropStats) {
        for i in 0..DROP_REASONS {
            self.flits[i] += other.flits[i];
            self.packets[i] += other.packets[i];
        }
    }

    /// Total dropped flits across all reasons.
    #[must_use]
    pub fn total_flits(&self) -> u64 {
        self.flits.iter().sum()
    }

    /// Total dropped packets across all reasons.
    #[must_use]
    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }
}

/// Per-(link, VC) carrier of the clip-at-head rule: the fate the head
/// flit decided, held until the tail passes. `state` is explicit
/// because packet id 0 is valid: 0 = free, 1 = passing,
/// `2 + reason as u8` = dropping for that reason.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ClipSlot {
    packet: PacketId,
    state: u8,
}

impl Default for ClipSlot {
    fn default() -> Self {
        ClipSlot {
            packet: PacketId::new(0),
            state: STATE_FREE,
        }
    }
}

const STATE_FREE: u8 = 0;
const STATE_PASS: u8 = 1;
const STATE_DROP: u8 = 2;

/// Applies the clip-at-head rule for one flit crossing a link. The
/// `decide` closure is consulted only for head flits; body and tail
/// flits inherit the fate recorded in `slot`. Single-flit packets
/// (head-tail) never touch the slot. Returns the reason to drop this
/// flit, or `None` to let it pass.
pub(crate) fn clip(
    slot: &mut ClipSlot,
    flit: &Flit,
    decide: impl FnOnce() -> Option<DropReason>,
) -> Option<DropReason> {
    if flit.kind.is_head() {
        let fate = decide();
        if !flit.kind.is_tail() {
            *slot = ClipSlot {
                packet: flit.packet,
                state: match fate {
                    None => STATE_PASS,
                    Some(r) => STATE_DROP + r as u8,
                },
            };
        }
        fate
    } else {
        debug_assert_eq!(slot.packet, flit.packet, "clip slot follows another packet");
        debug_assert_ne!(
            slot.state, STATE_FREE,
            "body flit with no recorded head fate"
        );
        let fate = if slot.state >= STATE_DROP {
            Some(DropReason::from_index(slot.state - STATE_DROP))
        } else {
            None
        };
        if flit.kind.is_tail() {
            slot.state = STATE_FREE;
        }
        fate
    }
}

/// One directed link's compiled fault state (merged from every
/// [`crate::config::FaultSpec`] that names it).
#[derive(Debug, Clone, Copy)]
struct LinkFault {
    /// First cycle the link is permanently down ([`NEVER`] = healthy).
    /// Multiple dead faults merge to the earliest.
    dead_at: u64,
    /// The winning dead fault targeted a router, so drops on this link
    /// count as [`DropReason::RouterDead`].
    dead_router: bool,
    /// `(period, down, phase)` of a flaky duty cycle, if any.
    flaky: Option<(u32, u32, u32)>,
    /// Per-packet drop threshold: drop when the seeded 64-bit packet
    /// hash is below it. 0 = no lossy fault, `u64::MAX` = always drop.
    loss: u64,
}

const HEALTHY: LinkFault = LinkFault {
    dead_at: NEVER,
    dead_router: false,
    flaky: None,
    loss: 0,
};

/// Converts a drop probability to a 64-bit hash threshold. Exact at
/// both ends: 0 never drops, ≥ 1 always drops.
fn loss_threshold(prob: f64) -> u64 {
    if prob >= 1.0 {
        u64::MAX
    } else if prob <= 0.0 {
        0
    } else {
        (prob * 1.8446744073709552e19) as u64 // prob * 2^64, saturating
    }
}

/// Whether a flaky link with this duty cycle is down at `now`.
fn flaky_down(period: u32, down: u32, phase: u32, now: u64) -> bool {
    let p = u64::from(period);
    (now % p + p - u64::from(phase)) % p < u64::from(down)
}

/// The finalizer of `splitmix64` — a full-avalanche 64-bit mix.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The compiled fault plan: per-directed-link fault records, the kill
/// schedule, and (when kills exist) the per-epoch reachability overlay.
/// Built once per run by [`crate::sim::Network`]; never mutated after.
#[derive(Debug)]
pub struct FaultModel {
    nodes: usize,
    /// `mesh.ports()` — real output ports plus the local (ejection)
    /// port.
    ports: usize,
    /// `mesh.local_port()`.
    local: usize,
    /// Directed links per node: the `ports` output links plus the
    /// injection pseudo-link at index `ports`.
    stride: usize,
    seed: u64,
    /// Per directed link, indexed `node * stride + port`.
    links: Box<[LinkFault]>,
    /// Sorted distinct kill cycles — the epoch boundaries. Epoch `e`
    /// covers cycles in `[kills[e-1], kills[e])` (epoch 0 precedes the
    /// first kill).
    kills: Vec<u64>,
    /// Distinct flaky duty cycles present anywhere in the plan (for
    /// fast-forward clamping).
    flaky: Vec<(u32, u32, u32)>,
    overlay: Option<Overlay>,
}

/// Per-epoch reachability bits, laid out `(epoch * nodes + node) *
/// nodes + dest`.
#[derive(Debug)]
struct Overlay {
    reach: Box<[u64]>,
}

impl FaultModel {
    /// Compiles the configuration's fault plan. `None` when the plan is
    /// empty — the healthy fast path stays exactly today's code.
    /// Expects a validated configuration (`cfg.validate()` has bounds-
    /// and collision-checked the specs).
    #[must_use]
    pub fn new(cfg: &NetworkConfig, table: &RouteTable) -> Option<FaultModel> {
        if cfg.faults.is_empty() {
            return None;
        }
        let mesh = cfg.mesh;
        let nodes = mesh.nodes();
        let ports = mesh.ports();
        let local = mesh.local_port();
        let stride = ports + 1;
        let mut links = vec![HEALTHY; nodes * stride].into_boxed_slice();
        let apply = |lf: &mut LinkFault, kind: FaultKind, router: bool| match kind {
            FaultKind::Dead { at } => {
                if at < lf.dead_at {
                    lf.dead_at = at;
                    lf.dead_router = router;
                } else if at == lf.dead_at {
                    lf.dead_router |= router;
                }
            }
            FaultKind::Flaky {
                period,
                down,
                phase,
            } => lf.flaky = Some((period, down, phase)),
            FaultKind::Lossy { prob } => lf.loss = loss_threshold(prob),
        };
        for spec in &cfg.faults {
            match spec.target {
                FaultTarget::Link { node, port } => {
                    apply(&mut links[node * stride + port], spec.kind, false);
                }
                FaultTarget::Router { node } => {
                    // The whole router: every outgoing link, every
                    // incoming link (the neighbor's opposite port), the
                    // ejection channel, and the injection pseudo-link.
                    for port in 0..local {
                        if let Some(nb) = table.neighbor(node, port) {
                            apply(&mut links[node * stride + port], spec.kind, true);
                            apply(&mut links[nb * stride + (port ^ 1)], spec.kind, true);
                        }
                    }
                    apply(&mut links[node * stride + local], spec.kind, true);
                    apply(&mut links[node * stride + ports], spec.kind, true);
                }
            }
        }
        let mut kills: Vec<u64> = links
            .iter()
            .filter(|lf| lf.dead_at != NEVER)
            .map(|lf| lf.dead_at)
            .collect();
        kills.sort_unstable();
        kills.dedup();
        let mut flaky: Vec<(u32, u32, u32)> = links.iter().filter_map(|lf| lf.flaky).collect();
        flaky.sort_unstable();
        flaky.dedup();
        let mut fm = FaultModel {
            nodes,
            ports,
            local,
            stride,
            seed: cfg.seed,
            links,
            kills,
            flaky,
            overlay: None,
        };
        if !fm.kills.is_empty() {
            fm.overlay = Some(fm.build_overlay(&mesh, table));
        }
        Some(fm)
    }

    /// The kill epoch in force at `now`: the number of kill cycles at
    /// or before it.
    #[must_use]
    pub fn epoch_at(&self, now: u64) -> usize {
        self.kills.partition_point(|&k| k <= now)
    }

    /// Number of kill epochs (1 with no permanent kills).
    #[must_use]
    pub fn epochs(&self) -> usize {
        self.kills.len() + 1
    }

    /// Whether the directed link out of `node` through `port` is
    /// permanently dead in kill epoch `e`.
    fn dead_in_epoch(&self, e: usize, node: usize, port: usize) -> bool {
        e > 0 && self.links[node * self.stride + port].dead_at <= self.kills[e - 1]
    }

    /// Whether packets at `node` can still reach `dest` through the
    /// routing algorithm's candidate sets in kill epoch `epoch`
    /// (including `dest`'s own ejection channel being alive). Always
    /// true when the plan schedules no permanent kills.
    #[must_use]
    pub fn reachable(&self, epoch: usize, node: usize, dest: usize) -> bool {
        match &self.overlay {
            None => true,
            Some(ov) => {
                let i = (epoch * self.nodes + node) * self.nodes + dest;
                ov.reach[i / 64] >> (i % 64) & 1 == 1
            }
        }
    }

    /// Ordered (src, dst) pairs (`src != dst`) whose destination is
    /// unreachable in the epoch in force at `now`. 0 without kills.
    #[must_use]
    pub fn unreachable_pairs(&self, now: u64) -> u64 {
        if self.overlay.is_none() {
            return 0;
        }
        let e = self.epoch_at(now);
        let mut count = 0;
        for s in 0..self.nodes {
            for d in 0..self.nodes {
                if s != d && !self.reachable(e, s, d) {
                    count += 1;
                }
            }
        }
        count
    }

    /// Fault-aware routing: the base candidate set filtered to live
    /// ports whose downstream node can still reach `dest` in `epoch`.
    /// With no live candidate the packet is routed to the local port —
    /// drained out of the network and dropped there as
    /// [`DropReason::Stranded`]. With no kills in the plan (or in epoch
    /// 0) the filter keeps every candidate in base order, so the choice
    /// is bit-identical to [`RouteTable::route`].
    #[must_use]
    pub fn route(
        &self,
        table: &RouteTable,
        epoch: usize,
        node: usize,
        dest: usize,
        selector: u64,
    ) -> usize {
        if self.overlay.is_none() {
            return table.route(node, dest, selector);
        }
        let mut cand = [0u8; MAX_CANDIDATES];
        let n = table.candidates_into(node, dest, &mut cand);
        let mut live = [0u8; MAX_CANDIDATES];
        let mut m = 0;
        for &pc in &cand[..n] {
            let p = pc as usize;
            if p == self.local {
                // At the destination: the ejection link's own fault (if
                // any) clips the flit there, not here.
                return p;
            }
            if !self.dead_in_epoch(epoch, node, p)
                && table
                    .neighbor(node, p)
                    .is_some_and(|nb| self.reachable(epoch, nb, dest))
            {
                live[m] = pc;
                m += 1;
            }
        }
        if m == 0 {
            return self.local; // stranded: drain to ejection, drop there
        }
        live[(selector as usize) % m] as usize
    }

    /// The head-crossing drop decision for the directed link out of
    /// `node` through `port` (the ejection channel included) at `now`.
    /// `None` = the packet passes.
    #[must_use]
    pub fn link_drop(
        &self,
        node: usize,
        port: usize,
        now: u64,
        packet: PacketId,
    ) -> Option<DropReason> {
        debug_assert!(port < self.ports);
        self.drop_at(node * self.stride + port, now, packet)
    }

    /// The head-crossing drop decision at `node`'s injection channel,
    /// including the unreachable-destination check. A refused packet is
    /// dropped at the source with its injection credits bounced back.
    #[must_use]
    pub fn injection_drop(
        &self,
        node: usize,
        dest: usize,
        now: u64,
        packet: PacketId,
    ) -> Option<DropReason> {
        if let Some(r) = self.drop_at(node * self.stride + self.ports, now, packet) {
            return Some(r);
        }
        if !self.reachable(self.epoch_at(now), node, dest) {
            return Some(DropReason::Unreachable);
        }
        None
    }

    fn drop_at(&self, idx: usize, now: u64, packet: PacketId) -> Option<DropReason> {
        let lf = &self.links[idx];
        if lf.dead_at <= now {
            return Some(if lf.dead_router {
                DropReason::RouterDead
            } else {
                DropReason::LinkDown
            });
        }
        if let Some((period, down, phase)) = lf.flaky {
            if flaky_down(period, down, phase, now) {
                return Some(DropReason::LinkDown);
            }
        }
        if lf.loss != 0 {
            let h = splitmix64(splitmix64(self.seed ^ packet.value()) ^ idx as u64);
            if lf.loss == u64::MAX || h < lf.loss {
                return Some(DropReason::Lossy);
            }
        }
        None
    }

    /// The earliest scheduled fault transition at or after `now`: a
    /// kill cycle, or a flaky up↔down boundary. `u64::MAX` when nothing
    /// is scheduled. Quiescence fast-forward clamps its skip target to
    /// this, so a scheduled fault acts as a wake-up event and skipping
    /// never jumps over a state change.
    #[must_use]
    pub fn next_transition_at_or_after(&self, now: u64) -> u64 {
        let mut t = NEVER;
        let i = self.kills.partition_point(|&k| k < now);
        if i < self.kills.len() {
            t = self.kills[i];
        }
        for &(period, down, phase) in &self.flaky {
            let p = u64::from(period);
            for edge in [u64::from(phase), (u64::from(phase) + u64::from(down)) % p] {
                let delta = (edge + p - now % p) % p;
                t = t.min(now.saturating_add(delta));
            }
        }
        t
    }

    /// The per-epoch reachability DP. For each destination, nodes are
    /// visited in increasing topological distance: every base candidate
    /// is a minimal (strictly distance-decreasing) move, even on a
    /// torus, so each node's bit only depends on already-computed,
    /// strictly closer neighbors. The base case is the destination's
    /// own ejection channel — a dead router (which kills its ejection
    /// link) makes every pair targeting it unreachable.
    fn build_overlay(&self, mesh: &Mesh, table: &RouteTable) -> Overlay {
        let n = self.nodes;
        let epochs = self.epochs();
        let mut reach = vec![0u64; (epochs * n * n).div_ceil(64)].into_boxed_slice();
        let mut order: Vec<u32> = (0..n as u32).collect();
        let mut cand = [0u8; MAX_CANDIDATES];
        for d in 0..n {
            order.sort_unstable_by_key(|&s| mesh.distance(s as usize, d));
            for e in 0..epochs {
                for &su in &order {
                    let s = su as usize;
                    let ok = if s == d {
                        !self.dead_in_epoch(e, d, self.local)
                    } else {
                        let m = table.candidates_into(s, d, &mut cand);
                        cand[..m].iter().any(|&pc| {
                            let p = pc as usize;
                            debug_assert_ne!(p, self.local, "non-local pair routed local");
                            !self.dead_in_epoch(e, s, p)
                                && table.neighbor(s, p).is_some_and(|nb| {
                                    let i = (e * n + nb) * n + d;
                                    reach[i / 64] >> (i % 64) & 1 == 1
                                })
                        })
                    };
                    if ok {
                        let i = (e * n + s) * n + d;
                        reach[i / 64] |= 1 << (i % 64);
                    }
                }
            }
        }
        Overlay { reach }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{parse_faults, RouterKind};
    use router_core::FlitKind;

    fn cfg_with(mesh: Mesh, spec: &str) -> NetworkConfig {
        let mut cfg = NetworkConfig::for_mesh(
            mesh,
            RouterKind::VirtualChannel {
                vcs: 2,
                buffers_per_vc: 4,
            },
        );
        cfg.faults = parse_faults(spec).expect("spec parses");
        cfg.validate().expect("spec validates");
        cfg
    }

    fn model(mesh: Mesh, spec: &str) -> (FaultModel, RouteTable) {
        let cfg = cfg_with(mesh, spec);
        let table = RouteTable::new(&cfg.mesh, cfg.routing, 2);
        let fm = FaultModel::new(&cfg, &table).expect("non-empty plan");
        (fm, table)
    }

    #[test]
    fn empty_plan_compiles_to_none() {
        let cfg = NetworkConfig::mesh(
            4,
            RouterKind::VirtualChannel {
                vcs: 2,
                buffers_per_vc: 4,
            },
        );
        let table = RouteTable::new(&cfg.mesh, cfg.routing, 2);
        assert!(FaultModel::new(&cfg, &table).is_none());
    }

    #[test]
    fn dead_link_drops_from_its_cycle_on() {
        let m = Mesh::new(4, 2);
        let (fm, _) = model(m, "link:5:0:dead@100");
        let p = PacketId::new(7);
        assert_eq!(fm.link_drop(5, 0, 99, p), None);
        assert_eq!(fm.link_drop(5, 0, 100, p), Some(DropReason::LinkDown));
        assert_eq!(fm.link_drop(5, 0, 40_000, p), Some(DropReason::LinkDown));
        // Other links (including the reverse direction) stay healthy.
        assert_eq!(fm.link_drop(6, 1, 40_000, p), None);
    }

    #[test]
    fn router_death_covers_every_incident_link_and_attributes_itself() {
        let m = Mesh::new(4, 2);
        let (fm, _) = model(m, "router:5:dead@50");
        let p = PacketId::new(1);
        // Outgoing, incoming (neighbor's opposite port), ejection, and
        // injection all die at once, all attributed to the router.
        for port in 0..m.ports() {
            if port == m.local_port() || m.neighbor(5, port).is_some() {
                assert_eq!(fm.link_drop(5, port, 50, p), Some(DropReason::RouterDead));
            }
        }
        let west = m.neighbor(5, 1).unwrap();
        assert_eq!(fm.link_drop(west, 0, 50, p), Some(DropReason::RouterDead));
        assert_eq!(fm.injection_drop(5, 0, 50, p), Some(DropReason::RouterDead));
        // A link not incident to node 5 is untouched.
        assert_eq!(fm.link_drop(10, 0, 50, p), None);
    }

    #[test]
    fn earliest_dead_fault_wins_the_merge() {
        let m = Mesh::new(4, 2);
        let (fm, _) = model(m, "link:5:0:dead@300,link:5:0:dead@100");
        assert_eq!(fm.link_drop(5, 0, 99, PacketId::new(0)), None);
        assert_eq!(
            fm.link_drop(5, 0, 100, PacketId::new(0)),
            Some(DropReason::LinkDown)
        );
        assert_eq!(fm.epochs(), 2, "merged kills collapse to one epoch edge");
    }

    #[test]
    fn flaky_window_follows_the_duty_cycle() {
        let m = Mesh::new(4, 2);
        let (fm, _) = model(m, "link:1:0:flaky@8/3/2");
        let p = PacketId::new(9);
        for cycle in 0..32u64 {
            let down = matches!(cycle % 8, 2..=4);
            assert_eq!(
                fm.link_drop(1, 0, cycle, p).is_some(),
                down,
                "cycle {cycle}"
            );
        }
    }

    #[test]
    fn lossy_is_deterministic_and_respects_extremes() {
        let m = Mesh::new(4, 2);
        let (fm, _) = model(m, "link:1:0:loss@0.5");
        let mut dropped = 0;
        for id in 0..1000 {
            let a = fm.link_drop(1, 0, 5, PacketId::new(id));
            let b = fm.link_drop(1, 0, 900, PacketId::new(id));
            assert_eq!(a, b, "pure function of packet id, not cycle");
            if a.is_some() {
                assert_eq!(a, Some(DropReason::Lossy));
                dropped += 1;
            }
        }
        assert!(
            (300..700).contains(&dropped),
            "about half drop, got {dropped}"
        );
        let (always, _) = model(m, "link:1:0:loss@1.0");
        let (never, _) = model(m, "link:1:0:loss@0.0");
        for id in 0..100 {
            assert_eq!(
                always.link_drop(1, 0, 0, PacketId::new(id)),
                Some(DropReason::Lossy)
            );
            assert_eq!(never.link_drop(1, 0, 0, PacketId::new(id)), None);
        }
    }

    #[test]
    fn overlay_masks_dead_links_and_counts_unreachable_pairs() {
        // Kill node 5's router on a 4x4 DOR mesh at cycle 100: nothing
        // can target node 5 afterwards, and DOR pairs whose unique path
        // crosses node 5 lose reachability too.
        let m = Mesh::new(4, 2);
        let (fm, table) = model(m, "router:5:dead@100");
        assert_eq!(fm.epochs(), 2);
        // Epoch 0: everything reachable, routing identical to the base
        // table.
        for s in 0..16 {
            for d in 0..16 {
                assert!(fm.reachable(0, s, d), "epoch 0 is healthy");
                assert_eq!(fm.route(&table, 0, s, d, 3), table.route(s, d, 3));
            }
        }
        assert_eq!(fm.unreachable_pairs(99), 0);
        // Epoch 1: node 5 is gone. DOR from 4 to 6 must cross it.
        assert!(!fm.reachable(1, 0, 5), "dead destination");
        assert!(!fm.reachable(1, 5, 0), "dead source cannot inject");
        assert!(!fm.reachable(1, 4, 6), "DOR path through the corpse");
        assert!(fm.reachable(1, 0, 15), "distant pairs unaffected");
        let pairs = fm.unreachable_pairs(100);
        assert!(pairs >= 30, "at least the 2·15 dead-router pairs: {pairs}");
        assert_eq!(
            fm.unreachable_pairs(99),
            0,
            "the epoch in force at `now` decides"
        );
        // A stranded packet at node 4 destined for 6 routes local.
        assert_eq!(fm.route(&table, 1, 4, 6, 0), m.local_port());
    }

    #[test]
    fn adaptive_overlay_reroutes_around_a_dead_link() {
        // Negative-first on a 4x4 mesh adaptively offers both
        // productive ports for a (+x, +y) correction; killing one must
        // leave the pair reachable through the other.
        let m = Mesh::new(4, 2);
        let mut cfg = cfg_with(m, "link:0:0:dead@10");
        cfg = cfg.with_routing(crate::config::RoutingAlgo::NegativeFirstAdaptive);
        cfg.validate().expect("valid");
        let table = RouteTable::new(&cfg.mesh, cfg.routing, 2);
        let fm = FaultModel::new(&cfg, &table).expect("plan");
        assert!(fm.reachable(1, 0, 5), "reroute via +y then +x");
        let port = fm.route(&table, 1, 0, 5, 0);
        assert_eq!(port, m.port(1, true), "only the +y candidate survives");
        // A pair with only the dead port productive is stranded.
        assert!(!fm.reachable(1, 0, 1), "(+x only) has no detour");
    }

    #[test]
    fn next_transition_clamps_to_kills_and_flaky_edges() {
        let m = Mesh::new(4, 2);
        let (fm, _) = model(m, "link:5:0:dead@1000,link:1:0:flaky@64/16");
        // Flaky edges at multiples of 64 (down) and 64k+16 (up).
        assert_eq!(fm.next_transition_at_or_after(0), 0);
        assert_eq!(fm.next_transition_at_or_after(1), 16);
        assert_eq!(fm.next_transition_at_or_after(17), 64);
        assert_eq!(fm.next_transition_at_or_after(960), 960);
        // Past the last flaky edge before the kill, the kill wins.
        let (dead_only, _) = model(m, "link:5:0:dead@1000");
        assert_eq!(dead_only.next_transition_at_or_after(7), 1000);
        assert_eq!(dead_only.next_transition_at_or_after(1000), 1000);
        assert_eq!(dead_only.next_transition_at_or_after(1001), NEVER);
    }

    #[test]
    fn clip_holds_the_head_fate_to_the_tail() {
        let mut slot = ClipSlot::default();
        let head = Flit::head(PacketId::new(0), 3, 0, 0);
        let mut body = head;
        body.kind = FlitKind::Body;
        let mut tail = head;
        tail.kind = FlitKind::Tail;
        // Head decides drop; body and tail follow without re-deciding.
        assert_eq!(
            clip(&mut slot, &head, || Some(DropReason::Lossy)),
            Some(DropReason::Lossy)
        );
        assert_eq!(
            clip(&mut slot, &body, || panic!("body never re-decides")),
            Some(DropReason::Lossy)
        );
        assert_eq!(
            clip(&mut slot, &tail, || panic!("tail never re-decides")),
            Some(DropReason::Lossy)
        );
        // Slot freed: the next packet decides afresh, pass this time.
        assert_eq!(clip(&mut slot, &head, || None), None);
        assert_eq!(clip(&mut slot, &tail, || unreachable!()), None);
        // Single-flit packets never touch the slot.
        let mut ht = head;
        ht.kind = FlitKind::HeadTail;
        assert_eq!(
            clip(&mut slot, &ht, || Some(DropReason::LinkDown)),
            Some(DropReason::LinkDown)
        );
        assert_eq!(slot.state, STATE_FREE);
    }

    #[test]
    fn drop_stats_count_and_merge() {
        let mut a = DropStats::default();
        a.count(DropReason::Lossy, true);
        a.count(DropReason::Lossy, false);
        a.count(DropReason::Stranded, true);
        let mut b = DropStats::default();
        b.count(DropReason::Lossy, true);
        b.merge(&a);
        assert_eq!(b.flits[DropReason::Lossy as usize], 3);
        assert_eq!(b.packets[DropReason::Lossy as usize], 2);
        assert_eq!(b.total_flits(), 4);
        assert_eq!(b.total_packets(), 3);
    }
}
