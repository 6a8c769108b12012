//! Constant-rate traffic sources with a credit-aware network interface.
//!
//! A source generates fixed-length packets at a constant rate (fractional
//! rates accumulate), queues them, and injects flits over the local
//! channel into its router — one flit per cycle, subject to credit flow
//! control, interleaving up to `v` packets across the injection port's
//! virtual channels exactly as a network interface would. Packet latency
//! is measured from *creation* (entering the source queue), so source
//! queueing time counts, per the paper.
//!
//! # The queue holds 16-byte records
//!
//! Past saturation a source's queue grows without bound (hundreds of
//! packets per source by the end of a saturated run), so a queued
//! packet is only what cannot be recomputed: its creation cycle and
//! destination. Its id is not stored. Every created packet draws the
//! next sequence number and joins the back of the queue, and a
//! permutation fixed point (a packet addressed to its own node) is
//! skipped before it draws one, so the queue holds consecutive sequence
//! numbers. A packet that claims an injection VC takes the front one,
//! and only then becomes a [`PacketFlits`] cursor.

use arbitration::RoundRobinArbiter;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use router_core::{Flit, PacketFlits, PacketId};
use std::collections::VecDeque;

use crate::topology::Mesh;
use crate::traffic::TrafficPattern;

/// Packet-id encoding: the low `SEQ_BITS` bits hold the source's packet
/// sequence number, the high bits the source node id. The simulator's
/// index-addressed measurement structures rely on this split.
pub(crate) const SEQ_BITS: u32 = 40;

/// The node that created `id`.
#[inline]
pub(crate) fn packet_source(id: PacketId) -> usize {
    (id.value() >> SEQ_BITS) as usize
}

/// The per-source sequence number of `id`.
#[inline]
pub(crate) fn packet_seq(id: PacketId) -> u64 {
    id.value() & ((1u64 << SEQ_BITS) - 1)
}

/// A packet waiting in a source's queue: 16 bytes, where a
/// [`PacketFlits`] cursor takes 24. The id is rebuilt when the packet
/// claims an injection VC (see the module docs).
#[derive(Debug, Clone, Copy)]
struct Queued {
    /// The cycle the packet was created.
    created: u64,
    /// The destination node.
    dest: u32,
}

/// What a source did in one cycle.
#[derive(Debug, Clone, Default)]
pub struct SourceStep {
    /// Flit injected into the local channel this cycle, if any.
    pub injected: Option<Flit>,
    /// Packets created (entered the source queue) this cycle.
    pub created: Vec<PacketId>,
}

/// A constant-rate source attached to one node.
#[derive(Debug, Clone)]
pub struct Source {
    node: usize,
    rate: f64,
    packet_len: u8,
    accum: f64,
    next_seq: u64,
    rng: SmallRng,
    /// Whole packets waiting for an injection VC, oldest first; the
    /// front one has sequence number `front_seq` and the rest follow it
    /// consecutively (see the module docs).
    queue: VecDeque<Queued>,
    /// The sequence number of the packet at the front of `queue`.
    front_seq: u64,
    /// The packet occupying each injection VC, if any (remaining flits
    /// are generated on demand).
    slots: Vec<Option<PacketFlits>>,
    /// Credits into the router's local input port, per VC.
    credits: Vec<u64>,
    vc_pick: RoundRobinArbiter,
    /// Reusable scratch for the per-cycle injection arbitration.
    ready_buf: Vec<bool>,
    /// Total packets created (for diagnostics).
    pub packets_created: u64,
    /// Total flits injected (for diagnostics).
    pub flits_injected: u64,
}

impl Source {
    /// Creates a source for `node` generating `rate` packets/cycle of
    /// `packet_len` flits, with `vcs` injection VCs of `credits_per_vc`
    /// buffers downstream.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative rate or zero-length packets.
    #[must_use]
    pub fn new(
        node: usize,
        rate: f64,
        packet_len: u8,
        vcs: usize,
        credits_per_vc: u64,
        seed: u64,
    ) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "bad injection rate {rate}");
        assert!(packet_len >= 1, "packets need at least one flit");
        assert!(vcs >= 1, "need at least one injection VC");
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (node as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // Random initial phase: without it every source fires its k-th
        // packet in the same cycle, turning "constant rate" into
        // network-wide synchronized bursts.
        let accum = rand::Rng::gen_range(&mut rng, 0.0..1.0);
        Source {
            node,
            rate,
            packet_len,
            accum,
            next_seq: 0,
            rng,
            queue: VecDeque::new(),
            front_seq: 0,
            slots: vec![None; vcs],
            credits: vec![credits_per_vc; vcs],
            vc_pick: RoundRobinArbiter::new(vcs),
            ready_buf: vec![false; vcs],
            packets_created: 0,
            flits_injected: 0,
        }
    }

    /// The node this source feeds.
    #[must_use]
    pub fn node(&self) -> usize {
        self.node
    }

    /// The id of this source's packet with sequence number `seq`.
    fn packet_id(&self, seq: u64) -> PacketId {
        PacketId::new(((self.node as u64) << SEQ_BITS) | seq)
    }

    /// Packets queued or mid-injection (backlog; grows without bound past
    /// saturation).
    #[must_use]
    pub fn backlog(&self) -> usize {
        self.queue.len() + self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Returns one credit for injection VC `vc`.
    pub fn credit(&mut self, vc: usize) {
        self.credits[vc] += 1;
    }

    /// Advances the source one cycle: possibly creates packets, claims
    /// free injection VCs, and injects at most one flit.
    pub fn step(&mut self, now: u64, mesh: &Mesh, pattern: &TrafficPattern) -> SourceStep {
        let mut out = SourceStep::default();
        self.step_into(now, mesh, pattern, &mut out);
        out
    }

    /// [`Source::step`] into a caller-retained buffer, so a simulator
    /// stepping thousands of sources per cycle reuses one `created`
    /// allocation instead of building a fresh `Vec` whenever a packet is
    /// generated. `out` is cleared first.
    pub fn step_into(
        &mut self,
        now: u64,
        mesh: &Mesh,
        pattern: &TrafficPattern,
        out: &mut SourceStep,
    ) {
        out.injected = None;
        out.created.clear();

        // Fast path: nothing queued, nothing mid-injection, and the rate
        // accumulator cannot cross 1.0 this cycle — the step is pure
        // accumulation. Bit-exact shortcut of the full path below (the
        // `accum + rate` comparison is the same addition the slow path
        // performs, and an arbiter without requests does not move).
        if self.accum + self.rate < 1.0
            && self.queue.is_empty()
            && self.slots.iter().all(Option::is_none)
        {
            self.accum += self.rate;
            return;
        }

        // Constant-rate generation with fractional accumulation.
        self.accum += self.rate;
        while self.accum >= 1.0 {
            self.accum -= 1.0;
            let dest = pattern.destination(mesh, self.node, &mut self.rng);
            if dest == self.node {
                continue; // permutation fixed point: nothing to send
            }
            out.created.push(self.packet_id(self.next_seq));
            self.next_seq += 1;
            self.packets_created += 1;
            // `NetworkConfig::validate` caps the mesh at 2^24 nodes.
            self.queue.push_back(Queued {
                created: now,
                dest: dest as u32,
            });
        }

        // Claim free VCs for waiting packets, front of the queue first.
        for vc in 0..self.slots.len() {
            if self.slots[vc].is_none() {
                let Some(q) = self.queue.pop_front() else {
                    break;
                };
                let id = self.packet_id(self.front_seq);
                self.front_seq += 1;
                // At most 64 VCs per port, so a VC id fits a byte.
                self.slots[vc] = Some(PacketFlits::new(
                    id,
                    q.dest,
                    vc as u8,
                    q.created,
                    self.packet_len,
                ));
            }
        }

        // Inject one flit from a VC with work and credit.
        for (r, (s, &c)) in self
            .ready_buf
            .iter_mut()
            .zip(self.slots.iter().zip(&self.credits))
        {
            *r = s.is_some() && c > 0;
        }
        if let Some(vc) = self.vc_pick.arbitrate(&self.ready_buf) {
            let slot = self.slots[vc].as_mut().expect("ready slot is nonempty");
            let flit = slot.next().expect("claimed packets have flits left");
            if slot.is_exhausted() {
                self.slots[vc] = None;
            }
            self.credits[vc] -= 1;
            self.flits_injected += 1;
            out.injected = Some(flit);
        }
    }

    /// Puts the source on the wake calendar after its step at `now`,
    /// returning the cycle it must next be stepped at.
    ///
    /// A source holding a packet, queued or mid-injection, is due at
    /// `now + 1`. An idle one would take [`Source::step_into`]'s
    /// pure-accumulation fast path every cycle until its accumulator
    /// crosses 1.0, so it performs those cycles' `accum + rate` additions
    /// here, at once — the same additions in the same order, each done
    /// once, so the accumulator is bit-identical to stepping — and wakes
    /// on the cycle whose addition would cross (a crossing consumes RNG
    /// state, so that step is never done early). The additions stop at
    /// cycle `end` (the run's cycle limit), which then wakes the source.
    /// A rate too small to move the accumulator (0, or a denormal) never
    /// crosses, and the source never wakes.
    pub(crate) fn sleep(&mut self, now: u64, end: u64) -> u64 {
        if !(self.queue.is_empty() && self.slots.iter().all(Option::is_none)) {
            return now + 1;
        }
        if self.accum + self.rate == self.accum {
            return u64::MAX;
        }
        let mut wake = now + 1;
        while wake < end && self.accum + self.rate < 1.0 {
            self.accum += self.rate;
            wake += 1;
        }
        wake
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use router_core::FlitKind;

    fn mesh() -> Mesh {
        Mesh::new(4, 2)
    }

    #[test]
    fn zero_rate_generates_nothing() {
        let mut s = Source::new(0, 0.0, 5, 1, 4, 1);
        for now in 0..100 {
            let step = s.step(now, &mesh(), &TrafficPattern::Uniform);
            assert!(step.injected.is_none());
            assert!(step.created.is_empty());
        }
    }

    #[test]
    fn rate_one_quarter_creates_every_fourth_cycle() {
        let mut s = Source::new(0, 0.25, 5, 1, 100, 1);
        let created: usize = (0..400)
            .map(|now| s.step(now, &mesh(), &TrafficPattern::Uniform).created.len())
            .sum();
        assert_eq!(created, 100);
    }

    #[test]
    fn injects_one_flit_per_cycle_when_backlogged() {
        let mut s = Source::new(0, 1.0, 5, 1, 1000, 1);
        let mut injected = 0;
        for now in 0..50 {
            if s.step(now, &mesh(), &TrafficPattern::Uniform)
                .injected
                .is_some()
            {
                injected += 1;
            }
        }
        assert_eq!(injected, 50, "link is the bottleneck: exactly 1/cycle");
    }

    #[test]
    fn credits_gate_injection() {
        let mut s = Source::new(0, 1.0, 5, 1, 2, 1);
        let mut injected = 0;
        for now in 0..20 {
            if s.step(now, &mesh(), &TrafficPattern::Uniform)
                .injected
                .is_some()
            {
                injected += 1;
            }
        }
        assert_eq!(injected, 2, "only two credits available");
        s.credit(0);
        assert!(s
            .step(100, &mesh(), &TrafficPattern::Uniform)
            .injected
            .is_some());
    }

    #[test]
    fn packets_do_not_interleave_within_a_vc() {
        let mut s = Source::new(0, 0.5, 3, 1, 1000, 1);
        let mut flits = Vec::new();
        for now in 0..120 {
            if let Some(f) = s.step(now, &mesh(), &TrafficPattern::Uniform).injected {
                flits.push(f);
            }
        }
        // Within VC 0, flits must be strictly sequential per packet.
        let mut current: Option<PacketId> = None;
        for f in flits {
            match f.kind {
                FlitKind::Head | FlitKind::HeadTail => {
                    assert!(current.is_none(), "head while packet open");
                    if f.kind == FlitKind::Head {
                        current = Some(f.packet);
                    }
                }
                FlitKind::Body => assert_eq!(current, Some(f.packet)),
                FlitKind::Tail => {
                    assert_eq!(current, Some(f.packet));
                    current = None;
                }
            }
        }
    }

    #[test]
    fn two_vcs_interleave_two_packets() {
        let mut s = Source::new(0, 1.0, 5, 2, 1000, 1);
        let mut vcs_seen = std::collections::HashSet::new();
        for now in 0..10 {
            if let Some(f) = s.step(now, &mesh(), &TrafficPattern::Uniform).injected {
                vcs_seen.insert(f.vc);
            }
        }
        assert_eq!(vcs_seen.len(), 2, "both injection VCs active");
    }

    #[test]
    fn created_flits_carry_creation_time() {
        let mut s = Source::new(0, 1.0, 2, 1, 100, 1);
        let step = s.step(42, &mesh(), &TrafficPattern::Uniform);
        assert_eq!(step.created.len(), 1);
        let f = step.injected.expect("injects immediately");
        assert_eq!(f.created, 42);
    }

    #[test]
    fn transpose_diagonal_never_injects() {
        // Transpose maps diagonal nodes to themselves; the source must
        // skip those injections entirely — no packet created, no flit
        // injected, no id reported — so latency tagging and throughput
        // accounting only ever see real traffic.
        let diag = Mesh::new(4, 2).node_at(&[2, 2]);
        let mut s = Source::new(diag, 1.0, 5, 2, 100, 9);
        for now in 0..500 {
            let step = s.step(now, &mesh(), &TrafficPattern::Transpose);
            assert!(step.created.is_empty(), "fixed point produced a packet");
            assert!(step.injected.is_none(), "fixed point injected a flit");
        }
        assert_eq!(s.packets_created, 0);
        assert_eq!(s.flits_injected, 0);
        assert_eq!(s.backlog(), 0);
    }

    #[test]
    fn transpose_off_diagonal_injects_normally() {
        // Off-diagonal sources are unaffected by the fixed-point skip.
        let src = Mesh::new(4, 2).node_at(&[1, 3]);
        let mut s = Source::new(src, 0.25, 5, 1, 1000, 9);
        let created: usize = (0..400)
            .map(|now| {
                s.step(now, &mesh(), &TrafficPattern::Transpose)
                    .created
                    .len()
            })
            .sum();
        assert_eq!(created, 100, "full configured rate off the diagonal");
        assert!(s.flits_injected > 0);
    }

    #[test]
    fn a_queued_packet_is_16_bytes() {
        assert_eq!(std::mem::size_of::<Queued>(), 16);
    }

    #[test]
    fn backlogged_transpose_sources_inject_what_a_packet_flits_queue_would() {
        // Every node of a 4x4 mesh under transpose, backlogged at one
        // 5-flit packet per cycle; the diagonal nodes are fixed points.
        // The reference keeps each created packet whole, as a
        // `PacketFlits` cursor with the id it was created with, and
        // claims VCs by the source's rule; every injected flit (id, seq,
        // dest, created, vc) must be the one the reference's cursor on
        // that VC produces.
        let m = mesh();
        for node in 0..m.nodes() {
            let c = m.coords(node);
            let dest = m.node_at(&[c[1], c[0]]) as u32;
            let mut s = Source::new(node, 1.0, 5, 2, 1_000, 3);
            let mut queue: VecDeque<(PacketId, u64)> = VecDeque::new();
            let mut slots: [Option<PacketFlits>; 2] = [None; 2];
            let mut injected = 0;
            for now in 0..300 {
                let step = s.step(now, &m, &TrafficPattern::Transpose);
                for &id in &step.created {
                    queue.push_back((id, now));
                }
                for (vc, slot) in slots.iter_mut().enumerate() {
                    if slot.is_none_or(|p| p.is_exhausted()) {
                        let Some((id, created)) = queue.pop_front() else {
                            break;
                        };
                        *slot = Some(PacketFlits::new(id, dest, vc as u8, created, 5));
                    }
                }
                if let Some(flit) = step.injected {
                    let want = slots[usize::from(flit.vc)]
                        .as_mut()
                        .and_then(Iterator::next);
                    assert_eq!(Some(flit), want, "node {node}, cycle {now}");
                    injected += 1;
                }
            }
            if dest as usize == node {
                assert_eq!((injected, s.packets_created), (0, 0), "node {node}");
            } else {
                assert_eq!(injected, 300, "node {node} injects every cycle");
                assert!(s.backlog() > 200, "node {node} is backlogged");
            }
        }
    }

    #[test]
    fn fixed_points_draw_no_sequence_number() {
        // A hotspot on the source's own node makes about half of its
        // draws fixed points, interleaved with real packets. Created ids
        // stay consecutive, and each injected head carries the id its
        // packet was created with (one crossing per cycle, so the
        // creation cycle names the packet).
        let node = 5;
        let pattern = TrafficPattern::Hotspot {
            hotspot: node,
            hotness: 0.5,
        };
        let mut s = Source::new(node, 1.0, 4, 2, 1_000, 11);
        let mut created_at = std::collections::HashMap::new();
        let mut heads = 0;
        for now in 0..400 {
            let step = s.step(now, &mesh(), &pattern);
            for &id in &step.created {
                assert_eq!(packet_source(id), node);
                assert_eq!(
                    packet_seq(id),
                    created_at.len() as u64,
                    "ids are consecutive"
                );
                created_at.insert(id, now);
            }
            if let Some(f) = step.injected.filter(|f| f.kind.is_head()) {
                assert_eq!(created_at.get(&f.packet), Some(&f.created), "{f}");
                assert_ne!(f.dest as usize, node);
                heads += 1;
            }
        }
        assert!(
            (100..300).contains(&created_at.len()),
            "{} of 400 draws were real packets",
            created_at.len()
        );
        assert!(heads >= 100, "one flit per cycle injects {heads} heads");
    }

    #[test]
    fn sleeping_replays_the_stepped_accumulator() {
        // One source steps every cycle; its clone steps only when its
        // wake calendar says so. At every cycle the sleeper steps, both
        // must create the same packets and inject the same flit, and the
        // skipped cycles must have done nothing but accumulate. The
        // cycle limit stops the last sleep, so the two end on the same
        // accumulator bits.
        let end = 3_000;
        for rate in [0.01, 0.24999, 0.3, 0.9, 1.5] {
            let mut stepped = Source::new(3, rate, 5, 2, 100, 42);
            let mut sleeper = stepped.clone();
            let mut wake = 0;
            let mut woken = 0;
            for now in 0..end {
                let a = stepped.step(now, &mesh(), &TrafficPattern::Uniform);
                if now < wake {
                    assert!(a.created.is_empty() && a.injected.is_none(), "rate {rate}");
                    continue;
                }
                assert_eq!(now, wake, "rate {rate}: a wake cycle was skipped");
                let b = sleeper.step(now, &mesh(), &TrafficPattern::Uniform);
                assert_eq!(a.created, b.created, "rate {rate}, cycle {now}");
                assert_eq!(a.injected, b.injected, "rate {rate}, cycle {now}");
                wake = sleeper.sleep(now, end);
                woken += 1;
            }
            assert_eq!(wake, end, "rate {rate}: the cycle limit wakes");
            assert_eq!(
                sleeper.accum.to_bits(),
                stepped.accum.to_bits(),
                "rate {rate}"
            );
            assert_eq!(sleeper.packets_created, stepped.packets_created);
            if rate == 0.01 {
                // 0.05 flits per cycle: the source sleeps most cycles.
                assert!(woken < end / 2, "rate {rate}: woke {woken} times");
            }
        }
        // A rate that cannot move the accumulator never wakes, however
        // far off the cycle limit is, and leaves the accumulator alone.
        for rate in [0.0, 1e-320] {
            let mut s = Source::new(3, rate, 5, 2, 100, 42);
            let _ = s.step(0, &mesh(), &TrafficPattern::Uniform);
            let accum = s.accum.to_bits();
            assert_eq!(s.sleep(0, 1 << 40), u64::MAX, "rate {rate}");
            assert_eq!(s.accum.to_bits(), accum, "rate {rate}");
        }
    }

    #[test]
    fn a_source_holding_a_packet_wakes_next_cycle() {
        let mut s = Source::new(0, 0.5, 3, 1, 100, 1);
        // Step until a crossing puts a packet in a slot.
        let mut now = 0;
        loop {
            let _ = s.step(now, &mesh(), &TrafficPattern::Uniform);
            if s.backlog() > 0 {
                break;
            }
            now += 1;
        }
        let accum = s.accum.to_bits();
        assert_eq!(s.sleep(now, u64::MAX), now + 1, "mid-injection is due");
        assert_eq!(s.accum.to_bits(), accum, "a due source accumulates nothing");
    }

    #[test]
    fn packet_ids_are_unique_across_sources() {
        let mut a = Source::new(1, 1.0, 1, 1, 100, 7);
        let mut b = Source::new(2, 1.0, 1, 1, 100, 7);
        let mut ids = std::collections::HashSet::new();
        for now in 0..50 {
            for s in [&mut a, &mut b] {
                for id in s.step(now, &mesh(), &TrafficPattern::Uniform).created {
                    assert!(ids.insert(id), "duplicate packet id {id}");
                }
            }
        }
    }
}
