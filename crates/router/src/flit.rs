//! Flits — the flow-control digits packets are divided into.
//!
//! A [`Flit`] carries what the paper's flit carries on the wire — its
//! packet, type, VC id and the head's route (the destination) — plus
//! the packet's creation cycle for latency statistics. Everything that
//! depends on when the flit reached a router belongs to the router's
//! input VC (`invc_state` in the paper's Figures 2–3), so the flit has
//! no arrival field: the [`crate::FlitArena`] stores each buffered
//! flit's arrival cycle beside it. The fields are as narrow as the
//! simulator allows, which makes a flit 24 bytes:
//!
//! * `dest: u32` — packet ids keep the source node in 24 bits, so no
//!   network this simulator builds has more nodes than a `u32` holds;
//! * `seq` and `len: u8` — packets have 1 to 255 flits;
//! * `vc: u8` — a router has at most 64 input channels.

use std::fmt;

/// A unique packet identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(u64);

impl PacketId {
    /// Creates a packet id.
    #[must_use]
    pub const fn new(id: u64) -> Self {
        PacketId(id)
    }

    /// The raw id.
    #[must_use]
    pub const fn value(self) -> u64 {
        self.0
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// Flit type, decoded by the input controller on arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlitKind {
    /// Head flit: carries the destination, triggers routing and
    /// VC/switch allocation.
    Head,
    /// Body flit: inherits the resources reserved by its head.
    Body,
    /// Tail flit: inherits resources and releases them on departure.
    Tail,
    /// A single-flit packet: head and tail at once.
    HeadTail,
}

impl FlitKind {
    /// Whether this flit opens a packet (carries routing information).
    #[must_use]
    pub fn is_head(self) -> bool {
        matches!(self, FlitKind::Head | FlitKind::HeadTail)
    }

    /// Whether this flit closes a packet (releases resources).
    #[must_use]
    pub fn is_tail(self) -> bool {
        matches!(self, FlitKind::Tail | FlitKind::HeadTail)
    }
}

/// A flit in flight: 24 bytes, copied on every hop.
///
/// Only what travels on the wire is here. The cycle a flit entered its
/// current input buffer is router state: the [`crate::FlitArena`] keeps
/// it beside the flit, so departures and link events never carry it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// Cycle the packet was created at the source (for latency stats).
    pub created: u64,
    /// Destination node id (decoded from the head; carried on every flit
    /// for simulator convenience — real body flits inherit it from state).
    pub dest: u32,
    /// Position of the flit within its packet, 0 for the head.
    pub seq: u8,
    /// Total packet length in flits (carried in the head's size field;
    /// replicated on every flit for simulator convenience). Needed by
    /// virtual cut-through admission. Low-level constructors default it
    /// to `seq + 1`; [`Flit::packet`] sets it correctly.
    pub len: u8,
    /// Flit type.
    pub kind: FlitKind,
    /// Virtual-channel id field; rewritten at each hop to the output VC.
    pub vc: u8,
}

impl Flit {
    /// Creates a head flit (packet length defaults to 1; use
    /// [`Flit::packet`] or set `len` for multi-flit packets).
    #[must_use]
    pub fn head(packet: PacketId, dest: u32, vc: u8, created: u64) -> Self {
        Flit {
            packet,
            created,
            dest,
            seq: 0,
            len: 1,
            kind: FlitKind::Head,
            vc,
        }
    }

    /// Creates a body flit.
    #[must_use]
    pub fn body(packet: PacketId, dest: u32, vc: u8, created: u64, seq: u8) -> Self {
        Flit {
            packet,
            created,
            dest,
            seq,
            len: seq + 1,
            kind: FlitKind::Body,
            vc,
        }
    }

    /// Creates a tail flit.
    #[must_use]
    pub fn tail(packet: PacketId, dest: u32, vc: u8, created: u64, seq: u8) -> Self {
        Flit {
            packet,
            created,
            dest,
            seq,
            len: seq + 1,
            kind: FlitKind::Tail,
            vc,
        }
    }

    /// Builds the flit sequence of an entire packet of `len ≥ 1` flits.
    ///
    /// Allocates one `Vec` per call; hot paths (the traffic sources) use
    /// [`PacketFlits`] instead, which generates the same sequence with no
    /// allocation at all.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[must_use]
    pub fn packet(packet: PacketId, dest: u32, vc: u8, created: u64, len: u8) -> Vec<Flit> {
        PacketFlits::new(packet, dest, vc, created, len).collect()
    }
}

/// An allocation-free generator of a packet's flit sequence.
///
/// Where [`Flit::packet`] materializes a `Vec<Flit>` per packet — one heap
/// allocation on every injection, millions over a sweep — `PacketFlits` is
/// a 24-byte `Copy` cursor that synthesizes each flit on demand. A traffic
/// source keeps one per injection VC and pops flits as credits allow, so
/// the flit path performs no per-packet allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketFlits {
    packet: PacketId,
    created: u64,
    dest: u32,
    vc: u8,
    len: u8,
    next: u8,
}

impl PacketFlits {
    /// A cursor over the `len ≥ 1` flits of one packet.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    #[must_use]
    pub fn new(packet: PacketId, dest: u32, vc: u8, created: u64, len: u8) -> Self {
        assert!(len >= 1, "a packet needs at least one flit");
        PacketFlits {
            packet,
            created,
            dest,
            vc,
            len,
            next: 0,
        }
    }

    /// The packet being generated.
    #[must_use]
    pub fn packet(&self) -> PacketId {
        self.packet
    }

    /// Flits not yet generated.
    #[must_use]
    pub fn remaining(&self) -> u32 {
        u32::from(self.len - self.next)
    }

    /// Whether every flit has been generated.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.next >= self.len
    }
}

impl Iterator for PacketFlits {
    type Item = Flit;

    fn next(&mut self) -> Option<Flit> {
        if self.next >= self.len {
            return None;
        }
        let seq = self.next;
        self.next += 1;
        let kind = if self.len == 1 {
            FlitKind::HeadTail
        } else if seq == 0 {
            FlitKind::Head
        } else if seq == self.len - 1 {
            FlitKind::Tail
        } else {
            FlitKind::Body
        };
        Some(Flit {
            packet: self.packet,
            created: self.created,
            dest: self.dest,
            seq,
            len: self.len,
            kind,
            vc: self.vc,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for PacketFlits {}

impl fmt::Display for Flit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{:?} seq={} dest={} vc={}]",
            self.packet, self.kind, self.seq, self.dest, self.vc
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_and_tail_predicates() {
        assert!(FlitKind::Head.is_head());
        assert!(!FlitKind::Head.is_tail());
        assert!(FlitKind::Tail.is_tail());
        assert!(FlitKind::HeadTail.is_head() && FlitKind::HeadTail.is_tail());
        assert!(!FlitKind::Body.is_head() && !FlitKind::Body.is_tail());
    }

    #[test]
    fn five_flit_packet_structure() {
        let flits = Flit::packet(PacketId::new(1), 9, 0, 100, 5);
        assert_eq!(flits.len(), 5);
        assert_eq!(flits[0].kind, FlitKind::Head);
        assert!(flits[1..4].iter().all(|f| f.kind == FlitKind::Body));
        assert_eq!(flits[4].kind, FlitKind::Tail);
        assert!(flits
            .iter()
            .enumerate()
            .all(|(i, f)| usize::from(f.seq) == i));
        assert!(flits.iter().all(|f| f.dest == 9 && f.created == 100));
    }

    #[test]
    fn single_flit_packet_is_headtail() {
        let flits = Flit::packet(PacketId::new(2), 3, 1, 0, 1);
        assert_eq!(flits.len(), 1);
        assert_eq!(flits[0].kind, FlitKind::HeadTail);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_rejected() {
        let _ = Flit::packet(PacketId::new(3), 0, 0, 0, 0);
    }

    #[test]
    fn packet_flits_matches_vec_constructor() {
        for len in [1u8, 2, 5, 9] {
            let gen: Vec<Flit> = PacketFlits::new(PacketId::new(7), 3, 1, 42, len).collect();
            assert_eq!(gen, Flit::packet(PacketId::new(7), 3, 1, 42, len));
        }
    }

    #[test]
    fn packet_flits_tracks_remaining_and_vc_rewrite() {
        let mut p = PacketFlits::new(PacketId::new(1), 9, 0, 0, 3);
        assert_eq!(p.remaining(), 3);
        assert_eq!(p.len(), 3);
        let head = p.next().unwrap();
        assert_eq!(head.kind, FlitKind::Head);
        assert_eq!(head.vc, 0);
        assert!(!p.is_exhausted());
        let _ = p.next().unwrap();
        assert_eq!(p.next().unwrap().kind, FlitKind::Tail);
        assert!(p.is_exhausted());
        assert_eq!(p.next(), None);
        // A source stamps the injection VC by building the cursor when
        // the packet claims one: on another VC it yields the same flits
        // but for their VC.
        let on_vc0 = PacketFlits::new(PacketId::new(1), 9, 0, 0, 3);
        let on_vc2 = PacketFlits::new(PacketId::new(1), 9, 2, 0, 3);
        for (a, b) in on_vc0.zip(on_vc2) {
            assert_eq!(b.vc, 2);
            assert_eq!(Flit { vc: 0, ..b }, a);
        }
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn packet_flits_rejects_zero_length() {
        let _ = PacketFlits::new(PacketId::new(1), 0, 0, 0, 0);
    }

    #[test]
    fn flit_and_cursor_are_24_bytes() {
        assert_eq!(std::mem::size_of::<Flit>(), 24);
        assert_eq!(std::mem::size_of::<PacketFlits>(), 24);
    }

    #[test]
    fn display_is_informative() {
        let f = Flit::head(PacketId::new(42), 7, 1, 5);
        let s = f.to_string();
        assert!(s.contains("pkt#42"));
        assert!(s.contains("dest=7"));
    }
}
