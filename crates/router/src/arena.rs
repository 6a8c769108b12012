//! The arena backing every input-VC flit buffer of a router.
//!
//! A router with `p` ports × `v` VCs × `b` buffers used to keep `p·v`
//! separate `VecDeque<Flit>`s — `p·v` heap blocks walked in a random
//! order every cycle. A [`FlitArena`] replaces them with **one**
//! contiguous slab of `p·v·b` slots; each virtual channel is a
//! fixed-capacity ring window of `b` slots at offset `ring · b`. The
//! whole router's buffered state now lives in one allocation with
//! predictable stride, so the per-cycle pipeline walk stays in cache,
//! and no queue operation ever touches the allocator.
//!
//! A slot is 32 bytes: the 24-byte [`Flit`] and the cycle it arrived in
//! this buffer. The arrival cycle decides when a buffered flit may bid
//! (it is input-VC state, `invc_state` in the paper), so it stays here
//! and never travels with the flit: [`FlitArena::push_back`] takes it,
//! and [`FlitArena::front`] and [`FlitArena::pop_front`] hand it back.
//!
//! Credit flow control bounds every ring's occupancy by construction,
//! which is what makes the fixed capacity safe: a push past capacity is
//! an upstream credit-accounting bug and panics.

use crate::flit::{Flit, PacketId};

/// Placeholder stored in never-written slots (rings are windows into one
/// slab, so the slab must be fully initialized up front).
const EMPTY_SLOT: (Flit, u64) = (
    Flit {
        packet: PacketId::new(0),
        created: 0,
        dest: 0,
        seq: 0,
        len: 1,
        kind: crate::flit::FlitKind::HeadTail,
        vc: 0,
    },
    0,
);

/// One contiguous slab of fixed-capacity flit rings (see module docs).
///
/// Ring indices are dense `0..rings`; a router maps `(port, vc)` to
/// `port * vcs + vc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlitArena {
    /// Every ring's flits, each with the cycle it arrived.
    slots: Box<[(Flit, u64)]>,
    /// Per ring: the index of the front flit within the ring's window,
    /// and the occupancy.
    rings: Box<[Ring]>,
    /// Capacity of each ring (the per-VC buffer depth).
    capacity: u32,
}

/// Where one ring's flits sit in its window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Ring {
    head: u32,
    len: u32,
}

impl FlitArena {
    /// Creates an arena of `rings` rings of `capacity` slots each.
    ///
    /// # Panics
    ///
    /// Panics if `rings == 0` or `capacity == 0` (a bufferless VC cannot
    /// accept any flit), or if the slab size overflows `u32` indexing.
    #[must_use]
    pub fn new(rings: usize, capacity: usize) -> Self {
        assert!(rings > 0, "an arena needs at least one ring");
        assert!(capacity > 0, "rings need at least one flit slot");
        let capacity = u32::try_from(capacity).expect("ring capacity fits u32");
        let total = rings
            .checked_mul(capacity as usize)
            .expect("arena size overflow");
        FlitArena {
            slots: vec![EMPTY_SLOT; total].into_boxed_slice(),
            rings: vec![Ring::default(); rings].into_boxed_slice(),
            capacity,
        }
    }

    /// Number of rings.
    #[must_use]
    pub fn rings(&self) -> usize {
        self.rings.len()
    }

    /// Capacity of every ring, in flits.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity as usize
    }

    /// Occupancy of `ring`, in flits.
    #[must_use]
    pub fn len(&self, ring: usize) -> usize {
        self.rings[ring].len as usize
    }

    /// Whether `ring` holds no flit.
    #[must_use]
    pub fn is_empty(&self, ring: usize) -> bool {
        self.rings[ring].len == 0
    }

    /// Whether `ring` is at capacity.
    #[must_use]
    pub fn is_full(&self, ring: usize) -> bool {
        self.rings[ring].len == self.capacity
    }

    /// Total flits buffered across all rings (diagnostics; O(rings)).
    #[must_use]
    pub fn total_len(&self) -> usize {
        self.rings.iter().map(|r| r.len as usize).sum()
    }

    /// The slab index of position `i` within `ring`'s window.
    #[inline]
    fn slot(&self, ring: usize, i: u32) -> usize {
        let cap = self.capacity;
        let wrapped = {
            let j = self.rings[ring].head + i;
            if j >= cap {
                j - cap
            } else {
                j
            }
        };
        ring * cap as usize + wrapped as usize
    }

    /// The flit at the front of `ring` and the cycle it arrived, if any.
    #[inline]
    #[must_use]
    pub fn front(&self, ring: usize) -> Option<(&Flit, u64)> {
        if self.rings[ring].len == 0 {
            None
        } else {
            let (flit, arrival) = &self.slots[self.slot(ring, 0)];
            Some((flit, *arrival))
        }
    }

    /// Enqueues a flit that arrived at cycle `arrival` at the back of
    /// `ring`.
    ///
    /// # Panics
    ///
    /// Panics if the ring is full — upstream credit accounting must make
    /// this impossible.
    #[inline]
    pub fn push_back(&mut self, ring: usize, flit: Flit, arrival: u64) {
        let l = self.rings[ring].len;
        assert!(
            l < self.capacity,
            "input VC buffer overflow: credits out of sync ({l} flits, cap {})",
            self.capacity
        );
        let idx = self.slot(ring, l);
        self.slots[idx] = (flit, arrival);
        self.rings[ring].len = l + 1;
    }

    /// Dequeues the front flit of `ring` and the cycle it arrived, if
    /// any.
    #[inline]
    pub fn pop_front(&mut self, ring: usize) -> Option<(Flit, u64)> {
        let r = self.rings[ring];
        if r.len == 0 {
            return None;
        }
        let idx = self.slot(ring, 0);
        let slot = self.slots[idx];
        let head = r.head + 1;
        self.rings[ring] = Ring {
            head: if head == self.capacity { 0 } else { head },
            len: r.len - 1,
        };
        Some(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::Flit;

    fn f(n: u64) -> Flit {
        Flit::head(PacketId::new(n), 3, 0, n)
    }

    #[test]
    fn fifo_order_within_a_ring() {
        let mut a = FlitArena::new(4, 3);
        a.push_back(2, f(1), 1);
        a.push_back(2, f(2), 2);
        assert_eq!(a.front(2).unwrap().0.packet, PacketId::new(1));
        assert_eq!(a.pop_front(2).unwrap().0.packet, PacketId::new(1));
        assert_eq!(a.pop_front(2).unwrap().0.packet, PacketId::new(2));
        assert_eq!(a.pop_front(2), None);
    }

    #[test]
    fn rings_are_independent() {
        let mut a = FlitArena::new(3, 2);
        a.push_back(0, f(10), 10);
        a.push_back(2, f(20), 20);
        assert_eq!(a.len(0), 1);
        assert!(a.is_empty(1));
        assert_eq!(a.front(2).unwrap().0.packet, PacketId::new(20));
        assert_eq!(a.pop_front(1), None);
        assert_eq!(a.total_len(), 2);
    }

    #[test]
    fn wraparound_preserves_order() {
        let mut a = FlitArena::new(1, 3);
        for n in 1..=3 {
            a.push_back(0, f(n), 10 * n);
        }
        assert!(a.is_full(0));
        assert_eq!(a.pop_front(0), Some((f(1), 10)));
        a.push_back(0, f(4), 40); // wraps into the freed slot
        assert_eq!(a.front(0), Some((&f(2), 20)));
        for n in 2..=4 {
            assert_eq!(a.pop_front(0), Some((f(n), 10 * n)), "arrival rides along");
        }
        assert!(a.is_empty(0));
    }

    #[test]
    fn sustained_churn_wraps_many_times() {
        let mut a = FlitArena::new(2, 4);
        let mut next = 0u64;
        let mut expect = 0u64;
        for round in 0..50 {
            let burst = 1 + round % 4;
            for _ in 0..burst {
                a.push_back(1, f(next), next);
                next += 1;
            }
            for _ in 0..burst {
                assert_eq!(a.pop_front(1), Some((f(expect), expect)));
                expect += 1;
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut a = FlitArena::new(1, 1);
        a.push_back(0, f(1), 1);
        a.push_back(0, f(2), 2);
    }

    #[test]
    #[should_panic(expected = "at least one flit slot")]
    fn zero_capacity_rejected() {
        let _ = FlitArena::new(1, 0);
    }

    #[test]
    fn a_slot_is_32_bytes() {
        let a = FlitArena::new(2, 4);
        assert_eq!(std::mem::size_of_val(&*a.slots), 8 * 32);
    }
}
