//! The calendar wheel every engine schedules wire crossings on.
//!
//! A synchronous network's wires have small fixed latencies: an item sent
//! during the switch-traversal phase of cycle `t` over a wire of latency
//! `L` spends cycles `t+1 ..= t+L` on it and is delivered at the start of
//! cycle `t + 1 + L` (with the paper's 1-cycle propagation delay, a flit
//! switched at `t` arrives downstream at `t + 2`). An [`EventWheel`]
//! holds such items themselves, keyed by delivery cycle: a ring of
//! `horizon` slots indexed by `cycle % horizon` suffices — no heap, no
//! ordering, O(1) schedule and drain. Items due in the same cycle come
//! out in push order, so a wire of one latency keeps its FIFO order.

/// A bounded calendar queue: schedule items at future cycles, drain the
/// items due at the current cycle in O(1).
///
/// The wheel is a ring of `horizon` slots; an item scheduled for cycle `t`
/// lives in slot `t % horizon`, so every schedule must land within
/// `horizon` cycles of the current drain cursor — the natural fit for a
/// synchronous network whose longest wire latency is a small constant.
/// Slot buffers are recycled via [`EventWheel::take_due`] /
/// [`EventWheel::restore`], so steady-state operation performs no
/// allocation.
#[derive(Debug, Clone)]
pub struct EventWheel<T> {
    slots: Vec<Vec<T>>,
    /// Cycle of the last `take_due`, for schedule-range checking.
    cursor: Option<u64>,
}

impl<T> EventWheel<T> {
    /// Creates a wheel able to schedule up to `horizon ≥ 1` cycles ahead.
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0`.
    #[must_use]
    pub fn new(horizon: u64) -> Self {
        assert!(horizon >= 1, "the wheel needs at least one slot");
        let horizon = usize::try_from(horizon).expect("horizon fits in usize");
        EventWheel {
            slots: (0..horizon).map(|_| Vec::new()).collect(),
            cursor: None,
        }
    }

    /// Creates a wheel like [`EventWheel::new`] whose slots start with
    /// room for `per_slot` items each. A caller that can bound how many
    /// items fall due in one cycle thereby never makes the wheel
    /// allocate again.
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0`.
    #[must_use]
    pub fn with_slot_capacity(horizon: u64, per_slot: usize) -> Self {
        let mut wheel = Self::new(horizon);
        for slot in &mut wheel.slots {
            slot.reserve_exact(per_slot);
        }
        wheel
    }

    /// How many cycles ahead the wheel can schedule.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        self.slots.len() as u64
    }

    /// Schedules `item` for cycle `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is not strictly after the last drained cycle or is
    /// beyond the wheel's horizon (the slot still holds an earlier
    /// cycle). Before the first [`EventWheel::take_due`] the drain cursor
    /// is taken to be the start of time: `at` must lie below the horizon.
    pub fn schedule(&mut self, at: u64, item: T) {
        match self.cursor {
            Some(cursor) => assert!(
                at > cursor && at - cursor <= self.horizon(),
                "schedule({at}) outside ({cursor}, {cursor} + {}]",
                self.horizon()
            ),
            None => assert!(
                at < self.horizon(),
                "schedule({at}) beyond the horizon {} before any drain",
                self.horizon()
            ),
        }
        let idx = (at % self.horizon()) as usize;
        self.slots[idx].push(item);
    }

    /// Takes the items due at cycle `now` (possibly empty). Pass the
    /// buffer back through [`EventWheel::restore`] after processing so its
    /// capacity is reused.
    #[must_use]
    pub fn take_due(&mut self, now: u64) -> Vec<T> {
        self.cursor = Some(now);
        let idx = (now % self.horizon()) as usize;
        std::mem::take(&mut self.slots[idx])
    }

    /// Returns a drained buffer to the slot it came from, keeping its
    /// allocation for future schedules.
    pub fn restore(&mut self, now: u64, mut buf: Vec<T>) {
        buf.clear();
        let idx = (now % self.horizon()) as usize;
        // Keep whichever buffer has more capacity; same-cycle schedules
        // may already have repopulated the slot.
        if self.slots[idx].is_empty() && self.slots[idx].capacity() < buf.capacity() {
            self.slots[idx] = buf;
        }
    }

    /// Total items currently scheduled.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Every scheduled item, in no particular order (for accounting that
    /// must look inside the wheel, such as counting items of one kind).
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().flatten()
    }

    /// The earliest cycle with an item scheduled, or `None` if the wheel
    /// is empty. Every pending item lives within `horizon` cycles of the
    /// drain cursor, so one pass over the ring suffices — this is what
    /// lets a quiescent engine ask "when is the next event?" and
    /// fast-forward to it instead of draining empty slots cycle by cycle.
    #[must_use]
    pub fn next_due(&self) -> Option<u64> {
        let horizon = self.horizon();
        match self.cursor {
            Some(cursor) => (1..=horizon)
                .map(|dt| cursor + dt)
                .find(|at| !self.slots[(at % horizon) as usize].is_empty()),
            // Before the first drain every schedule lands below the
            // horizon, so the slot index *is* the cycle.
            None => (0..horizon).find(|at| !self.slots[*at as usize].is_empty()),
        }
    }

    /// Drains every pending item into `into` as `(due_cycle, item)` pairs,
    /// leaving the wheel empty (cursor and slot capacities intact).
    ///
    /// Each slot holds items for exactly one cycle of the horizon window,
    /// so the due cycle is recoverable from the slot index: after a drain
    /// at `cursor` the slot for offset `dt ∈ [1, horizon]` is
    /// `(cursor + dt) % horizon`; before any drain the slot index *is*
    /// the cycle. This is the migration primitive that lets pending
    /// events be re-scheduled onto a different wheel with the same
    /// cursor.
    pub fn drain_pending_into(&mut self, into: &mut Vec<(u64, T)>) {
        let horizon = self.horizon();
        let base = self.cursor.map_or(0, |c| c + 1);
        for dt in 0..horizon {
            let at = base + dt;
            let idx = (at % horizon) as usize;
            for item in self.slots[idx].drain(..) {
                into.push((at, item));
            }
        }
    }

    /// Advances the drain cursor as if [`EventWheel::take_due`] had been
    /// called for every cycle through `now` and found nothing — the
    /// fast-forward primitive for quiescent stretches.
    ///
    /// The caller must know the skipped cycles were empty (i.e. `now` is
    /// below [`EventWheel::next_due`]); this is debug-asserted, because a
    /// violation would silently drop scheduled items.
    pub fn advance_to(&mut self, now: u64) {
        debug_assert!(
            self.next_due().is_none_or(|due| due > now),
            "advance_to({now}) would skip a delivery due at {:?}",
            self.next_due()
        );
        debug_assert!(
            self.cursor.is_none_or(|c| now >= c),
            "advance_to({now}) moves the cursor backwards"
        );
        self.cursor = Some(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wheel_delivers_at_scheduled_cycle() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        w.schedule(2, 20);
        w.schedule(3, 30);
        w.schedule(2, 21);
        assert_eq!(w.pending(), 3);
        let empty = w.take_due(1);
        assert!(empty.is_empty());
        w.restore(1, empty);
        let due = w.take_due(2);
        assert_eq!(due, vec![20, 21]);
        w.restore(2, due);
        assert_eq!(w.take_due(3), vec![30]);
    }

    #[test]
    fn one_cycle_link_delivers_two_cycles_later() {
        // Sent at 10 over a wire of latency 1: due at 10 + 1 + 1.
        let mut w: EventWheel<&str> = EventWheel::new(3);
        let b = w.take_due(10);
        w.restore(10, b);
        w.schedule(10 + 1 + 1, "flit");
        let b = w.take_due(11);
        assert!(b.is_empty());
        w.restore(11, b);
        assert_eq!(w.take_due(12), vec!["flit"]);
        assert_eq!(w.pending(), 0);
    }

    #[test]
    fn zero_latency_delivers_next_cycle() {
        let mut w: EventWheel<u32> = EventWheel::new(2);
        let b = w.take_due(5);
        w.restore(5, b);
        w.schedule(5 + 1, 1);
        assert_eq!(w.next_due(), Some(6));
        assert_eq!(w.take_due(6), vec![1]);
    }

    #[test]
    fn fifo_order_preserved() {
        // The per-wire FIFO: a wire has one latency, so its items land in
        // one slot per cycle in the order they were sent.
        let mut w: EventWheel<char> = EventWheel::new(3);
        let b = w.take_due(7);
        w.restore(7, b);
        for x in ['a', 'b', 'c'] {
            w.schedule(9, x);
        }
        w.schedule(8, 'z');
        w.schedule(9, 'd');
        assert_eq!(w.take_due(8), vec!['z']);
        assert_eq!(w.take_due(9), vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn wheel_recycles_buffer_capacity() {
        let mut w: EventWheel<u64> = EventWheel::new(2);
        let b = w.take_due(3);
        w.restore(3, b);
        for x in 0..16 {
            w.schedule(4, x);
        }
        let due = w.take_due(4);
        let cap = due.capacity();
        assert!(cap >= 16);
        w.restore(4, due);
        w.schedule(6, 1); // lands in the same slot (4 % 2 == 6 % 2)
        let again = w.take_due(6);
        assert!(again.capacity() >= cap, "slot buffer was recycled");
    }

    #[test]
    fn presized_slots_keep_their_capacity() {
        let mut w: EventWheel<u32> = EventWheel::with_slot_capacity(3, 8);
        for now in 0..10 {
            let cap = w.slots[(now % 3) as usize].capacity();
            assert!(cap >= 8, "slot of cycle {now} lost its room ({cap})");
            let due = w.take_due(now);
            w.restore(now, due);
            for x in 0..8 {
                w.schedule(now + 2, x);
            }
        }
    }

    #[test]
    fn wheel_allows_full_horizon_lookahead() {
        let mut w: EventWheel<&str> = EventWheel::new(3);
        let b = w.take_due(10);
        w.restore(10, b);
        w.schedule(13, "edge"); // exactly now + horizon
        let b = w.take_due(11);
        w.restore(11, b);
        let b = w.take_due(12);
        w.restore(12, b);
        assert_eq!(w.take_due(13), vec!["edge"]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn wheel_rejects_past_schedules() {
        let mut w: EventWheel<()> = EventWheel::new(4);
        let b = w.take_due(5);
        w.restore(5, b);
        w.schedule(5, ());
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn wheel_rejects_beyond_horizon() {
        let mut w: EventWheel<()> = EventWheel::new(4);
        let b = w.take_due(5);
        w.restore(5, b);
        w.schedule(10, ());
    }

    #[test]
    fn next_due_reports_earliest_pending_cycle() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        assert_eq!(w.next_due(), None);
        w.schedule(2, 1); // before any drain: slot index == cycle
        assert_eq!(w.next_due(), Some(2));
        let b = w.take_due(2);
        w.restore(2, b);
        assert_eq!(w.next_due(), None);
        w.schedule(5, 2);
        w.schedule(4, 3);
        assert_eq!(w.next_due(), Some(4));
    }

    #[test]
    fn advance_to_skips_empty_cycles() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        let b = w.take_due(0);
        w.restore(0, b);
        w.schedule(3, 7);
        // Cycles 1 and 2 are provably empty; jump the cursor past them.
        w.advance_to(2);
        assert_eq!(w.next_due(), Some(3));
        w.schedule(6, 8); // in range of the advanced cursor
        assert_eq!(w.take_due(3), vec![7]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "would skip a delivery")]
    fn advance_past_a_pending_delivery_is_rejected() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        let b = w.take_due(0);
        w.restore(0, b);
        w.schedule(2, 9);
        w.advance_to(2);
    }

    #[test]
    fn drain_pending_recovers_due_cycles_and_empties_the_wheel() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        let b = w.take_due(10);
        w.restore(10, b);
        w.schedule(11, 1);
        w.schedule(14, 2); // full-horizon lookahead
        w.schedule(11, 3);
        let mut out = Vec::new();
        w.drain_pending_into(&mut out);
        assert_eq!(out, vec![(11, 1), (11, 3), (14, 2)]);
        assert_eq!(w.pending(), 0);
        // Entries can be re-scheduled onto a wheel with the same cursor.
        let mut w2: EventWheel<u32> = EventWheel::new(4);
        let b = w2.take_due(10);
        w2.restore(10, b);
        for (at, x) in out {
            w2.schedule(at, x);
        }
        assert_eq!(w2.take_due(11), vec![1, 3]);
    }

    #[test]
    fn drain_all_preserves_delivery_cycles() {
        // The migration primitive: drain one wheel, schedule every entry
        // onto another wheel at the same cursor, and each cycle still
        // delivers the same items in the same order.
        let mut a: EventWheel<u32> = EventWheel::new(3);
        let mut b: EventWheel<u32> = EventWheel::new(3);
        for w in [&mut a, &mut b] {
            let buf = w.take_due(20);
            w.restore(20, buf);
        }
        for (at, x) in [(22, 1), (21, 2), (23, 3), (22, 4), (21, 5), (23, 6)] {
            a.schedule(at, x);
        }
        b.schedule(22, 0); // already pending on the receiving wheel
        let mut moved = Vec::new();
        a.drain_pending_into(&mut moved);
        assert_eq!(a.pending(), 0);
        for (at, x) in moved {
            b.schedule(at, x);
        }
        assert_eq!(b.take_due(21), vec![2, 5]);
        assert_eq!(b.take_due(22), vec![0, 1, 4]);
        assert_eq!(b.take_due(23), vec![3, 6]);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn iter_visits_every_pending_item() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        w.schedule(1, 10);
        w.schedule(3, 30);
        w.schedule(1, 11);
        let mut seen: Vec<u32> = w.iter().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![10, 11, 30]);
    }

    #[test]
    fn drain_pending_before_first_drain_uses_slot_index_cycles() {
        let mut w: EventWheel<u32> = EventWheel::new(4);
        w.schedule(0, 5);
        w.schedule(3, 6);
        let mut out = Vec::new();
        w.drain_pending_into(&mut out);
        assert_eq!(out, vec![(0, 5), (3, 6)]);
    }

    #[test]
    #[should_panic(expected = "before any drain")]
    fn wheel_rejects_beyond_horizon_before_first_drain() {
        // Without this guard a pre-drain schedule would silently wrap
        // into the wrong slot and be delivered a full revolution early.
        let mut w: EventWheel<()> = EventWheel::new(4);
        w.schedule(7, ());
    }
}
