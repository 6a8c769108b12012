//! Property tests for the [`FlitArena`] ring buffers: random
//! interleavings of push/pop/peek across rings must match a
//! `VecDeque<(Flit, arrival)>`-per-ring model exactly, including
//! wraparound and the full/empty edges — each flit's arrival cycle comes
//! back with it however often its ring has wrapped — and the credit
//! accounting that guards every push must keep
//! `occupancy + credits == capacity` at all times.

use proptest::prelude::*;
use router_core::arena::FlitArena;
use router_core::{Flit, PacketId};
use std::collections::VecDeque;

const RINGS: usize = 6;
const CAP: usize = 4;

/// One random queue operation on one ring.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(usize),
    Pop(usize),
    Peek(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..RINGS).prop_map(Op::Push),
        (0usize..RINGS).prop_map(Op::Pop),
        (0usize..RINGS).prop_map(Op::Peek),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arena_matches_vecdeque_model(ops in proptest::collection::vec(op_strategy(), 0..400)) {
        let mut arena = FlitArena::new(RINGS, CAP);
        let mut model: Vec<VecDeque<(Flit, u64)>> =
            (0..RINGS).map(|_| VecDeque::new()).collect();
        // Credit flow control: one credit per free slot, consumed on
        // push, returned on pop — exactly the contract the router's
        // upstream obeys, and what makes the overflow panic unreachable.
        let mut credits = [CAP; RINGS];
        let mut next_id = 0u64;

        // The operation index is the arrival cycle: unrelated to the
        // flit's id and creation cycle, so a slot that returned another
        // flit's arrival (or a stale one after wrapping) would show.
        for (now, op) in (1_000u64..).zip(ops) {
            match op {
                Op::Push(ring) => {
                    if credits[ring] == 0 {
                        // Model the upstream: no credit, no push. The
                        // ring must report full at exactly this point.
                        prop_assert!(arena.is_full(ring));
                        continue;
                    }
                    credits[ring] -= 1;
                    let flit = Flit::head(PacketId::new(next_id), 1, 0, next_id);
                    next_id += 1;
                    arena.push_back(ring, flit, now);
                    model[ring].push_back((flit, now));
                }
                Op::Pop(ring) => {
                    let got = arena.pop_front(ring);
                    let want = model[ring].pop_front();
                    prop_assert_eq!(got, want, "pop mismatch on ring {}", ring);
                    if got.is_some() {
                        credits[ring] += 1;
                    }
                }
                Op::Peek(ring) => {
                    prop_assert_eq!(
                        arena.front(ring).map(|(f, arrival)| (*f, arrival)),
                        model[ring].front().copied(),
                        "peek mismatch on ring {}", ring
                    );
                }
            }
            // Invariants after every operation, on every ring.
            for ring in 0..RINGS {
                prop_assert_eq!(arena.len(ring), model[ring].len());
                prop_assert_eq!(arena.is_empty(ring), model[ring].is_empty());
                prop_assert_eq!(arena.is_full(ring), model[ring].len() == CAP);
                prop_assert_eq!(
                    arena.len(ring) + credits[ring], CAP,
                    "credit accounting drifted on ring {}", ring
                );
            }
            prop_assert_eq!(
                arena.total_len(),
                model.iter().map(VecDeque::len).sum::<usize>()
            );
        }

        // Drain everything: remaining contents must match in order.
        for (ring, queue) in model.iter_mut().enumerate() {
            while let Some(want) = queue.pop_front() {
                prop_assert_eq!(arena.pop_front(ring), Some(want));
            }
            prop_assert_eq!(arena.pop_front(ring), None);
            prop_assert!(arena.is_empty(ring));
        }
    }
}
