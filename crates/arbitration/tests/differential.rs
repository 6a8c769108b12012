//! Differential tests: the `u64`-mask arbiters against the `bool`-slice
//! reference algorithms in `reference/`, grant for grant.
//!
//! Every width from 1 to 64 is covered with random request sequences.
//! After each round the winners must agree, and so must the whole
//! priority state: every `has_priority(i, j)` bit of the matrix arbiter
//! and the round-robin pointer. The separable allocator must produce the
//! same grant list, in the same order, through both its pair-list and
//! its request-row entry points, up to a dense 64 × 64 allocator.

mod reference;

use arbitration::{Grant, MatrixArbiter, RoundRobinArbiter, SeparableAllocator};
use proptest::prelude::*;
use reference::{MatrixRef, RoundRobinRef, SeparableRef};

fn low_bits(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

/// A request mask of width `n`: dense (`a`) or about a quarter dense
/// (`a & b`).
fn mask(n: usize, (a, b, dense): (u64, u64, bool)) -> u64 {
    (if dense { a } else { a & b }) & low_bits(n)
}

fn bools(n: usize, m: u64) -> Vec<bool> {
    (0..n).map(|i| m >> i & 1 == 1).collect()
}

fn assert_same_priorities(n: usize, arb: &MatrixArbiter, oracle: &MatrixRef) {
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            assert_eq!(
                arb.has_priority(i, j),
                oracle.has_priority(i, j),
                "n={n}: priority of {i} over {j}"
            );
        }
    }
}

fn rounds() -> impl Strategy<Value = Vec<(u64, u64, bool)>> {
    proptest::collection::vec((any::<u64>(), any::<u64>(), any::<bool>()), 1..40)
}

/// Random `(input, resource)` pair lists, reduced modulo the allocator's
/// dimensions by the test.
fn pair_cycles() -> impl Strategy<Value = Vec<Vec<(usize, usize)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..64, 0usize..64), 0..96),
        1..12,
    )
}

proptest! {
    /// Matrix arbiter: same winner, same demotion, same matrix, with and
    /// without committing each peeked grant.
    #[test]
    fn matrix_matches_reference(n in 1usize..65, rounds in rounds(), commits in any::<u64>()) {
        let mut arb = MatrixArbiter::new(n);
        let mut oracle = MatrixRef::new(n);
        for (k, round) in rounds.into_iter().enumerate() {
            let m = mask(n, round);
            let want = oracle.peek(&bools(n, m));
            prop_assert_eq!(arb.peek_mask(m), want, "n={} round {} mask {:#x}", n, k, m);
            prop_assert_eq!(arb.peek(&bools(n, m)), want);
            if let Some(w) = want.filter(|_| commits >> (k % 64) & 1 == 1) {
                arb.demote(w);
                oracle.demote(w);
            }
            assert_same_priorities(n, &arb, &oracle);
            prop_assert!(arb.is_total_order());
        }
    }

    /// Round-robin arbiter: same winner and same pointer after every
    /// round, through both the mask and the slice entry points.
    #[test]
    fn round_robin_matches_reference(n in 1usize..65, rounds in rounds()) {
        let mut arb = RoundRobinArbiter::new(n);
        let mut oracle = RoundRobinRef::new(n);
        for (k, round) in rounds.into_iter().enumerate() {
            let m = mask(n, round);
            let want = oracle.peek(&bools(n, m));
            prop_assert_eq!(arb.peek_mask(m), want, "n={} round {} mask {:#x}", n, k, m);
            prop_assert_eq!(arb.arbitrate(&bools(n, m)), want);
            if let Some(w) = want {
                oracle.advance_past(w);
            }
            prop_assert_eq!(arb.pointer(), oracle.pointer());
        }
    }

    /// Separable allocator: the same grant list, in the same order, for
    /// any dimensions up to 64 × 64 — alternating between the pair-list
    /// adapter and request rows.
    #[test]
    fn separable_matches_reference(
        n_in in 1usize..65,
        n_out in 1usize..65,
        cycles in pair_cycles(),
    ) {
        let mut alloc = SeparableAllocator::new(n_in, n_out);
        let mut oracle = SeparableRef::new(n_in, n_out);
        let mut grants = Vec::new();
        for (k, cycle) in cycles.into_iter().enumerate() {
            let reqs: Vec<(usize, usize)> =
                cycle.into_iter().map(|(i, r)| (i % n_in, r % n_out)).collect();
            let want = oracle.allocate(&reqs);
            allocate_alternating(&mut alloc, &reqs, k, &mut grants);
            let got: Vec<(usize, usize)> = grants.iter().map(|g| (g.input, g.resource)).collect();
            prop_assert_eq!(got, want, "{}x{} cycle {}", n_in, n_out, k);
        }
    }
}

/// Presents `reqs` through the pair list on even cycles and as request
/// rows on odd ones.
fn allocate_alternating(
    alloc: &mut SeparableAllocator,
    reqs: &[(usize, usize)],
    cycle: usize,
    grants: &mut Vec<Grant>,
) {
    if cycle.is_multiple_of(2) {
        alloc.allocate_into(reqs, grants);
    } else {
        for &(i, r) in reqs {
            alloc.request(i, 1 << r);
        }
        alloc.allocate_requested(grants);
    }
}

/// A full-width 64 × 64 allocator under dense and sparse request
/// matrices for a few hundred cycles: every grant list matches.
#[test]
fn separable_64x64_matches_reference_under_load() {
    let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut alloc = SeparableAllocator::new(64, 64);
    let mut oracle = SeparableRef::new(64, 64);
    let mut grants = Vec::new();
    let mut total = 0;
    for cycle in 0..300 {
        // Each input requests a random row; density varies by cycle.
        let reqs: Vec<(usize, usize)> = (0..64)
            .flat_map(|i| {
                let row = match cycle % 3 {
                    0 => next(),
                    1 => next() & next(),
                    _ => next() & next() & next() & next(),
                };
                (0..64)
                    .filter(move |r| row >> r & 1 == 1)
                    .map(move |r| (i, r))
            })
            .collect();
        let want = oracle.allocate(&reqs);
        allocate_alternating(&mut alloc, &reqs, cycle, &mut grants);
        let got: Vec<(usize, usize)> = grants.iter().map(|g| (g.input, g.resource)).collect();
        assert_eq!(got, want, "cycle {cycle}");
        total += got.len();
    }
    assert!(
        total > 300 * 32,
        "dense requests grant most resources ({total})"
    );
}
