//! The matrix arbiter of the paper's Figure 10.
//!
//! A matrix of state bits records the pairwise priority between every two
//! requestors. A requestor is granted when it has priority over every
//! *other active* requestor; on a grant the winner's priority is set
//! lowest. Starting from a total order and always demoting the winner to
//! the bottom preserves a total order, so a winner always exists and is
//! unique — the arbiter is *strongly fair* (least-recently-served).
//!
//! Each matrix row is one `u64` (bit `j` of row `i` set when `i` beats
//! `j`), so the grant test for a requestor is a single mask compare and a
//! demotion is one OR per row — the word-parallel equivalent of the
//! circuit's per-bit gates. A [`MatrixBank`] keeps the rows of many
//! arbiters of one width in a single block, so a router's per-port
//! arbiters cost one allocation, not one per arbiter.

use crate::{check_width, low_bits, pack};
use std::fmt;

/// A bank of `k` behavioral matrix arbiters of `n` requestors each,
/// `n <= 64`, in one block of priority rows: row `i` of arbiter `a` is
/// word `a * n + i`. The arbitration logic lives here once;
/// [`MatrixArbiter`] is a bank of one, and a router or allocator that
/// needs one arbiter per port or per resource keeps them all in a bank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixBank {
    /// Requestors per arbiter.
    n: usize,
    /// Priority rows: bit `j` of row `i` of an arbiter is set when
    /// requestor `i` has priority over `j` (`i != j`; the diagonal bit is
    /// always clear).
    rows: Box<[u64]>,
}

impl MatrixBank {
    /// Creates `k` arbiters over `n` requestors each. Initial priority is
    /// by index: requestor 0 highest.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    #[must_use]
    pub fn new(k: usize, n: usize) -> Self {
        check_width(n);
        // Row i beats every higher index.
        let rows = (0..k * n)
            .map(|w| low_bits(n) & !low_bits(w % n + 1))
            .collect();
        MatrixBank { n, rows }
    }

    /// Number of arbiters.
    #[must_use]
    pub fn arbiters(&self) -> usize {
        self.rows.len() / self.n
    }

    /// Requestors per arbiter.
    #[must_use]
    pub fn width(&self) -> usize {
        self.n
    }

    /// The priority rows of arbiter `arb`.
    #[inline]
    fn rows(&self, arb: usize) -> &[u64] {
        &self.rows[arb * self.n..][..self.n]
    }

    /// Combinational arbitration of arbiter `arb` over a request mask
    /// (bit `i` = requestor `i`; bits at or above [`MatrixBank::width`]
    /// must be clear): the lowest requestor whose row covers every other
    /// request. Priority state is untouched.
    #[inline]
    #[must_use]
    pub fn peek_mask(&self, arb: usize, requests: u64) -> Option<usize> {
        debug_assert_eq!(
            requests & !low_bits(self.n),
            0,
            "request mask {requests:#x} wider than the arbiter ({})",
            self.n
        );
        let rows = self.rows(arb);
        let mut candidates = requests;
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            if requests & !(1 << i) & !rows[i] == 0 {
                return Some(i);
            }
            candidates &= candidates - 1;
        }
        None
    }

    /// Demotes `winner` of arbiter `arb` to lowest priority (the `h`
    /// overhead path of the circuit).
    ///
    /// # Panics
    ///
    /// Panics if `winner >= self.width()` or `arb` is out of range.
    #[inline]
    pub fn demote(&mut self, arb: usize, winner: usize) {
        assert!(
            winner < self.n,
            "requestor {winner} out of range {}",
            self.n
        );
        let rows = &mut self.rows[arb * self.n..][..self.n];
        for row in rows.iter_mut() {
            *row |= 1 << winner;
        }
        rows[winner] = 0;
        debug_assert!(self.is_total_order(arb), "matrix must remain a total order");
    }

    /// Whether `i` currently has priority over `j` in arbiter `arb`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or any index is out of range.
    #[must_use]
    pub fn has_priority(&self, arb: usize, i: usize, j: usize) -> bool {
        assert!(
            i != j,
            "priority between a requestor and itself is undefined"
        );
        assert!(i < self.n && j < self.n, "index out of range");
        self.rows(arb)[i] & (1 << j) != 0
    }

    /// Invariant check: arbiter `arb`'s matrix encodes a strict total
    /// order.
    ///
    /// Allocation-free — it runs inside a `debug_assert!` on the grant
    /// path, and the hot tick must not allocate even in debug builds.
    #[must_use]
    pub fn is_total_order(&self, arb: usize) -> bool {
        let n = self.n;
        let rows = self.rows(arb);
        // Irreflexive and in range.
        if (0..n).any(|i| rows[i] & (!low_bits(n) | 1 << i) != 0) {
            return false;
        }
        // Antisymmetric and complete: exactly one of (i, j), (j, i).
        for i in 0..n {
            for j in 0..i {
                if (rows[i] >> j & 1) == (rows[j] >> i & 1) {
                    return false;
                }
            }
        }
        // A complete antisymmetric relation is transitive exactly when
        // its win counts are a permutation of 0..n.
        let mut seen = 0u64;
        for &row in rows {
            seen |= 1 << row.count_ones();
        }
        seen == low_bits(n)
    }

    /// Arbiter `arb`'s current priority ranking, highest first
    /// (diagnostic).
    #[must_use]
    pub fn ranking(&self, arb: usize) -> Vec<usize> {
        let rows = self.rows(arb);
        let mut idx: Vec<usize> = (0..self.n).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(rows[i].count_ones()));
        idx
    }
}

/// A behavioral `n:1` matrix arbiter, `n <= 64`: a [`MatrixBank`] of
/// one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixArbiter {
    bank: MatrixBank,
}

impl MatrixArbiter {
    /// Creates an arbiter over `n` requestors. Initial priority is by
    /// index: requestor 0 highest.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        MatrixArbiter {
            bank: MatrixBank::new(1, n),
        }
    }

    /// Number of requestors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bank.width()
    }

    /// Always false: an arbiter has at least one requestor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Performs one arbitration over the request vector and, if somebody
    /// wins, updates the priority matrix (winner demoted to lowest).
    ///
    /// Returns the winning requestor index, or `None` if no requests.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.len()`.
    pub fn arbitrate(&mut self, requests: &[bool]) -> Option<usize> {
        let winner = self.peek(requests)?;
        self.demote(winner);
        Some(winner)
    }

    /// Combinational arbitration: returns the winner without touching the
    /// priority state (the grant-enable path of the circuit; useful when a
    /// grant may later be cancelled, e.g. failed speculation).
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.len()`.
    #[must_use]
    pub fn peek(&self, requests: &[bool]) -> Option<usize> {
        self.peek_mask(pack(requests, self.len()))
    }

    /// [`MatrixArbiter::peek`] over a request mask (bit `i` = requestor
    /// `i`; bits at or above [`MatrixArbiter::len`] must be clear): the
    /// lowest requestor whose row covers every other request.
    #[inline]
    #[must_use]
    pub fn peek_mask(&self, requests: u64) -> Option<usize> {
        self.bank.peek_mask(0, requests)
    }

    /// Demotes `winner` to lowest priority (the `h` overhead path of the
    /// circuit). Exposed so callers using [`MatrixArbiter::peek`] can
    /// commit the update only for grants that stand.
    ///
    /// # Panics
    ///
    /// Panics if `winner >= self.len()`.
    #[inline]
    pub fn demote(&mut self, winner: usize) {
        self.bank.demote(0, winner);
    }

    /// Whether `i` currently has priority over `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    #[must_use]
    pub fn has_priority(&self, i: usize, j: usize) -> bool {
        self.bank.has_priority(0, i, j)
    }

    /// Invariant check: the matrix encodes a strict total order
    /// (allocation-free).
    #[must_use]
    pub fn is_total_order(&self) -> bool {
        self.bank.is_total_order(0)
    }

    /// The current priority ranking, highest first (diagnostic).
    #[must_use]
    pub fn ranking(&self) -> Vec<usize> {
        self.bank.ranking(0)
    }
}

impl fmt::Display for MatrixArbiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MatrixArbiter(n={}, ranking={:?})",
            self.len(),
            self.ranking()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_requests_no_grant() {
        let mut arb = MatrixArbiter::new(3);
        assert_eq!(arb.arbitrate(&[false, false, false]), None);
    }

    #[test]
    fn sole_requestor_always_wins() {
        let mut arb = MatrixArbiter::new(4);
        for _ in 0..5 {
            assert_eq!(arb.arbitrate(&[false, false, true, false]), Some(2));
        }
    }

    #[test]
    fn winner_is_demoted() {
        let mut arb = MatrixArbiter::new(2);
        assert_eq!(arb.arbitrate(&[true, true]), Some(0));
        assert_eq!(arb.arbitrate(&[true, true]), Some(1));
        assert_eq!(arb.arbitrate(&[true, true]), Some(0));
    }

    #[test]
    fn round_robin_emerges_under_full_load() {
        let mut arb = MatrixArbiter::new(4);
        let all = [true; 4];
        let winners: Vec<_> = (0..8).map(|_| arb.arbitrate(&all).unwrap()).collect();
        assert_eq!(winners, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn strong_fairness_bound() {
        // A persistent requestor waits at most n−1 grants.
        let mut arb = MatrixArbiter::new(5);
        let all = [true; 5];
        // Demote 4 to make it initially lowest anyway; then count.
        arb.demote(4);
        let mut waited = 0;
        loop {
            let w = arb.arbitrate(&all).unwrap();
            if w == 4 {
                break;
            }
            waited += 1;
            assert!(waited < 5, "requestor 4 starved");
        }
    }

    #[test]
    fn peek_does_not_change_state() {
        let arb = MatrixArbiter::new(3);
        assert_eq!(arb.peek(&[true, true, false]), Some(0));
        assert_eq!(arb.peek(&[true, true, false]), Some(0));
    }

    #[test]
    fn total_order_invariant_after_random_demotes() {
        let mut arb = MatrixArbiter::new(6);
        for i in [3usize, 1, 5, 0, 0, 2, 4, 5, 1] {
            arb.demote(i);
            assert!(arb.is_total_order());
        }
    }

    #[test]
    fn ranking_reflects_demotions() {
        let mut arb = MatrixArbiter::new(3);
        assert_eq!(arb.ranking(), vec![0, 1, 2]);
        arb.demote(0);
        assert_eq!(arb.ranking(), vec![1, 2, 0]);
    }

    #[test]
    #[should_panic(expected = "request vector length")]
    fn wrong_request_length_rejected() {
        let mut arb = MatrixArbiter::new(3);
        let _ = arb.arbitrate(&[true, false]);
    }

    #[test]
    #[should_panic(expected = "at least one requestor")]
    fn zero_requestors_rejected() {
        let _ = MatrixArbiter::new(0);
    }

    #[test]
    #[should_panic(expected = "64-bit request mask")]
    fn more_than_64_requestors_rejected() {
        let _ = MatrixArbiter::new(65);
    }

    #[test]
    fn bank_arbiters_are_independent_matrix_arbiters() {
        let mut bank = MatrixBank::new(3, 4);
        let mut solo: Vec<MatrixArbiter> = (0..3).map(|_| MatrixArbiter::new(4)).collect();
        assert_eq!((bank.arbiters(), bank.width()), (3, 4));
        for (round, mask) in [0b1111u64, 0b0110, 0b1010, 0b1111, 0b0011]
            .iter()
            .enumerate()
        {
            let arb = round % 3;
            let w = bank.peek_mask(arb, *mask);
            assert_eq!(w, solo[arb].peek_mask(*mask), "round {round}");
            let w = w.expect("non-empty mask has a winner");
            bank.demote(arb, w);
            solo[arb].demote(w);
            for (a, s) in solo.iter().enumerate() {
                assert_eq!(bank.ranking(a), s.ranking(), "round {round} arbiter {a}");
                assert!(bank.is_total_order(a));
            }
        }
        assert!(bank.has_priority(2, 0, 3));
    }

    #[test]
    fn mask_and_slice_paths_agree_at_full_width() {
        let mut arb = MatrixArbiter::new(64);
        let mut reqs = [false; 64];
        reqs[0] = true;
        reqs[63] = true;
        assert_eq!(arb.peek_mask(1 | 1 << 63), Some(0));
        assert_eq!(arb.arbitrate(&reqs), Some(0));
        assert_eq!(arb.peek_mask(1 | 1 << 63), Some(63));
        assert_eq!(arb.arbitrate(&reqs), Some(63));
        assert!(arb.has_priority(0, 63));
        assert!(arb.is_total_order());
    }
}
