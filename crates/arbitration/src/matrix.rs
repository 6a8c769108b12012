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
//! circuit's per-bit gates.

use crate::{check_width, low_bits, pack};
use std::fmt;

/// A behavioral `n:1` matrix arbiter, `n <= 64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixArbiter {
    /// Priority rows: bit `j` of `rows[i]` is set when requestor `i` has
    /// priority over `j` (`i != j`; the diagonal bit is always clear).
    rows: Box<[u64]>,
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
        check_width(n);
        // Row i beats every higher index.
        let rows = (0..n).map(|i| low_bits(n) & !low_bits(i + 1)).collect();
        MatrixArbiter { rows }
    }

    /// Number of requestors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
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
        debug_assert_eq!(
            requests & !low_bits(self.len()),
            0,
            "request mask {requests:#x} wider than the arbiter ({})",
            self.len()
        );
        let mut candidates = requests;
        while candidates != 0 {
            let i = candidates.trailing_zeros() as usize;
            if requests & !(1 << i) & !self.rows[i] == 0 {
                return Some(i);
            }
            candidates &= candidates - 1;
        }
        None
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
        assert!(
            winner < self.len(),
            "requestor {winner} out of range {}",
            self.len()
        );
        for row in self.rows.iter_mut() {
            *row |= 1 << winner;
        }
        self.rows[winner] = 0;
        debug_assert!(self.is_total_order(), "matrix must remain a total order");
    }

    /// Whether `i` currently has priority over `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i == j` or either index is out of range.
    #[must_use]
    pub fn has_priority(&self, i: usize, j: usize) -> bool {
        assert!(
            i != j,
            "priority between a requestor and itself is undefined"
        );
        assert!(i < self.len() && j < self.len(), "index out of range");
        self.rows[i] & (1 << j) != 0
    }

    /// Invariant check: the matrix encodes a strict total order.
    ///
    /// Allocation-free — it runs inside a `debug_assert!` on the grant
    /// path, and the hot tick must not allocate even in debug builds.
    #[must_use]
    pub fn is_total_order(&self) -> bool {
        let n = self.len();
        // Irreflexive and in range.
        if (0..n).any(|i| self.rows[i] & (!low_bits(n) | 1 << i) != 0) {
            return false;
        }
        // Antisymmetric and complete: exactly one of (i, j), (j, i).
        for i in 0..n {
            for j in 0..i {
                if (self.rows[i] >> j & 1) == (self.rows[j] >> i & 1) {
                    return false;
                }
            }
        }
        // A complete antisymmetric relation is transitive exactly when
        // its win counts are a permutation of 0..n.
        let mut seen = 0u64;
        for &row in self.rows.iter() {
            seen |= 1 << row.count_ones();
        }
        seen == low_bits(n)
    }

    /// The current priority ranking, highest first (diagnostic).
    #[must_use]
    pub fn ranking(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(self.rows[i].count_ones()));
        idx
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
