//! A rotating-pointer (round-robin) arbiter.
//!
//! Used where the paper does not prescribe matrix priority: candidate
//! output-VC selection in the VC allocator's first stage and virtual
//! channel selection in the network interface. Weakly fair: a persistent
//! requestor is served within `n` grants.
//!
//! The search is two mask operations: keep the requests at or above the
//! pointer, fall back to all requests if none are, and take the lowest
//! set bit.

use crate::{check_width, pack};
use std::fmt;

/// The round-robin choice over a request mask: the lowest request at or
/// above pointer `next`, else the lowest request.
#[inline]
pub(crate) fn pick(requests: u64, next: usize) -> Option<usize> {
    let upper = requests & (u64::MAX << next);
    let pick = if upper != 0 { upper } else { requests };
    (pick != 0).then(|| pick.trailing_zeros() as usize)
}

/// The pointer after granting `winner` of `n` requestors.
#[inline]
pub(crate) fn after(winner: usize, n: usize) -> usize {
    assert!(winner < n, "requestor {winner} out of range {n}");
    if winner + 1 == n {
        0
    } else {
        winner + 1
    }
}

/// A behavioral `n:1` round-robin arbiter, `n <= 64`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundRobinArbiter {
    n: usize,
    next: usize,
}

impl RoundRobinArbiter {
    /// Creates an arbiter over `n` requestors, pointer at 0.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 64`.
    #[must_use]
    pub fn new(n: usize) -> Self {
        check_width(n);
        RoundRobinArbiter { n, next: 0 }
    }

    /// Number of requestors.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Always false: an arbiter has at least one requestor.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The index the pointer currently favors.
    #[must_use]
    pub fn pointer(&self) -> usize {
        self.next
    }

    /// Grants the first requestor at or after the pointer, advancing the
    /// pointer past the winner.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.len()`.
    pub fn arbitrate(&mut self, requests: &[bool]) -> Option<usize> {
        let winner = self.peek(requests)?;
        self.advance_past(winner);
        Some(winner)
    }

    /// Combinational arbitration without pointer update.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != self.len()`.
    #[must_use]
    pub fn peek(&self, requests: &[bool]) -> Option<usize> {
        self.peek_mask(pack(requests, self.n))
    }

    /// [`RoundRobinArbiter::peek`] over a request mask (bit `i` =
    /// requestor `i`; bits at or above [`RoundRobinArbiter::len`] must be
    /// clear).
    #[inline]
    #[must_use]
    pub fn peek_mask(&self, requests: u64) -> Option<usize> {
        debug_assert_eq!(
            requests & !crate::low_bits(self.n),
            0,
            "request mask {requests:#x} wider than the arbiter ({})",
            self.n
        );
        pick(requests, self.next)
    }

    /// Advances the pointer past `winner` (commit of a peeked grant).
    ///
    /// # Panics
    ///
    /// Panics if `winner >= self.len()`.
    #[inline]
    pub fn advance_past(&mut self, winner: usize) {
        self.next = after(winner, self.n);
    }
}

impl fmt::Display for RoundRobinArbiter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RoundRobinArbiter(n={}, next={})", self.n, self.next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotates_under_full_load() {
        let mut arb = RoundRobinArbiter::new(3);
        let all = [true; 3];
        let winners: Vec<_> = (0..6).map(|_| arb.arbitrate(&all).unwrap()).collect();
        assert_eq!(winners, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn skips_idle_requestors() {
        let mut arb = RoundRobinArbiter::new(4);
        assert_eq!(arb.arbitrate(&[false, false, true, false]), Some(2));
        assert_eq!(arb.pointer(), 3);
        assert_eq!(arb.arbitrate(&[true, false, false, false]), Some(0));
    }

    #[test]
    fn no_requests_keeps_pointer() {
        let mut arb = RoundRobinArbiter::new(2);
        assert_eq!(arb.arbitrate(&[false, false]), None);
        assert_eq!(arb.pointer(), 0);
    }

    #[test]
    fn peek_then_commit_matches_arbitrate() {
        let mut a = RoundRobinArbiter::new(4);
        let mut b = a.clone();
        let reqs = [false, true, true, false];
        let w = a.peek(&reqs).unwrap();
        a.advance_past(w);
        assert_eq!(Some(w), b.arbitrate(&reqs));
        assert_eq!(a, b);
    }

    #[test]
    fn fairness_bound_is_n() {
        let mut arb = RoundRobinArbiter::new(5);
        let all = [true; 5];
        let mut gap = 0;
        for i in 0..25 {
            let w = arb.arbitrate(&all).unwrap();
            if w == 3 {
                gap = 0;
            } else {
                gap += 1;
                assert!(gap < 5, "requestor 3 starved at round {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one requestor")]
    fn zero_requestors_rejected() {
        let _ = RoundRobinArbiter::new(0);
    }

    #[test]
    fn pointer_wraps_at_full_width() {
        let mut arb = RoundRobinArbiter::new(64);
        arb.advance_past(5);
        assert_eq!(arb.peek_mask(1 << 63 | 1 << 5), Some(63));
        arb.advance_past(63);
        assert_eq!(arb.pointer(), 0);
        assert_eq!(arb.peek_mask(1 << 63 | 1 << 5), Some(5));
    }
}
