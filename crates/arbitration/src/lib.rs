//! Behavioral arbiters and allocators for the Peh–Dally router simulator.
//!
//! The paper's routers are built from *matrix arbiters* (an upper
//! triangular matrix of flip-flops recording pairwise priority; a grant
//! demotes the winner to lowest priority — paper Figure 10) composed into
//! *separable allocators* (a first stage of per-input arbiters and a
//! second stage of per-output arbiters — paper Figures 7 and 8).
//!
//! This crate provides cycle-level behavioral models of those components:
//!
//! * [`MatrixArbiter`] — the paper's arbiter, with strong fairness
//!   (least-recently-served wins ties).
//! * [`MatrixBank`] — `k` matrix arbiters of one width in one block of
//!   priority rows; [`MatrixArbiter`] is a bank of one, and the
//!   allocator's stage 2 and a router's switch planes are banks.
//! * [`RoundRobinArbiter`] — a rotating-pointer arbiter used where the
//!   paper does not prescribe matrix priority (e.g. candidate-VC selection
//!   in the network interface).
//! * [`SeparableAllocator`] — the two-stage request/grant allocator used
//!   for virtual-channel allocation.
//!
//! # Requests are `u64` bitmasks
//!
//! A hardware arbiter sees every request line at once, and so do these
//! models: a request vector is a `u64` whose bit `i` is requestor `i`,
//! priority state is a bit matrix of `u64` rows, and one arbitration is a
//! handful of word operations (`trailing_zeros`, `and`, `not`) instead of
//! a loop over a `bool` slice. That caps every arbiter and allocator
//! dimension at **64** (checked by each constructor); a router's
//! `ports × vcs` channels must fit one mask, a limit its configuration
//! validation reports as a typed error. The mask methods (`peek_mask`
//! and [`SeparableAllocator::request`]) are the core; the `bool`-slice
//! and pair-list methods are thin adapters that pack their input and
//! call it, with identical results.
//!
//! # Example
//!
//! ```
//! use arbitration::MatrixArbiter;
//!
//! let mut arb = MatrixArbiter::new(4);
//! // Requestors 1 and 3 compete; initial priority favors lower indices.
//! assert_eq!(arb.arbitrate(&[false, true, false, true]), Some(1));
//! // The winner is demoted: 3 wins the rematch.
//! assert_eq!(arb.peek_mask(0b1010), Some(3));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod matrix;
pub mod round_robin;
pub mod separable;

pub use matrix::{MatrixArbiter, MatrixBank};
pub use round_robin::RoundRobinArbiter;
pub use separable::{Grant, SeparableAllocator};

/// The widest arbiter or allocator dimension: one bit per requestor in a
/// `u64` mask.
pub const MAX_WIDTH: usize = 64;

/// The mask with the low `n` bits set (`n` in `1..=64`).
#[inline]
#[must_use]
pub const fn low_bits(n: usize) -> u64 {
    u64::MAX >> (64 - n)
}

/// Checks an arbiter or allocator dimension against [`MAX_WIDTH`].
fn check_width(n: usize) {
    assert!(n > 0, "an arbiter needs at least one requestor");
    assert!(
        n <= MAX_WIDTH,
        "{n} requestors exceed the {MAX_WIDTH}-bit request mask"
    );
}

/// Packs a request vector of length `n` into a mask (bit `i` =
/// `requests[i]`).
fn pack(requests: &[bool], n: usize) -> u64 {
    assert_eq!(
        requests.len(),
        n,
        "request vector length {} != arbiter size {n}",
        requests.len()
    );
    requests
        .iter()
        .enumerate()
        .fold(0, |m, (i, &r)| m | (u64::from(r) << i))
}
