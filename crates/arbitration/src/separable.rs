//! A two-stage separable allocator (paper Figures 7–8).
//!
//! Matches requests from `n_in` inputs for `n_out` resources such that
//! each input receives at most one resource and each resource is granted
//! to at most one input per allocation:
//!
//! * **Stage 1** — a per-input arbiter selects one of the input's
//!   requested resources (round-robin over resources, modeling the
//!   `v:1` candidate-selection arbiters of Figure 8).
//! * **Stage 2** — a per-resource matrix arbiter picks one surviving
//!   input (the `p·v:1` arbiters of Figure 8).
//!
//! Priorities are updated only for grants that stand, so losing a cycle
//! does not cost an input its priority. Separable allocation trades a
//! little matching efficiency for single-cycle implementability — exactly
//! the trade the paper's §3.2 describes.
//!
//! Requests are kept as one `u64` row per input (bit `r` = resource `r`)
//! and stage 1 fills one `u64` contender mask per resource (bit `i` =
//! input `i`), so each stage visits only the inputs and resources that
//! are actually requested, and both dimensions are capped at 64. The
//! stage-1 arbiters are their round-robin pointers, one byte per input,
//! and the stage-2 arbiters are one [`MatrixBank`].

use crate::matrix::MatrixBank;
use crate::round_robin;
use std::fmt;

/// A granted `(input, resource)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Grant {
    /// The winning input.
    pub input: usize,
    /// The resource it was granted.
    pub resource: usize,
}

/// A separable `n_in × n_out` allocator with persistent arbiter state,
/// `n_in, n_out <= 64`.
#[derive(Debug, Clone)]
pub struct SeparableAllocator {
    /// Stage-1 round-robin pointer per input (a resource index).
    stage1: Box<[u8]>,
    /// Stage-2 matrix arbiter per resource, over the inputs.
    stage2: MatrixBank,
    /// Pending request row per input (bit `r` = resource `r`); every row
    /// is zero again after an allocation consumes it.
    rows: Box<[u64]>,
    /// Inputs with a non-zero row.
    requesting: u64,
    /// Stage-1 choices per resource (bit `i` = input `i`), zeroed as
    /// stage 2 consumes them.
    contenders: Box<[u64]>,
}

impl SeparableAllocator {
    /// Creates an allocator for `n_in` inputs and `n_out` resources.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or exceeds 64.
    #[must_use]
    pub fn new(n_in: usize, n_out: usize) -> Self {
        assert!(
            n_in > 0 && n_out > 0,
            "allocator dimensions must be positive"
        );
        crate::check_width(n_out);
        SeparableAllocator {
            stage1: vec![0; n_in].into_boxed_slice(),
            stage2: MatrixBank::new(n_out, n_in),
            rows: vec![0; n_in].into_boxed_slice(),
            requesting: 0,
            contenders: vec![0; n_out].into_boxed_slice(),
        }
    }

    /// Number of inputs.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.stage1.len()
    }

    /// Number of resources.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.stage2.arbiters()
    }

    /// Performs one allocation. `requests` lists `(input, resource)`
    /// pairs; duplicates are harmless. Returns the grants, at most one per
    /// input and one per resource.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn allocate(&mut self, requests: &[(usize, usize)]) -> Vec<Grant> {
        let mut grants = Vec::new();
        self.allocate_into(requests, &mut grants);
        grants
    }

    /// [`SeparableAllocator::allocate`] into a caller-provided buffer
    /// (cleared first). All working state is retained, so a steady-state
    /// allocation performs no heap allocation at all.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn allocate_into(&mut self, requests: &[(usize, usize)], grants: &mut Vec<Grant>) {
        for &(i, r) in requests {
            assert!(
                r < self.outputs(),
                "resource {r} out of range {}",
                self.outputs()
            );
            self.request(i, 1 << r);
        }
        self.allocate_requested(grants);
    }

    /// Adds a request row: `input` asks for every resource whose bit is
    /// set in `resources`. Rows accumulate (OR) until the next
    /// [`SeparableAllocator::allocate_requested`]; an empty row adds
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `input` is out of range.
    #[inline]
    pub fn request(&mut self, input: usize, resources: u64) {
        assert!(
            input < self.inputs(),
            "input {input} out of range {}",
            self.inputs()
        );
        debug_assert_eq!(
            resources & !crate::low_bits(self.outputs()),
            0,
            "resource mask {resources:#x} wider than the allocator"
        );
        if resources != 0 {
            self.rows[input] |= resources;
            self.requesting |= 1 << input;
        }
    }

    /// Allocates over the rows added since the last allocation, clearing
    /// them, and writes the grants into `grants` (cleared first) in
    /// ascending resource order.
    pub fn allocate_requested(&mut self, grants: &mut Vec<Grant>) {
        grants.clear();
        self.allocate_with(|g| grants.push(g));
    }

    /// [`SeparableAllocator::allocate_requested`] handing each grant to
    /// `grant`, in ascending resource order, instead of collecting them.
    pub fn allocate_with(&mut self, mut grant: impl FnMut(Grant)) {
        let n_out = self.outputs();
        // Stage 1: each requesting input picks one candidate resource
        // (peek only; commit on final grant).
        let mut chosen = 0u64;
        let mut inputs = std::mem::take(&mut self.requesting);
        while inputs != 0 {
            let i = inputs.trailing_zeros() as usize;
            inputs &= inputs - 1;
            let row = std::mem::take(&mut self.rows[i]);
            let r = round_robin::pick(row, usize::from(self.stage1[i]))
                .expect("a requesting input has a non-empty row");
            self.contenders[r] |= 1 << i;
            chosen |= 1 << r;
        }
        // Stage 2: each chosen resource arbitrates among its contenders.
        while chosen != 0 {
            let r = chosen.trailing_zeros() as usize;
            chosen &= chosen - 1;
            let contenders = std::mem::take(&mut self.contenders[r]);
            let winner = self
                .stage2
                .peek_mask(r, contenders)
                .expect("a chosen resource has a contender");
            self.stage2.demote(r, winner);
            // n_out <= 64, so every pointer fits a byte.
            self.stage1[winner] = round_robin::after(r, n_out) as u8;
            grant(Grant {
                input: winner,
                resource: r,
            });
        }
    }
}

impl fmt::Display for SeparableAllocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SeparableAllocator({}x{})",
            self.inputs(),
            self.outputs()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn assert_valid(grants: &[Grant], requests: &[(usize, usize)]) {
        let req: HashSet<(usize, usize)> = requests.iter().copied().collect();
        let mut ins = HashSet::new();
        let mut outs = HashSet::new();
        for g in grants {
            assert!(req.contains(&(g.input, g.resource)), "grant not requested");
            assert!(ins.insert(g.input), "input granted twice");
            assert!(outs.insert(g.resource), "resource granted twice");
        }
    }

    #[test]
    fn disjoint_requests_all_granted() {
        let mut alloc = SeparableAllocator::new(4, 4);
        let reqs = [(0, 1), (1, 0), (2, 3), (3, 2)];
        let grants = alloc.allocate(&reqs);
        assert_eq!(grants.len(), 4);
        assert_valid(&grants, &reqs);
    }

    #[test]
    fn conflicting_requests_grant_exactly_one() {
        let mut alloc = SeparableAllocator::new(3, 3);
        let reqs = [(0, 0), (1, 0), (2, 0)];
        let grants = alloc.allocate(&reqs);
        assert_eq!(grants.len(), 1);
        assert_valid(&grants, &reqs);
    }

    #[test]
    fn conflict_rotates_over_time() {
        let mut alloc = SeparableAllocator::new(2, 1);
        let reqs = [(0, 0), (1, 0)];
        let first = alloc.allocate(&reqs)[0].input;
        let second = alloc.allocate(&reqs)[0].input;
        assert_ne!(first, second, "matrix arbiter must rotate the grant");
    }

    #[test]
    fn input_with_choices_takes_whatever_is_free() {
        let mut alloc = SeparableAllocator::new(2, 2);
        // Input 0 wants only resource 0; input 1 would take either.
        let reqs = [(0, 0), (1, 0), (1, 1)];
        let grants = alloc.allocate(&reqs);
        assert_valid(&grants, &reqs);
        // Separable allocation may not find the perfect matching every
        // cycle, but across two cycles both inputs must have been served.
        let grants2 = alloc.allocate(&reqs);
        assert_valid(&grants2, &reqs);
        let served: HashSet<usize> = grants
            .iter()
            .chain(grants2.iter())
            .map(|g| g.input)
            .collect();
        assert_eq!(served.len(), 2, "both inputs served within two cycles");
    }

    #[test]
    fn empty_requests_empty_grants() {
        let mut alloc = SeparableAllocator::new(3, 3);
        assert!(alloc.allocate(&[]).is_empty());
    }

    #[test]
    fn duplicate_requests_are_idempotent() {
        let mut alloc = SeparableAllocator::new(2, 2);
        let grants = alloc.allocate(&[(0, 1), (0, 1), (0, 1)]);
        assert_eq!(grants.len(), 1);
        assert_eq!(
            grants[0],
            Grant {
                input: 0,
                resource: 1
            }
        );
    }

    #[test]
    fn losing_does_not_lose_priority() {
        // Input 1 keeps losing resource 0 to input 0? No: matrix demotes
        // winners, so input 1 wins the second round.
        let mut alloc = SeparableAllocator::new(2, 1);
        assert_eq!(alloc.allocate(&[(0, 0), (1, 0)])[0].input, 0);
        assert_eq!(alloc.allocate(&[(0, 0), (1, 0)])[0].input, 1);
        assert_eq!(alloc.allocate(&[(0, 0), (1, 0)])[0].input, 0);
    }

    #[test]
    fn allocate_into_matches_allocate_across_rounds() {
        let mut a = SeparableAllocator::new(4, 4);
        let mut b = SeparableAllocator::new(4, 4);
        let mut buf = Vec::new();
        for round in 0..6 {
            let reqs = [(0, round % 4), (1, 0), (2, 3), (3, round % 2)];
            let grants = a.allocate(&reqs);
            b.allocate_into(&reqs, &mut buf);
            assert_eq!(grants, buf, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_request_rejected() {
        let mut alloc = SeparableAllocator::new(2, 2);
        let _ = alloc.allocate(&[(0, 5)]);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = SeparableAllocator::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "64-bit request mask")]
    fn more_than_64_inputs_rejected() {
        let _ = SeparableAllocator::new(65, 3);
    }

    #[test]
    fn row_requests_match_pair_requests() {
        let mut rows = SeparableAllocator::new(4, 4);
        let mut pairs = SeparableAllocator::new(4, 4);
        let mut by_row = Vec::new();
        let mut by_pair = Vec::new();
        for round in 0..6 {
            let reqs = [(0, round % 4), (0, 3), (1, 0), (2, 3), (3, round % 2)];
            for &(i, r) in &reqs {
                rows.request(i, 1 << r);
            }
            rows.request(1, 0);
            rows.allocate_requested(&mut by_row);
            pairs.allocate_into(&reqs, &mut by_pair);
            assert_eq!(by_row, by_pair, "round {round}");
            assert!(by_row.windows(2).all(|w| w[0].resource < w[1].resource));
        }
    }
}
