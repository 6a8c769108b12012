//! Reference arbiters: the straightforward `bool`-slice algorithms the
//! crate's `u64`-mask arbiters replaced, kept as test oracles. Each one
//! walks its request vector index by index exactly as the definitions in
//! the paper read, so a differential test can demand grant-for-grant
//! identity from the mask versions.

/// Matrix arbiter over an `n × n` `bool` priority matrix.
#[derive(Debug, Clone)]
pub struct MatrixRef {
    n: usize,
    /// `beats[i * n + j]`: requestor `i` has priority over `j`.
    beats: Vec<bool>,
}

impl MatrixRef {
    pub fn new(n: usize) -> Self {
        let beats = (0..n * n).map(|k| k / n < k % n).collect();
        MatrixRef { n, beats }
    }

    /// The requestor that beats every other active requestor.
    pub fn peek(&self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n);
        (0..self.n).find(|&i| {
            let row = &self.beats[i * self.n..(i + 1) * self.n];
            requests[i] && (0..self.n).all(|j| j == i || !requests[j] || row[j])
        })
    }

    /// Moves `winner` to lowest priority.
    pub fn demote(&mut self, winner: usize) {
        for j in 0..self.n {
            if j != winner {
                self.beats[winner * self.n + j] = false;
                self.beats[j * self.n + winner] = true;
            }
        }
    }

    pub fn has_priority(&self, i: usize, j: usize) -> bool {
        self.beats[i * self.n + j]
    }
}

/// Round-robin arbiter searching `(next + k) % n` for `k` in `0..n`.
#[derive(Debug, Clone)]
pub struct RoundRobinRef {
    n: usize,
    next: usize,
}

impl RoundRobinRef {
    pub fn new(n: usize) -> Self {
        RoundRobinRef { n, next: 0 }
    }

    pub fn pointer(&self) -> usize {
        self.next
    }

    pub fn peek(&self, requests: &[bool]) -> Option<usize> {
        assert_eq!(requests.len(), self.n);
        (0..self.n)
            .map(|k| (self.next + k) % self.n)
            .find(|&i| requests[i])
    }

    pub fn advance_past(&mut self, winner: usize) {
        self.next = (winner + 1) % self.n;
    }
}

/// Separable allocator: per-input round-robin over a `bool` request
/// matrix, then per-resource matrix arbitration, resources in order.
#[derive(Debug, Clone)]
pub struct SeparableRef {
    n_in: usize,
    n_out: usize,
    stage1: Vec<RoundRobinRef>,
    stage2: Vec<MatrixRef>,
}

impl SeparableRef {
    pub fn new(n_in: usize, n_out: usize) -> Self {
        SeparableRef {
            n_in,
            n_out,
            stage1: (0..n_in).map(|_| RoundRobinRef::new(n_out)).collect(),
            stage2: (0..n_out).map(|_| MatrixRef::new(n_in)).collect(),
        }
    }

    /// One allocation over `(input, resource)` pairs, as
    /// `(input, resource)` grants in ascending resource order.
    pub fn allocate(&mut self, requests: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let mut req = vec![false; self.n_in * self.n_out];
        for &(i, r) in requests {
            req[i * self.n_out + r] = true;
        }
        let chosen: Vec<Option<usize>> = (0..self.n_in)
            .map(|i| self.stage1[i].peek(&req[i * self.n_out..(i + 1) * self.n_out]))
            .collect();
        let mut grants = Vec::new();
        for r in 0..self.n_out {
            let contenders: Vec<bool> = chosen.iter().map(|&c| c == Some(r)).collect();
            if let Some(winner) = self.stage2[r].peek(&contenders) {
                self.stage2[r].demote(winner);
                self.stage1[winner].advance_past(r);
                grants.push((winner, r));
            }
        }
        grants
    }
}
