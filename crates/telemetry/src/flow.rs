//! Exact latency quantiles of the tagged sample, for the whole run and
//! per flow.
//!
//! The engine logs one `(src, dst, latency)` sample per ejected tagged
//! packet — at most the sample size, so the log is O(sample) on any
//! topology — and sorts it once when the run ends. [`Latencies`] holds
//! the run's sorted latencies, [`FlowStats`] the log sorted by *flow*
//! (one source → destination pair). Both read their quantiles by one
//! nearest-rank rule: the `q`-quantile of `n` samples is the sample at
//! 1-based rank ⌈q·n⌉ in ascending order, an exact latency rather than
//! a bucket bound, so no tail is ever clipped.

use std::cmp::Reverse;

/// p50/p95/p99 of the run's tagged sample: exact sample latencies in
/// cycles, all `None` when no tagged packet was delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Median, if measured.
    pub p50: Option<u64>,
    /// 95th percentile, if measured.
    pub p95: Option<u64>,
    /// 99th percentile, if measured.
    pub p99: Option<u64>,
}

/// p50/p95/p99 of one flow's latencies: exact sample latencies in
/// cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPercentiles {
    /// Median, cycles.
    pub p50: u64,
    /// 95th percentile, cycles.
    pub p95: u64,
    /// 99th percentile, cycles.
    pub p99: u64,
}

/// The p50, p95 and p99 of `sorted`, ascending by `value`, at the
/// nearest ranks ⌈q·n⌉; `None` when there are no samples.
fn nearest_rank<T>(sorted: &[T], value: impl Fn(&T) -> u64) -> Option<[u64; 3]> {
    let n = sorted.len() as f64;
    let at = |q: f64| value(&sorted[(q * n).ceil() as usize - 1]);
    (!sorted.is_empty()).then(|| [at(0.5), at(0.95), at(0.99)])
}

/// The tagged sample's latencies, in ascending order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Latencies {
    sorted: Vec<u64>,
}

impl Latencies {
    /// Sorts `latencies` (cycles).
    #[must_use]
    pub fn new(mut latencies: Vec<u64>) -> Self {
        latencies.sort_unstable();
        Latencies { sorted: latencies }
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether there are no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The exact nearest-rank p50/p95/p99.
    #[must_use]
    pub fn percentiles(&self) -> Percentiles {
        let p = nearest_rank(&self.sorted, |&v| v);
        Percentiles {
            p50: p.map(|p| p[0]),
            p95: p.map(|p| p[1]),
            p99: p.map(|p| p[2]),
        }
    }
}

/// One logged sample: `(src, dst, latency in cycles)`.
type Sample = (u32, u32, u64);

/// The tagged sample's latencies per flow: the log sorted by
/// `(src, dst, latency)`, so each flow's samples form one ascending run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowStats {
    nodes: u32,
    samples: Vec<Sample>,
}

impl FlowStats {
    /// Sorts a log of `(src, dst, latency)` samples between `nodes`
    /// endpoints.
    ///
    /// # Panics
    ///
    /// Panics on zero nodes.
    #[must_use]
    pub fn new(nodes: usize, mut samples: Vec<(u32, u32, u64)>) -> Self {
        assert!(nodes > 0, "need at least one node");
        samples.sort_unstable();
        FlowStats {
            nodes: nodes as u32,
            samples,
        }
    }

    /// Endpoint count of the network the samples came from.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.nodes as usize
    }

    /// The samples of the `src → dst` flow, ascending.
    fn flow(&self, src: usize, dst: usize) -> &[Sample] {
        let key = (src as u32, dst as u32);
        let lo = self.samples.partition_point(|&(s, d, _)| (s, d) < key);
        let len = self.samples[lo..].partition_point(|&(s, d, _)| (s, d) == key);
        &self.samples[lo..lo + len]
    }

    /// Every flow with samples, in ascending `(src, dst)` order.
    fn each_flow(&self) -> impl Iterator<Item = &[Sample]> {
        self.samples.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1))
    }

    /// Number of flows with at least one sample.
    #[must_use]
    pub fn flows(&self) -> u64 {
        self.each_flow().count() as u64
    }

    /// Total samples across all flows.
    #[must_use]
    pub fn samples(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Samples of one flow.
    #[must_use]
    pub fn flow_samples(&self, src: usize, dst: usize) -> u64 {
        self.flow(src, dst).len() as u64
    }

    /// Mean latency of one flow, if it has samples.
    #[must_use]
    pub fn mean(&self, src: usize, dst: usize) -> Option<f64> {
        let flow = self.flow(src, dst);
        let sum: u64 = flow.iter().map(|s| s.2).sum();
        (!flow.is_empty()).then(|| sum as f64 / flow.len() as f64)
    }

    /// The exact nearest-rank p50/p95/p99 of one flow, if it has
    /// samples.
    #[must_use]
    pub fn percentiles(&self, src: usize, dst: usize) -> Option<FlowPercentiles> {
        flow_percentiles(self.flow(src, dst))
    }

    /// The worst flow: highest p99, ties broken by p95, then p50, then
    /// lowest `(src, dst)` — a total order, so the answer is
    /// deterministic. `None` if no flow has samples.
    #[must_use]
    pub fn worst(&self) -> Option<(u32, u32, FlowPercentiles)> {
        // `min_by_key` keeps the first of equal keys: among the flows
        // with the highest percentiles, the lowest `(src, dst)`.
        self.each_flow()
            .filter_map(|f| Some((f[0].0, f[0].1, flow_percentiles(f)?)))
            .min_by_key(|&(_, _, p)| Reverse((p.p99, p.p95, p.p50)))
    }
}

fn flow_percentiles(flow: &[Sample]) -> Option<FlowPercentiles> {
    nearest_rank(flow, |s| s.2).map(|[p50, p95, p99]| FlowPercentiles { p50, p95, p99 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_percentiles_match_histogram_rule() {
        // 100 samples uniform over [0, 1000) on flow 1 -> 2, logged in
        // descending order: the quantiles are exact samples.
        let f = FlowStats::new(4, (0..100).rev().map(|v| (1, 2, v * 10)).collect());
        let p = f.percentiles(1, 2).unwrap();
        assert_eq!(p.p50, 490);
        assert_eq!(p.p95, 940);
        assert_eq!(p.p99, 980);
        assert_eq!(f.flow_samples(1, 2), 100);
        assert_eq!(f.mean(1, 2), Some(495.0));
        assert_eq!(f.flows(), 1);
        assert_eq!(f.samples(), 100);
        assert_eq!(f.percentiles(0, 0), None);
    }

    #[test]
    fn worst_flow_is_deterministic_with_ties() {
        let f = FlowStats::new(
            3,
            vec![
                (2, 0, 15), // identical distribution: tie
                (0, 1, 15),
                (1, 2, 5), // strictly better
            ],
        );
        let (src, dst, p) = f.worst().unwrap();
        assert_eq!((src, dst), (0, 1), "lowest (src, dst) wins the tie");
        assert_eq!(p.p99, 15);
        assert_eq!(FlowStats::new(3, Vec::new()).worst(), None);
    }
}
