//! A latency histogram with percentile queries.
//!
//! Complements [`crate::stats::LatencyStats`]'s streaming moments with a
//! full distribution: the paper reports averages, but tail latency is
//! what distinguishes a router nearing saturation from one comfortably
//! below it.

use std::fmt;

/// A fixed-bucket-width histogram of cycle counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bucket_width: u64,
    counts: Vec<u64>,
    total: u64,
    overflow: u64,
}

impl Histogram {
    /// A histogram of `buckets` buckets of `bucket_width` cycles each;
    /// samples beyond the range land in an overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics on zero width or zero buckets.
    #[must_use]
    pub fn new(bucket_width: u64, buckets: usize) -> Self {
        assert!(bucket_width > 0, "bucket width must be positive");
        assert!(buckets > 0, "need at least one bucket");
        Histogram {
            bucket_width,
            counts: vec![0; buckets],
            total: 0,
            overflow: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = (value / self.bucket_width) as usize;
        if idx < self.counts.len() {
            self.counts[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.total += 1;
    }

    /// Number of samples recorded.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Samples beyond the bucketed range.
    #[must_use]
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// The top of the bucketed range: samples at or beyond it land in
    /// the overflow bucket, and a quantile among them reads `None`.
    #[must_use]
    pub fn limit(&self) -> u64 {
        self.bucket_width * self.counts.len() as u64
    }

    /// The `q`-quantile (0 < q ≤ 1) as an upper bucket bound, or `None`
    /// if empty or the quantile falls in the overflow bucket.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(q > 0.0 && q <= 1.0, "quantile must be in (0, 1]");
        if self.total == 0 {
            return None;
        }
        let rank = (q * self.total as f64).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some((i as u64 + 1) * self.bucket_width);
            }
        }
        None // in the overflow bucket
    }

    /// Median (p50) upper bound.
    #[must_use]
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 95th percentile upper bound.
    #[must_use]
    pub fn p95(&self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// 99th percentile upper bound.
    #[must_use]
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// The p50/p95/p99 summary incremental result records carry: each is
    /// an upper bucket bound, or `None` when the histogram is empty or
    /// that quantile falls in the overflow bucket.
    #[must_use]
    pub fn percentiles(&self) -> Percentiles {
        Percentiles {
            p50: self.median(),
            p95: self.p95(),
            p99: self.p99(),
        }
    }

    /// The non-empty `(bucket upper bound, count)` pairs.
    #[must_use]
    pub fn buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| ((i as u64 + 1) * self.bucket_width, c))
            .collect()
    }

    /// Renders an ASCII bar chart (one row per non-empty bucket).
    #[must_use]
    pub fn render(&self, width: usize) -> String {
        let buckets = self.buckets();
        let max = buckets.iter().map(|&(_, c)| c).max().unwrap_or(1);
        let mut out = String::new();
        for (bound, count) in buckets {
            let bar = "#".repeat(((count as f64 / max as f64) * width as f64).ceil() as usize);
            out.push_str(&format!("<{bound:>6} | {bar} {count}\n"));
        }
        if self.overflow > 0 {
            out.push_str(&format!(" beyond | {} samples\n", self.overflow));
        }
        out
    }
}

/// The tail-latency summary of a run: p50/p95/p99 upper bucket bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Percentiles {
    /// Median upper bound, if measured.
    pub p50: Option<u64>,
    /// 95th-percentile upper bound, if measured.
    pub p95: Option<u64>,
    /// 99th-percentile upper bound, if measured.
    pub p99: Option<u64>,
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram(n={}, p50≤{:?}, p99≤{:?})",
            self.total,
            self.median(),
            self.p99()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new(10, 10);
        assert_eq!(h.median(), None);
        assert_eq!(h.total(), 0);
    }

    #[test]
    fn quantiles_of_uniform_samples() {
        let mut h = Histogram::new(10, 10);
        for v in 0..100 {
            h.record(v);
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.median(), Some(50));
        assert_eq!(h.p99(), Some(100));
        assert_eq!(h.quantile(0.1), Some(10));
    }

    #[test]
    fn overflow_counts_separately() {
        let mut h = Histogram::new(10, 2);
        h.record(5);
        h.record(25); // beyond 2 buckets x 10
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.total(), 2);
        assert_eq!(h.median(), Some(10));
        assert_eq!(h.quantile(1.0), None, "max falls in overflow");
    }

    #[test]
    fn buckets_skip_empty() {
        let mut h = Histogram::new(10, 5);
        h.record(1);
        h.record(41);
        assert_eq!(h.buckets(), vec![(10, 1), (50, 1)]);
    }

    #[test]
    fn render_has_bar_per_bucket() {
        let mut h = Histogram::new(10, 5);
        h.record(1);
        h.record(2);
        h.record(15);
        let s = h.render(20);
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains('#'));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn zero_quantile_rejected() {
        let h = Histogram::new(10, 10);
        let _ = h.quantile(0.0);
    }

    #[test]
    fn percentiles_of_known_uniform_distribution() {
        // 1000 samples uniform over [0, 1000) in 10-cycle buckets: the
        // q-quantile's upper bucket bound is ceil(q * 1000 / 10) * 10.
        let mut h = Histogram::new(10, 100);
        for v in 0..1000 {
            h.record(v);
        }
        let p = h.percentiles();
        assert_eq!(p.p50, Some(500));
        assert_eq!(p.p95, Some(950));
        assert_eq!(p.p99, Some(990));
        assert_eq!(p.p50, h.median());
        assert_eq!(p.p95, h.p95());
    }

    #[test]
    fn percentiles_of_skewed_distribution() {
        // 99 fast samples and one slow outlier: the tail quantiles must
        // find the outlier's bucket while the median stays low.
        let mut h = Histogram::new(10, 50);
        for _ in 0..99 {
            h.record(5);
        }
        h.record(400);
        let p = h.percentiles();
        assert_eq!(p.p50, Some(10));
        assert_eq!(p.p95, Some(10), "95% of mass is in the first bucket");
        assert_eq!(p.p99, Some(10), "rank 99 of 100 is still the fast bucket");
        assert_eq!(h.quantile(1.0), Some(410), "the max finds the outlier");
    }

    #[test]
    fn empty_percentiles_are_all_none() {
        let p = Histogram::new(10, 10).percentiles();
        assert_eq!((p.p50, p.p95, p.p99), (None, None, None));
    }

    #[test]
    fn overflow_tail_reports_none() {
        // p50 lands in a real bucket; p99 falls into overflow → None.
        let mut h = Histogram::new(10, 2);
        for _ in 0..60 {
            h.record(5);
        }
        for _ in 0..40 {
            h.record(1_000);
        }
        let p = h.percentiles();
        assert_eq!(p.p50, Some(10));
        assert_eq!(p.p95, None);
        assert_eq!(p.p99, None);
    }
}
