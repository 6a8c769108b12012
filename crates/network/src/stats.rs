//! Latency statistics accumulation and engine work counters.

use std::fmt;
use std::time::Instant;

/// Wall-clock attribution of a run across the engine's per-cycle phases,
/// in nanoseconds. Collected only when
/// [`crate::config::NetworkConfig::with_phase_timing`] is enabled, so
/// future perf work can see *where* a regression lives (router tick vs
/// link delivery vs source injection vs statistics upkeep) instead of
/// only that total wall-clock moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Delivering the flits and credits due this cycle from the link
    /// wheel into routers and sources (under the sharded-parallel
    /// engine: scheduling the boundary mail, then the shard's wheel).
    pub delivery: u64,
    /// Source packet generation and injection.
    pub sources: u64,
    /// Router ticks, including departure forwarding and ejection.
    pub router: u64,
    /// Statistics upkeep (channel-load accounting, cycle bookkeeping;
    /// under the sharded-parallel engine: the serial node-order commit of
    /// tagging, latency, and channel-load state).
    pub stats: u64,
    /// Time the coordinating thread spent waiting at the per-cycle gate
    /// barrier of the sharded-parallel engine — straggler imbalance plus
    /// synchronization cost. Always zero for the serial engines.
    pub barrier: u64,
    /// Barrier wait *episodes* the coordinating thread entered. Divided
    /// by the executed cycle count this gives barrier waits per cycle —
    /// the fused-phase protocol holds it at one per executed cycle where
    /// the original three-phase protocol paid three.
    pub barrier_waits: u64,
    /// Cycles skipped by quiescence fast-forward (all shards idle until
    /// the next wheel event), which execute no phases and wait at no
    /// barrier.
    pub fast_forwarded: u64,
    /// Shard repartitions performed by the work-metered rebalancer
    /// (zero for the serial engines and with the knob off).
    pub rebalances: u64,
    /// Nodes whose owning shard changed, summed over all rebalances.
    pub migrated_nodes: u64,
    /// Sum over metered epochs of the per-shard `work_max / work_mean`
    /// ratio in milli-units (1000 = perfect balance). Kept as an integer
    /// so `PhaseNanos` stays `Eq`; read it through
    /// [`PhaseNanos::work_imbalance`].
    pub imbalance_milli_sum: u64,
    /// Number of rebalance epochs metered (the denominator of
    /// [`PhaseNanos::work_imbalance`]).
    pub imbalance_epochs: u64,
}

impl PhaseNanos {
    /// Adds one cycle's phase boundaries: delivery ran `t0..t1`, sources
    /// `t1..t2`, router ticks `t2..t3`, stats upkeep `t3..t4`.
    pub fn accumulate(&mut self, t0: Instant, t1: Instant, t2: Instant, t3: Instant, t4: Instant) {
        self.delivery += (t1 - t0).as_nanos() as u64;
        self.sources += (t2 - t1).as_nanos() as u64;
        self.router += (t3 - t2).as_nanos() as u64;
        self.stats += (t4 - t3).as_nanos() as u64;
    }

    /// Adds one sharded-parallel cycle measured on the coordinating
    /// thread, whose shard is representative of the (balanced) others:
    /// `t[0]..t[1]` the gate wait for follower shards plus the skip
    /// decision, `t[1]..t[2]` the serial measurement commit, `t[2]..t[3]`
    /// boundary-mail scheduling plus wheel delivery, `t[3]..t[4]`
    /// source injection, `t[4]..t[5]` router ticks (the fused compute
    /// phase runs `t[2]..t[5]` with no internal barrier).
    pub fn accumulate_parallel(&mut self, t: &[Instant; 6]) {
        self.barrier += (t[1] - t[0]).as_nanos() as u64;
        self.barrier_waits += 1;
        self.stats += (t[2] - t[1]).as_nanos() as u64;
        self.delivery += (t[3] - t[2]).as_nanos() as u64;
        self.sources += (t[4] - t[3]).as_nanos() as u64;
        self.router += (t[5] - t[4]).as_nanos() as u64;
    }

    /// Total attributed nanoseconds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.delivery + self.sources + self.router + self.stats + self.barrier
    }

    /// The share of `part` in the total, in percent (0 when empty).
    #[must_use]
    pub fn pct(&self, part: u64) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            part as f64 * 100.0 / total as f64
        }
    }

    /// Mean per-shard `work_max / work_mean` ratio over the metered
    /// rebalance epochs: 1.0 is perfect balance, 2.0 means the busiest
    /// shard carried twice the mean. 0.0 when no epoch was metered
    /// (serial engines, knob off, or a run shorter than one epoch).
    #[must_use]
    pub fn work_imbalance(&self) -> f64 {
        if self.imbalance_epochs == 0 {
            0.0
        } else {
            self.imbalance_milli_sum as f64 / 1000.0 / self.imbalance_epochs as f64
        }
    }
}

impl fmt::Display for PhaseNanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "delivery {:.1}% | sources {:.1}% | router {:.1}% | stats {:.1}%",
            self.pct(self.delivery),
            self.pct(self.sources),
            self.pct(self.router),
            self.pct(self.stats)
        )?;
        if self.barrier > 0 {
            write!(
                f,
                " | barrier {:.1}% ({} waits)",
                self.pct(self.barrier),
                self.barrier_waits
            )?;
        }
        if self.fast_forwarded > 0 {
            write!(f, " | {} cycles fast-forwarded", self.fast_forwarded)?;
        }
        if self.imbalance_epochs > 0 {
            write!(
                f,
                " | work imbalance {:.2} ({} rebalances, {} nodes moved)",
                self.work_imbalance(),
                self.rebalances,
                self.migrated_nodes
            )?;
        }
        Ok(())
    }
}

/// How much work a simulation run performed — the engine-efficiency
/// counters behind the event-driven engine's speedup claims.
///
/// Both engines produce identical measurements; what differs is how many
/// router ticks they execute to get there. The cycle-driven engine always
/// performs `cycles × nodes`; the event-driven engine skips quiescent
/// routers, so its `router_ticks` shrinks with offered load.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineWork {
    /// Cycles simulated.
    pub cycles: u64,
    /// Router ticks actually executed.
    pub router_ticks: u64,
    /// Router ticks a cycle-driven engine would have executed
    /// (`cycles × nodes`).
    pub router_ticks_possible: u64,
}

impl EngineWork {
    /// Fraction of possible router ticks skipped, in `[0, 1]`.
    #[must_use]
    pub fn skip_fraction(&self) -> f64 {
        if self.router_ticks_possible == 0 {
            0.0
        } else {
            1.0 - self.router_ticks as f64 / self.router_ticks_possible as f64
        }
    }
}

impl fmt::Display for EngineWork {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cycles, {}/{} router ticks ({:.0}% skipped)",
            self.cycles,
            self.router_ticks,
            self.router_ticks_possible,
            self.skip_fraction() * 100.0
        )
    }
}

/// Streaming latency statistics (count / mean / min / max / variance via
/// Welford's algorithm).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: Option<u64>,
    max: Option<u64>,
}

impl LatencyStats {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample, in cycles.
    pub fn record(&mut self, latency: u64) {
        self.count += 1;
        let x = latency as f64;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = Some(self.min.map_or(latency, |m| m.min(latency)));
        self.max = Some(self.max.map_or(latency, |m| m.max(latency)));
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or `None` if empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Sample standard deviation, or `None` with fewer than two samples.
    #[must_use]
    pub fn std_dev(&self) -> Option<f64> {
        (self.count > 1).then(|| (self.m2 / (self.count - 1) as f64).sqrt())
    }

    /// Smallest sample.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest sample.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Merges another accumulator into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

impl fmt::Display for LatencyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(
                f,
                "n={} mean={:.1} min={} max={}",
                self.count,
                mean,
                self.min.unwrap_or(0),
                self.max.unwrap_or(0)
            ),
            None => write!(f, "n=0"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_no_mean() {
        let s = LatencyStats::new();
        assert_eq!(s.mean(), None);
        assert_eq!(s.count(), 0);
        assert_eq!(s.min(), None);
    }

    #[test]
    fn mean_min_max_of_known_samples() {
        let mut s = LatencyStats::new();
        for x in [10u64, 20, 30] {
            s.record(x);
        }
        assert_eq!(s.mean(), Some(20.0));
        assert_eq!(s.min(), Some(10));
        assert_eq!(s.max(), Some(30));
        assert!((s.std_dev().unwrap() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = LatencyStats::new();
        let mut b = LatencyStats::new();
        let mut all = LatencyStats::new();
        for (i, x) in [5u64, 9, 13, 21, 2, 8].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*x);
            } else {
                b.record(*x);
            }
            all.record(*x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean().unwrap() - all.mean().unwrap()).abs() < 1e-9);
        assert!((a.std_dev().unwrap() - all.std_dev().unwrap()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = LatencyStats::new();
        a.record(7);
        let before = a.clone();
        a.merge(&LatencyStats::new());
        assert_eq!(a, before);
    }

    #[test]
    fn display_shows_sample_count() {
        let mut s = LatencyStats::new();
        s.record(42);
        assert!(s.to_string().contains("n=1"));
    }

    #[test]
    fn work_imbalance_averages_metered_epochs() {
        let mut p = PhaseNanos::default();
        assert_eq!(p.work_imbalance(), 0.0, "no epochs metered");
        // Two epochs: ratios 1.5 and 2.5 → mean 2.0.
        p.imbalance_milli_sum = 1500 + 2500;
        p.imbalance_epochs = 2;
        assert!((p.work_imbalance() - 2.0).abs() < 1e-12);
        p.rebalances = 1;
        p.migrated_nodes = 16;
        let s = p.to_string();
        assert!(s.contains("work imbalance 2.00"), "{s}");
        assert!(s.contains("1 rebalances"), "{s}");
    }

    #[test]
    fn engine_work_skip_fraction() {
        let w = EngineWork {
            cycles: 10,
            router_ticks: 25,
            router_ticks_possible: 100,
        };
        assert!((w.skip_fraction() - 0.75).abs() < 1e-12);
        assert!(w.to_string().contains("75% skipped"));
        assert_eq!(EngineWork::default().skip_fraction(), 0.0);
    }
}
