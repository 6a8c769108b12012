//! Latency statistics accumulation and engine work counters.

use std::fmt;
use std::time::Duration;

/// Wall-clock attribution of a run across the engine loop's rounds, in
/// nanoseconds, as the calling thread sees them. Collected only when
/// [`crate::config::NetworkConfig::with_phase_timing`] is enabled, so
/// future perf work can see *where* a regression lives (router tick vs
/// link delivery vs source injection vs the serial commit vs the gate)
/// instead of only that total wall-clock moved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Delivering the flits and credits due this cycle: scheduling the
    /// boundary mail, then draining the shard's link wheel into routers
    /// and sources.
    pub delivery: u64,
    /// Source packet generation and injection.
    pub sources: u64,
    /// Router ticks, including departure forwarding and ejection.
    pub router: u64,
    /// The serial section at every gate: the node-order commit of
    /// sample tagging and the tagged-sample log, the telemetry boundary,
    /// and the rebalance, stop and fast-forward decisions — for every
    /// engine kind.
    pub stats: u64,
    /// Time the calling thread spent waiting at the per-cycle gate for
    /// the other shards — straggler imbalance plus synchronization cost.
    /// A one-shard run's gate never blocks, so this is its bare cost
    /// there, and a step has no gate wait at all.
    pub barrier: u64,
    /// Rounds that executed a cycle (one gate episode each). Divided by
    /// the executed cycle count this gives barrier waits per cycle — the
    /// fused-phase protocol holds it at one per executed cycle where the
    /// original three-phase protocol paid three.
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
    /// Adds one round of the engine loop: `wait` at the gate, `serial`
    /// in the serial section, and — when the round executed a cycle —
    /// the `[delivery, sources, router]` nanoseconds of shard 0's fused
    /// phases, which stand for the (balanced) others.
    pub fn add_round(&mut self, wait: Duration, serial: Duration, executed: Option<[u64; 3]>) {
        self.barrier += wait.as_nanos() as u64;
        self.stats += serial.as_nanos() as u64;
        if let Some([delivery, sources, router]) = executed {
            self.barrier_waits += 1;
            self.delivery += delivery;
            self.sources += sources;
            self.router += router;
        }
    }

    /// Total attributed nanoseconds.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.delivery + self.sources + self.router + self.stats + self.barrier
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
