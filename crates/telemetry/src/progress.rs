//! Batch progress metering built on the metrics tap.
//!
//! [`ProgressMeter`] is a thin client of the same machinery the engines
//! use: a [`MetricsRegistry`] with a `points_done` counter and an
//! `elapsed_ms` gauge, snapshotted into a [`MemoryTap`] on every
//! completed point. Rates derive from the tap's recent snapshot window
//! rather than a single running average, so the displayed points/sec
//! tracks the current mix of cheap and expensive points.

use crate::{MemoryTap, MetricId, MetricsRegistry, MetricsTap};
use std::time::Instant;

/// How many trailing snapshots the rate window spans.
const WINDOW: usize = 32;

/// One progress reading, returned by [`ProgressMeter::tick`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Points completed so far.
    pub completed: u64,
    /// Windowed completion rate, points per second (0 until measurable).
    pub per_sec: f64,
}

impl Progress {
    /// Estimated seconds to finish `remaining` more points, if the rate
    /// is measurable yet.
    #[must_use]
    pub fn eta_secs(&self, remaining: u64) -> Option<u64> {
        (self.per_sec > 0.0).then(|| (remaining as f64 / self.per_sec).ceil() as u64)
    }
}

/// Completion meter: call [`ProgressMeter::tick`] once per finished
/// point.
#[derive(Debug)]
pub struct ProgressMeter {
    start: Instant,
    reg: MetricsRegistry,
    done: MetricId,
    elapsed_ms: MetricId,
    tap: MemoryTap,
}

impl ProgressMeter {
    /// A meter starting now.
    #[must_use]
    pub fn new() -> Self {
        let mut reg = MetricsRegistry::new();
        let done = reg.counter("points_done");
        let elapsed_ms = reg.gauge("elapsed_ms");
        ProgressMeter {
            start: Instant::now(),
            reg,
            done,
            elapsed_ms,
            tap: MemoryTap::default(),
        }
    }

    /// Records one completed point and returns the current reading.
    pub fn tick(&mut self) -> Progress {
        self.reg.add(self.done, 1);
        let ms = self.start.elapsed().as_millis() as u64;
        self.reg.set(self.elapsed_ms, ms);
        let completed = self.reg.get(self.done);
        let epoch = self.tap.log.len() as u64;
        self.tap.record(&self.reg.snapshot(completed, epoch));
        Progress {
            completed,
            per_sec: self.rate(),
        }
    }

    /// Points completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.reg.get(self.done)
    }

    /// Windowed points/sec over the last `WINDOW` snapshots (the
    /// whole stream while shorter), or 0 while under a millisecond of
    /// window has elapsed.
    #[must_use]
    pub fn rate(&self) -> f64 {
        let log = &self.tap.log;
        let n = log.len();
        if n == 0 {
            return 0.0;
        }
        let last = n - 1;
        let base = n.saturating_sub(WINDOW);
        let done_now = log.value(last, "points_done").unwrap_or(0);
        let ms_now = log.value(last, "elapsed_ms").unwrap_or(0);
        // The window base is "just before" its snapshot: for the first
        // window that is the meter's start (0 points, 0 ms).
        let (done_base, ms_base) = if base == 0 {
            (0, 0)
        } else {
            (
                log.value(base - 1, "points_done").unwrap_or(0),
                log.value(base - 1, "elapsed_ms").unwrap_or(0),
            )
        };
        let dt_ms = ms_now.saturating_sub(ms_base);
        if dt_ms == 0 {
            return 0.0;
        }
        (done_now - done_base) as f64 * 1_000.0 / dt_ms as f64
    }
}

impl Default for ProgressMeter {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_count_and_eta_follows_rate() {
        let mut m = ProgressMeter::new();
        assert_eq!(m.completed(), 0);
        assert_eq!(m.rate(), 0.0);
        let mut p = m.tick();
        p = {
            std::thread::sleep(std::time::Duration::from_millis(5));
            let _ = p;
            m.tick()
        };
        assert_eq!(p.completed, 2);
        assert_eq!(m.completed(), 2);
        assert!(p.per_sec > 0.0, "5ms elapsed: rate is measurable");
        let eta = p.eta_secs(10).unwrap();
        assert!(eta >= 1, "ceil of a positive estimate");
        assert_eq!(
            Progress {
                completed: 1,
                per_sec: 0.0
            }
            .eta_secs(10),
            None,
            "no rate yet, no ETA"
        );
    }
}
