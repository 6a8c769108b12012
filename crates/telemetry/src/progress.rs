//! Batch progress metering: a completion count and a points/sec rate
//! over the trailing completions.
//!
//! Rates derive from the instants of the last `WINDOW` completions
//! rather than a single running average, so the displayed points/sec
//! tracks the current mix of cheap and expensive points.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How many trailing completions the rate window spans.
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
    completed: u64,
    /// The instant the rate window opens — the meter's start, or the
    /// completion just before the window — followed by the window's
    /// completions, at most `WINDOW` of them.
    recent: VecDeque<Instant>,
}

impl ProgressMeter {
    /// A meter starting now.
    #[must_use]
    pub fn new() -> Self {
        let mut recent = VecDeque::with_capacity(WINDOW + 1);
        recent.push_back(Instant::now());
        ProgressMeter {
            completed: 0,
            recent,
        }
    }

    /// Records one completed point and returns the current reading.
    pub fn tick(&mut self) -> Progress {
        self.completed += 1;
        if self.recent.len() > WINDOW {
            self.recent.pop_front();
        }
        self.recent.push_back(Instant::now());
        Progress {
            completed: self.completed,
            per_sec: self.rate(),
        }
    }

    /// Points completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Windowed points/sec over the last `WINDOW` completions (all of
    /// them while fewer), or 0 while under a millisecond of window has
    /// elapsed.
    #[must_use]
    pub fn rate(&self) -> f64 {
        let (Some(open), Some(last)) = (self.recent.front(), self.recent.back()) else {
            return 0.0;
        };
        let dt = last.duration_since(*open);
        if dt < Duration::from_millis(1) {
            return 0.0;
        }
        (self.recent.len() - 1) as f64 / dt.as_secs_f64()
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
