//! Latency–throughput curves: one point per offered load, and the
//! saturation throughput of a curve. A curve is built by running one
//! configuration at each load (`repro_bench::queued::queued_figure`
//! builds every figure's curves as one batch).

use crate::sim::RunResult;
use std::fmt;

/// One point of a latency–throughput curve.
#[derive(Debug, Clone)]
pub struct LoadPoint {
    /// Offered load, fraction of capacity.
    pub offered: f64,
    /// Mean tagged-packet latency in cycles, if the sample completed.
    pub latency: Option<f64>,
    /// Accepted throughput, fraction of capacity.
    pub accepted: f64,
    /// Whether the network saturated at this load.
    pub saturated: bool,
}

impl From<RunResult> for LoadPoint {
    fn from(r: RunResult) -> Self {
        // A network past saturation may still drain its tagged sample
        // eventually (with enormous latency); what defines saturation is
        // that accepted throughput falls short of offered load.
        let undelivered = r.saturated;
        let throughput_collapsed = r.accepted < r.offered * 0.9 - 0.01;
        LoadPoint {
            offered: r.offered,
            latency: r.avg_latency,
            accepted: r.accepted,
            saturated: undelivered || throughput_collapsed,
        }
    }
}

impl fmt::Display for LoadPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.latency, self.saturated) {
            (Some(l), false) => write!(
                f,
                "{:5.2} -> {:7.1} cycles (accepted {:.2})",
                self.offered, l, self.accepted
            ),
            (Some(l), true) => write!(
                f,
                "{:5.2} -> {:7.1} cycles (SATURATED, accepted {:.2})",
                self.offered, l, self.accepted
            ),
            (None, _) => write!(f, "{:5.2} -> saturated", self.offered),
        }
    }
}

/// The saturation throughput of a curve: the highest offered load whose
/// point completed with latency below `threshold × zero-load latency`
/// (the latency of the lowest-load point). Returns 0.0 for an empty or
/// immediately-saturated curve.
#[must_use]
pub fn saturation_throughput(curve: &[LoadPoint], threshold: f64) -> f64 {
    let Some(zero_load) = curve
        .iter()
        .find_map(|p| p.latency.filter(|_| !p.saturated))
    else {
        return 0.0;
    };
    curve
        .iter()
        .filter(|p| !p.saturated && p.latency.is_some_and(|l| l <= zero_load * threshold))
        .map(|p| p.offered)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{NetworkConfig, RouterKind};
    use crate::sim::Network;

    fn base() -> NetworkConfig {
        NetworkConfig::mesh(
            4,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_warmup(100)
        .with_sample(150)
        .with_max_cycles(8_000)
    }

    #[test]
    fn latency_rises_with_load() {
        let point = |load| LoadPoint::from(Network::new(base().with_injection(load)).run());
        let (low, high) = (point(0.1), point(0.5));
        assert!(!low.saturated, "low load does not saturate");
        let low = low.latency.expect("low load completes");
        let high = high.latency.expect("moderate load completes");
        assert!(
            high >= low,
            "latency must not drop with load: {low} -> {high}"
        );
    }

    #[test]
    fn saturation_throughput_of_synthetic_curve() {
        let curve = vec![
            LoadPoint {
                offered: 0.1,
                latency: Some(30.0),
                accepted: 0.1,
                saturated: false,
            },
            LoadPoint {
                offered: 0.3,
                latency: Some(35.0),
                accepted: 0.3,
                saturated: false,
            },
            LoadPoint {
                offered: 0.5,
                latency: Some(60.0),
                accepted: 0.5,
                saturated: false,
            },
            LoadPoint {
                offered: 0.6,
                latency: Some(200.0),
                accepted: 0.55,
                saturated: false,
            },
            LoadPoint {
                offered: 0.7,
                latency: None,
                accepted: 0.55,
                saturated: true,
            },
        ];
        assert_eq!(saturation_throughput(&curve, 3.0), 0.5);
        assert_eq!(saturation_throughput(&curve, 10.0), 0.6);
    }

    #[test]
    fn empty_curve_has_zero_saturation() {
        assert_eq!(saturation_throughput(&[], 3.0), 0.0);
    }

    #[test]
    fn display_formats_both_states() {
        let p = LoadPoint {
            offered: 0.4,
            latency: Some(42.0),
            accepted: 0.4,
            saturated: false,
        };
        assert!(p.to_string().contains("42.0"));
        let s = LoadPoint {
            offered: 0.9,
            latency: None,
            accepted: 0.5,
            saturated: true,
        };
        assert!(s.to_string().contains("saturated"));
    }
}
