//! Ablation studies over the design choices DESIGN.md calls out:
//! speculation on/off, buffer depth, VC count at fixed buffer budget,
//! credit-path latency, and speculation accuracy under load.

use crate::figures::Series;
use crate::scale::SimScale;
use noc_network::{
    sweep::{sweep, SweepOptions},
    Network, NetworkConfig, RouterKind,
};

/// One ablation data point.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// What was varied.
    pub label: String,
    /// Zero-load latency in cycles.
    pub zero_load: Option<f64>,
    /// Saturation throughput, fraction of capacity.
    pub saturation: f64,
}

fn measure(label: String, cfg: NetworkConfig, scale: SimScale) -> AblationRow {
    let series = Series {
        label: label.clone(),
        points: sweep(
            &scale.apply(cfg),
            &SweepOptions {
                loads: scale.loads(),
                stop_at_saturation: true,
            },
        ),
    };
    AblationRow {
        label,
        zero_load: series.zero_load(),
        saturation: series.saturation(),
    }
}

/// Speculation on/off at several buffer depths: where does the parallel
/// VA∥SA stage buy throughput, and where does buffering wash it out
/// (the Figure 13 → 14 → 15 progression, condensed)?
#[must_use]
pub fn speculation(scale: SimScale) -> Vec<AblationRow> {
    let mut rows = Vec::new();
    for bufs in [4usize, 8] {
        for (name, kind) in [
            (
                "VC",
                RouterKind::VirtualChannel {
                    vcs: 2,
                    buffers_per_vc: bufs,
                },
            ),
            (
                "specVC",
                RouterKind::SpeculativeVc {
                    vcs: 2,
                    buffers_per_vc: bufs,
                },
            ),
        ] {
            rows.push(measure(
                format!("{name} 2x{bufs}"),
                NetworkConfig::mesh(8, kind),
                scale,
            ));
        }
    }
    rows
}

/// Buffer-depth sweep for the speculative router: the credit loop is
/// 4 cycles, so depths below ~4 per VC throttle each channel.
#[must_use]
pub fn buffer_depth(scale: SimScale) -> Vec<AblationRow> {
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|bufs| {
            measure(
                format!("specVC 2x{bufs}"),
                NetworkConfig::mesh(
                    8,
                    RouterKind::SpeculativeVc {
                        vcs: 2,
                        buffers_per_vc: bufs,
                    },
                ),
                scale,
            )
        })
        .collect()
}

/// VC count at a fixed 16-flit/port budget: more, shallower VCs reduce
/// head-of-line blocking until the credit loop bites.
#[must_use]
pub fn vc_count(scale: SimScale) -> Vec<AblationRow> {
    [(1usize, 16usize), (2, 8), (4, 4)]
        .into_iter()
        .map(|(vcs, bufs)| {
            measure(
                format!("specVC {vcs}x{bufs}"),
                NetworkConfig::mesh(
                    8,
                    RouterKind::SpeculativeVc {
                        vcs,
                        buffers_per_vc: bufs,
                    },
                ),
                scale,
            )
        })
        .collect()
}

/// Credit propagation latency sweep (the Figure 18 axis, densified).
#[must_use]
pub fn credit_path(scale: SimScale) -> Vec<AblationRow> {
    [1u64, 2, 3, 4]
        .into_iter()
        .map(|prop| {
            measure(
                format!("credit prop {prop}"),
                NetworkConfig::mesh(
                    8,
                    RouterKind::SpeculativeVc {
                        vcs: 2,
                        buffers_per_vc: 4,
                    },
                )
                .with_credit_prop_delay(prop),
                scale,
            )
        })
        .collect()
}

/// Speculation accuracy vs offered load: the fraction of speculative
/// switch grants that carried a flit. At low load nearly all speculation
/// succeeds (idle crossbar, free VCs); toward saturation accuracy falls
/// but — by the non-speculative priority rule — never costs throughput.
#[must_use]
pub fn speculation_accuracy(scale: SimScale, loads: &[f64]) -> Vec<(f64, f64)> {
    loads
        .iter()
        .map(|&load| {
            let cfg = scale.apply(
                NetworkConfig::mesh(
                    8,
                    RouterKind::SpeculativeVc {
                        vcs: 2,
                        buffers_per_vc: 4,
                    },
                )
                .with_injection(load),
            );
            let run = Network::new(cfg).run();
            let acc = run.router_stats.speculation_accuracy().unwrap_or(0.0);
            (load, acc)
        })
        .collect()
}

/// Renders ablation rows as an aligned table.
#[must_use]
pub fn render(title: &str, rows: &[AblationRow]) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<18} {:>12} {:>12}\n",
        "config", "zero-load", "saturation"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<18} {:>12} {:>11.0}%\n",
            r.label,
            r.zero_load
                .map_or_else(|| "-".into(), |l| format!("{l:.1}")),
            r.saturation * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SimScale {
        SimScale {
            warmup_cycles: 400,
            sample_packets: 500,
            max_cycles: 60_000,
            load_step: 0.2,
            max_load: 0.6,
        }
    }

    #[test]
    fn speculation_rows_cover_both_architectures() {
        let rows = speculation(tiny());
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().any(|r| r.label.starts_with("VC ")));
        assert!(rows.iter().any(|r| r.label.starts_with("specVC")));
    }

    #[test]
    fn deeper_buffers_never_hurt() {
        let rows = buffer_depth(tiny());
        for w in rows.windows(2) {
            assert!(
                w[1].saturation >= w[0].saturation - 0.05,
                "{} -> {}",
                w[0].label,
                w[1].label
            );
        }
    }

    #[test]
    fn speculation_accuracy_high_at_low_load() {
        let acc = speculation_accuracy(tiny(), &[0.1]);
        assert_eq!(acc.len(), 1);
        assert!(
            acc[0].1 > 0.8,
            "speculation should almost always succeed at 10% load, got {:.2}",
            acc[0].1
        );
    }

    #[test]
    fn render_tabulates_all_rows() {
        let rows = vec![AblationRow {
            label: "x".into(),
            zero_load: Some(30.0),
            saturation: 0.5,
        }];
        let s = render("T", &rows);
        assert!(s.contains("30.0"));
        assert!(s.contains("50%"));
    }
}
