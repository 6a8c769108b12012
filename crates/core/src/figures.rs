//! One function per table/figure of the paper.

use crate::scale::SimScale;
use delay_model::{canonical, FlowControl, ModuleKind, RouterParams, RoutingFunction};
use noc_network::{
    sweep::{saturation_throughput, sweep_parallel, LoadPoint, SweepOptions},
    NetworkConfig, RouterKind,
};

pub use delay_model::table1::{generate as table1, render as table1_text, Table1Row};

/// One bar of Figure 11: the pipeline prescribed for a configuration.
#[derive(Debug, Clone)]
pub struct PipelineBar {
    /// Legend label, e.g. `"8vcs,5pcs"` or `"wormhole"`.
    pub label: String,
    /// Physical channels.
    pub p: u32,
    /// Virtual channels per physical channel.
    pub v: u32,
    /// Pipeline depth in stages (the bar height).
    pub depth: u32,
    /// Per-stage `(module label, fraction of clock used)` pairs.
    pub stages: Vec<Vec<(ModuleKind, f64)>>,
}

fn pipeline_bar(label: String, fc: FlowControl, params: &RouterParams) -> PipelineBar {
    let pipe = canonical::pipeline(fc, params);
    PipelineBar {
        label,
        p: params.p,
        v: params.v,
        depth: pipe.depth(),
        stages: pipe
            .stages()
            .iter()
            .map(|s| {
                s.entries
                    .iter()
                    .map(|(k, d)| (*k, d.value() / params.clk.value()))
                    .collect()
            })
            .collect(),
    }
}

/// The `(v, p)` grid of the paper's Figures 11 and 12:
/// v ∈ {2, 4, 8, 16, 32} × p ∈ {5, 7}.
#[must_use]
pub fn figure11_grid() -> Vec<(u32, u32)> {
    let mut grid = Vec::new();
    for p in [5u32, 7] {
        for v in [2u32, 4, 8, 16, 32] {
            grid.push((v, p));
        }
    }
    grid
}

/// Figure 11(a): pipelines of non-speculative VC routers over the (v, p)
/// grid, with the wormhole 3-stage pipeline as the reference first bar.
/// The VC allocator assumes the most general routing function (`Rp→v`),
/// as in the paper's caption.
#[must_use]
pub fn fig11_nonspeculative() -> Vec<PipelineBar> {
    let mut bars = vec![pipeline_bar(
        "wormhole".into(),
        FlowControl::Wormhole,
        &RouterParams::paper_default(),
    )];
    for (v, p) in figure11_grid() {
        let params = RouterParams::with_channels(p, v);
        bars.push(pipeline_bar(
            format!("{v}vcs,{p}pcs"),
            FlowControl::VirtualChannel(RoutingFunction::Rpv),
            &params,
        ));
    }
    bars
}

/// Figure 11(b): pipelines of speculative VC routers (routing function
/// `Rv→`, as in the paper's caption), wormhole reference first.
#[must_use]
pub fn fig11_speculative() -> Vec<PipelineBar> {
    let mut bars = vec![pipeline_bar(
        "wormhole".into(),
        FlowControl::Wormhole,
        &RouterParams::paper_default(),
    )];
    for (v, p) in figure11_grid() {
        let params = RouterParams::with_channels(p, v);
        bars.push(pipeline_bar(
            format!("{v}vcs,{p}pcs"),
            FlowControl::SpeculativeVirtualChannel(RoutingFunction::Rv),
            &params,
        ));
    }
    bars
}

/// One row of Figure 12: combined VA∥SA stage delay (τ4) of a speculative
/// router, for each routing-function range.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Legend label, e.g. `"8vcs,5pcs"`.
    pub label: String,
    /// Virtual channels.
    pub v: u32,
    /// Physical channels.
    pub p: u32,
    /// Delay in τ4 for `Rv→`, `Rp→`, `Rp→v` in that order.
    pub delay_tau4: [f64; 3],
}

/// Figure 12: effect of (p, v) and routing-function range on the combined
/// allocation stage delay.
#[must_use]
pub fn fig12() -> Vec<Fig12Row> {
    figure11_grid()
        .into_iter()
        .map(|(v, p)| {
            let params = RouterParams::with_channels(p, v);
            let delays = RoutingFunction::ALL
                .map(|r| delay_model::combined_va_sa(r, &params).t.as_tau4().value());
            Fig12Row {
                label: format!("{v}vcs,{p}pcs"),
                v,
                p,
                delay_tau4: delays,
            }
        })
        .collect()
}

/// One latency–throughput series of a simulated figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label, matching the paper's.
    pub label: String,
    /// The measured curve.
    pub points: Vec<LoadPoint>,
}

impl Series {
    /// Saturation throughput: highest offered load with latency below
    /// 3× the zero-load latency.
    #[must_use]
    pub fn saturation(&self) -> f64 {
        saturation_throughput(&self.points, 3.0)
    }

    /// Zero-load latency: the first completed point's latency.
    #[must_use]
    pub fn zero_load(&self) -> Option<f64> {
        self.points
            .iter()
            .find(|p| !p.saturated)
            .and_then(|p| p.latency)
    }
}

/// A simulated figure: several series over the same load axis.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Figure name, e.g. `"Figure 13"`.
    pub name: String,
    /// The series, in legend order.
    pub series: Vec<Series>,
}

fn run_series(name: &str, configs: Vec<(String, NetworkConfig)>, scale: SimScale) -> Figure {
    let opts = SweepOptions {
        loads: scale.loads(),
        stop_at_saturation: true,
    };
    let series = configs
        .into_iter()
        .map(|(label, cfg)| Series {
            label,
            points: sweep_parallel(&scale.apply(cfg), &opts),
        })
        .collect();
    Figure {
        name: name.into(),
        series,
    }
}

/// The labelled configurations of Figure 13: WH (8 bufs), VC
/// (2vcs×4bufs), specVC (2vcs×4bufs) on the 8×8 mesh — 8 flit buffers
/// per input port. Public so batch drivers (e.g. the `runq`-backed
/// `repro-fig13`) sweep exactly the figure's experiments.
#[must_use]
pub fn fig13_configs() -> Vec<(String, NetworkConfig)> {
    [
        RouterKind::Wormhole { buffers: 8 },
        RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        },
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    ]
    .into_iter()
    .map(|k| (k.label(), NetworkConfig::mesh(8, k)))
    .collect()
}

/// Figure 13: see [`fig13_configs`].
#[must_use]
pub fn fig13(scale: SimScale) -> Figure {
    run_series("Figure 13", fig13_configs(), scale)
}

/// Figure 14: 16 buffers per port, 2 VCs — WH (16), VC (2×8), specVC (2×8).
#[must_use]
pub fn fig14(scale: SimScale) -> Figure {
    run_series(
        "Figure 14",
        [
            RouterKind::Wormhole { buffers: 16 },
            RouterKind::VirtualChannel {
                vcs: 2,
                buffers_per_vc: 8,
            },
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 8,
            },
        ]
        .into_iter()
        .map(|k| (k.label(), NetworkConfig::mesh(8, k)))
        .collect(),
        scale,
    )
}

/// Figure 15: 16 buffers per port, 4 VCs — WH (16), VC (4×4), specVC (4×4).
#[must_use]
pub fn fig15(scale: SimScale) -> Figure {
    run_series(
        "Figure 15",
        [
            RouterKind::Wormhole { buffers: 16 },
            RouterKind::VirtualChannel {
                vcs: 4,
                buffers_per_vc: 4,
            },
            RouterKind::SpeculativeVc {
                vcs: 4,
                buffers_per_vc: 4,
            },
        ]
        .into_iter()
        .map(|k| (k.label(), NetworkConfig::mesh(8, k)))
        .collect(),
        scale,
    )
}

/// Figure 17: the pipelined model vs the single-cycle ("unit latency")
/// model, 8 buffers per port.
#[must_use]
pub fn fig17(scale: SimScale) -> Figure {
    let wh = RouterKind::Wormhole { buffers: 8 };
    let vc = RouterKind::VirtualChannel {
        vcs: 2,
        buffers_per_vc: 4,
    };
    let spec = RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    };
    run_series(
        "Figure 17",
        vec![
            (wh.label(), NetworkConfig::mesh(8, wh)),
            (vc.label(), NetworkConfig::mesh(8, vc)),
            (spec.label(), NetworkConfig::mesh(8, spec)),
            (
                format!("{} (single-cycle)", wh.label()),
                NetworkConfig::mesh(8, wh).with_single_cycle(true),
            ),
            (
                format!("{} (single-cycle)", vc.label()),
                NetworkConfig::mesh(8, vc).with_single_cycle(true),
            ),
        ],
        scale,
    )
}

/// The labelled configurations of Figure 18: speculative VC routers
/// (2 VCs × 4 buffers) with 1-cycle vs 4-cycle credit propagation
/// latency. Public for the same reason as [`fig13_configs`].
#[must_use]
pub fn fig18_configs() -> Vec<(String, NetworkConfig)> {
    let spec = RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    };
    vec![
        (
            "specVC (1-cycle credit propagation)".into(),
            NetworkConfig::mesh(8, spec),
        ),
        (
            "specVC (4-cycle credit propagation)".into(),
            NetworkConfig::mesh(8, spec).with_credit_prop_delay(4),
        ),
    ]
}

/// Figure 18: see [`fig18_configs`].
#[must_use]
pub fn fig18(scale: SimScale) -> Figure {
    run_series("Figure 18", fig18_configs(), scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_is_reexported_complete() {
        assert_eq!(table1().len(), 9);
        assert!(table1_text().contains("Switch arbiter"));
    }

    #[test]
    fn fig11a_depths_follow_the_model() {
        let bars = fig11_nonspeculative();
        assert_eq!(bars.len(), 11);
        assert_eq!(bars[0].depth, 3, "wormhole reference bar");
        // 2 VCs, 5 pcs: 4 stages.
        assert_eq!(bars[1].depth, 4);
        // Depths never decrease with v for fixed p.
        for w in bars[1..6].windows(2) {
            assert!(w[1].depth >= w[0].depth);
        }
    }

    #[test]
    fn fig11b_speculative_keeps_three_stages_to_16_vcs() {
        let bars = fig11_speculative();
        for bar in &bars[1..] {
            if bar.v <= 16 {
                assert_eq!(bar.depth, 3, "{}", bar.label);
            } else {
                assert!(bar.depth > 3, "{}", bar.label);
            }
        }
    }

    #[test]
    fn fig11_bars_have_utilizations_within_unit() {
        for bar in fig11_nonspeculative()
            .iter()
            .chain(fig11_speculative().iter())
        {
            for stage in &bar.stages {
                let total: f64 = stage.iter().map(|(_, f)| f).sum();
                assert!(total <= 1.0 + 1e-9, "{}: stage over one cycle", bar.label);
            }
        }
    }

    #[test]
    fn fig12_rv_is_never_slowest() {
        for row in fig12() {
            let [rv, rp, rpv] = row.delay_tau4;
            assert!(rv <= rp + 1e-9, "{}", row.label);
            assert!(rp <= rpv + 1e-9, "{}", row.label);
        }
    }

    #[test]
    fn fig12_matches_table1_at_paper_point() {
        let row = fig12()
            .into_iter()
            .find(|r| r.v == 2 && r.p == 5)
            .expect("grid contains (2, 5)");
        assert!((row.delay_tau4[0] - 14.6).abs() < 0.1);
        assert!((row.delay_tau4[2] - 18.3).abs() < 0.1);
    }

    #[test]
    fn series_helpers_work_on_synthetic_data() {
        let s = Series {
            label: "x".into(),
            points: vec![
                LoadPoint {
                    offered: 0.1,
                    latency: Some(30.0),
                    accepted: 0.1,
                    saturated: false,
                },
                LoadPoint {
                    offered: 0.5,
                    latency: Some(80.0),
                    accepted: 0.5,
                    saturated: false,
                },
                LoadPoint {
                    offered: 0.6,
                    latency: Some(500.0),
                    accepted: 0.5,
                    saturated: true,
                },
            ],
        };
        assert_eq!(s.zero_load(), Some(30.0));
        assert!((s.saturation() - 0.5).abs() < 1e-9);
    }
}
