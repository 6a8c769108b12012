//! Ablation studies over the router's design choices: speculation
//! on/off, buffer depth, VC count at a fixed buffer budget, credit-path
//! latency, and speculation accuracy under load.
//!
//! An ablation table is the list of labelled configurations its rows
//! measure, as a simulated figure is (`crate::figures`); `repro-ablations`
//! runs all four tables as one batch (`repro_bench::queued::queued_figure`),
//! one curve per distinct configuration, and turns each table row's curve
//! into an [`AblationRow`].

use crate::figures::Series;
use crate::scale::SimScale;
use noc_network::{Network, NetworkConfig, RouterKind};
use std::fmt::Write as _;

/// One ablation data point.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// What was varied.
    pub label: String,
    /// Zero-load latency in cycles.
    pub zero_load: Option<f64>,
    /// Saturation throughput, fraction of capacity.
    pub saturation: f64,
}

impl From<&Series> for AblationRow {
    /// The row of a measured curve: its zero-load latency and saturation.
    fn from(series: &Series) -> Self {
        AblationRow {
            label: series.label.clone(),
            zero_load: series.zero_load(),
            saturation: series.saturation(),
        }
    }
}

/// A speculative VC router with `vcs` VCs of `bufs` buffers on the 8×8
/// mesh.
fn spec_vc(vcs: usize, bufs: usize) -> NetworkConfig {
    NetworkConfig::mesh(
        8,
        RouterKind::SpeculativeVc {
            vcs,
            buffers_per_vc: bufs,
        },
    )
}

/// Speculation on/off at several buffer depths: where does the parallel
/// VA∥SA stage buy throughput, and where does buffering wash it out
/// (the Figure 13 → 14 → 15 progression, condensed)?
#[must_use]
pub fn speculation() -> Vec<(String, NetworkConfig)> {
    let mut rows = Vec::new();
    for bufs in [4usize, 8] {
        let vc = RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: bufs,
        };
        rows.push((format!("VC 2x{bufs}"), NetworkConfig::mesh(8, vc)));
        rows.push((format!("specVC 2x{bufs}"), spec_vc(2, bufs)));
    }
    rows
}

/// Buffer-depth sweep for the speculative router: the credit loop is
/// 4 cycles, so depths below ~4 per VC throttle each channel.
#[must_use]
pub fn buffer_depth() -> Vec<(String, NetworkConfig)> {
    [1usize, 2, 4, 8]
        .into_iter()
        .map(|bufs| (format!("specVC 2x{bufs}"), spec_vc(2, bufs)))
        .collect()
}

/// VC count at a fixed 16-flit/port budget: more, shallower VCs reduce
/// head-of-line blocking until the credit loop bites.
#[must_use]
pub fn vc_count() -> Vec<(String, NetworkConfig)> {
    [(1usize, 16usize), (2, 8), (4, 4)]
        .into_iter()
        .map(|(vcs, bufs)| (format!("specVC {vcs}x{bufs}"), spec_vc(vcs, bufs)))
        .collect()
}

/// Credit propagation latency sweep (the Figure 18 axis, densified).
#[must_use]
pub fn credit_path() -> Vec<(String, NetworkConfig)> {
    [1u64, 2, 3, 4]
        .into_iter()
        .map(|prop| {
            (
                format!("credit prop {prop}"),
                spec_vc(2, 4).with_credit_prop_delay(prop),
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
            let run = Network::new(scale.apply(spec_vc(2, 4).with_injection(load))).run();
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

/// Renders named ablation tables and the specVC 2x4 speculation accuracy
/// as one CSV
/// (`table,config,zero_load_cycles,saturation,load,speculation_accuracy`).
/// A table row fills the first four columns; an accuracy point, in table
/// `speculation_accuracy`, fills `table`, `config` and the last two.
/// Values print in full precision, so a reader recovers every number
/// the text tables show.
#[must_use]
pub fn csv(tables: &[(&str, Vec<AblationRow>)], accuracy: &[(f64, f64)]) -> String {
    let mut out =
        String::from("table,config,zero_load_cycles,saturation,load,speculation_accuracy\n");
    for (table, rows) in tables {
        for r in rows {
            let zero_load = r.zero_load.map_or_else(String::new, |l| l.to_string());
            let _ = writeln!(out, "{table},{},{zero_load},{},,", r.label, r.saturation);
        }
    }
    for (load, acc) in accuracy {
        let _ = writeln!(out, "speculation_accuracy,specVC 2x4,,,{load},{acc}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_network::LoadPoint;

    fn tiny() -> SimScale {
        SimScale {
            warmup_cycles: 400,
            sample_packets: 500,
            max_cycles: 60_000,
            load_step: 0.2,
            max_load: 0.6,
        }
    }

    /// One row measured as the figure batch measures it: one
    /// `Network::run` per load, in load order, ending at the first
    /// saturated point.
    fn measure(label: &str, cfg: &NetworkConfig, scale: SimScale) -> AblationRow {
        let mut points: Vec<LoadPoint> = Vec::new();
        for load in scale.loads() {
            if points.last().is_some_and(|p| p.saturated) {
                break;
            }
            let cfg = scale.apply(cfg.clone()).with_injection(load);
            points.push(Network::new(cfg).run().into());
        }
        AblationRow::from(&Series {
            label: label.into(),
            points,
        })
    }

    #[test]
    fn speculation_rows_cover_both_architectures() {
        let rows = speculation();
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().any(|(label, _)| label.starts_with("VC ")));
        assert!(rows.iter().any(|(label, _)| label.starts_with("specVC")));
    }

    #[test]
    fn deeper_buffers_never_hurt() {
        let rows: Vec<AblationRow> = buffer_depth()
            .iter()
            .map(|(label, cfg)| measure(label, cfg, tiny()))
            .collect();
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

    #[test]
    fn csv_parses_back_to_every_number() {
        let row = |label: &str, zero_load, saturation| AblationRow {
            label: label.into(),
            zero_load,
            saturation,
        };
        let tables = vec![
            (
                "speculation",
                vec![
                    row("VC 2x4", Some(36.049_999_999_1), 0.45),
                    row("specVC 2x4", Some(29.6), 0.55),
                ],
            ),
            (
                "buffer_depth",
                vec![
                    row("specVC 2x1", None, 0.0),
                    row("specVC 2x8", Some(1.0 / 3.0), 0.7),
                ],
            ),
        ];
        let accuracy = vec![(0.1, 0.973_333_333_333_333_4), (0.5, 0.605)];
        let text = csv(&tables, &accuracy);
        let mut lines = text.lines();
        assert_eq!(
            lines.next(),
            Some("table,config,zero_load_cycles,saturation,load,speculation_accuracy")
        );
        let mut parsed: Vec<(String, Vec<AblationRow>)> = Vec::new();
        let mut parsed_accuracy = Vec::new();
        for line in lines {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells.len(), 6, "{line}");
            let number = |cell: &str| cell.parse::<f64>().expect("a number");
            if cells[0] == "speculation_accuracy" {
                assert_eq!(cells[1..4], ["specVC 2x4", "", ""], "{line}");
                parsed_accuracy.push((number(cells[4]), number(cells[5])));
                continue;
            }
            assert_eq!(cells[4..], ["", ""], "{line}");
            let r = row(
                cells[1],
                (!cells[2].is_empty()).then(|| number(cells[2])),
                number(cells[3]),
            );
            match parsed.last_mut() {
                Some((table, rows)) if table == cells[0] => rows.push(r),
                _ => parsed.push((cells[0].to_string(), vec![r])),
            }
        }
        assert_eq!(parsed_accuracy, accuracy);
        assert_eq!(parsed.len(), tables.len());
        for ((name, rows), (table, back)) in tables.iter().zip(&parsed) {
            assert_eq!(name, table);
            assert_eq!(rows, back, "values come back bit for bit");
            assert_eq!(render(name, rows), render(table, back));
        }
    }
}
