//! Reproduction of Table 1: parameterized delay equations evaluated at the
//! paper's reference point (p = 5, w = 32, v = 2, clk = 20 τ4), alongside
//! the paper's model and Synopsys-timing-analyzer columns.

use crate::equations;
use crate::params::RouterParams;
use crate::routing::RoutingFunction;
use logical_effort::Tau4;
use std::fmt;

/// One row of Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Module name as printed in the paper.
    pub module: &'static str,
    /// Router section of the table ("wormhole", "virtual-channel",
    /// "speculative virtual-channel").
    pub section: &'static str,
    /// Our model's `t + h` (or `t` for the combined speculative stage,
    /// matching what the paper's table reports), in τ4.
    pub ours: Tau4,
    /// The paper's model column, in τ4.
    pub paper_model: f64,
    /// The paper's Synopsys timing-analyzer column, in τ4
    /// (`None` where the paper lists none).
    pub paper_synopsys: Option<f64>,
}

impl Table1Row {
    /// Absolute deviation of our value from the paper's model column, τ4.
    #[must_use]
    pub fn deviation(&self) -> f64 {
        (self.ours.value() - self.paper_model).abs()
    }
}

impl fmt::Display for Table1Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<40} {:>8.1} {:>8.1} {:>9}",
            self.module,
            self.ours.value(),
            self.paper_model,
            self.paper_synopsys
                .map_or_else(|| "-".to_string(), |v| format!("{v:.1}")),
        )
    }
}

/// Generates every row of Table 1 at the paper's reference parameters.
#[must_use]
pub fn generate() -> Vec<Table1Row> {
    let p = RouterParams::paper_default();
    let mut rows = vec![
        Table1Row {
            module: "Switch arbiter (SB)",
            section: "wormhole",
            ours: equations::switch_arbiter(&p).total_tau4(),
            paper_model: 9.6,
            paper_synopsys: Some(9.9),
        },
        Table1Row {
            module: "Crossbar traversal (XB)",
            section: "wormhole",
            ours: equations::crossbar(&p).total_tau4(),
            paper_model: 8.4,
            paper_synopsys: Some(10.5),
        },
        Table1Row {
            module: "VC allocator (Rv)",
            section: "virtual-channel",
            ours: equations::vc_allocator(RoutingFunction::Rv, &p).total_tau4(),
            paper_model: 11.8,
            paper_synopsys: Some(11.0),
        },
        Table1Row {
            module: "VC allocator (Rp)",
            section: "virtual-channel",
            ours: equations::vc_allocator(RoutingFunction::Rp, &p).total_tau4(),
            paper_model: 13.1,
            paper_synopsys: Some(13.3),
        },
        Table1Row {
            module: "VC allocator (Rpv)",
            section: "virtual-channel",
            ours: equations::vc_allocator(RoutingFunction::Rpv, &p).total_tau4(),
            paper_model: 16.9,
            paper_synopsys: Some(15.3),
        },
        Table1Row {
            module: "Switch allocator (SL)",
            section: "virtual-channel",
            ours: equations::switch_allocator(&p).total_tau4(),
            paper_model: 10.9,
            paper_synopsys: Some(12.0),
        },
    ];
    let spec = [
        (RoutingFunction::Rv, 14.6, 16.2),
        (RoutingFunction::Rp, 14.6, 16.2),
        (RoutingFunction::Rpv, 18.3, 16.8),
    ];
    for (r, model, syn) in spec {
        rows.push(Table1Row {
            module: match r {
                RoutingFunction::Rv => "Combined VC+SS stage (Rv)",
                RoutingFunction::Rp => "Combined VC+SS stage (Rp)",
                RoutingFunction::Rpv => "Combined VC+SS stage (Rpv)",
            },
            section: "speculative virtual-channel",
            ours: equations::combined_va_sa(r, &p).t.as_tau4(),
            paper_model: model,
            paper_synopsys: Some(syn),
        });
    }
    rows
}

/// Renders the full table as aligned text (module, ours, paper model,
/// paper Synopsys — all in τ4).
#[must_use]
pub fn render() -> String {
    let mut out =
        String::from("Table 1 — delay equations at p=5, w=32, v=2, clk=20 τ4 (values in τ4)\n");
    out.push_str(&format!(
        "{:<40} {:>8} {:>8} {:>9}\n",
        "module", "ours", "paper", "synopsys"
    ));
    let mut section = "";
    for row in generate() {
        if row.section != section {
            section = row.section;
            out.push_str(&format!("-- {section} router --\n"));
        }
        out.push_str(&row.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_row_matches_paper_model_column() {
        for row in generate() {
            assert!(
                row.deviation() < 0.1,
                "{}: ours {:.2} τ4 vs paper {:.1} τ4",
                row.module,
                row.ours.value(),
                row.paper_model
            );
        }
    }

    #[test]
    fn model_stays_within_2_tau4_of_synopsys() {
        // The paper reports its model validated against Synopsys to within
        // ~2 τ4 in 0.18 µm. Every row but the crossbar keeps to that (the
        // widest, Rpv and the combined stages, are 1.6 τ4 off). The
        // crossbar is 2.1 τ4 under Synopsys, but ours and the paper's
        // model column both read 8.4 against its 10.5: the gap is the
        // paper's model's, not the reconstruction's.
        let mut crossbar = false;
        for row in generate() {
            let Some(syn) = row.paper_synopsys else {
                continue;
            };
            let ours = row.ours.value();
            if row.module == "Crossbar traversal (XB)" {
                crossbar = true;
                assert_eq!((row.paper_model, syn), (8.4, 10.5));
                assert!((ours - 8.4).abs() < 0.05, "crossbar {ours:.3}");
                assert!((syn - ours - 2.1).abs() < 0.05, "crossbar {ours:.3}");
            } else {
                assert!(
                    (ours - syn).abs() <= 2.0,
                    "{}: {ours:.2} vs Synopsys {syn:.1}",
                    row.module
                );
            }
        }
        assert!(crossbar, "Table 1 has a crossbar row");
    }

    #[test]
    fn table_has_nine_rows_three_sections() {
        let rows = generate();
        assert_eq!(rows.len(), 9);
        assert_eq!(rows.iter().filter(|r| r.section == "wormhole").count(), 2);
        assert_eq!(
            rows.iter()
                .filter(|r| r.section == "virtual-channel")
                .count(),
            4
        );
        assert_eq!(
            rows.iter()
                .filter(|r| r.section == "speculative virtual-channel")
                .count(),
            3
        );
    }

    #[test]
    fn render_mentions_every_module() {
        let text = render();
        for row in generate() {
            assert!(text.contains(row.module), "missing {}", row.module);
        }
    }
}
