//! Latency–throughput curves: a compact Figure 13/14 reproduction.
//!
//! Sweeps offered load for the three router architectures at both buffer
//! budgets the paper evaluates and prints the curves plus their
//! saturation points.
//!
//! Run with: `cargo run --release --example latency_throughput`
//! (takes a minute; pass `--quick` for a coarser sweep)

use noc_network::{LoadPoint, Network, NetworkConfig, RouterKind};
use peh_dally::figures::Series;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let loads: Vec<f64> = if quick {
        vec![0.1, 0.3, 0.5, 0.6, 0.7, 0.8]
    } else {
        (1..=16).map(|i| f64::from(i) * 0.05).collect()
    };
    let (warmup, sample) = if quick { (800, 1_200) } else { (2_000, 4_000) };

    for (title, kinds) in [
        (
            "8 flit buffers per input port (paper Figure 13)",
            vec![
                RouterKind::Wormhole { buffers: 8 },
                RouterKind::VirtualChannel {
                    vcs: 2,
                    buffers_per_vc: 4,
                },
                RouterKind::SpeculativeVc {
                    vcs: 2,
                    buffers_per_vc: 4,
                },
            ],
        ),
        (
            "16 flit buffers per input port (paper Figure 14)",
            vec![
                RouterKind::Wormhole { buffers: 16 },
                RouterKind::VirtualChannel {
                    vcs: 2,
                    buffers_per_vc: 8,
                },
                RouterKind::SpeculativeVc {
                    vcs: 2,
                    buffers_per_vc: 8,
                },
            ],
        ),
    ] {
        println!("== {title} ==");
        for kind in kinds {
            let base = NetworkConfig::mesh(8, kind)
                .with_warmup(warmup)
                .with_sample(sample)
                .with_max_cycles(300_000);
            // One run per load, ending at the first saturated point.
            let mut points: Vec<LoadPoint> = Vec::new();
            for &load in &loads {
                if points.last().is_some_and(|p| p.saturated) {
                    break;
                }
                points.push(Network::new(base.clone().with_injection(load)).run().into());
            }
            let curve = Series {
                label: kind.label(),
                points,
            };
            print!("{:<22} |", curve.label);
            for p in &curve.points {
                match (p.latency, p.saturated) {
                    (Some(l), false) => print!(" {l:.0}"),
                    _ => print!(" sat"),
                }
            }
            println!(
                "  => saturation ~{:.0}% capacity",
                curve.saturation() * 100.0
            );
        }
        println!();
    }
    println!(
        "Reading: the speculative VC router keeps the wormhole router's\n\
         zero-load latency while saturating last — the paper's headline\n\
         result (WH < VC < specVC in throughput)."
    );
}
