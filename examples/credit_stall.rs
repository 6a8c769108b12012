//! Credit-loop anatomy: why buffer turnaround time bounds throughput
//! (the paper's Figure 16 and Figure 18, §5.2).
//!
//! A buffer freed by a departing flit sits idle while the credit crosses
//! back to the upstream router and a new flit crosses forward. This
//! example measures that effect directly: it sweeps the credit
//! propagation latency and the buffer depth for a speculative VC router
//! and prints the resulting zero-load latency and saturation throughput.
//!
//! Run with: `cargo run --release --example credit_stall`

use noc_network::{LoadPoint, Network, NetworkConfig, RouterKind};
use peh_dally::figures::Series;

/// Zero-load latency and saturation throughput of one curve: one run
/// per load, in load order, ending at the first saturated point.
fn measure(kind: RouterKind, credit_prop: u64) -> (f64, f64) {
    let base = NetworkConfig::mesh(8, kind)
        .with_credit_prop_delay(credit_prop)
        .with_warmup(1_500)
        .with_sample(2_500)
        .with_max_cycles(250_000);
    let mut points: Vec<LoadPoint> = Vec::new();
    for load in (1..=15).map(|i| f64::from(i) * 0.05) {
        if points.last().is_some_and(|p| p.saturated) {
            break;
        }
        points.push(Network::new(base.clone().with_injection(load)).run().into());
    }
    let curve = Series {
        label: kind.label(),
        points,
    };
    (curve.zero_load().unwrap_or(f64::NAN), curve.saturation())
}

fn main() {
    println!("== Credit propagation latency (specVC, 2 VCs x 4 buffers) ==");
    println!(
        "{:>12} {:>12} {:>12}",
        "credit prop", "zero-load", "saturation"
    );
    let spec4 = RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    };
    for prop in [1u64, 2, 4] {
        let (zl, sat) = measure(spec4, prop);
        println!("{prop:>12} {zl:>12.1} {:>11.0}%", sat * 100.0);
    }
    println!();
    println!("== Buffer depth at 1-cycle credit propagation (specVC, 2 VCs) ==");
    println!("{:>12} {:>12} {:>12}", "bufs/VC", "zero-load", "saturation");
    for bufs in [2usize, 4, 8] {
        let kind = RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: bufs,
        };
        let (zl, sat) = measure(kind, 1);
        println!("{bufs:>12} {zl:>12.1} {:>11.0}%", sat * 100.0);
    }
    println!();
    println!(
        "Reading: longer credit paths idle buffers longer, cutting\n\
         throughput even though zero-load latency barely moves — the\n\
         paper reports an 18% throughput loss going from 1-cycle to\n\
         4-cycle credit propagation (Figure 18). More buffering hides\n\
         the loop (Figure 14 vs 13)."
    );
}
