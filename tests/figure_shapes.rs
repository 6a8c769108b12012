//! Qualitative reproduction of every simulated figure at a reduced scale:
//! the orderings and crossovers the paper reports must hold.

use peh_dally::figures::Series;
use peh_dally::noc_network::{LoadPoint, Network, NetworkConfig, RouterKind};

struct Curve {
    zero_load: f64,
    saturation: f64,
}

/// One curve as the figure batch computes it: one `Network::run` per
/// load, in load order, ending at the first saturated point.
fn measure(kind: RouterKind, single_cycle: bool, credit_prop: u64) -> Curve {
    let base = NetworkConfig::mesh(8, kind)
        .with_single_cycle(single_cycle)
        .with_credit_prop_delay(credit_prop)
        .with_warmup(1_200)
        .with_sample(2_500)
        .with_max_cycles(200_000);
    let mut points: Vec<LoadPoint> = Vec::new();
    for load in (1..=14).map(|i| f64::from(i) * 0.05) {
        if points.last().is_some_and(|p| p.saturated) {
            break;
        }
        points.push(Network::new(base.clone().with_injection(load)).run().into());
    }
    let series = Series {
        label: kind.label(),
        points,
    };
    Curve {
        zero_load: series.zero_load().expect("lowest load completes"),
        saturation: series.saturation(),
    }
}

/// Figure 13 (8 buffers/port): WH and specVC share zero-load latency;
/// saturation ordering WH ≤ VC < specVC.
#[test]
fn fig13_shape() {
    let wh = measure(RouterKind::Wormhole { buffers: 8 }, false, 1);
    let vc = measure(
        RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        },
        false,
        1,
    );
    let spec = measure(
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
        false,
        1,
    );

    // Zero-load: WH ≈ spec < VC (paper: 29 / 30 / 36).
    assert!(vc.zero_load > wh.zero_load + 4.0, "VC pays its extra stage");
    assert!(
        (spec.zero_load - wh.zero_load).abs() < 4.0,
        "spec ~ wormhole at zero load: {:.1} vs {:.1}",
        spec.zero_load,
        wh.zero_load
    );

    // Throughput: specVC strictly best (paper: 40 / 50 / 55%).
    assert!(
        spec.saturation > wh.saturation + 0.01,
        "specVC ({:.2}) must beat WH ({:.2})",
        spec.saturation,
        wh.saturation
    );
    assert!(
        spec.saturation >= vc.saturation,
        "specVC ({:.2}) must match or beat VC ({:.2})",
        spec.saturation,
        vc.saturation
    );
}

/// Figure 14 (16 buffers, 2 VCs): more buffering raises everyone's
/// saturation; VC routers clearly beat wormhole.
#[test]
fn fig14_shape() {
    let wh8 = measure(RouterKind::Wormhole { buffers: 8 }, false, 1);
    let wh16 = measure(RouterKind::Wormhole { buffers: 16 }, false, 1);
    let vc = measure(
        RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 8,
        },
        false,
        1,
    );
    let spec = measure(
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 8,
        },
        false,
        1,
    );
    assert!(
        wh16.saturation >= wh8.saturation,
        "doubling buffers cannot hurt wormhole"
    );
    assert!(vc.saturation > wh16.saturation, "VC beats WH at 16 buffers");
    assert!(
        spec.saturation >= vc.saturation - 0.03,
        "with 8 bufs/VC the credit loop is covered; spec ≈ VC ({:.2} vs {:.2})",
        spec.saturation,
        vc.saturation
    );
    // Zero-load: spec recovers wormhole latency (paper: both 29).
    assert!((spec.zero_load - wh16.zero_load).abs() < 3.0);
}

/// Figure 15 (16 buffers, 4 VCs): with deep buffering both VC routers
/// reach the same saturation — speculation no longer buys throughput.
#[test]
fn fig15_shape() {
    let vc = measure(
        RouterKind::VirtualChannel {
            vcs: 4,
            buffers_per_vc: 4,
        },
        false,
        1,
    );
    let spec = measure(
        RouterKind::SpeculativeVc {
            vcs: 4,
            buffers_per_vc: 4,
        },
        false,
        1,
    );
    assert!(
        (vc.saturation - spec.saturation).abs() <= 0.101,
        "paper: both saturate at ~70%: VC {:.2} vs spec {:.2}",
        vc.saturation,
        spec.saturation
    );
}

/// Figure 17: the single-cycle model underestimates latency and
/// overestimates throughput relative to the pipelined model.
#[test]
fn fig17_shape() {
    let vc = RouterKind::VirtualChannel {
        vcs: 2,
        buffers_per_vc: 4,
    };
    let pipelined = measure(vc, false, 1);
    let unit = measure(vc, true, 1);
    assert!(
        unit.zero_load < pipelined.zero_load * 0.6,
        "unit-latency model greatly underestimates latency: {:.1} vs {:.1}",
        unit.zero_load,
        pipelined.zero_load
    );
    assert!(
        unit.saturation > pipelined.saturation,
        "unit-latency model overestimates throughput: {:.2} vs {:.2}",
        unit.saturation,
        pipelined.saturation
    );
}

/// Figure 18: raising credit propagation from 1 to 4 cycles costs the
/// speculative router a substantial fraction of its throughput
/// (paper: 18%, 55% → 45% capacity).
#[test]
fn fig18_shape() {
    let spec = RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    };
    let fast = measure(spec, false, 1);
    let slow = measure(spec, false, 4);
    assert!(
        slow.saturation < fast.saturation - 0.03,
        "4-cycle credit path must cost throughput: {:.2} vs {:.2}",
        slow.saturation,
        fast.saturation
    );
    let loss = 1.0 - slow.saturation / fast.saturation;
    assert!(
        (0.05..0.45).contains(&loss),
        "throughput loss should be in the paper's ballpark (18%), got {:.0}%",
        loss * 100.0
    );
    // Zero-load latency moves only slightly (credit path is off the
    // forward critical path); allow the credit-loop serialization.
    assert!(slow.zero_load - fast.zero_load < 8.0);
}
