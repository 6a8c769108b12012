//! Network-level invariants under randomized configurations: packet
//! delivery, conservation, determinism, and topology generality.

use peh_dally::noc_network::config::EngineKind;
use peh_dally::noc_network::{Network, NetworkConfig, RouterKind, TrafficPattern};
use proptest::prelude::*;

fn kinds() -> impl Strategy<Value = RouterKind> {
    prop_oneof![
        (2usize..12).prop_map(|b| RouterKind::Wormhole { buffers: b }),
        ((1usize..4), (2usize..8)).prop_map(|(v, b)| RouterKind::VirtualChannel {
            vcs: v,
            buffers_per_vc: b
        }),
        ((1usize..4), (2usize..8)).prop_map(|(v, b)| RouterKind::SpeculativeVc {
            vcs: v,
            buffers_per_vc: b
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every tagged packet is delivered, whole, under any router kind and
    /// a moderate load (the simulator's internal asserts also verify no
    /// buffer overflows, credit duplication, or foreign flits en route).
    #[test]
    fn tagged_sample_always_drains(kind in kinds(), seed in any::<u64>()) {
        let cfg = NetworkConfig::mesh(4, kind)
            .with_injection(0.2)
            .with_warmup(150)
            .with_sample(120)
            .with_max_cycles(60_000)
            .with_seed(seed);
        let r = Network::new(cfg).run();
        prop_assert!(!r.saturated, "moderate load must not saturate {kind}");
        prop_assert_eq!(r.stats.count(), 120);
        prop_assert!(r.avg_latency.unwrap() >= 6.0, "latency below physical floor");
    }

    /// Simulations are bit-deterministic in their seed.
    #[test]
    fn runs_are_deterministic(seed in any::<u64>()) {
        let mk = || NetworkConfig::mesh(4, RouterKind::SpeculativeVc { vcs: 2, buffers_per_vc: 4 })
            .with_injection(0.35)
            .with_warmup(120)
            .with_sample(100)
            .with_max_cycles(50_000)
            .with_seed(seed);
        let a = Network::new(mk()).run();
        let b = Network::new(mk()).run();
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.avg_latency, b.avg_latency);
        prop_assert_eq!(a.flits_ejected, b.flits_ejected);
    }

    /// Deterministic permutation patterns also deliver everything
    /// (flow-control invariance, the paper's footnote 13 rationale).
    #[test]
    fn permutation_patterns_deliver(
        seed in any::<u64>(),
        pattern_idx in 0usize..3,
    ) {
        let pattern = [
            TrafficPattern::Transpose,
            TrafficPattern::BitComplement,
            TrafficPattern::Tornado,
        ][pattern_idx].clone();
        let cfg = NetworkConfig::mesh(4, RouterKind::VirtualChannel { vcs: 2, buffers_per_vc: 4 })
            .with_injection(0.15)
            .with_pattern(pattern)
            .with_warmup(150)
            .with_sample(100)
            .with_max_cycles(80_000)
            .with_seed(seed);
        let r = Network::new(cfg).run();
        prop_assert!(!r.saturated);
        prop_assert_eq!(r.stats.count(), 100);
    }
}

/// Flit conservation: at every cycle boundary, every flit a source has
/// injected is ejected, on a wire, or buffered in a router — under every
/// engine, at a load high enough to exercise blocking and backpressure.
/// The sharded cases count flits on the shard wheels and in staged
/// boundary mail; the rebalancing one does so across live migrations.
/// (`Network::run` re-checks the same invariant at the end of every run.)
#[test]
fn flits_are_conserved_every_cycle() {
    let base = NetworkConfig::mesh(
        4,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_injection(0.4)
    .with_warmup(100);
    // A skewed 8x8, so the weighted cut has rows to move across.
    let hotspot = NetworkConfig::mesh(
        8,
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_pattern(TrafficPattern::Hotspot {
        hotspot: 59,
        hotness: 0.5,
    })
    .with_injection(0.1)
    .with_warmup(100)
    .with_rebalance(200, 1.05);
    let cases = [
        base.clone().with_engine(EngineKind::CycleDriven),
        base.clone().with_engine(EngineKind::EventDriven),
        base.with_engine(EngineKind::parallel(2)),
        hotspot.with_engine(EngineKind::parallel(2)),
    ];
    for cfg in cases {
        let engine = cfg.engine;
        let rebalancing = cfg.rebalance.is_some();
        let mut net = Network::new(cfg);
        for _ in 0..3_000 {
            net.step();
            net.assert_flit_conservation();
        }
        assert!(
            net.flits_ejected() > 0,
            "{engine}: the run must actually move traffic"
        );
        assert!(
            net.flits_in_flight() + net.flits_buffered() > 0,
            "{engine}: mid-run snapshot should catch flits en route"
        );
        if rebalancing {
            assert!(
                net.rebalances() > 0,
                "{engine}: the hotspot must trigger a live migration"
            );
        }
    }
}

/// Conservation also holds on a torus (wrap links and dateline VC
/// classes exercise different wiring than the mesh edge).
#[test]
fn flits_are_conserved_on_torus() {
    let cfg = NetworkConfig::mesh(
        4,
        RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_injection(0.3)
    .with_warmup(80)
    .into_torus();
    let mut net = Network::new(cfg);
    for _ in 0..2_000 {
        net.step();
        net.assert_flit_conservation();
    }
}

/// Under faults the books gain a fourth column: injected = ejected +
/// in-flight + buffered + dropped, at *every* cycle boundary — a killed
/// center link must neither leak flits (credits reclaimed, buffers
/// drained) nor double-count drops, before, during, and after the kill
/// fires.
#[test]
fn flits_are_conserved_every_cycle_with_a_killed_center_link() {
    use peh_dally::noc_network::parse_faults;
    for engine in [EngineKind::CycleDriven, EngineKind::EventDriven] {
        let cfg = NetworkConfig::mesh(
            4,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(0.4)
        .with_warmup(100)
        .with_engine(engine)
        // Node 5 → 6 dies mid-run; a flaky return link and the
        // opposite direction's lossy twin keep dropping throughout.
        .with_faults(
            parse_faults("link:5:0:dead@800, link:6:1:flaky@50/12, link:9:2:loss@0.1").unwrap(),
        );
        let mut net = Network::new(cfg);
        for _ in 0..3_000 {
            net.step();
            net.assert_flit_conservation();
        }
        assert!(
            net.flits_ejected() > 0,
            "{engine}: the run must actually move traffic"
        );
        assert!(
            net.flits_dropped() > 0,
            "{engine}: the faults must actually drop flits"
        );
        let drops = net.drop_stats();
        assert!(
            drops.total_packets() > 0 && drops.total_packets() <= drops.total_flits(),
            "{engine}: packet drops counted once per packet"
        );
    }
}

/// The same per-cycle books hold for the sharded engine's inline step
/// path across a router kill (dead-router drainage spans shards).
#[test]
fn sharded_step_conserves_flits_across_a_router_kill() {
    use peh_dally::noc_network::parse_faults;
    let cfg = NetworkConfig::mesh(
        4,
        RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_injection(0.3)
    .with_warmup(100)
    .with_engine(EngineKind::ParallelShards { shards: 3 })
    .with_faults(parse_faults("router:5:dead@700").unwrap());
    let mut net = Network::new(cfg);
    for _ in 0..2_000 {
        net.step();
        net.assert_flit_conservation();
    }
    assert!(net.flits_dropped() > 0, "the kill must drop something");
}

/// Larger meshes and non-square dimensionality work end to end.
#[test]
fn bigger_and_odd_meshes_work() {
    for k in [3usize, 5, 6] {
        let cfg = NetworkConfig::mesh(
            k,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(0.15)
        .with_warmup(150)
        .with_sample(150)
        .with_max_cycles(60_000);
        let r = Network::new(cfg).run();
        assert!(!r.saturated, "k={k}");
        assert_eq!(r.stats.count(), 150, "k={k}");
    }
}

/// Latency is monotone (within noise) along a load sweep below
/// saturation.
#[test]
fn latency_monotone_below_saturation() {
    let mut prev = 0.0f64;
    for load in [0.1, 0.2, 0.3, 0.4] {
        let cfg = NetworkConfig::mesh(
            8,
            RouterKind::SpeculativeVc {
                vcs: 2,
                buffers_per_vc: 4,
            },
        )
        .with_injection(load)
        .with_warmup(800)
        .with_sample(1_500)
        .with_max_cycles(150_000);
        let lat = Network::new(cfg).run().avg_latency.expect("completes");
        assert!(
            lat + 1.0 >= prev,
            "latency dropped from {prev:.1} to {lat:.1} at load {load}"
        );
        prev = lat;
    }
}
