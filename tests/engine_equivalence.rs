//! The differential engine harness: the event-driven active-set engine
//! and the sharded-parallel engine must be **bit-identical** to the
//! cycle-driven reference engine.
//!
//! Every test here builds one configuration, runs it once per
//! [`EngineKind`], and asserts the results match *exactly* — down to the
//! floating-point bits of the latency statistics. A deterministic grid
//! covers every router kind × topology × traffic pattern combination the
//! simulator supports — extended with shard counts {1, 2, 4, 7},
//! including counts that do not divide the node count; proptest then
//! fuzzes the same space with random buffer depths, injection rates,
//! packet lengths, seeds, and shard counts. A repeated-run test proves
//! the multi-threaded engine is independent of the thread schedule.
//!
//! If a change to any engine breaks lockstep, these tests name the
//! first diverging measurement rather than letting the drift hide inside
//! a latency tolerance somewhere else in the suite.

use peh_dally::noc_network::config::EngineKind;
use peh_dally::noc_network::{
    LoadPoint, Network, NetworkConfig, RouterKind, RunResult, TrafficPattern,
};
use proptest::prelude::*;

/// Runs `cfg` under both engines.
fn run_both(cfg: NetworkConfig) -> (RunResult, RunResult) {
    let cycle = Network::new(cfg.clone().with_engine(EngineKind::CycleDriven)).run();
    let event = Network::new(cfg.with_engine(EngineKind::EventDriven)).run();
    (cycle, event)
}

/// Asserts two runs are indistinguishable to every consumer of the
/// simulator: same measurements, same distributions, same router-level
/// event counts. Engine work counters are the one permitted difference.
fn assert_equivalent(label: &str, cycle: &RunResult, event: &RunResult) {
    assert_eq!(cycle.cycles, event.cycles, "{label}: cycles");
    assert_eq!(cycle.saturated, event.saturated, "{label}: saturated");
    assert_eq!(
        cycle.flits_ejected, event.flits_ejected,
        "{label}: flits ejected"
    );
    // Latency statistics accumulate floats sample by sample; identical
    // bits mean identical samples in identical order.
    assert_eq!(
        cycle.avg_latency.map(f64::to_bits),
        event.avg_latency.map(f64::to_bits),
        "{label}: avg latency ({:?} vs {:?})",
        cycle.avg_latency,
        event.avg_latency
    );
    assert_eq!(cycle.stats, event.stats, "{label}: latency stats");
    assert_eq!(
        cycle.accepted.to_bits(),
        event.accepted.to_bits(),
        "{label}: accepted throughput ({} vs {})",
        cycle.accepted,
        event.accepted
    );
    // Every tagged latency, sorted: the exact tails, and how many
    // tagged packets the run stopped before seeing finish.
    assert_eq!(
        cycle.histogram, event.histogram,
        "{label}: tagged latencies"
    );
    assert_eq!(cycle.censored, event.censored, "{label}: censored");
    assert_eq!(
        cycle.router_stats, event.router_stats,
        "{label}: router stats"
    );
    // The fault layer's books must agree flit for flit, reason by
    // reason (all zero on a healthy network).
    assert_eq!(
        cycle.dropped_flits, event.dropped_flits,
        "{label}: dropped flits"
    );
    assert_eq!(
        cycle.dropped_packets, event.dropped_packets,
        "{label}: dropped packets"
    );
    assert_eq!(cycle.drops, event.drops, "{label}: drop breakdown");
    assert_eq!(
        cycle.unreachable_pairs, event.unreachable_pairs,
        "{label}: unreachable pairs"
    );
    assert_eq!(
        cycle.delivered_ratio.to_bits(),
        event.delivered_ratio.to_bits(),
        "{label}: delivered ratio ({} vs {})",
        cycle.delivered_ratio,
        event.delivered_ratio
    );
    // The derived curve point must agree too.
    let a: LoadPoint = LoadPoint::from(cycle.clone());
    let b: LoadPoint = LoadPoint::from(event.clone());
    assert_eq!(a.saturated, b.saturated, "{label}: load point saturation");
    assert_eq!(
        a.latency.map(f64::to_bits),
        b.latency.map(f64::to_bits),
        "{label}: load point latency"
    );
    // And the event engine must never do MORE router work.
    assert!(
        event.work.router_ticks <= cycle.work.router_ticks,
        "{label}: event engine ticked more ({} > {})",
        event.work.router_ticks,
        cycle.work.router_ticks
    );
}

/// Every router kind the simulator supports.
fn all_kinds() -> [RouterKind; 4] {
    [
        RouterKind::Wormhole { buffers: 8 },
        RouterKind::VirtualCutThrough { buffers: 8 },
        RouterKind::VirtualChannel {
            vcs: 2,
            buffers_per_vc: 4,
        },
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    ]
}

/// The traffic patterns the grid covers (> 4, per the harness contract).
fn all_patterns() -> [TrafficPattern; 5] {
    [
        TrafficPattern::Uniform,
        TrafficPattern::Transpose,
        TrafficPattern::BitComplement,
        TrafficPattern::Tornado,
        TrafficPattern::Hotspot {
            hotspot: 5,
            hotness: 0.3,
        },
    ]
}

fn small(kind: RouterKind) -> NetworkConfig {
    NetworkConfig::mesh(4, kind)
        .with_warmup(120)
        .with_sample(100)
        .with_max_cycles(40_000)
}

/// The deterministic grid: all router kinds × both topologies × five
/// traffic patterns, at a low load (the regime the event engine
/// optimizes for).
#[test]
fn engines_agree_across_kinds_topologies_and_patterns() {
    for kind in all_kinds() {
        for torus in [false, true] {
            // Deadlock-free torus routing needs >= 2 VCs (dateline
            // classes); wormhole/VCT have one.
            if torus && kind.vcs() < 2 {
                continue;
            }
            for pattern in all_patterns() {
                let mut cfg = small(kind)
                    .with_injection(0.1)
                    .with_pattern(pattern.clone());
                if torus {
                    cfg = cfg.into_torus();
                }
                let label = format!("{kind} torus={torus} {pattern}");
                let (cycle, event) = run_both(cfg);
                assert_equivalent(&label, &cycle, &event);
            }
        }
    }
}

/// Moderate and saturating loads exercise backpressure, wormhole holds,
/// and the saturation early-exit path.
#[test]
fn engines_agree_under_pressure() {
    for kind in all_kinds() {
        for load in [0.35, 2.0] {
            let cfg = small(kind)
                .with_injection(load)
                .with_max_cycles(6_000)
                .with_sample(600);
            let label = format!("{kind} load={load}");
            let (cycle, event) = run_both(cfg);
            assert_equivalent(&label, &cycle, &event);
        }
    }
}

/// The single-cycle ("unit latency") router model and the deep credit
/// path of Figure 18 both reach engine-relevant corners: zero-delay ST
/// and a long credit-return wheel horizon.
#[test]
fn engines_agree_on_timing_variants() {
    let vc = RouterKind::VirtualChannel {
        vcs: 2,
        buffers_per_vc: 4,
    };
    for (single_cycle, credit_prop) in [(true, 1), (false, 4), (true, 4)] {
        let cfg = small(vc)
            .with_injection(0.2)
            .with_single_cycle(single_cycle)
            .with_credit_prop_delay(credit_prop);
        let label = format!("single_cycle={single_cycle} credit_prop={credit_prop}");
        let (cycle, event) = run_both(cfg);
        assert_equivalent(&label, &cycle, &event);
    }
}

/// West-first adaptive routing (the extension path) also runs in
/// lockstep.
#[test]
fn engines_agree_with_adaptive_routing() {
    use peh_dally::noc_network::config::RoutingAlgo;
    let cfg = small(RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    })
    .with_injection(0.15)
    .with_routing(RoutingAlgo::WestFirstAdaptive);
    let (cycle, event) = run_both(cfg);
    assert_equivalent("west-first", &cycle, &event);
}

/// The scale grid: 16×16 2-D and 4-ary 3-cube meshes and tori run
/// bit-identically across all three engines (serial cycle-driven,
/// serial event-driven, and sharded at 2 and 4 shards) — the new
/// topologies the dimension-generic stack opens up get the same
/// differential guarantee as the paper's 8×8 mesh.
#[test]
fn engines_agree_on_large_and_three_d_topologies() {
    use peh_dally::noc_network::Mesh;
    let spec = RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    };
    for (mesh, label) in [
        (Mesh::new(16, 2), "16x16 mesh"),
        (Mesh::new(16, 2).into_torus(), "16x16 torus"),
        (Mesh::new(4, 3), "4-ary 3-mesh"),
        (Mesh::new(4, 3).into_torus(), "4-ary 3-torus"),
    ] {
        let cfg = NetworkConfig::for_mesh(mesh, spec)
            .with_injection(0.15)
            .with_warmup(150)
            .with_sample(150)
            .with_max_cycles(40_000);
        let (cycle, event) = run_both(cfg.clone());
        assert_equivalent(label, &cycle, &event);
        for shards in [2, 4] {
            let sharded = run_sharded(cfg.clone(), shards);
            let slabel = format!("{label} shards={shards}");
            assert_equivalent(&slabel, &event, &sharded);
            assert_eq!(
                event.work.router_ticks, sharded.work.router_ticks,
                "{slabel}: sharded engine must tick exactly the active set"
            );
        }
    }
}

/// Negative-first adaptive routing (the n-D turn model) stays in
/// lockstep on a 3-D mesh, across all three engines.
#[test]
fn engines_agree_with_negative_first_in_three_dims() {
    use peh_dally::noc_network::config::RoutingAlgo;
    use peh_dally::noc_network::Mesh;
    let cfg = NetworkConfig::for_mesh(
        Mesh::new(4, 3),
        RouterKind::SpeculativeVc {
            vcs: 2,
            buffers_per_vc: 4,
        },
    )
    .with_routing(RoutingAlgo::NegativeFirstAdaptive)
    .with_injection(0.15)
    .with_warmup(120)
    .with_sample(100)
    .with_max_cycles(40_000);
    let (cycle, event) = run_both(cfg.clone());
    assert_equivalent("negative-first 3-D", &cycle, &event);
    let sharded = run_sharded(cfg, 3);
    assert_equivalent("negative-first 3-D shards=3", &event, &sharded);
}

/// Curves agree point by point, and the event engine demonstrably
/// skips work at low loads — the speedup is real, not incidental.
#[test]
fn sweeps_agree_and_event_engine_skips_work() {
    let base = small(RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    });
    for load in [0.05, 0.2, 0.5] {
        let point = |engine| {
            let cfg = base.clone().with_injection(load).with_engine(engine);
            LoadPoint::from(Network::new(cfg).run())
        };
        let (a, b) = (
            point(EngineKind::CycleDriven),
            point(EngineKind::EventDriven),
        );
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.latency.map(f64::to_bits), b.latency.map(f64::to_bits));
        assert_eq!(a.accepted.to_bits(), b.accepted.to_bits());
        assert_eq!(a.saturated, b.saturated);
    }

    // At 5% load on a 4x4 mesh, the overwhelming majority of router
    // ticks are no-ops; the event engine must skip most of them.
    let low = base
        .with_injection(0.05)
        .with_engine(EngineKind::EventDriven);
    let r = Network::new(low).run();
    assert!(
        r.work.router_ticks * 2 < r.work.router_ticks_possible,
        "event engine skipped too little: {}",
        r.work
    );
}

/// Runs `cfg` under the sharded-parallel engine (threaded: one worker
/// per shard via [`Network::run`]).
fn run_sharded(cfg: NetworkConfig, shards: usize) -> RunResult {
    Network::new(cfg.with_engine(EngineKind::ParallelShards { shards })).run()
}

/// The sharded grid: shard counts {1, 2, 4, 7} — 7 does not divide the
/// 16-node mesh, so shard sizes are unequal — × every router kind ×
/// three traffic patterns, all bit-identical to the serial event engine.
/// The parallel engine must also execute *exactly* the same router ticks
/// (it runs the same active-set rule, just sharded).
#[test]
fn sharded_engine_matches_event_engine_across_shard_counts() {
    for kind in all_kinds() {
        for pattern in [
            TrafficPattern::Uniform,
            TrafficPattern::Transpose,
            TrafficPattern::Tornado,
        ] {
            let cfg = small(kind)
                .with_injection(0.15)
                .with_pattern(pattern.clone());
            let event = Network::new(cfg.clone().with_engine(EngineKind::EventDriven)).run();
            for shards in [1, 2, 4, 7] {
                let label = format!("{kind} {pattern} shards={shards}");
                let sharded = run_sharded(cfg.clone(), shards);
                assert_equivalent(&label, &event, &sharded);
                assert_eq!(
                    event.work.router_ticks, sharded.work.router_ticks,
                    "{label}: sharded engine must tick exactly the active set"
                );
            }
        }
    }
}

/// Backpressure, wormhole holds, saturation early-exit, and the torus
/// dateline path all survive sharding.
#[test]
fn sharded_engine_matches_under_pressure_and_on_torus() {
    for kind in all_kinds() {
        for load in [0.35, 2.0] {
            let cfg = small(kind)
                .with_injection(load)
                .with_max_cycles(6_000)
                .with_sample(600);
            let event = Network::new(cfg.clone().with_engine(EngineKind::EventDriven)).run();
            let sharded = run_sharded(cfg, 4);
            assert_equivalent(&format!("{kind} load={load} shards=4"), &event, &sharded);
        }
        if kind.vcs() >= 2 {
            let cfg = small(kind).with_injection(0.2).into_torus();
            let event = Network::new(cfg.clone().with_engine(EngineKind::EventDriven)).run();
            let sharded = run_sharded(cfg, 3);
            assert_equivalent(&format!("{kind} torus shards=3"), &event, &sharded);
        }
    }
}

/// Thread-schedule independence: repeated multi-threaded runs of the
/// same configuration agree bit for bit on every measurement — no
/// completion-order, interleaving, or allocator nondeterminism leaks
/// into results.
#[test]
fn sharded_runs_are_bit_identical_across_repeats() {
    let cfg = small(RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    })
    .with_injection(0.3)
    .with_sample(400);
    let first = run_sharded(cfg.clone(), 4);
    for rep in 0..2 {
        let again = run_sharded(cfg.clone(), 4);
        let label = format!("repeat {rep}");
        assert_equivalent(&label, &first, &again);
        assert_eq!(first.work, again.work, "{label}: work counters");
        assert_eq!(
            first.stats.std_dev().map(f64::to_bits),
            again.stats.std_dev().map(f64::to_bits),
            "{label}: variance accumulator"
        );
    }
}

/// `step()` and `run()` drive the same engine loop for every engine
/// kind — one inline round per step against the threaded rounds of a
/// run; stepping manually must land on the same totals, with flit
/// conservation holding at every cycle boundary (mailboxes are empty
/// between cycles).
#[test]
fn sharded_inline_step_matches_threaded_run() {
    let cfg = small(RouterKind::VirtualChannel {
        vcs: 2,
        buffers_per_vc: 4,
    })
    .with_injection(0.2);
    for engine in [
        EngineKind::CycleDriven,
        EngineKind::EventDriven,
        EngineKind::parallel(1),
        EngineKind::parallel(3),
    ] {
        let cfg = cfg.clone().with_engine(engine);
        let threaded = Network::new(cfg.clone()).run();
        let mut net = Network::new(cfg);
        while net.cycle() < threaded.cycles {
            net.step();
            if net.cycle().is_multiple_of(97) {
                net.assert_flit_conservation();
            }
        }
        net.assert_flit_conservation();
        assert!(net.sample_complete(), "{engine}: same stopping point");
        assert_eq!(net.flits_ejected(), threaded.flits_ejected, "{engine}");
        assert_eq!(net.router_ticks(), threaded.work.router_ticks, "{engine}");
    }
}

/// Very low load forces long quiescent stretches between injections —
/// the regime where the sharded engine's quiescence fast-forward skips
/// whole cycle ranges instead of executing (and paying a gate barrier
/// for) each one. Shard counts {1, 2, 4, 7} must
/// stay bit-identical to the serial event engine, with *exact*
/// router-tick equality: a fast-forwarded cycle ticks nothing, exactly
/// like the cycles the serial event engine skips.
#[test]
fn sharded_fast_forward_stays_bit_identical_across_barriers() {
    let cfg = small(RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    })
    .with_injection(0.01)
    .with_warmup(400)
    .with_sample(60)
    .with_max_cycles(200_000)
    .with_phase_timing(true);
    // The serial engines must agree first: the event engine's
    // fast-forward is the reference the sharded skip is measured
    // against.
    let (cycle, event) = run_both(cfg.clone());
    assert_equivalent("low-load serial", &cycle, &event);
    for shards in [1usize, 2, 4, 7] {
        let label = format!("low-load shards={shards}");
        let sharded = Network::new(
            cfg.clone()
                .with_engine(EngineKind::ParallelShards { shards }),
        )
        .run();
        assert_equivalent(&label, &event, &sharded);
        assert_eq!(
            event.work.router_ticks, sharded.work.router_ticks,
            "{label}: fast-forwarded cycles must tick nothing"
        );
        let phases = sharded.phases.expect("phase timing enabled");
        assert!(
            phases.fast_forwarded > 0,
            "{label}: a 1% load run must hit the quiescence \
             fast-forward at least once"
        );
        assert!(
            phases.barrier_waits + phases.fast_forwarded <= sharded.cycles,
            "{label}: executed cycles ({} waits) plus skipped cycles \
             ({}) cannot exceed simulated cycles ({})",
            phases.barrier_waits,
            phases.fast_forwarded,
            sharded.cycles
        );
        assert!(
            phases.barrier_waits < sharded.cycles,
            "{label}: the fused one-gate protocol plus fast-forward \
             must wait fewer times ({}) than it simulates cycles ({})",
            phases.barrier_waits,
            sharded.cycles
        );
    }
}

/// Nearest-neighbor traffic on contiguous shard ranges leaves interior
/// shards with (almost) no boundary traffic — the mailbox exchange runs
/// empty while routers stay busy. The engines must agree even when the
/// cross-shard staging path is cold and the vote path is hot.
#[test]
fn sharded_engine_matches_with_quiet_shard_boundaries() {
    let cfg = small(RouterKind::VirtualChannel {
        vcs: 2,
        buffers_per_vc: 4,
    })
    .with_injection(0.2)
    .with_pattern(TrafficPattern::NearestNeighbor);
    let event = Network::new(cfg.clone().with_engine(EngineKind::EventDriven)).run();
    for shards in [2, 4, 7] {
        let label = format!("nearest-neighbor shards={shards}");
        let sharded = run_sharded(cfg.clone(), shards);
        assert_equivalent(&label, &event, &sharded);
        assert_eq!(
            event.work.router_ticks, sharded.work.router_ticks,
            "{label}: sharded engine must tick exactly the active set"
        );
    }
}

/// A run whose sample completes long before `max_cycles` ends with a
/// drain: injection at the tail is pure quiescence bounded only by
/// wheel events. Both the serial event engine and the sharded engine
/// fast-forward across it and still stop on the same cycle with the
/// same measurements.
#[test]
fn engines_agree_across_a_long_drain_tail() {
    let cfg = small(RouterKind::Wormhole { buffers: 8 })
        .with_injection(0.02)
        .with_warmup(100)
        .with_sample(40)
        .with_max_cycles(150_000);
    let (cycle, event) = run_both(cfg.clone());
    assert_equivalent("drain tail serial", &cycle, &event);
    for shards in [2, 7] {
        let sharded = run_sharded(cfg.clone(), shards);
        assert_equivalent(&format!("drain tail shards={shards}"), &event, &sharded);
    }
}

/// Work-metered rebalancing is a pure partition optimization: a hotspot
/// run that migrates shards mid-flight must stay bit-identical to the
/// serial event engine — same measurements, same *exact* router-tick
/// count — for every shard count. On the skewed
/// patterns (an 8×8 mesh so even 7 shards have row-seam slack) the
/// imbalance must actually trigger migrations at the counts where the
/// hot rows provably overload one shard.
#[test]
fn rebalancing_stays_bit_identical_and_fires_under_skewed_load() {
    let spec = RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    };
    for (pname, pattern) in [
        // A far-corner hotspot takes half the traffic: saturating, with
        // the congestion tree concentrated in the top rows.
        (
            "hotspot",
            TrafficPattern::Hotspot {
                hotspot: 59,
                hotness: 0.5,
            },
        ),
        // A milder mixed load: 40% to the opposite corner, 60% uniform
        // background — skewed the other way, still above threshold.
        (
            "mixed",
            TrafficPattern::Hotspot {
                hotspot: 0,
                hotness: 0.4,
            },
        ),
    ] {
        let cfg = NetworkConfig::mesh(8, spec)
            .with_injection(0.1)
            .with_pattern(pattern)
            .with_warmup(200)
            .with_sample(200)
            .with_max_cycles(8_000)
            .with_rebalance(50, 1.1)
            .with_phase_timing(true);
        // Serial engines never rebalance — the knob is engine state, not
        // simulation state — and remain the reference.
        let (cycle, event) = run_both(cfg.clone());
        assert_equivalent(&format!("{pname} serial"), &cycle, &event);
        for shards in [2usize, 4, 7] {
            let label = format!("{pname} shards={shards} rebalancing");
            let sharded = Network::new(
                cfg.clone()
                    .with_engine(EngineKind::ParallelShards { shards }),
            )
            .run();
            assert_equivalent(&label, &event, &sharded);
            assert_eq!(
                event.work.router_ticks, sharded.work.router_ticks,
                "{label}: a migrated partition must tick exactly the active set"
            );
            let phases = sharded.phases.expect("phase timing enabled");
            assert!(
                phases.imbalance_epochs > 0,
                "{label}: epochs must be metered"
            );
            if shards <= 4 {
                // At 2 and 4 shards the hot rows land inside one
                // even-cut shard, so the imbalance provably crosses
                // the 1.1 threshold and must migrate; 7 shards may
                // or may not find a better seam-snapped cut.
                assert!(
                    phases.rebalances >= 1,
                    "{label}: skewed load must trigger at least one \
                     migration (imbalance {:.2})",
                    phases.work_imbalance()
                );
                assert!(
                    phases.migrated_nodes > 0,
                    "{label}: a migration moves at least one node"
                );
            }
        }
    }
}

/// The inline `step()` path runs the same metering, decisions, and
/// migrations as the threaded path (it never fast-forwards, so its
/// epoch clock can differ — but partition choice never affects
/// results). Totals must land exactly where the threaded run does, with
/// flit conservation holding across migration boundaries.
#[test]
fn rebalanced_inline_step_matches_threaded_run() {
    let cfg = small(RouterKind::VirtualChannel {
        vcs: 2,
        buffers_per_vc: 4,
    })
    .with_injection(0.1)
    .with_pattern(TrafficPattern::Hotspot {
        hotspot: 5,
        hotness: 0.6,
    })
    .with_rebalance(40, 1.05)
    .with_engine(EngineKind::ParallelShards { shards: 3 });
    let threaded = Network::new(cfg.clone()).run();
    let mut net = Network::new(cfg);
    while net.cycle() < threaded.cycles {
        net.step();
        if net.cycle().is_multiple_of(97) {
            net.assert_flit_conservation();
        }
    }
    net.assert_flit_conservation();
    assert!(net.sample_complete(), "same stopping point");
    assert_eq!(net.flits_ejected(), threaded.flits_ejected);
    assert_eq!(net.router_ticks(), threaded.work.router_ticks);
    assert!(
        net.rebalances() >= 1,
        "inline hotspot run must migrate at least once"
    );
}

/// Channel load is counted where it happens — by each router, at the
/// switch traversal every departure passes — so no schedule can change
/// it: the cycle-driven oracle, the event engine and every shard count
/// read the same table over the same window, with live migration and
/// fault clipping in the mix.
#[test]
fn channel_load_is_identical_across_engines_and_shards() {
    use peh_dally::noc_network::parse_faults;
    let base = small(RouterKind::VirtualChannel {
        vcs: 2,
        buffers_per_vc: 4,
    });
    let configs = [
        ("healthy", base.clone().with_injection(0.2)),
        (
            "hotspot",
            base.clone()
                .with_injection(0.1)
                .with_pattern(TrafficPattern::Hotspot {
                    hotspot: 5,
                    hotness: 0.6,
                })
                .with_rebalance(40, 1.05),
        ),
        (
            "faulted",
            base.with_injection(0.15).with_faults(
                parse_faults("link:5:0:dead@150; link:9:2:flaky@40/10").expect("fault spec"),
            ),
        ),
    ];
    for (label, cfg) in configs {
        let stepped = |engine: EngineKind| {
            let mut net = Network::new(cfg.clone().with_engine(engine));
            for _ in 0..1_500 {
                net.step();
            }
            net
        };
        let oracle = stepped(EngineKind::CycleDriven);
        let load = oracle.channel_load();
        assert_eq!(load.cycles(), oracle.cycle(), "{label}: window");
        if label == "healthy" {
            // Every flit that leaves through a sink port is ejected.
            let mesh = oracle.config().mesh;
            let sunk: u64 = (0..mesh.nodes())
                .map(|node| load.count(node, mesh.local_port()))
                .sum();
            assert_eq!(sunk, oracle.flits_ejected(), "{label}: sink ports");
        }
        for engine in [
            EngineKind::EventDriven,
            EngineKind::parallel(1),
            EngineKind::parallel(2),
            EngineKind::parallel(3),
            EngineKind::parallel(4),
            EngineKind::parallel(7),
        ] {
            let net = stepped(engine);
            assert_eq!(net.channel_load(), load, "{label} {engine}");
            assert_eq!(net.cycle(), oracle.cycle(), "{label} {engine}");
            if label == "hotspot" && engine == EngineKind::parallel(3) {
                assert!(net.rebalances() >= 1, "{label}: must migrate");
            }
        }
    }
}

/// The faulted grid: every fault kind (permanent link kill, router
/// kill, flaky duty-cycle, lossy, and a mixed plan) × both topologies ×
/// shard counts {1, 2, 4}. Fault decisions are
/// pure functions of (config, seed, cycle), so dropped-flit counts,
/// drop-reason breakdowns, and delivered ratios must stay bit-identical
/// across all three engines — the same contract the healthy network
/// gets.
#[test]
fn engines_agree_under_faults() {
    use peh_dally::noc_network::parse_faults;
    let spec = RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    };
    for (fname, faults) in [
        ("dead-link", "link:5:0:dead@150"),
        ("dead-router", "router:5:dead@150"),
        ("flaky", "link:5:0:flaky@40/10"),
        ("lossy", "link:5:0:loss@0.2"),
        (
            "mixed",
            "link:5:0:flaky@40/10; router:10:dead@180; link:9:2:loss@0.1",
        ),
    ] {
        for torus in [false, true] {
            let mut cfg = small(spec)
                .with_injection(0.15)
                .with_faults(parse_faults(faults).expect("grid fault spec"));
            if torus {
                cfg = cfg.into_torus();
            }
            let label = format!("faults={fname} torus={torus}");
            let (cycle, event) = run_both(cfg.clone());
            assert_equivalent(&label, &cycle, &event);
            assert!(
                cycle.dropped_flits > 0,
                "{label}: a faulted run must actually drop something"
            );
            assert!(
                cycle.delivered_ratio < 1.0,
                "{label}: delivered ratio must reflect the drops"
            );
            if fname.starts_with("dead") {
                assert!(
                    cycle.unreachable_pairs > 0,
                    "{label}: a kill must disconnect some pairs"
                );
            }
            for shards in [1usize, 2, 4] {
                let slabel = format!("{label} shards={shards}");
                let sharded = Network::new(
                    cfg.clone()
                        .with_engine(EngineKind::ParallelShards { shards }),
                )
                .run();
                assert_equivalent(&slabel, &event, &sharded);
            }
        }
    }
}

/// Faults and live rebalancing compose: a skewed faulted run that
/// migrates shards mid-flight keeps the same books as the serial
/// reference — the node-indexed clip and drop state is partition-
/// independent by construction.
#[test]
fn faulted_rebalancing_run_stays_bit_identical() {
    use peh_dally::noc_network::parse_faults;
    let spec = RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    };
    let cfg = NetworkConfig::mesh(8, spec)
        .with_injection(0.1)
        .with_pattern(TrafficPattern::Hotspot {
            hotspot: 59,
            hotness: 0.5,
        })
        .with_warmup(200)
        .with_sample(200)
        .with_max_cycles(8_000)
        .with_rebalance(50, 1.1)
        .with_phase_timing(true)
        .with_faults(parse_faults("link:27:0:flaky@64/16, router:36:dead@400").unwrap());
    let (cycle, event) = run_both(cfg.clone());
    assert_equivalent("faulted rebalance serial", &cycle, &event);
    for shards in [2usize, 4] {
        let label = format!("faulted rebalance shards={shards}");
        let sharded = Network::new(
            cfg.clone()
                .with_engine(EngineKind::ParallelShards { shards }),
        )
        .run();
        assert_equivalent(&label, &event, &sharded);
        let phases = sharded.phases.expect("phase timing enabled");
        assert!(phases.imbalance_epochs > 0, "{label}: epochs metered");
    }
}

/// An empty fault plan — and a plan whose only fault fires after the
/// run can possibly end — must reproduce the healthy network bit for
/// bit: the fault layer's hooks are all behind the compiled plan, and
/// a pre-kill epoch filters no candidates.
#[test]
fn inert_fault_plans_reproduce_healthy_runs_bit_for_bit() {
    use peh_dally::noc_network::parse_faults;
    let base = small(RouterKind::SpeculativeVc {
        vcs: 2,
        buffers_per_vc: 4,
    })
    .with_injection(0.2);
    let healthy = Network::new(base.clone().with_engine(EngineKind::CycleDriven)).run();
    for (label, faults) in [
        ("empty plan", vec![]),
        (
            "never-firing kill",
            parse_faults("link:5:0:dead@9999999").unwrap(),
        ),
    ] {
        let cfg = base.clone().with_faults(faults);
        let (cycle, event) = run_both(cfg);
        assert_equivalent(&format!("{label} cycle"), &healthy, &cycle);
        assert_equivalent(&format!("{label} event"), &healthy, &event);
        assert_eq!(cycle.dropped_flits, 0, "{label}: nothing to drop");
        assert_eq!(cycle.unreachable_pairs, 0, "{label}: nothing cut off");
    }
}

fn kind_strategy() -> impl Strategy<Value = RouterKind> {
    prop_oneof![
        (2usize..10).prop_map(|b| RouterKind::Wormhole { buffers: b }),
        (5usize..10).prop_map(|b| RouterKind::VirtualCutThrough { buffers: b }),
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

fn pattern_strategy() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::Uniform),
        Just(TrafficPattern::Transpose),
        Just(TrafficPattern::BitComplement),
        Just(TrafficPattern::Tornado),
        Just(TrafficPattern::NearestNeighbor),
        (0usize..16, 0.0f64..0.8)
            .prop_map(|(hotspot, hotness)| TrafficPattern::Hotspot { hotspot, hotness }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random configurations: router kind × topology × pattern ×
    /// injection rate × packet length × seed. The engines must stay in
    /// lockstep everywhere, not just on the curated grid.
    #[test]
    fn engines_agree_on_random_configs(
        kind in kind_strategy(),
        pattern in pattern_strategy(),
        torus in any::<bool>(),
        load_pct in 3u32..45,
        packet_len in 1u32..7,
        seed in any::<u64>(),
    ) {
        let mut cfg = small(kind)
            .with_injection(f64::from(load_pct) / 100.0)
            .with_pattern(pattern)
            .with_seed(seed);
        cfg.packet_len = packet_len;
        if torus && kind.vcs() >= 2 {
            cfg = cfg.into_torus();
        }
        let label = format!("{:?}", cfg);
        let (cycle, event) = run_both(cfg);
        assert_equivalent(&label, &cycle, &event);
    }

    /// Random shard counts (including > nodes, which clamps) against the
    /// serial event engine: `RunResult`s stay bit-identical everywhere.
    #[test]
    fn sharded_engine_agrees_on_random_configs(
        kind in kind_strategy(),
        pattern in pattern_strategy(),
        shards in 1usize..10,
        load_pct in 3u32..45,
        seed in any::<u64>(),
    ) {
        let cfg = small(kind)
            .with_injection(f64::from(load_pct) / 100.0)
            .with_pattern(pattern)
            .with_seed(seed);
        let label = format!("shards={shards} {:?}", cfg);
        let event = Network::new(cfg.clone().with_engine(EngineKind::EventDriven)).run();
        let sharded = run_sharded(cfg, shards);
        assert_equivalent(&label, &event, &sharded);
    }
}
