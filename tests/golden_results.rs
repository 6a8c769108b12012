//! Cross-commit golden results: exact measurements of small reference
//! points, pinned as literal values.
//!
//! The equivalence suites compare engines against each other, but every
//! engine ticks the same router, so a change to an arbitration policy or
//! to the router pipeline would move all of them in lockstep and pass.
//! This suite compares against *recorded* values instead: the latency
//! mean and accepted throughput down to their floating-point bits, the
//! cycle count, saturation, dropped flits, and the network-wide
//! [`RouterStats`] (every VA, SA and speculative grant). One point per
//! router kind and per feature that reaches the router's arbiters:
//! wormhole and cut-through holds, VC and speculative allocation at two
//! VC counts, single-cycle timing, torus dateline VC masks, adaptive
//! routing under a fault plan, and a 3-D mesh's 7-port routers.
//!
//! A failure prints every point's measured row in the table's own
//! syntax. Replace the table only for a change that is *meant* to alter
//! simulated behavior, and say so in the change description.

use peh_dally::noc_network::config::RoutingAlgo;
use peh_dally::noc_network::{parse_faults, Mesh, Network, NetworkConfig, RouterKind, RunResult};
use peh_dally::router_core::RouterStats;

/// One pinned point: the measured values of a [`RunResult`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    avg_latency_bits: Option<u64>,
    accepted_bits: u64,
    cycles: u64,
    saturated: bool,
    dropped_flits: u64,
    stats: RouterStats,
}

impl Golden {
    fn of(r: &RunResult) -> Self {
        Golden {
            avg_latency_bits: r.avg_latency.map(f64::to_bits),
            accepted_bits: r.accepted.to_bits(),
            cycles: r.cycles,
            saturated: r.saturated,
            dropped_flits: r.dropped_flits,
            stats: r.router_stats,
        }
    }

    /// The row as it is written in [`expected`].
    fn row(&self, label: &str) -> String {
        let s = self.stats;
        format!(
            "        ({label:?}, g({}, 0x{:016x}, {}, {}, {}, [{}, {}, {}, {}, {}, {}, {}])),",
            self.avg_latency_bits
                .map_or("None".to_string(), |b| format!("Some(0x{b:016x})")),
            self.accepted_bits,
            self.cycles,
            self.saturated,
            self.dropped_flits,
            s.flits_switched,
            s.va_grants,
            s.sa_grants,
            s.spec_requests,
            s.spec_hits,
            s.spec_wasted,
            s.credits_sent,
        )
    }
}

const VC: RouterKind = RouterKind::VirtualChannel {
    vcs: 2,
    buffers_per_vc: 4,
};
const SPEC: RouterKind = RouterKind::SpeculativeVc {
    vcs: 2,
    buffers_per_vc: 4,
};

fn small(mesh: Mesh, kind: RouterKind, load: f64) -> NetworkConfig {
    NetworkConfig::for_mesh(mesh, kind)
        .with_injection(load)
        .with_warmup(200)
        .with_sample(300)
        .with_max_cycles(12_000)
}

/// The pinned points, in table order.
fn points() -> Vec<(&'static str, NetworkConfig)> {
    let m4 = Mesh::new(4, 2);
    vec![
        (
            "wh 4x4",
            small(m4, RouterKind::Wormhole { buffers: 8 }, 0.4),
        ),
        (
            "vct 4x4",
            small(m4, RouterKind::VirtualCutThrough { buffers: 8 }, 0.4),
        ),
        ("vc 2x4 4x4", small(m4, VC, 0.4)),
        ("vc 2x4 4x4 overload", small(m4, VC, 1.2)),
        ("specvc 2x4 4x4", small(m4, SPEC, 0.4)),
        ("specvc 2x4 4x4 overload", small(m4, SPEC, 1.2)),
        (
            "specvc 2x4 4x4 cycle-capped",
            small(m4, SPEC, 1.2).with_max_cycles(600),
        ),
        (
            "specvc 4x4 4x4",
            small(
                m4,
                RouterKind::SpeculativeVc {
                    vcs: 4,
                    buffers_per_vc: 4,
                },
                0.5,
            ),
        ),
        (
            "specvc 2x4 4x4 single-cycle",
            small(m4, SPEC, 0.4).with_single_cycle(true),
        ),
        ("vc 2x4 4x4 torus", small(m4, VC, 0.4).into_torus()),
        (
            "specvc 2x4 4x4 negative-first faulted",
            small(m4, SPEC, 0.3)
                .with_routing(RoutingAlgo::NegativeFirstAdaptive)
                .with_faults(
                    parse_faults("link:5:0:flaky@40/10; router:10:dead@300; link:9:2:loss@0.1")
                        .expect("golden fault plan"),
                ),
        ),
        ("specvc 2x4 3-ary 3-cube", small(Mesh::new(3, 3), SPEC, 0.4)),
    ]
}

/// A table row: `stats` lists the [`RouterStats`] fields in declaration
/// order (flits switched, VA grants, SA grants, speculative requests,
/// hits and wasted grants, credits sent).
fn g(
    avg_latency_bits: Option<u64>,
    accepted_bits: u64,
    cycles: u64,
    saturated: bool,
    dropped_flits: u64,
    stats: [u64; 7],
) -> Golden {
    Golden {
        avg_latency_bits,
        accepted_bits,
        cycles,
        saturated,
        dropped_flits,
        stats: RouterStats {
            flits_switched: stats[0],
            va_grants: stats[1],
            sa_grants: stats[2],
            spec_requests: stats[3],
            spec_hits: stats[4],
            spec_wasted: stats[5],
            credits_sent: stats[6],
        },
    }
}

/// Values recorded before the router and arbiters moved to bitmasks.
#[rustfmt::skip]
fn expected() -> Vec<(&'static str, Golden)> {
    vec![
        ("wh 4x4", g(Some(0x4036bf258bf258bd), 0x3fd9922719227192, 477, false, 0, [10632, 0, 2140, 0, 0, 0, 10632])),
        ("vct 4x4", g(Some(0x404f5a06d3a06d38), 0x3fd75eb851eb851f, 602, false, 0, [12301, 0, 2474, 0, 0, 0, 12301])),
        ("vc 2x4 4x4", g(Some(0x403d562fc962fc97), 0x3fd9caaaaaaaaaab, 490, false, 0, [10898, 2204, 10918, 0, 0, 0, 10898])),
        ("vc 2x4 4x4 overload", g(Some(0x407540b17e4b17e2), 0x3fdf9dc47711dc47, 888, false, 0, [25838, 5209, 25878, 0, 0, 0, 25838])),
        ("specvc 2x4 4x4", g(Some(0x4037d55555555556), 0x3fd9aef6ca970586, 480, false, 0, [10752, 2168, 9057, 2467, 1715, 65, 10752])),
        ("specvc 2x4 4x4 overload", g(Some(0x40725df92c5f92c7), 0x3fe1ae26501bdd2c, 788, false, 0, [25446, 5127, 22997, 11303, 2480, 2391, 25446])),
        ("specvc 2x4 4x4 cycle-capped", g(Some(0x407155d1745d1747), 0x3fe1bd70a3d70a3d, 600, true, 0, [19493, 3943, 17617, 8515, 1912, 1723, 19493])),
        ("specvc 4x4 4x4", g(Some(0x403bd0369d0369cd), 0x3fdf8dbbe13c6ddf, 434, false, 0, [12097, 2448, 10480, 2228, 1646, 27, 12097])),
        ("specvc 2x4 4x4 single-cycle", g(Some(0x402cc962fc962fc9), 0x3fd93856fb0ed385, 461, false, 0, [10436, 2102, 8782, 2216, 1654, 12, 10436])),
        ("vc 2x4 4x4 torus", g(Some(0x407c8ce81b4e81b5), 0x3fc3ec2fbb8d9f2f, 1338, false, 0, [20867, 4194, 20880, 0, 0, 0, 20867])),
        ("specvc 2x4 4x4 negative-first faulted", g(Some(0x403734444444443e), 0x3fcf3c5ec219fb6a, 538, false, 362, [8095, 1627, 6752, 1719, 1350, 19, 8095])),
        ("specvc 2x4 3-ary 3-cube", g(Some(0x403cf17e4b17e4ae), 0x3fda679123bce679, 356, false, 0, [18410, 3736, 15887, 5025, 2579, 384, 18410])),
    ]
}

#[test]
fn small_points_match_recorded_values() {
    let measured: Vec<(&str, Golden)> = points()
        .into_iter()
        .map(|(label, cfg)| (label, Golden::of(&Network::new(cfg).run())))
        .collect();
    let table: String = measured
        .iter()
        .map(|(label, m)| m.row(label) + "\n")
        .collect();
    let expected = expected();
    assert_eq!(
        measured.len(),
        expected.len(),
        "the table must pin every point; measured rows:\n{table}"
    );
    for ((label, m), (want_label, want)) in measured.iter().zip(&expected) {
        assert_eq!(label, want_label, "table order; measured rows:\n{table}");
        assert_eq!(m, want, "{label} drifted; measured rows:\n{table}");
    }
}
