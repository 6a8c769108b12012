//! The fault-routing overlay against a walk that needs no visiting
//! order, in every kill epoch.
//!
//! `FaultModel` builds its reachability bits with a DP that must visit
//! each destination's sources nearest first: a source reads only the
//! bits of strictly closer neighbors, so a node visited too early reads
//! an unset bit and is wrongly called unreachable. The reference here
//! is a memoized depth-first walk over the same candidate sets, which
//! computes a neighbor's answer whenever it is first needed and so
//! depends on no order at all. Its dead links come from the generated
//! fault specs themselves, not from the model, and its pair counts
//! check `unreachable_pairs` at both ends of every epoch.

use noc_network::config::RoutingAlgo;
use noc_network::routing::MAX_CANDIDATES;
use noc_network::{parse_faults, FaultModel, Mesh, NetworkConfig, RouteTable, RouterKind};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Every shape and algorithm the overlay serves: 2-D meshes under the
/// three algorithms, 2-D tori under DOR (their wraparound moves are
/// where a mesh-distance order goes wrong), and 3-D meshes and tori.
fn shapes() -> Vec<(Mesh, RoutingAlgo)> {
    let dor = RoutingAlgo::DimensionOrdered;
    let mut out = Vec::new();
    for radix in 3..=5 {
        for algo in [
            dor,
            RoutingAlgo::WestFirstAdaptive,
            RoutingAlgo::NegativeFirstAdaptive,
        ] {
            out.push((Mesh::new(radix, 2), algo));
        }
    }
    for radix in 3..=6 {
        out.push((Mesh::new(radix, 2).into_torus(), dor));
    }
    out.push((Mesh::new(3, 3), dor));
    out.push((Mesh::new(3, 3), RoutingAlgo::NegativeFirstAdaptive));
    for radix in 3..=4 {
        out.push((Mesh::new(radix, 3).into_torus(), dor));
    }
    out
}

/// Maps the raw picks onto `mesh`: each pick is a router kill or a kill
/// of one wired link (the ejection link included) at one of `cycles`.
/// Returns the spec list and the kill cycle of every directed link it
/// kills, merged to the earliest — a router kill covers every incident
/// link in both directions and the router's ejection link.
fn plan(
    mesh: Mesh,
    picks: &[(bool, usize, usize, usize)],
    cycles: &[u64],
) -> (Vec<String>, BTreeMap<(usize, usize), u64>) {
    let local = mesh.local_port();
    let mut specs = Vec::new();
    let mut dead = BTreeMap::new();
    let mut kill = |node: usize, port: usize, at: u64| {
        let c = dead.entry((node, port)).or_insert(at);
        *c = (*c).min(at);
    };
    for &(router, node, port, cycle) in picks {
        let node = node % mesh.nodes();
        let at = cycles[cycle % cycles.len()];
        if router {
            specs.push(format!("router:{node}:dead@{at}"));
            for p in 0..local {
                if let Some(nb) = mesh.neighbor(node, p) {
                    kill(node, p, at);
                    kill(nb, mesh.opposite(p), at);
                }
            }
            kill(node, local, at);
        } else {
            let wired: Vec<usize> = (0..=local)
                .filter(|&p| p == local || mesh.neighbor(node, p).is_some())
                .collect();
            let port = wired[port % wired.len()];
            specs.push(format!("link:{node}:{port}:dead@{at}"));
            kill(node, port, at);
        }
    }
    (specs, dead)
}

/// Whether `s` reaches `d` through live candidate moves, with `d`'s
/// ejection link alive: a memoized depth-first walk (`memo[s]` is
/// `None` until `s` is first asked, so no visiting order is assumed).
fn walk(
    table: &RouteTable,
    mesh: Mesh,
    is_dead: &dyn Fn(usize, usize) -> bool,
    memo: &mut [Option<bool>],
    s: usize,
    d: usize,
) -> bool {
    if let Some(known) = memo[s] {
        return known;
    }
    let ok = if s == d {
        !is_dead(d, mesh.local_port())
    } else {
        let mut cand = [0u8; MAX_CANDIDATES];
        let m = table.candidates_into(s, d, &mut cand);
        cand[..m].iter().any(|&pc| {
            let p = pc as usize;
            !is_dead(s, p)
                && mesh
                    .neighbor(s, p)
                    .is_some_and(|nb| walk(table, mesh, is_dead, memo, nb, d))
        })
    };
    memo[s] = Some(ok);
    ok
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every shape, epoch and ordered pair, `reachable` equals the
    /// walk with the links dead by the epoch's first cycle masked out;
    /// epoch 0 (before any kill) is fully reachable, and
    /// `unreachable_pairs` equals the walk's count at the first and the
    /// last cycle of each epoch.
    #[test]
    fn overlay_matches_an_order_free_walk_in_every_epoch(
        picks in proptest::collection::vec(
            (any::<bool>(), 0usize..64, 0usize..8, 0usize..3),
            1..5,
        ),
        cycles in proptest::collection::vec(1u64..5000, 1..4),
    ) {
        for (mesh, algo) in shapes() {
            let (specs, dead) = plan(mesh, &picks, &cycles);
            let vcs = 2;
            let cfg = NetworkConfig::for_mesh(
                mesh,
                RouterKind::VirtualChannel { vcs, buffers_per_vc: 4 },
            )
            .with_routing(algo)
            .with_faults(parse_faults(&specs.join(",")).expect("generated specs parse"));
            cfg.validate().expect("generated fault plan validates");
            let table = RouteTable::new(&mesh, algo, vcs);
            let fm = FaultModel::new(&cfg, &table).expect("non-empty plan compiles");

            let mut kills: Vec<u64> = dead.values().copied().collect();
            kills.sort_unstable();
            kills.dedup();
            prop_assert_eq!(fm.epochs(), kills.len() + 1, "{} {:?} {:?}", mesh, algo, specs);
            let nodes = mesh.nodes();
            for e in 0..fm.epochs() {
                let first = if e == 0 { 0 } else { kills[e - 1] };
                let last = kills.get(e).map_or(u64::MAX, |&next| next - 1);
                prop_assert_eq!(fm.epoch_at(first), e);
                prop_assert_eq!(fm.epoch_at(last), e);
                let is_dead = |node: usize, port: usize| {
                    dead.get(&(node, port)).is_some_and(|&at| at <= first)
                };
                let mut unreachable = 0u64;
                for d in 0..nodes {
                    let mut memo = vec![None; nodes];
                    for s in 0..nodes {
                        let expect = walk(&table, mesh, &is_dead, &mut memo, s, d);
                        prop_assert_eq!(
                            fm.reachable(e, s, d), expect,
                            "{} {:?} {:?}: epoch {} pair {}->{}", mesh, algo, specs, e, s, d
                        );
                        if e == 0 {
                            prop_assert!(expect, "epoch 0 must be healthy: {}->{}", s, d);
                        }
                        if s != d && !expect {
                            unreachable += 1;
                        }
                    }
                }
                prop_assert_eq!(
                    fm.unreachable_pairs(first), unreachable,
                    "{} {:?} {:?}: epoch {} from cycle {}", mesh, algo, specs, e, first
                );
                prop_assert_eq!(fm.unreachable_pairs(last), unreachable);
            }
        }
    }
}
